(* Tests for the incremental, compositional linearizability engine
   (Wfc_linearize.Engine): standalone frontier checking against the classic
   bitmask DFS, per-object decomposition past the 62-op limit, and the fused
   Explore tracker against the per-leaf oracle — clean and under fault
   adversaries. *)

open Wfc_spec
open Wfc_zoo
open Wfc_program
module Engine = Wfc_linearize.Engine
module Explore = Wfc_sim.Explore
module Faults = Wfc_sim.Faults

let mk_op ?(proc = 0) ?(op_index = 0) ~inv ~resp ~s ~e () : Wfc_sim.Exec.op =
  {
    proc;
    op_index;
    inv;
    resp;
    start_step = s;
    end_step = e;
    steps = e - s + 1;
  }

let bit = Register.bit ~ports:4

let is_lin verdict =
  match verdict with
  | Engine.Linearizable _ -> true
  | Engine.Not_linearizable _ -> false

(* Every standalone-history test runs BOTH checkers — the classic bitmask
   DFS ([check], via per-object decomposition) and the frontier algorithm
   ([check_history]) — and demands the same verdict. *)
let both_reject name ~spec ops =
  Alcotest.(check bool)
    (name ^ ": classic check rejects")
    false
    (is_lin (Engine.check ~spec ops));
  Alcotest.(check bool)
    (name ^ ": frontier check rejects")
    false
    (is_lin (Engine.check_history ~spec ops))

let both_accept name ~spec ops =
  Alcotest.(check bool)
    (name ^ ": classic check accepts")
    true
    (is_lin (Engine.check ~spec ops));
  Alcotest.(check bool)
    (name ^ ": frontier check accepts")
    true
    (is_lin (Engine.check_history ~spec ops))

(* --- canonical anomalies, rejected by both checkers ------------------------- *)

let test_stale_read () =
  both_reject "stale read" ~spec:bit
    [
      mk_op ~proc:0 ~inv:(Ops.write Value.truth) ~resp:Ops.ok ~s:0 ~e:0 ();
      mk_op ~proc:1 ~inv:Ops.read ~resp:Value.falsity ~s:1 ~e:1 ();
    ]

let test_lost_update () =
  (* two non-overlapping fetch-and-adds both observing 0: the second update
     is lost *)
  let faa = Rmw.fetch_add_mod ~ports:2 ~modulus:5 in
  both_reject "lost update" ~spec:faa
    [
      mk_op ~proc:0 ~inv:(Ops.fetch_add 1) ~resp:(Value.int 0) ~s:0 ~e:0 ();
      mk_op ~proc:1 ~inv:(Ops.fetch_add 1) ~resp:(Value.int 0) ~s:1 ~e:1 ();
    ];
  (* sanity: the correct interleaving is accepted *)
  both_accept "serial faa" ~spec:faa
    [
      mk_op ~proc:0 ~inv:(Ops.fetch_add 1) ~resp:(Value.int 0) ~s:0 ~e:0 ();
      mk_op ~proc:1 ~inv:(Ops.fetch_add 1) ~resp:(Value.int 1) ~s:1 ~e:1 ();
    ]

let test_out_of_thin_air () =
  (* nothing was ever written, yet the read observes [truth] *)
  both_reject "out of thin air" ~spec:bit
    [ mk_op ~proc:1 ~inv:Ops.read ~resp:Value.truth ~s:0 ~e:0 () ]

let test_overlap_both_orders () =
  let write =
    mk_op ~proc:0 ~inv:(Ops.write Value.truth) ~resp:Ops.ok ~s:1 ~e:3 ()
  in
  List.iter
    (fun v ->
      both_accept
        (Fmt.str "overlapping read %a" Value.pp v)
        ~spec:bit
        [ write; mk_op ~proc:1 ~inv:Ops.read ~resp:v ~s:0 ~e:2 () ])
    [ Value.falsity; Value.truth ]

let test_frontier_witness_order () =
  let w =
    mk_op ~proc:0 ~inv:(Ops.write Value.truth) ~resp:Ops.ok ~s:0 ~e:4 ()
  in
  let r = mk_op ~proc:1 ~inv:Ops.read ~resp:Value.truth ~s:1 ~e:2 () in
  match Engine.check_history ~spec:bit [ w; r ] with
  | Engine.Linearizable [ o1; o2 ] ->
    Alcotest.(check int) "write first" 0 o1.Wfc_sim.Exec.proc;
    Alcotest.(check int) "read second" 1 o2.Wfc_sim.Exec.proc
  | _ -> Alcotest.fail "expected a 2-op witness"

(* --- beyond 62 operations --------------------------------------------------- *)

(* [n] sequential write-truth/read-truth rounds on object [obj], starting at
   step [base]; trivially linearizable per object. *)
let rounds ~obj ~proc ~base n =
  List.concat
    (List.init n (fun i ->
         let s = base + (4 * i) in
         let addr inner = if obj < 0 then inner else Ops.at obj inner in
         [
           mk_op ~proc ~op_index:(2 * i)
             ~inv:(addr (Ops.write Value.truth))
             ~resp:Ops.ok ~s ~e:s ();
           mk_op ~proc
             ~op_index:((2 * i) + 1)
             ~inv:(addr Ops.read) ~resp:Value.truth ~s:(s + 1) ~e:(s + 1) ();
         ]))

let test_long_multi_object_history () =
  (* 80 ops across two objects: over the old global 62-op hard limit, but 40
     per object — the compositional check now passes it *)
  let ops = rounds ~obj:0 ~proc:0 ~base:0 20 @ rounds ~obj:1 ~proc:1 ~base:0 20 in
  Alcotest.(check int) "80 ops" 80 (List.length ops);
  match Engine.check ~spec:bit ops with
  | Engine.Linearizable w ->
    Alcotest.(check int) "witness covers every op" 80 (List.length w)
  | Engine.Not_linearizable d -> Alcotest.failf "rejected: %s" d

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_long_single_object_overflows () =
  (* 70 ops all addressed to ONE object: decomposition cannot help, and the
     bitmask DFS must refuse, naming the object... *)
  let ops = rounds ~obj:0 ~proc:0 ~base:0 35 in
  (match Engine.check ~spec:bit ops with
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      "error names the object" true
      (contains_substring ~sub:"object 0" msg)
  | _ -> Alcotest.fail "expected Invalid_argument past 62 ops");
  (* ...while the frontier algorithm has no operation-count limit *)
  Alcotest.(check bool)
    "frontier check handles 70 ops" true
    (is_lin (Engine.check_history ~spec:bit ops))

(* --- frontier vs classic on randomized tiny histories ----------------------- *)

let gen_tiny_history =
  let open QCheck.Gen in
  let* n = int_range 1 5 in
  let op i =
    let* proc = int_range 0 1 in
    let* is_write = bool in
    let* v = bool in
    let* start = int_range 0 8 in
    let* len = int_range 0 4 in
    let+ resp_v = bool in
    {
      Wfc_sim.Exec.proc;
      op_index = i;
      inv = (if is_write then Ops.write (Value.bool v) else Ops.read);
      resp = (if is_write then Ops.ok else Value.bool resp_v);
      start_step = start;
      end_step = start + len;
      steps = 1;
    }
  in
  let rec ops i =
    if i = n then return []
    else
      let* o = op i in
      let+ rest = ops (i + 1) in
      o :: rest
  in
  ops 0

let sequentialize_by_proc ops =
  let by_proc p =
    List.filter (fun (o : Wfc_sim.Exec.op) -> o.proc = p) ops
  in
  let space ops =
    List.mapi
      (fun i (o : Wfc_sim.Exec.op) ->
        {
          o with
          Wfc_sim.Exec.op_index = i;
          start_step = o.start_step + (20 * i);
          end_step = o.end_step + (20 * i);
        })
      ops
  in
  space (by_proc 0) @ space (by_proc 1)

let prop_frontier_matches_classic =
  QCheck.Test.make ~count:500 ~name:"check_history agrees with check"
    (QCheck.make gen_tiny_history)
    (fun ops ->
      let ops = sequentialize_by_proc ops in
      let spec = Register.bit ~ports:2 in
      is_lin (Engine.check_history ~spec ops) = is_lin (Engine.check ~spec ops))

(* --- fused verification: incremental vs per-leaf oracle --------------------- *)

(* the implementations under differential test: a correct one, a torn-write
   one (atomicity violation), and a regular-but-not-atomic one *)
let bit_from_two_bits ~procs =
  let b = Register.bit ~ports:procs in
  Implementation.make ~target:b ~procs
    ~objects:[ (b, Value.falsity); (b, Value.falsity) ]
    ~program:(fun ~proc:_ ~inv local ->
      let open Program.Syntax in
      match inv with
      | Value.Sym "read" ->
        let+ v = Program.invoke ~obj:1 Ops.read in
        (v, local)
      | Value.Pair (Value.Sym "write", v) ->
        let* _ = Program.invoke ~obj:0 (Ops.write v) in
        let+ _ = Program.invoke ~obj:1 (Ops.write v) in
        (Ops.ok, local)
      | _ -> assert false)
    ()

let torn_write_reg ~procs =
  let reg = Register.bounded ~ports:procs ~values:3 in
  Implementation.make ~target:reg ~procs
    ~objects:[ (reg, Value.int 0) ]
    ~program:(fun ~proc:_ ~inv local ->
      let open Program.Syntax in
      match inv with
      | Value.Sym "read" ->
        let+ v = Program.invoke ~obj:0 Ops.read in
        (v, local)
      | Value.Pair (Value.Sym "write", Value.Int v) ->
        let* _ = Program.invoke ~obj:0 (Ops.write (Value.int ((v + 1) mod 3))) in
        let+ _ = Program.invoke ~obj:0 (Ops.write (Value.int v)) in
        (Ops.ok, local)
      | _ -> assert false)
    ()

let regular_identity ~procs =
  let base = Weak_register.regular_bit ~ports:procs in
  Implementation.make ~target:(Register.bit ~ports:procs) ~procs
    ~objects:[ (base, Weak_register.initial Value.falsity) ]
    ~program:(fun ~proc:_ ~inv local ->
      let open Program.Syntax in
      match inv with
      | Value.Sym "read" ->
        let+ v = Program.invoke ~obj:0 Ops.read in
        (v, local)
      | Value.Pair (Value.Sym "write", v) ->
        let* _ = Program.invoke ~obj:0 (Ops.write_start v) in
        let+ _ = Program.invoke ~obj:0 Ops.write_end in
        (Ops.ok, local)
      | _ -> assert false)
    ()

let verify_modes = [ Engine.Per_leaf; Engine.Incremental { compositional = false };
                     Engine.Incremental { compositional = true } ]

let verdicts ?component impl ~workloads ~faults =
  List.map
    (fun mode -> Engine.verify impl ~workloads ~faults ~mode ?component ())
    verify_modes

(* The fixed "all modes" inputs also guard the engine's figure of merit:
   whenever the per-leaf oracle accepts, neither incremental mode may
   enumerate more spec transitions than it does. *)
let all_modes ?component impl ~workloads ~faults =
  let results = verdicts ?component impl ~workloads ~faults in
  (match results with
  | Ok oracle :: incremental ->
    List.iter
      (function
        | Ok s ->
          if s.Engine.transitions > oracle.Engine.transitions then
            Alcotest.failf "incremental enumerated %d transitions > per-leaf's %d"
              s.Engine.transitions oracle.Engine.transitions
        | Error _ -> ())
      incremental
  | _ -> ());
  results

let oks results = List.map Result.is_ok results

let all_equal = function
  | [] -> true
  | v :: vs -> List.for_all (Bool.equal v) vs

let test_good_impl_all_modes () =
  List.iter
    (fun (impl, workloads) ->
      Alcotest.(check (list bool)) "every mode accepts" [ true; true; true ]
        (oks (all_modes impl ~workloads ~faults:Faults.none)))
    [
      ( bit_from_two_bits ~procs:2,
        [|
          [ Ops.write Value.truth; Ops.read ];
          [ Ops.read; Ops.write Value.falsity ];
        |] );
      ( Wfc_consensus.Universal.construct
          ~target:(Rmw.fetch_add_mod ~ports:2 ~modulus:5)
          ~procs:2 ~cells:8 (),
        [| [ Ops.fetch_add 1 ]; [ Ops.fetch_add 2 ] |] );
    ]

let test_torn_write_all_modes () =
  let results =
    all_modes (torn_write_reg ~procs:2)
      ~workloads:[| [ Ops.write (Value.int 1) ]; [ Ops.read ] |]
      ~faults:Faults.none
  in
  Alcotest.(check (list bool)) "every mode rejects" [ false; false; false ]
    (oks results)

let test_crash_adversary_all_modes () =
  (* a crash mid-write leaves the two base bits inconsistent, but the write
     never completes so the history stays linearizable: all modes agree Ok *)
  let results =
    all_modes (bit_from_two_bits ~procs:2)
      ~workloads:
        [|
          [ Ops.write Value.truth; Ops.read ];
          [ Ops.read; Ops.write Value.falsity ];
        |]
      ~faults:(Faults.crashes 1)
  in
  Alcotest.(check (list bool)) "parity under crashes" [ true; true; true ]
    (oks results)

let test_two_registers_compositional () =
  let reg = Register.bit ~ports:2 in
  let impl =
    Implementation.make ~target:(Engine.indexed 2 reg) ~procs:2
      ~objects:[ (reg, Value.falsity); (reg, Value.falsity) ]
      ~program:(fun ~proc:_ ~inv local ->
        let open Program.Syntax in
        let i, inner = Ops.at_target inv in
        let+ v = Program.invoke ~obj:i inner in
        (v, local))
      ()
  in
  let workloads =
    [|
      [ Ops.at 0 (Ops.write Value.truth); Ops.at 1 Ops.read ];
      [ Ops.at 1 (Ops.write Value.truth); Ops.at 0 Ops.read ];
    |]
  in
  match
    all_modes ~component:(reg, Value.falsity) impl ~workloads
      ~faults:Faults.none
  with
  | [ Ok _; Ok _; Ok compositional ] ->
    Alcotest.(check bool)
      "compositional did real work" true
      (compositional.Engine.transitions > 0)
  | results ->
    Alcotest.failf "expected every mode to accept, got %a"
      Fmt.(list bool)
      (oks results)

(* Herlihy's universal construction over fetch-and-add mod 5 with the cells
   the workloads need, and the workloads: process [p] fetch-adds each of
   [addends.(p)]. *)
let universal_faa addends =
  let procs = Array.length addends in
  let ops = List.length addends.(0) in
  ( Wfc_consensus.Universal.construct
      ~target:(Rmw.fetch_add_mod ~ports:procs ~modulus:5)
      ~procs ~cells:((2 * procs * ops) + procs) (),
    Array.map (List.map Ops.fetch_add) addends )

(* Herlihy's universal construction over fetch-and-add mod 5 under the
   fused tracker, with every count of the run pinned: nodes, leaves,
   transitions, memo hits and frontier peak. The verdict alone does not see
   a tracker fingerprint that drops part of the tracker state: dedup then
   merges paths whose frontiers differ, which prunes more nodes (and skips
   advances) without flipping any verdict here. The last row is the
   [linearize] benchmark's 3x2 job. *)
let test_universal_run_stats () =
  List.iter
    (fun (name, addends, (nodes, leaves, transitions, memo_hits, peak)) ->
      let impl, workloads = universal_faa addends in
      match Engine.verify impl ~workloads () with
      | Error v -> Alcotest.failf "%s: %a" name Engine.pp_violation v
      | Ok s ->
        Alcotest.(check (list int))
          (name ^ ": nodes, leaves, transitions, memo hits, frontier peak")
          [ nodes; leaves; transitions; memo_hits; peak ]
          [
            s.Engine.explore.Explore.nodes;
            s.Engine.explore.Explore.leaves;
            s.Engine.transitions;
            s.Engine.memo_hits;
            s.Engine.frontier_peak;
          ])
    [
      ("3x1", [| [ 1 ]; [ 2 ]; [ 3 ] |], (623, 17, 106, 143, 3));
      ("2x3", [| [ 1; 2; 3 ]; [ 4; 1; 2 ] |], (1671, 37, 136, 401, 2));
      ("3x2", [| [ 2; 2 ]; [ 3; 2 ]; [ 4; 3 ] |], (60363, 252, 1134, 14782, 6));
    ]

(* The construction's continuations build their invocations ([propose],
   [write]) afresh at every program node, so many nodes invoke equal
   invocations. A step-table row is keyed on the invocation's structure:
   the 3x2 job compiles one row per ⟨object state, port, invocation⟩ it
   meets, however many nodes build that invocation. *)
let test_universal_compiled_rows () =
  let impl, workloads = universal_faa [| [ 2; 2 ]; [ 3; 2 ]; [ 4; 3 ] |] in
  (match Engine.verify impl ~workloads () with
  | Error v -> Alcotest.failf "3x2: %a" Engine.pp_violation v
  | Ok _ -> ());
  Alcotest.(check (pair int int))
    "3x2: program entries, step-table rows" (1729, 200)
    (Explore.compiled_rows impl)

(* randomized differential test: implementation × workload × adversary,
   incremental (plain and compositional) vs the per-leaf oracle *)
let prop_fused_matches_per_leaf =
  QCheck.Test.make ~count:40 ~name:"Engine.verify parity incl. faults"
    QCheck.(pair (int_bound 2) (int_bound 3))
    (fun (impl_i, adv_i) ->
      let impl, workloads =
        match impl_i with
        | 0 ->
          ( bit_from_two_bits ~procs:2,
            [|
              [ Ops.write Value.truth; Ops.read ];
              [ Ops.read; Ops.write Value.falsity ];
            |] )
        | 1 ->
          ( torn_write_reg ~procs:2,
            [| [ Ops.write (Value.int 1) ]; [ Ops.read ] |] )
        | _ ->
          ( regular_identity ~procs:2,
            [| [ Ops.write Value.truth ]; [ Ops.read; Ops.read ] |] )
      in
      let faults =
        match adv_i with
        | 0 -> Faults.none
        | 1 -> Faults.crashes 1
        | 2 -> Faults.crash_recovery ~crashes:1 ~recoveries:1
        | _ -> Faults.degrade_all impl ~glitches:1 (`Stale 1)
      in
      all_equal (oks (verdicts impl ~workloads ~faults)))

let () =
  Alcotest.run "wfc_engine"
    [
      ( "standalone anomalies",
        [
          Alcotest.test_case "stale read" `Quick test_stale_read;
          Alcotest.test_case "lost update" `Quick test_lost_update;
          Alcotest.test_case "out of thin air" `Quick test_out_of_thin_air;
          Alcotest.test_case "overlap both orders" `Quick
            test_overlap_both_orders;
          Alcotest.test_case "frontier witness order" `Quick
            test_frontier_witness_order;
        ] );
      ( "compositionality",
        [
          Alcotest.test_case "80-op two-object history" `Quick
            test_long_multi_object_history;
          Alcotest.test_case "70-op single object" `Quick
            test_long_single_object_overflows;
          Alcotest.test_case "two registers, fused" `Quick
            test_two_registers_compositional;
        ] );
      ( "fused verification",
        [
          Alcotest.test_case "good impl, all modes" `Quick
            test_good_impl_all_modes;
          Alcotest.test_case "torn write, all modes" `Quick
            test_torn_write_all_modes;
          Alcotest.test_case "crash adversary, all modes" `Quick
            test_crash_adversary_all_modes;
          Alcotest.test_case "universal faa, pinned run stats" `Quick
            test_universal_run_stats;
          Alcotest.test_case "universal faa, pinned compiled rows" `Quick
            test_universal_compiled_rows;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_frontier_matches_classic;
          QCheck_alcotest.to_alcotest prop_fused_matches_per_leaf;
        ] );
    ]
