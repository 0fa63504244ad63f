(* Tests for the linearizability checker and the safe/regular register
   condition checkers. *)

open Wfc_spec
open Wfc_zoo
open Wfc_program

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

module Engine = Wfc_linearize.Engine

let is_linearizable ~spec ops =
  match Engine.check ~spec ops with
  | Engine.Linearizable _ -> true
  | Engine.Not_linearizable _ -> false

(* --- linearizability: hand-made histories -------------------------------- *)

let test_lin_sequential () =
  let ops =
    [
      mk_op ~proc:0 ~inv:(Ops.write Value.truth) ~resp:Ops.ok ~s:0 ~e:0 ();
      mk_op ~proc:1 ~inv:Ops.read ~resp:Value.truth ~s:1 ~e:1 ();
    ]
  in
  Alcotest.(check bool) "write;read linearizable" true
    (is_linearizable ~spec:bit ops)

let test_lin_stale_read () =
  let ops =
    [
      mk_op ~proc:0 ~inv:(Ops.write Value.truth) ~resp:Ops.ok ~s:0 ~e:0 ();
      mk_op ~proc:1 ~inv:Ops.read ~resp:Value.falsity ~s:1 ~e:1 ();
    ]
  in
  Alcotest.(check bool) "stale read not linearizable" false
    (is_linearizable ~spec:bit ops)

let test_lin_overlap_both_ok () =
  let write =
    mk_op ~proc:0 ~inv:(Ops.write Value.truth) ~resp:Ops.ok ~s:1 ~e:3 ()
  in
  List.iter
    (fun v ->
      let read = mk_op ~proc:1 ~inv:Ops.read ~resp:v ~s:0 ~e:2 () in
      Alcotest.(check bool)
        (Fmt.str "overlapping read may return %a" Value.pp v)
        true
        (is_linearizable ~spec:bit
           [ write; read ]))
    [ Value.falsity; Value.truth ]

let test_lin_new_old_inversion () =
  (* reads r1 then r2 (r1 precedes r2); r1 sees new, r2 sees old: the classic
     atomicity violation. *)
  let ops =
    [
      mk_op ~proc:0 ~inv:(Ops.write Value.truth) ~resp:Ops.ok ~s:0 ~e:5 ();
      mk_op ~proc:1 ~op_index:0 ~inv:Ops.read ~resp:Value.truth ~s:1 ~e:2 ();
      mk_op ~proc:1 ~op_index:1 ~inv:Ops.read ~resp:Value.falsity ~s:3 ~e:4 ();
    ]
  in
  Alcotest.(check bool) "new/old inversion rejected" false
    (is_linearizable ~spec:bit ops)

let test_lin_empty_history () =
  Alcotest.(check bool) "empty history linearizable" true
    (is_linearizable ~spec:bit [])

let test_lin_witness_order () =
  let w =
    mk_op ~proc:0 ~inv:(Ops.write Value.truth) ~resp:Ops.ok ~s:0 ~e:4 ()
  in
  let r = mk_op ~proc:1 ~inv:Ops.read ~resp:Value.truth ~s:1 ~e:2 () in
  match Engine.check ~spec:bit [ w; r ] with
  | Engine.Linearizable [ o1; o2 ] ->
    (* the read saw the new value, so the write linearizes first *)
    Alcotest.(check int) "write first" 0 o1.Wfc_sim.Exec.proc;
    Alcotest.(check int) "read second" 1 o2.Wfc_sim.Exec.proc
  | _ -> Alcotest.fail "expected a 2-op witness"

let test_lin_tas_semantics () =
  let tas = Rmw.test_and_set ~ports:2 in
  let both_win =
    [
      mk_op ~proc:0 ~inv:Ops.test_and_set ~resp:Value.falsity ~s:0 ~e:0 ();
      mk_op ~proc:1 ~inv:Ops.test_and_set ~resp:Value.falsity ~s:1 ~e:1 ();
    ]
  in
  Alcotest.(check bool) "two winners impossible" false
    (is_linearizable ~spec:tas both_win);
  let one_winner =
    [
      mk_op ~proc:0 ~inv:Ops.test_and_set ~resp:Value.falsity ~s:0 ~e:3 ();
      mk_op ~proc:1 ~inv:Ops.test_and_set ~resp:Value.truth ~s:1 ~e:2 ();
    ]
  in
  Alcotest.(check bool) "one winner fine" true
    (is_linearizable ~spec:tas one_winner)

(* --- linearizability: whole implementations ------------------------------- *)

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

(* Non-linearizable on purpose: writing v into a 3-valued register first
   stores v+1 (mod 3), then v. A concurrent read can observe v+1, which is
   neither the old nor the new value. *)
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

let test_check_all_good_impl () =
  let impl = bit_from_two_bits ~procs:2 in
  match
    Engine.verify impl
      ~workloads:
        [| [ Ops.write Value.truth; Ops.read ]; [ Ops.read; Ops.write Value.falsity ] |]
      ()
  with
  | Ok st ->
    Alcotest.(check bool) "leaves > 0" true
      (st.Engine.explore.Wfc_sim.Explore.leaves > 0)
  | Error v -> Alcotest.failf "unexpected violation: %s" v.Engine.reason

let test_check_all_torn_write () =
  let impl = torn_write_reg ~procs:2 in
  match
    Engine.verify impl ~workloads:[| [ Ops.write (Value.int 1) ]; [ Ops.read ] |] ()
  with
  | Ok _ -> Alcotest.fail "torn write should not be linearizable"
  | Error _ -> ()

(* Two-phase identity over a regular bit: regular but NOT atomic. *)
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

let test_regular_not_atomic () =
  let impl = regular_identity ~procs:2 in
  let workloads = [| [ Ops.write Value.truth ]; [ Ops.read; Ops.read ] |] in
  (* fails atomicity: two sequential reads inside one write window can see
     new then old *)
  (match Engine.verify impl ~workloads () with
  | Ok _ -> Alcotest.fail "regular base should admit new/old inversion"
  | Error _ -> ());
  (* ... but every execution is regular *)
  match
    Wfc_linearize.Register_props.check_all_regular impl ~init:Value.falsity
      ~workloads ()
  with
  | Ok _ -> ()
  | Error v ->
    Alcotest.failf "regularity should hold: %a"
      Wfc_linearize.Register_props.pp_violation v

(* --- safe/regular checkers on hand-made histories -------------------------- *)

let test_regular_checker_accepts_overlap () =
  let ops =
    [
      mk_op ~proc:0 ~inv:(Ops.write Value.truth) ~resp:Ops.ok ~s:1 ~e:3 ();
      mk_op ~proc:1 ~inv:Ops.read ~resp:Value.truth ~s:2 ~e:2 ();
    ]
  in
  Alcotest.(check bool) "concurrent new value ok" true
    (Result.is_ok
       (Wfc_linearize.Register_props.check_regular ~init:Value.falsity ops))

let test_regular_checker_rejects_phantom () =
  (* no overlapping write, read returns a value never written *)
  let ops = [ mk_op ~proc:1 ~inv:Ops.read ~resp:Value.truth ~s:0 ~e:0 () ] in
  match Wfc_linearize.Register_props.check_regular ~init:Value.falsity ops with
  | Ok () -> Alcotest.fail "phantom value must be rejected"
  | Error f ->
    Alcotest.(check int) "culprit is the read" 1
      f.Wfc_linearize.Register_props.read.Wfc_sim.Exec.proc

let test_safe_checker_allows_garbage_on_overlap () =
  let domain = [ Value.falsity; Value.truth ] in
  let ops =
    [
      mk_op ~proc:0 ~inv:(Ops.write Value.truth) ~resp:Ops.ok ~s:1 ~e:3 ();
      (* overlapping read returning the OLD value is fine for safe *)
      mk_op ~proc:1 ~inv:Ops.read ~resp:Value.falsity ~s:2 ~e:2 ();
    ]
  in
  Alcotest.(check bool) "safe tolerates anything in-domain" true
    (Result.is_ok
       (Wfc_linearize.Register_props.check_safe ~init:Value.falsity ~domain ops))

let test_safe_checker_quiescent_strict () =
  let domain = [ Value.falsity; Value.truth ] in
  let ops =
    [
      mk_op ~proc:0 ~inv:(Ops.write Value.truth) ~resp:Ops.ok ~s:0 ~e:1 ();
      mk_op ~proc:1 ~inv:Ops.read ~resp:Value.falsity ~s:2 ~e:3 ();
    ]
  in
  Alcotest.(check bool) "quiescent read must see last write" true
    (Result.is_error
       (Wfc_linearize.Register_props.check_safe ~init:Value.falsity ~domain ops))

let test_checker_rejects_multi_writer () =
  let ops =
    [
      mk_op ~proc:0 ~inv:(Ops.write Value.truth) ~resp:Ops.ok ~s:0 ~e:0 ();
      mk_op ~proc:1 ~inv:(Ops.write Value.falsity) ~resp:Ops.ok ~s:1 ~e:1 ();
    ]
  in
  Alcotest.(check bool) "two writers rejected" true
    (match
       Wfc_linearize.Register_props.check_regular ~init:Value.falsity ops
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- oracle: the checker agrees with brute-force permutation search --------- *)

(* Everything in this repository rests on the linearizability checker, so
   the checker itself deserves an independent oracle: for tiny histories,
   enumerate ALL permutations, keep those that respect real-time precedence,
   and replay each against the sequential spec. *)
let brute_force_linearizable ~spec ~init (ops : Wfc_sim.Exec.op list) =
  let rec permutations = function
    | [] -> [ [] ]
    | xs ->
      List.concat_map
        (fun x ->
          List.map
            (fun rest -> x :: rest)
            (permutations (List.filter (fun y -> y != x) xs)))
        xs
  in
  let respects_precedence perm =
    let rec go = function
      | [] -> true
      | (a : Wfc_sim.Exec.op) :: rest ->
        List.for_all
          (fun (b : Wfc_sim.Exec.op) -> not (b.end_step < a.start_step))
          rest
        && go rest
    in
    go perm
  in
  let rec legal state = function
    | [] -> true
    | (o : Wfc_sim.Exec.op) :: rest ->
      List.exists
        (fun (state', resp) ->
          Value.equal resp o.resp && legal state' rest)
        (Type_spec.alternatives spec state ~port:o.proc ~inv:o.inv)
  in
  List.exists
    (fun perm -> respects_precedence perm && legal init perm)
    (permutations ops)

let gen_tiny_history =
  (* up to 5 register ops with random kinds, windows and responses — mostly
     garbage, which is the point: the oracle must agree on both verdicts *)
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
  let rec ops i = if i = n then return [] else
    let* o = op i in
    let+ rest = ops (i + 1) in
    o :: rest
  in
  ops 0

let prop_checker_matches_brute_force =
  QCheck.Test.make ~count:400 ~name:"checker agrees with brute force"
    (QCheck.make gen_tiny_history)
    (fun ops ->
      (* per-process ops must be sequential for a well-formed history: make
         them so by sorting per process and spacing the windows *)
      let by_proc p =
        List.filter (fun (o : Wfc_sim.Exec.op) -> o.proc = p) ops
      in
      let sequentialize ops =
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
      let ops = sequentialize (by_proc 0) @ sequentialize (by_proc 1) in
      let spec = Register.bit ~ports:2 in
      let fast = is_linearizable ~spec ops in
      let slow =
        brute_force_linearizable ~spec ~init:Value.falsity ops
      in
      fast = slow)

(* --- property: exhaustively explored identity registers are linearizable --- *)

let prop_identity_always_linearizable =
  QCheck.Test.make ~count:30 ~name:"identity implementations linearizable"
    QCheck.(pair (int_bound 1) (int_bound 1000))
    (fun (wl_choice, _seed) ->
      let impl = Implementation.identity (Register.bit ~ports:2) ~procs:2 in
      let wl0 =
        if wl_choice = 0 then [ Ops.write Value.truth; Ops.read ]
        else [ Ops.read; Ops.write Value.falsity ]
      in
      let wl1 = [ Ops.read; Ops.write Value.truth ] in
      Result.is_ok
        (Engine.verify impl ~workloads:[| wl0; wl1 |] ()))

let () =
  Alcotest.run "wfc_linearize"
    [
      ( "hand-made histories",
        [
          Alcotest.test_case "sequential" `Quick test_lin_sequential;
          Alcotest.test_case "stale read" `Quick test_lin_stale_read;
          Alcotest.test_case "overlap both ok" `Quick test_lin_overlap_both_ok;
          Alcotest.test_case "new/old inversion" `Quick test_lin_new_old_inversion;
          Alcotest.test_case "empty history" `Quick test_lin_empty_history;
          Alcotest.test_case "witness order" `Quick test_lin_witness_order;
          Alcotest.test_case "tas semantics" `Quick test_lin_tas_semantics;
        ] );
      ( "implementations",
        [
          Alcotest.test_case "good impl passes" `Quick test_check_all_good_impl;
          Alcotest.test_case "torn write caught" `Quick test_check_all_torn_write;
          Alcotest.test_case "regular but not atomic" `Quick
            test_regular_not_atomic;
        ] );
      ( "register conditions",
        [
          Alcotest.test_case "regular accepts overlap" `Quick
            test_regular_checker_accepts_overlap;
          Alcotest.test_case "regular rejects phantom" `Quick
            test_regular_checker_rejects_phantom;
          Alcotest.test_case "safe allows garbage on overlap" `Quick
            test_safe_checker_allows_garbage_on_overlap;
          Alcotest.test_case "safe strict when quiescent" `Quick
            test_safe_checker_quiescent_strict;
          Alcotest.test_case "multi-writer rejected" `Quick
            test_checker_rejects_multi_writer;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_identity_always_linearizable;
          QCheck_alcotest.to_alcotest prop_checker_matches_brute_force;
        ] );
    ]
