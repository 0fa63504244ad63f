(* Tests for the fast exploration engine (Wfc_sim.Explore): bit-for-bit
   equivalence with the naive Exec.explore when every reduction is off,
   verdict/observation equivalence under duplicate-state pruning and
   partial-order reduction (including a qcheck property over randomized
   implementations and workloads), node-count regression under pruning,
   process-symmetry reduction, checkpoint sinks and cut/resume. *)

open Wfc_spec
open Wfc_zoo
open Wfc_program
module Exec = Wfc_sim.Exec
module Explore = Wfc_sim.Explore
module Faults = Wfc_sim.Faults

let value = Alcotest.testable Value.pp Value.equal

(* --- leaf projections ------------------------------------------------------ *)

(* Everything a timing-insensitive verdict can observe about a leaf. Ops are
   keyed by their unique ⟨proc, op_index⟩, so completion order is factored
   out; start/end timestamps are dropped. *)
let value_proj (leaf : Exec.leaf) =
  let ops =
    List.sort
      (fun (a : Exec.op) (b : Exec.op) ->
        compare (a.proc, a.op_index) (b.proc, b.op_index))
      leaf.ops
  in
  Value.list
    [
      Value.list (Array.to_list leaf.objects);
      Value.list (Array.to_list leaf.locals);
      Value.list
        (List.map
           (fun (o : Exec.op) ->
             Value.list
               [
                 Value.int o.proc;
                 Value.int o.op_index;
                 o.inv;
                 o.resp;
                 Value.int o.steps;
               ])
           ops);
      Value.int leaf.events;
      Value.list (List.map Value.int (Array.to_list leaf.accesses));
    ]

(* The full observation, timestamps and completion order included — only the
   exhaustive mode (naive, armed or not) must preserve this. *)
let full_proj (leaf : Exec.leaf) =
  Value.list
    [
      value_proj leaf;
      Value.list
        (List.map
           (fun (o : Exec.op) ->
             Value.list
               [ Value.int o.proc; Value.int o.start_step; Value.int o.end_step ])
           leaf.ops);
    ]

(* [dedup_threshold:0] forces the dedup/intern machinery even on these
   deliberately tiny trees — the lazy fallback is exercised separately
   below. *)
let collect ?fuel ?faults ?(dedup_threshold = 0) ?checkpoint ?mem_budget_mb
    ~options ~proj impl workloads =
  let acc = ref [] in
  let stats =
    Explore.run impl ~workloads ?fuel ?faults ~options ~dedup_threshold
      ?checkpoint ?mem_budget_mb
      ~on_leaf_trace:(fun _ leaf -> acc := proj leaf :: !acc)
      ()
  in
  (stats, List.sort Value.compare !acc)

let leaf_set leaves = List.sort_uniq Value.compare leaves

(* Pid-exact dedup is an input, not an option: the same implementation,
   declaring no symmetry, keys every process by its pid. *)
let pid_exact impl = { impl with Implementation.symmetric = false }

let check_same_invariants ~msg (naive : Explore.stats) (s : Explore.stats) =
  Alcotest.(check int) (msg ^ ": max_events") naive.max_events s.max_events;
  Alcotest.(check int)
    (msg ^ ": max_op_steps")
    naive.max_op_steps s.max_op_steps;
  Alcotest.(check (array int))
    (msg ^ ": max_accesses")
    naive.max_accesses s.max_accesses;
  (* pruning merges whole subtrees, so only overflow *detection* is
     preserved, not the per-path count — which is all any caller reads *)
  Alcotest.(check bool)
    (msg ^ ": overflow detection")
    (naive.overflows > 0) (s.overflows > 0);
  Alcotest.(check bool)
    (msg ^ ": visits no more leaves")
    true
    (s.leaves <= naive.leaves);
  Alcotest.(check bool)
    (msg ^ ": executes no more nodes")
    true
    (s.nodes <= naive.nodes)

(* Assert that every optimization level agrees with the naive engine on the
   timing-insensitive observation set and the invariant statistics.

   Symmetry is checked separately: it deliberately keeps only one
   representative per orbit of pid-permuted schedules, so the observation
   set (which keys ops by pid) is a *subset* of the naive one, while every
   pid-invariant statistic (max events/op steps/accesses, overflow
   detection) must still match exactly. *)
let assert_equiv ?fuel ?faults impl workloads =
  let naive_stats, naive_leaves =
    collect ?fuel ?faults ~options:Explore.naive ~proj:value_proj impl
      workloads
  in
  let naive_set = leaf_set naive_leaves in
  List.iter
    (fun (msg, options, impl) ->
      let s, leaves =
        collect ?fuel ?faults ~options ~proj:value_proj impl workloads
      in
      Alcotest.(check (list value))
        (msg ^ ": observation set")
        naive_set (leaf_set leaves);
      check_same_invariants ~msg naive_stats s)
    [
      ("dedup", { Explore.naive with dedup = true }, pid_exact impl);
      ("por", { Explore.naive with por = true }, impl);
      ("fast", Explore.fast, pid_exact impl);
    ];
  let s_sym, sym_leaves =
    collect ?fuel ?faults ~options:Explore.fast ~proj:value_proj impl
      workloads
  in
  List.iter
    (fun l ->
      Alcotest.(check bool)
        "fast+symmetry: observations are naive observations" true
        (List.exists (Value.equal l) naive_set))
    (leaf_set sym_leaves);
  check_same_invariants ~msg:"fast+symmetry" naive_stats s_sym;
  naive_stats

(* --- fixture implementations ---------------------------------------------- *)

(* [bits] atomic bits (plus a nondeterministic coin when [coin]) driven by a
   small command language; the local state remembers the last read so that
   leaf locals are sensitive to response values. *)
let rw_impl ~procs ~bits ~coin =
  let bit = Register.bit ~ports:procs in
  let coin_spec = Nondet.coin ~ports:procs in
  let objects =
    List.init bits (fun _ -> (bit, Value.falsity))
    @ (if coin then [ (coin_spec, coin_spec.Type_spec.initial) ] else [])
  in
  Implementation.make
    ~target:(Register.bit ~ports:procs)
    ~procs ~objects
    ~local_init:(fun _ -> Value.falsity)
    ~program:(fun ~proc:_ ~inv local ->
      let open Program.Syntax in
      match inv with
      | Value.Pair (Value.Sym "wr", Value.Pair (Value.Int o, b)) ->
        let+ _ = Program.invoke ~obj:o (Ops.write b) in
        (Ops.ok, local)
      | Value.Pair (Value.Sym "rd", Value.Int o) ->
        let+ v = Program.invoke ~obj:o Ops.read in
        (v, v)
      | Value.Pair (Value.Sym "cp", Value.Pair (Value.Int a, Value.Int b)) ->
        let* v = Program.invoke ~obj:a Ops.read in
        let+ _ = Program.invoke ~obj:b (Ops.write v) in
        (v, local)
      | Value.Sym "flip" ->
        let+ v = Program.invoke ~obj:bits Ops.read in
        (v, v)
      | Value.Sym "strict" ->
        (* decodes only [false]: a derailing adversary wedges the process on
           the coin's second alternative *)
        let+ v = Program.invoke ~obj:bits Ops.read in
        if Value.equal v Value.truth then raise (Value.Type_error "strict");
        (v, v)
      | Value.Sym "loc" -> Program.return (local, local)
      | _ -> Alcotest.fail "rw_impl: bad invocation")
    ()

let wr o b = Value.pair (Value.sym "wr") (Value.pair (Value.int o) (Value.bool b))
let rd o = Value.pair (Value.sym "rd") (Value.int o)
let cp a b = Value.pair (Value.sym "cp") (Value.pair (Value.int a) (Value.int b))

(* --- naive mode ≡ Exec.explore --------------------------------------------- *)

let exec_stats_equal msg (a : Exec.stats) (b : Exec.stats) =
  Alcotest.(check int) (msg ^ ": leaves") a.leaves b.leaves;
  Alcotest.(check int) (msg ^ ": nodes") a.nodes b.nodes;
  Alcotest.(check int) (msg ^ ": max_events") a.max_events b.max_events;
  Alcotest.(check int) (msg ^ ": max_op_steps") a.max_op_steps b.max_op_steps;
  Alcotest.(check (array int)) (msg ^ ": max_accesses") a.max_accesses
    b.max_accesses;
  Alcotest.(check int) (msg ^ ": overflows") a.overflows b.overflows

let tft =
  [|
    [ Ops.propose Value.truth ];
    [ Ops.propose Value.falsity ];
    [ Ops.propose Value.truth ];
  |]

(* Each case runs under its own fault adversary: none, crash-only,
   crash-recovery, stale and safe read glitches, and a derailing adversary
   that wedges a process. *)
let naive_cases =
  [
    ( "tas identity",
      Implementation.identity (Rmw.test_and_set ~ports:2) ~procs:2,
      [| [ Ops.test_and_set ]; [ Ops.test_and_set ] |],
      Faults.none );
    ( "two writers one reader",
      rw_impl ~procs:3 ~bits:2 ~coin:false,
      [| [ wr 0 true; rd 1 ]; [ cp 0 1 ]; [ rd 0; Value.sym "loc" ] |],
      Faults.none );
    ( "nondet coin",
      rw_impl ~procs:2 ~bits:1 ~coin:true,
      [| [ Value.sym "flip"; rd 0 ]; [ wr 0 true ] |],
      Faults.none );
    ( "with crashes",
      rw_impl ~procs:2 ~bits:2 ~coin:false,
      [| [ cp 0 1 ]; [ wr 0 true ] |],
      Faults.crashes 1 );
    (* a crash budget no run can spend, the largest the CLI accepts *)
    ( "crash budget max_int",
      rw_impl ~procs:2 ~bits:2 ~coin:false,
      [| [ cp 0 1 ]; [ wr 0 true ] |],
      Faults.crashes max_int );
    ( "crash-recovery",
      rw_impl ~procs:2 ~bits:2 ~coin:false,
      [| [ cp 0 1; rd 1 ]; [ wr 0 true; wr 1 false ] |],
      Faults.crash_recovery ~crashes:1 ~recoveries:1 );
    ( "stale:2 glitches",
      rw_impl ~procs:2 ~bits:2 ~coin:false,
      [| [ wr 0 true; wr 0 false; wr 1 true ]; [ rd 0; cp 0 1; rd 0 ] |],
      Faults.degrade ~glitches:2 [ (0, Faults.Stale_reads 2) ] );
    ( "safe glitches",
      rw_impl ~procs:2 ~bits:2 ~coin:false,
      [| [ cp 0 1; rd 1 ]; [ rd 0; wr 0 true ] |],
      Faults.degrade ~glitches:1
        [ (0, Faults.Safe_reads [ Value.truth; Value.falsity ]) ] );
    ( "derail wedges",
      rw_impl ~procs:2 ~bits:1 ~coin:true,
      [| [ Value.sym "strict"; rd 0 ]; [ wr 0 true; Value.sym "strict" ] |],
      Faults.crash_recovery ~crashes:1 ~recoveries:1 );
    (* the experiments' trees: E3's consensus protocols and E10's universal
       fetch-and-add *)
    ( "tas2 tree",
      Wfc_consensus.Protocols.from_tas (),
      [| [ Ops.propose Value.truth ]; [ Ops.propose Value.falsity ] |],
      Faults.none );
    ("cas3 tree", Wfc_consensus.Protocols.from_cas ~procs:3 (), tft, Faults.none);
    ( "sticky3 tree",
      Wfc_consensus.Protocols.from_sticky ~procs:3 (),
      tft,
      Faults.none );
    ( "E10 universal faa",
      Wfc_consensus.Universal.construct
        ~target:(Rmw.fetch_add_mod ~ports:2 ~modulus:5)
        ~procs:2 ~cells:8 (),
      [| [ Ops.fetch_add 1 ]; [ Ops.fetch_add 2 ] |],
      Faults.none );
  ]

let test_naive_matches_exec () =
  List.iter
    (fun (msg, impl, workloads, faults) ->
      let exec_leaves = ref [] in
      let exec_stats =
        Exec.explore impl ~workloads ~faults
          ~on_leaf:(fun leaf -> exec_leaves := full_proj leaf :: !exec_leaves)
          ()
      in
      let leaves = ref [] in
      let s =
        Explore.run impl ~workloads ~faults ~options:Explore.naive
          ~on_leaf_trace:(fun _ leaf -> leaves := full_proj leaf :: !leaves)
          ()
      in
      exec_stats_equal msg exec_stats (Explore.to_exec_stats s);
      Alcotest.(check int) (msg ^ ": no pruning") 0 s.pruned;
      Alcotest.(check int) (msg ^ ": no sleeps") 0 s.sleep_skips;
      (* full observations, timestamps included, in visit order *)
      Alcotest.(check (list value))
        (msg ^ ": identical executions")
        (List.rev !exec_leaves) (List.rev !leaves))
    naive_cases

(* --- the capped table ----------------------------------------------------- *)

(* Under a fault adversary, a dedup table capped at its smallest size
   ([mem_budget_mb:0]) forgets states and revisits them: the run keeps
   [Exec.explore]'s observation set, ends [Exhaustive] and visits at least
   the uncapped run's nodes. *)
let test_capped_fault_cases () =
  List.iter
    (fun (msg, impl, workloads, faults) ->
      if not (Faults.is_none faults) then begin
        let exec_obs = ref [] in
        ignore
          (Exec.explore impl ~workloads ~faults
             ~on_leaf:(fun leaf -> exec_obs := value_proj leaf :: !exec_obs)
             ());
        List.iter
          (fun (sub, options) ->
            let msg = msg ^ "/" ^ sub in
            let impl = pid_exact impl in
            let run ?mem_budget_mb () =
              collect ~faults ?mem_budget_mb ~options ~proj:value_proj impl
                workloads
            in
            let uncapped, _ = run ()
            and capped, obs = run ~mem_budget_mb:0 () in
            Alcotest.(check (list value))
              (msg ^ ": observation set") (leaf_set !exec_obs) (leaf_set obs);
            Alcotest.(check bool) (msg ^ ": exhaustive") true
              (capped.Explore.completeness = Explore.Exhaustive);
            Alcotest.(check bool) (msg ^ ": no fewer nodes") true
              (capped.Explore.nodes >= uncapped.Explore.nodes))
          [ ("dedup", { Explore.naive with dedup = true }); ("fast", Explore.fast) ]
      end)
    naive_cases

(* --- reduced modes: verdict-relevant equivalence ---------------------------- *)

let test_equiv_fixed_workloads () =
  List.iter
    (fun (_, impl, workloads, faults) ->
      ignore (assert_equiv ~faults impl workloads))
    naive_cases

let test_equiv_overflow () =
  (* a spinning program: every mode must report the same overflow count 0/…
     behaviour (here: overflows > 0 and equal across modes) *)
  let bit = Register.bit ~ports:2 in
  let impl =
    Implementation.make ~target:bit ~procs:2
      ~objects:[ (bit, Value.falsity) ]
      ~program:(fun ~proc ~inv:_ _local ->
        let open Program.Syntax in
        let rec spin () =
          let* v = Program.invoke ~obj:0 Ops.read in
          if Value.as_bool v || proc = 1 then Program.return (Ops.ok, Value.unit)
          else spin ()
        in
        spin ())
      ()
  in
  let stats =
    assert_equiv ~fuel:40 impl [| [ Ops.read ]; [ Ops.read ] |]
  in
  Alcotest.(check bool) "overflow detected" true (stats.Explore.overflows > 0)

(* --- regression: pruning strictly shrinks the search ------------------------ *)

let test_dedup_strictly_prunes () =
  (* two processes on disjoint bits: all interleavings converge, so
     duplicate-state pruning must cut nodes strictly *)
  let impl = rw_impl ~procs:2 ~bits:2 ~coin:false in
  let workloads = [| [ wr 0 true; wr 0 false ]; [ wr 1 true; wr 1 false ] |] in
  let naive, _ = collect ~options:Explore.naive ~proj:value_proj impl workloads in
  let dedup, _ =
    collect
      ~options:{ Explore.naive with dedup = true }
      ~proj:value_proj (pid_exact impl) workloads
  in
  let fast, _ = collect ~options:Explore.fast ~proj:value_proj impl workloads in
  Alcotest.(check bool) "naive explores the full diamond" true
    (naive.Explore.leaves = 6);
  Alcotest.(check bool) "dedup cuts nodes strictly" true
    (dedup.Explore.nodes < naive.Explore.nodes);
  Alcotest.(check bool) "dedup counts pruned subtrees" true
    (dedup.Explore.pruned > 0);
  Alcotest.(check bool) "por+dedup cuts at least as hard" true
    (fast.Explore.nodes <= dedup.Explore.nodes);
  Alcotest.(check bool) "por skips sleeping siblings" true
    (fast.Explore.sleep_skips > 0);
  (* fully independent processes: POR needs only one interleaving order *)
  Alcotest.(check int) "one representative schedule" 1 fast.Explore.leaves

(* --- lazy dedup-table activation -------------------------------------------- *)

let test_dedup_threshold_laziness () =
  (* same diamond as above: with [dedup_threshold] at its default the whole
     tree is visited before the table would activate, so no pruning happens
     and no table is ever allocated — yet the observations are identical *)
  let impl = rw_impl ~procs:2 ~bits:2 ~coin:false in
  let workloads = [| [ wr 0 true; wr 0 false ]; [ wr 1 true; wr 1 false ] |] in
  let impl = pid_exact impl in
  let options = { Explore.dedup = true; por = false } in
  let eager, eager_leaves = collect ~options ~proj:value_proj impl workloads in
  let deferred, deferred_leaves =
    collect ~dedup_threshold:Explore.default_dedup_threshold ~options
      ~proj:value_proj impl workloads
  in
  Alcotest.(check bool) "threshold 0 prunes the diamond" true
    (eager.Explore.pruned > 0);
  Alcotest.(check int) "default threshold never activates on a tiny tree" 0
    deferred.Explore.pruned;
  Alcotest.(check (list value)) "same observation set" (leaf_set eager_leaves)
    (leaf_set deferred_leaves)

(* --- process-symmetry reduction ---------------------------------------------- *)

let test_symmetry_detection () =
  let open Wfc_consensus in
  let cas3 = Protocols.from_cas ~procs:3 () in
  let equal3 = Array.make 3 [ Ops.propose Value.truth ] in
  (match Explore.Symmetry.of_impl cas3 ~workloads:equal3 with
  | None -> Alcotest.fail "equal workloads: symmetry expected"
  | Some sym ->
    Alcotest.(check (array int))
      "one class of three" [| 0; 0; 0 |]
      (Explore.Symmetry.classes sym);
    Alcotest.(check int) "3! orderings merged" 6
      (Explore.Symmetry.group_order sym));
  let mixed =
    [|
      [ Ops.propose Value.truth ];
      [ Ops.propose Value.truth ];
      [ Ops.propose Value.falsity ];
    |]
  in
  (match Explore.Symmetry.of_impl cas3 ~workloads:mixed with
  | None -> Alcotest.fail "two equal workloads: symmetry expected"
  | Some sym ->
    Alcotest.(check (array int))
      "only the equal-input pair interchanges" [| 0; 0; 2 |]
      (Explore.Symmetry.classes sym);
    Alcotest.(check int) "2! orderings merged" 2
      (Explore.Symmetry.group_order sym));
  let distinct =
    [| [ Ops.propose Value.truth ]; [ Ops.propose Value.falsity ]; [] |]
  in
  Alcotest.(check bool) "distinct workloads: no symmetry" true
    (Option.is_none (Explore.Symmetry.of_impl cas3 ~workloads:distinct));
  Alcotest.(check bool) "undeclared implementation: no symmetry" true
    (Option.is_none
       (Explore.Symmetry.of_impl
          (rw_impl ~procs:3 ~bits:1 ~coin:false)
          ~workloads:(Array.make 3 [ rd 0 ])))

(* Symmetry may never grow the search: on every workload, symmetric nodes
   and leaves stay within pid-exact dedup's, and on equal-input cas3 it
   must cut nodes at least 2x. The universal construction declares no
   symmetry, so it is the control on which the two modes coincide. *)
let test_symmetry_node_reduction () =
  let open Wfc_consensus in
  let equal n = Array.make n [ Ops.propose Value.truth ] in
  List.iter
    (fun (name, impl, workloads, cut) ->
      let nosym, _ =
        collect ~options:Explore.fast ~proj:value_proj (pid_exact impl)
          workloads
      in
      let sym, _ =
        collect ~options:Explore.fast ~proj:value_proj impl workloads
      in
      Alcotest.(check bool)
        (Fmt.str "%s: nodes cut at least %dx" name cut)
        true
        (cut * sym.Explore.nodes <= nosym.Explore.nodes);
      Alcotest.(check bool) (name ^ ": never more leaves") true
        (sym.Explore.leaves <= nosym.Explore.leaves))
    [
      ("cas3 equal", Protocols.from_cas ~procs:3 (), equal 3, 2);
      ( "cas3 mixed",
        Protocols.from_cas ~procs:3 (),
        [|
          [ Ops.propose Value.truth ];
          [ Ops.propose Value.truth ];
          [ Ops.propose Value.falsity ];
        |],
        1 );
      ("sticky3 equal", Protocols.from_sticky ~procs:3 (), equal 3, 1);
      ("sticky4 equal", Protocols.from_sticky ~procs:4 (), equal 4, 1);
      ( "universal faa control",
        Universal.construct
          ~target:(Rmw.fetch_add_mod ~ports:2 ~modulus:5)
          ~procs:2 ~cells:8 (),
        [| [ Ops.fetch_add 1 ]; [ Ops.fetch_add 2 ] |],
        1 );
    ]

(* Verdict parity of the full checker across compaction configs, clean and
   under fault adversaries: every config must reach the expected verdict,
   and every falsification must carry a witness that replays — symmetry
   canonicalizes only dedup keys, never the configuration the trace is
   recorded against. *)
let test_symmetry_verdict_parity () =
  let open Wfc_consensus in
  let module Faults = Wfc_sim.Faults in
  let verdict_str = function
    | Check.Verified _ -> "verified"
    | Check.Falsified _ -> "falsified"
    | Check.Unknown _ -> "unknown"
  in
  let engines =
    [
      ("naive", Explore.naive, Fun.id);
      ("fast-nosym", Explore.fast, pid_exact);
      ("fast", Explore.fast, Fun.id);
    ]
  in
  let cas3 = Protocols.from_cas ~procs:3 () in
  let sticky3 = Protocols.from_sticky ~procs:3 () in
  List.iter
    (fun (pname, impl, faults, expected) ->
      let verdicts =
        List.map
          (fun (ename, engine, input) ->
            let impl = input impl in
            let v = Check.verify ~engine ~faults impl in
            (match v with
            | Check.Falsified viol -> (
              match viol.Check.witness with
              | None ->
                Alcotest.failf "%s/%s: violation without witness" pname ename
              | Some w ->
                Alcotest.(check bool)
                  (Fmt.str "%s/%s: witness replays" pname ename)
                  true
                  (Result.is_ok (Wfc_sim.Witness.replay impl w)))
            | _ -> ());
            (ename, verdict_str v))
          engines
      in
      List.iter
        (fun (ename, v) ->
          Alcotest.(check string) (Fmt.str "%s: %s verdict" pname ename)
            expected v)
        verdicts)
    [
      ("cas3-clean", cas3, Faults.none, "verified");
      ("cas3-crash", cas3, Faults.crashes 1, "verified");
      ( "sticky3-crash-recovery",
        sticky3,
        Faults.crash_recovery ~crashes:1 ~recoveries:1,
        "verified" );
      ( "sticky3-stale",
        sticky3,
        Faults.degrade_all sticky3 ~glitches:1 (`Stale 1),
        "falsified" );
      ( "broken-register-only",
        Protocols.broken_register_only (),
        Faults.none,
        "falsified" );
    ]

(* Dedup trusts [Implementation.symmetric] whenever it is on, so every
   declaration in the library must be honest. The naive run's
   timing-insensitive observations must be closed under swapping two pids
   of one {!Explore.Symmetry} class: the swapped leaf (ops relabelled,
   locals exchanged; port-oblivious objects hold no pid) is again a leaf.
   [Error] names a leaf whose image is missing. *)
let closed_under_class_swaps impl workloads =
  let proj pid (leaf : Exec.leaf) =
    value_proj
      {
        leaf with
        locals = Array.mapi (fun p _ -> leaf.locals.(pid p)) leaf.locals;
        ops =
          List.map (fun (o : Exec.op) -> { o with proc = pid o.proc }) leaf.ops;
      }
  in
  let leaves = ref [] in
  ignore
    (Exec.explore impl ~workloads ~on_leaf:(fun l -> leaves := l :: !leaves) ());
  let seen = leaf_set (List.map (proj Fun.id) !leaves) in
  let classes =
    match Explore.Symmetry.of_impl impl ~workloads with
    | Some g -> Explore.Symmetry.classes g
    | None -> Alcotest.fail "fixture has no symmetry class"
  in
  let swaps =
    List.concat_map
      (fun q ->
        List.filter_map
          (fun p -> if classes.(p) = classes.(q) then Some (p, q) else None)
          (List.init q Fun.id))
      (List.init (Array.length classes) Fun.id)
  in
  let missing =
    List.find_map
      (fun (p, q) ->
        let pid r = if r = p then q else if r = q then p else r in
        List.find_map
          (fun leaf ->
            let img = proj pid leaf in
            if List.exists (Value.equal img) seen then None
            else Some (Fmt.str "swapping p%d and p%d: %a" p q Value.pp img))
          !leaves)
      swaps
  in
  match missing with None -> Ok () | Some m -> Error m

let test_symmetric_declarations_honest () =
  let open Wfc_consensus in
  let verdict_str = function
    | Check.Verified _ -> "verified"
    | Check.Falsified _ -> "falsified"
    | Check.Unknown _ -> "unknown"
  in
  let t = Ops.propose Value.truth and f = Ops.propose Value.falsity in
  let fixtures =
    List.concat_map
      (fun n ->
        let equal = Array.make n [ t ] in
        (* two classes from n = 3 on *)
        let mixed = Array.init n (fun p -> [ (if p < 2 then t else f) ]) in
        let workloads =
          ("equal", equal) :: (if n > 2 then [ ("mixed", mixed) ] else [])
        in
        List.map
          (fun (name, impl) -> (Fmt.str "%s n=%d" name n, impl, workloads))
          [
            ("cas", Protocols.from_cas ~procs:n ());
            ("sticky", Protocols.from_sticky ~procs:n ());
            ( "identity consensus",
              Implementation.identity (Consensus_type.binary ~ports:n) ~procs:n
            );
          ])
      [ 2; 3; 4 ]
  in
  List.iter
    (fun (name, impl, workloads) ->
      Alcotest.(check bool) (name ^ ": declares symmetry") true
        impl.Implementation.symmetric;
      List.iter
        (fun (wname, workloads) ->
          match closed_under_class_swaps impl workloads with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s, %s workloads: %s" name wname e)
        workloads;
      Alcotest.(check string)
        (name ^ ": same verdict on the pid-exact input")
        (verdict_str (Check.verify ~engine:Explore.fast (pid_exact impl)))
        (verdict_str (Check.verify ~engine:Explore.fast impl)))
    fixtures;
  let reg = Register.bit ~ports:3 in
  let w = [ Ops.write Value.truth; Ops.read ] in
  (match
     closed_under_class_swaps
       (Implementation.identity reg ~procs:3)
       [| w; w; [ Ops.read ] |]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "identity register: %s" e);
  (* Negative control: declared symmetric, yet process 0 alone writes. *)
  let liar =
    Implementation.make ~target:reg ~procs:2 ~objects:[ (reg, Value.falsity) ]
      ~symmetric:true
      ~program:(fun ~proc ~inv:_ local ->
        let open Program.Syntax in
        if proc = 0 then
          let+ _ = Program.invoke ~obj:0 (Ops.write Value.truth) in
          (Value.sym "wrote", local)
        else
          let+ v = Program.invoke ~obj:0 Ops.read in
          (v, local))
      ()
  in
  Alcotest.(check bool) "a program branching on proc fails the closure" true
    (Result.is_error
       (closed_under_class_swaps liar [| [ Ops.read ]; [ Ops.read ] |]))

(* --- checkpoint sinks, cuts and resumes --------------------------------------- *)

(* A checkpoint sink changes nothing about the traversal. The interval
   outlasts the run, so only a cut run writes the file. *)
let with_frontier f =
  let path = Filename.temp_file "wfc_frontier" ".ck" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      f (3600., fun ck -> Result.get_ok (Wfc_sim.Checkpoint.save ck ~path)))

let test_frontier_matches_sequential () =
  let impl = rw_impl ~procs:3 ~bits:2 ~coin:false in
  let workloads = [| [ cp 0 1; rd 0 ]; [ wr 0 true ]; [ cp 1 0 ] |] in
  let seq, seq_leaves =
    collect ~options:Explore.naive ~proj:full_proj impl workloads
  in
  let fr, fr_leaves =
    with_frontier (fun checkpoint ->
        collect ~checkpoint ~options:Explore.naive ~proj:full_proj impl
          workloads)
  in
  Alcotest.(check int) "same leaves" seq.Explore.leaves fr.Explore.leaves;
  Alcotest.(check int) "same nodes" seq.Explore.nodes fr.Explore.nodes;
  Alcotest.(check (list value)) "same executions (timestamps included)"
    seq_leaves fr_leaves;
  check_same_invariants ~msg:"frontier" seq fr

let test_frontier_fast_equiv () =
  let impl = rw_impl ~procs:3 ~bits:3 ~coin:false in
  let workloads = [| [ wr 0 true; rd 0 ]; [ wr 1 true; rd 1 ]; [ cp 0 2 ] |] in
  let naive, naive_leaves =
    collect ~options:Explore.naive ~proj:value_proj impl workloads
  in
  let fr, fr_leaves =
    with_frontier (fun checkpoint ->
        collect ~checkpoint ~options:Explore.fast ~proj:value_proj impl
          workloads)
  in
  Alcotest.(check (list value)) "frontier fast: observation set"
    (leaf_set naive_leaves) (leaf_set fr_leaves);
  check_same_invariants ~msg:"frontier fast" naive fr

let test_frontier_stop_and_errors () =
  let impl = rw_impl ~procs:2 ~bits:2 ~coin:false in
  let workloads = [| [ cp 0 1; cp 1 0 ]; [ wr 0 true; wr 1 true ] |] in
  (* Stop aborts early and still returns statistics *)
  let seen = ref 0 in
  let stats =
    with_frontier (fun checkpoint ->
        Explore.run impl ~workloads ~options:Explore.naive ~checkpoint
          ~on_leaf_trace:(fun _ _ ->
            incr seen;
            if !seen > 3 then raise Exec.Stop)
          ())
  in
  Alcotest.(check bool) "stopped early" true
    (stats.Explore.leaves < 70 && stats.Explore.leaves > 0);
  Alcotest.(check bool) "partial: stopped" true
    (stats.Explore.completeness = Explore.Partial Explore.Stopped);
  (* other exceptions propagate to the caller *)
  let exception Boom in
  Alcotest.check_raises "exception propagates" Boom (fun () ->
      with_frontier (fun checkpoint ->
          ignore
            (Explore.run impl ~workloads ~options:Explore.naive ~checkpoint
               ~on_leaf_trace:(fun _ _ -> raise Boom)
               ())))

(* --- pid masks ------------------------------------------------------------------

   The engine holds sets of processes as bitmasks of one int, so a pid must
   be below [Sys.int_size]. At the largest count that fits, the last pid's
   lone proposal is explored (the root and one completion); one more
   process is refused before anything is explored. *)

let test_pid_mask_bound () =
  let lone n =
    let impl = Wfc_consensus.Protocols.from_cas ~procs:n () in
    ( impl,
      Array.init n (fun p ->
          if p = n - 1 then [ Ops.propose (Value.bool true) ] else []) )
  in
  let impl, workloads = lone Sys.int_size in
  let leaves = ref [] in
  let st =
    Explore.run impl ~workloads
      ~on_leaf_trace:(fun _ leaf -> leaves := leaf :: !leaves)
      ()
  in
  Alcotest.(check int) "largest count: nodes" 2 st.Explore.nodes;
  Alcotest.(check (list int)) "largest count: one leaf, one operation" [ 1 ]
    (List.map (fun (l : Exec.leaf) -> List.length l.Exec.ops) !leaves);
  let impl, workloads = lone (Sys.int_size + 1) in
  match
    Explore.run impl ~workloads
      ~on_leaf_trace:(fun _ _ -> Alcotest.fail "explored past the pid mask")
      ()
  with
  | _ -> Alcotest.fail "more processes than a pid mask holds accepted"
  | exception Invalid_argument _ -> ()

(* --- downstream verdict equivalence ----------------------------------------- *)

let test_consensus_verdict_equivalence () =
  let open Wfc_consensus in
  let ok_naive =
    Check.result_exn
      (Check.verify ~engine:Wfc_sim.Explore.naive (Protocols.from_tas ()))
  in
  let ok_fast =
    Check.result_exn
      (Check.verify ~engine:Wfc_sim.Explore.fast (Protocols.from_tas ()))
  in
  Alcotest.(check bool) "tas: both verdicts Ok" true
    (Result.is_ok ok_naive && Result.is_ok ok_fast);
  let bad_naive =
    Check.result_exn
      (Check.verify ~engine:Wfc_sim.Explore.naive
         (Protocols.broken_register_only ()))
  in
  let bad_fast =
    Check.result_exn
      (Check.verify ~engine:Wfc_sim.Explore.fast
         (Protocols.broken_register_only ()))
  in
  Alcotest.(check bool) "broken: both verdicts Error" true
    (Result.is_error bad_naive && Result.is_error bad_fast)

let test_access_bounds_equivalence () =
  let open Wfc_consensus in
  List.iter
    (fun impl ->
      match
        ( Access_bounds.analyze ~engine:Wfc_sim.Explore.naive impl,
          Access_bounds.analyze ~engine:Wfc_sim.Explore.fast impl )
      with
      | Ok naive, Ok fast ->
        Alcotest.(check int) "same D" naive.Access_bounds.bound_d
          fast.Access_bounds.bound_d;
        Alcotest.(check (array int)) "same per-object bounds"
          naive.Access_bounds.per_object fast.Access_bounds.per_object;
        List.iter2
          (fun (a : Access_bounds.tree) (b : Access_bounds.tree) ->
            Alcotest.(check int) "same tree depth" a.depth b.depth;
            Alcotest.(check bool) "reduced tree is smaller-or-equal" true
              (b.nodes <= a.nodes))
          naive.Access_bounds.trees fast.Access_bounds.trees
      | _ -> Alcotest.fail "access-bound analysis failed")
    [ Protocols.from_tas (); Protocols.from_cas ~procs:2 () ]

(* --- randomized property: every level agrees with naive --------------------- *)

let gen_workloads =
  let open QCheck.Gen in
  let* procs = int_range 2 3 in
  let* bits = int_range 1 2 in
  let* coin = if procs = 2 then bool else return false in
  let op =
    frequency
      [
        (3, map2 (fun o b -> wr o b) (int_range 0 (bits - 1)) bool);
        (3, map (fun o -> rd o) (int_range 0 (bits - 1)));
        (2, map2 (fun a b -> cp a b) (int_range 0 (bits - 1)) (int_range 0 (bits - 1)));
        (1, return (Value.sym "loc"));
        ((if coin then 2 else 0), return (Value.sym "flip"));
      ]
  in
  let+ wls = array_size (return procs) (list_size (int_range 0 2) op) in
  (procs, bits, coin, wls)

let prop_equiv =
  QCheck.Test.make ~count:60
    ~name:"Explore: dedup/por/fast agree with naive on random workloads"
    (QCheck.make gen_workloads ~print:(fun (procs, bits, coin, wls) ->
         Fmt.str "procs=%d bits=%d coin=%b workloads=%a" procs bits coin
           Fmt.(array (list Value.pp))
           wls))
    (fun (procs, bits, coin, wls) ->
      let impl = rw_impl ~procs ~bits ~coin in
      ignore (assert_equiv impl wls);
      true)

(* --- cut and resume ------------------------------------------------------------ *)

(* Cut a run at a random node budget, resume its remainder (through the
   checkpoint codec) and repeat until it drains: the last segment's
   stitched stats, the number of cuts, and every leaf seen with its trace. *)
let cut_and_resume ~rand ?faults ~options impl workloads =
  let seen = ref [] in
  let rec go resume_from cuts =
    if cuts > 100_000 then Alcotest.fail "cut/resume did not drain";
    let s =
      Explore.run impl ~workloads ?faults ~options ~dedup_threshold:0
        ~budget:(1 + Random.State.int rand 25)
        ?resume_from
        ~on_leaf_trace:(fun trace leaf -> seen := (trace, leaf) :: !seen)
        ()
    in
    match s.Explore.remainder with
    | None -> (s, cuts)
    | Some ck -> (
      let module C = Wfc_sim.Checkpoint in
      match C.of_string (C.to_string ck) with
      | Ok ck -> go (Some ck) (cuts + 1)
      | Error e -> Alcotest.failf "remainder does not round-trip: %s" e)
  in
  let s, cuts = go None 0 in
  (s, cuts, !seen)

(* Under [naive] the segments visit exactly the uncut run's leaves, each
   once, and its nodes; under [fast] they reach its verdict-relevant
   statistics and its leaf observation set. *)
let check_cut_resume ~rand ~msg ?faults impl workloads =
  let uncut options =
    let seen = ref [] in
    let s =
      Explore.run impl ~workloads ?faults ~options ~dedup_threshold:0
        ~on_leaf_trace:(fun trace leaf -> seen := (trace, leaf) :: !seen)
        ()
    in
    (s, !seen)
  in
  let traces l =
    List.sort compare (List.map (fun (tr, _) -> Faults.trace_to_string tr) l)
  in
  let observations l = leaf_set (List.map (fun (_, leaf) -> value_proj leaf) l) in
  let whole, whole_leaves = uncut Explore.naive in
  let s, cuts, leaves = cut_and_resume ~rand ?faults ~options:Explore.naive impl workloads in
  if whole.Explore.nodes > 25 && cuts = 0 then
    Alcotest.failf "%s: never cut" msg;
  Alcotest.(check (list string)) (msg ^ ": naive leaf traces, each once")
    (traces whole_leaves) (traces leaves);
  Alcotest.(check int) (msg ^ ": naive nodes") whole.Explore.nodes s.Explore.nodes;
  Alcotest.(check int) (msg ^ ": naive leaves") whole.Explore.leaves s.Explore.leaves;
  let whole, whole_leaves = uncut Explore.fast in
  let s, _, leaves = cut_and_resume ~rand ?faults ~options:Explore.fast impl workloads in
  Alcotest.(check (list value)) (msg ^ ": fast observation set")
    (observations whole_leaves) (observations leaves);
  Alcotest.(check bool) (msg ^ ": fast overflow verdict")
    (whole.Explore.overflows > 0) (s.Explore.overflows > 0);
  Alcotest.(check int) (msg ^ ": fast max_events") whole.Explore.max_events
    s.Explore.max_events;
  Alcotest.(check (array int)) (msg ^ ": fast max_accesses")
    whole.Explore.max_accesses s.Explore.max_accesses

(* A sink that fires at every chance (each 1024th node) changes nothing,
   and every checkpoint it was handed resumes, under [naive], to exactly
   the uncut run's leaves and nodes. *)
let test_periodic_saves () =
  let impl = Wfc_consensus.Protocols.from_cas ~procs:3 () in
  let faults = Faults.crash_recovery ~crashes:1 ~recoveries:1 in
  let run ?checkpoint ?resume_from () =
    Explore.run impl ~workloads:tft ~faults ~options:Explore.naive
      ?checkpoint ?resume_from ()
  in
  let plain = run () in
  let saves = ref [] in
  let armed = run ~checkpoint:(0., fun ck -> saves := ck :: !saves) () in
  Alcotest.(check int) "armed nodes" plain.Explore.nodes armed.Explore.nodes;
  Alcotest.(check int) "armed leaves" plain.Explore.leaves armed.Explore.leaves;
  let mid = List.filter (fun ck -> ck.Wfc_sim.Checkpoint.frontier <> []) !saves in
  Alcotest.(check bool) "several saves" true (List.length mid >= 5);
  List.iter
    (fun ck ->
      let s = run ~resume_from:ck () in
      Alcotest.(check int) "resumed nodes" plain.Explore.nodes s.Explore.nodes;
      Alcotest.(check int) "resumed leaves" plain.Explore.leaves s.Explore.leaves)
    mid

let test_cut_resume () =
  let rand = Random.State.make [| 28 |] in
  List.iteri
    (fun i (procs, bits, coin, wls) ->
      check_cut_resume ~rand ~msg:(Fmt.str "random %02d" i)
        (rw_impl ~procs ~bits ~coin) wls)
    (QCheck.Gen.generate ~rand:(Random.State.make [| 15 |]) ~n:40 gen_workloads);
  List.iter
    (fun (msg, impl, workloads, faults) ->
      if not (Faults.is_none faults) then
        check_cut_resume ~rand ~msg ~faults impl workloads)
    naive_cases

let () =
  Alcotest.run "wfc_explore"
    [
      ( "naive parity",
        [ Alcotest.test_case "matches Exec.explore" `Quick test_naive_matches_exec ] );
      ( "capped table",
        [
          Alcotest.test_case "keeps Exec's observations" `Quick
            test_capped_fault_cases;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "fixed workloads" `Quick test_equiv_fixed_workloads;
          Alcotest.test_case "overflow parity" `Quick test_equiv_overflow;
          QCheck_alcotest.to_alcotest prop_equiv;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "pruning strictly shrinks" `Quick
            test_dedup_strictly_prunes;
          Alcotest.test_case "dedup threshold is lazy" `Quick
            test_dedup_threshold_laziness;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "class detection" `Quick test_symmetry_detection;
          Alcotest.test_case "node reduction on equal inputs" `Quick
            test_symmetry_node_reduction;
          Alcotest.test_case "verdict parity incl. faults" `Quick
            test_symmetry_verdict_parity;
          Alcotest.test_case "every symmetric declaration is honest" `Quick
            test_symmetric_declarations_honest;
        ] );
      ( "frontier mode",
        [
          Alcotest.test_case "naive parity" `Quick
            test_frontier_matches_sequential;
          Alcotest.test_case "fast equivalence" `Quick test_frontier_fast_equiv;
          Alcotest.test_case "stop & error propagation" `Quick
            test_frontier_stop_and_errors;
          Alcotest.test_case "cut at random nodes, resumed until drained"
            `Quick test_cut_resume;
          Alcotest.test_case "periodic saves resume to the uncut counts"
            `Quick test_periodic_saves;
        ] );
      ( "pid masks",
        [
          Alcotest.test_case "more processes than a mask holds are refused"
            `Quick test_pid_mask_bound;
        ] );
      ( "downstream verdicts",
        [
          Alcotest.test_case "consensus naive ≡ fast" `Quick
            test_consensus_verdict_equivalence;
          Alcotest.test_case "access bounds naive ≡ fast" `Quick
            test_access_bounds_equivalence;
        ] );
    ]
