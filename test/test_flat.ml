(* E14 — flat-state hot path: the flat engine (fixed-width fingerprints in
   an open-addressing table) must keep pinned node/leaf counts and reach
   the naive engine's observations and downstream verdicts, including under
   fault adversaries; the kernel must reproduce the counts pinned from the
   interpreted engine it replaced; a dedup table capped by a memory budget
   must only ever forget (same observations and verdicts, never fewer
   nodes), and the fingerprint structures themselves are fuzzed against
   oracles. *)

open Wfc_spec
open Wfc_zoo
open Wfc_consensus
open Wfc_program
module Exec = Wfc_sim.Exec
module Explore = Wfc_sim.Explore
module Faults = Wfc_sim.Faults
module Witness = Wfc_sim.Witness

let value = Alcotest.testable Value.pp Value.equal

(* Timing-insensitive leaf projection (same as test_explore's): ops keyed by
   ⟨proc, op_index⟩, timestamps dropped. *)
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

(* --- fixture: the randomized register machine from test_explore ------------ *)

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

let collect ?faults ?(dedup_threshold = 0) ?mem_budget_mb ~options impl
    workloads =
  let acc = ref [] in
  let stats =
    Explore.run impl ~workloads ?faults ~options ~dedup_threshold
      ?mem_budget_mb
      ~on_leaf_trace:(fun _ leaf -> acc := value_proj leaf :: !acc)
      ()
  in
  (stats, List.sort Value.compare !acc)

(* --- flat engine: pinned counts and naive observation parity -------------- *)

(* Pid-exact dedup is an input, not an option: the same implementation,
   declaring no symmetry, keys every process by its pid. A mode is a name,
   the engine options and the input it runs on. *)
let pid_exact impl = { impl with Implementation.symmetric = false }

let flat_configs =
  [
    ("fast", Explore.fast, pid_exact);
    ("fast+symmetry", Explore.fast, Fun.id);
    ("dedup-only", { Explore.naive with dedup = true }, pid_exact);
  ]

(* The naive engine's observation set and statistics: every flat
   configuration must reach exactly the same timing-insensitive
   observations. [rw_impl] does not declare symmetry, so the symmetric
   configuration must not lose any either. *)
let naive_reference ?faults impl workloads =
  let acc = ref [] in
  let stats =
    Exec.explore impl ~workloads ?faults
      ~on_leaf:(fun leaf -> acc := value_proj leaf :: !acc)
      ()
  in
  (stats, List.sort_uniq Value.compare !acc)

let assert_naive_observations ?faults ~msg impl workloads =
  let (ns : Exec.stats), nobs = naive_reference ?faults impl workloads in
  List.iter
    (fun (sub, options, input) ->
      let s, obs = collect ?faults ~options (input impl) workloads in
      let msg = msg ^ "/" ^ sub in
      Alcotest.(check (list value))
        (msg ^ ": observation set")
        nobs
        (List.sort_uniq Value.compare obs);
      Alcotest.(check int) (msg ^ ": max_events") ns.max_events
        s.Explore.max_events;
      Alcotest.(check (array int))
        (msg ^ ": max_accesses")
        ns.max_accesses s.Explore.max_accesses;
      Alcotest.(check bool) (msg ^ ": no more leaves") true
        (s.Explore.leaves <= ns.leaves))
    flat_configs

(* Counts pinned from the days a second, boxed-key engine ran next to the
   flat one and agreed with it on every figure below: a change to the key
   that merges or splits states moves them. *)
let assert_pinned ?faults ~msg impl workloads expected =
  List.iter2
    (fun (sub, options, input)
         (nodes, leaves, pruned, sleep_skips, max_events, acc) ->
      let s, _ = collect ?faults ~options (input impl) workloads in
      let msg = msg ^ "/" ^ sub in
      Alcotest.(check int) (msg ^ ": nodes") nodes s.Explore.nodes;
      Alcotest.(check int) (msg ^ ": leaves") leaves s.Explore.leaves;
      Alcotest.(check int) (msg ^ ": pruned") pruned s.Explore.pruned;
      Alcotest.(check int) (msg ^ ": sleep_skips") sleep_skips
        s.Explore.sleep_skips;
      Alcotest.(check int) (msg ^ ": max_events") max_events
        s.Explore.max_events;
      Alcotest.(check (array int)) (msg ^ ": max_accesses") acc
        s.Explore.max_accesses)
    flat_configs expected;
  assert_naive_observations ?faults ~msg impl workloads

let test_parity_fixed () =
  let impl = rw_impl ~procs:3 ~bits:2 ~coin:false in
  assert_pinned ~msg:"fixed" impl
    [| [ wr 0 true; rd 1 ]; [ cp 0 1 ]; [ rd 0; wr 1 false ] |]
    [
      (71, 12, 0, 40, 6, [| 3; 3 |]);
      (71, 12, 0, 40, 6, [| 3; 3 |]);
      (111, 16, 36, 0, 6, [| 3; 3 |]);
    ]

let test_parity_faults () =
  let impl = rw_impl ~procs:2 ~bits:2 ~coin:false in
  assert_pinned
    ~faults:
      {
        Faults.max_crashes = 1;
        max_recoveries = 1;
        max_glitches = 0;
        degraded = [ (0, Faults.Stale_reads 1) ];
      }
    ~msg:"faults" impl
    [| [ wr 0 true; rd 1 ]; [ cp 0 1; rd 0 ] |]
    [
      (146, 36, 49, 0, 8, [| 4; 2 |]);
      (146, 36, 49, 0, 8, [| 4; 2 |]);
      (146, 36, 49, 0, 8, [| 4; 2 |]);
    ]

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
        ( 2,
          map2
            (fun a b -> cp a b)
            (int_range 0 (bits - 1))
            (int_range 0 (bits - 1)) );
        (1, return (Value.sym "loc"));
        ((if coin then 2 else 0), return (Value.sym "flip"));
      ]
  in
  let+ wls = array_size (return procs) (list_size (int_range 0 2) op) in
  (procs, bits, coin, wls)

let prop_parity =
  QCheck.Test.make ~count:40
    ~name:"keeps naive observations"
    (QCheck.make gen_workloads ~print:(fun (procs, bits, coin, wls) ->
         Fmt.str "procs=%d bits=%d coin=%b workloads=%a" procs bits coin
           Fmt.(array (list Value.pp))
           wls))
    (fun (procs, bits, coin, wls) ->
      let impl = rw_impl ~procs ~bits ~coin in
      assert_naive_observations ~msg:"qcheck" impl wls;
      (* A recovery puts a pending operation back at its workload position,
         at any op_index: the random multi-op workloads cover that path. *)
      assert_naive_observations
        ~faults:(Faults.crash_recovery ~crashes:1 ~recoveries:1)
        ~msg:"qcheck+crash-recovery" impl wls;
      true)

(* --- compiled step tables vs the interpreted spec --------------------------- *)

(* [Step_table.alternatives] must agree with [Type_spec.alternatives] on
   every (state, port, invocation) of every zoo type — same pairs, same
   order — on both the compiling first lookup and the cached second one.
   Disabled invocations (discipline-typed specs) agree on the empty list;
   out-of-range ports raise [Bad_step] on both sides. Nondeterministic
   specs are in the sweep: rows cache the whole alternative list. A row is
   keyed on the invocation's structure: a physically fresh copy of the
   state and the invocation finds the same row and compiles nothing. *)

let states_of (spec : Type_spec.t) =
  match spec.Type_spec.states with
  | Some qs -> qs
  | None ->
    Value.Set.elements (Type_spec.reachable spec ~from:spec.Type_spec.initial)

let check_alts_equal ~msg interp compiled =
  Alcotest.(check int) (msg ^ ": arity") (List.length interp)
    (List.length compiled);
  List.iter2
    (fun (q1, r1) (q2, r2) ->
      Alcotest.check value (msg ^ ": successor") q1 q2;
      Alcotest.check value (msg ^ ": response") r1 r2)
    interp compiled

let test_step_table_agrees_with_zoo () =
  List.iter
    (fun (e : Wfc_zoo.Catalog.entry) ->
      let spec = e.Wfc_zoo.Catalog.spec in
      let tbl = Step_table.create spec in
      let name = spec.Type_spec.name in
      List.iter
        (fun q ->
          for port = 0 to spec.Type_spec.ports - 1 do
            List.iter
              (fun inv ->
                let msg = Fmt.str "%s q=%a p%d %a" name Value.pp q port
                    Value.pp inv
                in
                let interp = Type_spec.alternatives spec q ~port ~inv in
                check_alts_equal ~msg interp
                  (Step_table.alternatives tbl q ~port ~inv);
                (* second lookup hits the cached row *)
                check_alts_equal ~msg:(msg ^ " (cached)") interp
                  (Step_table.alternatives tbl q ~port ~inv);
                let ist = Step_table.intern_state tbl in
                let row_of q inv =
                  Step_table.row_id tbl
                    (Step_table.state tbl (Value.Intern.intern ist q))
                    ~port ~inv:(Value.Intern.intern ist inv)
                in
                let copy v = Result.get_ok (Value.of_string (Value.to_string v)) in
                let q' = copy q and inv' = copy inv in
                Alcotest.(check bool) (msg ^ ": copy is fresh") true
                  (inv = Value.Unit || inv' != inv);
                let rows = Step_table.compiled_rows tbl in
                Alcotest.(check int) (msg ^ ": a fresh copy's row")
                  (row_of q inv) (row_of q' inv');
                Alcotest.(check bool) (msg ^ ": a fresh copy's alternatives")
                  true
                  (Step_table.alternatives tbl q' ~port ~inv:inv'
                  == Step_table.alternatives tbl q ~port ~inv);
                Alcotest.(check int) (msg ^ ": copies compile no row") rows
                  (Step_table.compiled_rows tbl))
              spec.Type_spec.invocations
          done)
        (states_of spec);
      List.iter
        (fun port ->
          match
            Step_table.alternatives tbl spec.Type_spec.initial ~port
              ~inv:(List.hd spec.Type_spec.invocations)
          with
          | exception Type_spec.Bad_step _ -> ()
          | _ -> Alcotest.failf "%s: port %d accepted" name port)
        [ -1; spec.Type_spec.ports ])
    (Wfc_zoo.Catalog.all ~ports:2)

(* --- compiled kernel vs the interpreted reference ---------------------------- *)

(* [Exec] interprets programs against [Type_spec] directly: no step tables,
   no in-place configuration, no undo log. The kernel in plain mode must
   walk exactly its tree — same statistics, same leaves in the same order,
   timestamps included — and in every reduced mode each leaf the kernel
   reaches must replay through [Exec.replay] to the identical leaf. *)

(* The full observation: [value_proj] plus every operation's timestamps, in
   completion order. *)
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

let exec_stats_equal msg (a : Exec.stats) (b : Exec.stats) =
  Alcotest.(check int) (msg ^ ": leaves") a.leaves b.leaves;
  Alcotest.(check int) (msg ^ ": nodes") a.nodes b.nodes;
  Alcotest.(check int) (msg ^ ": max_events") a.max_events b.max_events;
  Alcotest.(check int) (msg ^ ": max_op_steps") a.max_op_steps b.max_op_steps;
  Alcotest.(check (array int)) (msg ^ ": max_accesses") a.max_accesses
    b.max_accesses;
  Alcotest.(check int) (msg ^ ": overflows") a.overflows b.overflows

(* Runs the kernel with [options] and replays every leaf it reaches through
   the interpreter; returns the kernel's statistics. *)
let run_replayed ?(dedup_threshold = 0) ~msg ~options impl workloads =
  Explore.run impl ~workloads ~options ~dedup_threshold
    ~on_leaf_trace:(fun trace leaf ->
      match Exec.replay impl ~workloads trace with
      | Ok leaf' ->
        Alcotest.check value (msg ^ ": replayed leaf") (full_proj leaf')
          (full_proj leaf)
      | Error e -> Alcotest.failf "%s: leaf trace does not replay: %s" msg e)
    ()

let compiled_modes =
  [
    ("fast", Explore.fast, pid_exact);
    ("fast+symmetry", Explore.fast, Fun.id);
    ("por-only", { Explore.naive with por = true }, Fun.id);
  ]

let assert_compiled_interp_parity ~msg impl workloads =
  let interp = ref [] in
  let es =
    Exec.explore impl ~workloads
      ~on_leaf:(fun leaf -> interp := full_proj leaf :: !interp)
      ()
  in
  let compiled = ref [] in
  let plain =
    Explore.run impl ~workloads ~options:Explore.naive ~dedup_threshold:0
      ~on_leaf_trace:(fun _ leaf -> compiled := full_proj leaf :: !compiled)
      ()
  in
  exec_stats_equal (msg ^ "/plain") es (Explore.to_exec_stats plain);
  Alcotest.(check (list value))
    (msg ^ "/plain: identical executions")
    (List.rev !interp) (List.rev !compiled);
  ("plain", plain)
  :: List.map
       (fun (sub, options, input) ->
         ( sub,
           run_replayed ~msg:(msg ^ "/" ^ sub) ~options (input impl) workloads
         ))
       compiled_modes

(* Counts recorded from the interpreted engine the kernel replaced. *)
let test_compile_parity_fixed () =
  let impl = rw_impl ~procs:3 ~bits:2 ~coin:false in
  let runs =
    assert_compiled_interp_parity ~msg:"fixed" impl
      [| [ wr 0 true; rd 1 ]; [ cp 0 1 ]; [ rd 0; wr 1 false ] |]
  in
  List.iter2
    (fun (sub, (s : Explore.stats)) (sub', nodes, leaves, sleep_skips) ->
      Alcotest.(check string) "mode" sub' sub;
      Alcotest.(check int) (sub ^ ": nodes") nodes s.Explore.nodes;
      Alcotest.(check int) (sub ^ ": leaves") leaves s.Explore.leaves;
      Alcotest.(check int) (sub ^ ": pruned") 0 s.Explore.pruned;
      Alcotest.(check int) (sub ^ ": sleep_skips") sleep_skips
        s.Explore.sleep_skips;
      Alcotest.(check int) (sub ^ ": max_events") 6 s.Explore.max_events)
    runs
    [
      ("plain", 270, 90, 0);
      ("fast", 71, 12, 40);
      ("fast+symmetry", 71, 12, 40);
      ("por-only", 71, 12, 40);
    ]

let prop_compile_parity =
  QCheck.Test.make ~count:40
    ~name:"compiled and interpreted engines agree exactly on random workloads"
    (QCheck.make gen_workloads ~print:(fun (procs, bits, coin, wls) ->
         Fmt.str "procs=%d bits=%d coin=%b workloads=%a" procs bits coin
           Fmt.(array (list Value.pp))
           wls))
    (fun (procs, bits, coin, wls) ->
      let impl = rw_impl ~procs ~bits ~coin in
      ignore (assert_compiled_interp_parity ~msg:"qcheck" impl wls);
      true)

(* A linearizability tracker for fetch-and-add: the state is the set of
   target states some linearization of the completed operations reaches,
   each paired with the pending invocations it already linearized early.
   Exact enough to reject a wrong response, and its state changes at every
   completion — which is what the kernel's tracker-id reuse must get
   right. Its fingerprint is the id of the state's encoding in the
   tracker's own intern state. *)
let faa_tracker ~modulus ~verdicts =
  let ist = Value.Intern.create () in
  let add s inv =
    match inv with
    | Value.Pair (_, Value.Int d) -> (s + d) mod modulus
    | _ -> Alcotest.fail "faa_tracker: not a fetch-add"
  in
  let canon configs = List.sort_uniq compare configs in
  let event configs ~trace_rev:_ = function
    | Explore.Op_completed { op; pending } ->
      let inv = op.Exec.inv and resp = op.Exec.resp in
      (* linearize any subset of the pending ops (early), then [op] *)
      let rec early acc = function
        | [] -> acc
        | (p, pinv) :: rest ->
          let acc =
            acc
            @ List.filter_map
                (fun (s, lin) ->
                  if List.mem_assoc p lin then None
                  else Some (add s pinv, (p, Value.Int s) :: lin))
                acc
          in
          early acc rest
      in
      canon
        (List.filter_map
           (fun (s, lin) ->
             match List.assoc_opt op.Exec.proc lin with
             | Some r ->
               (* already linearized early: its guessed response must hold *)
               if Value.equal r resp then
                 Some (s, List.remove_assoc op.Exec.proc lin)
               else None
             | None ->
               if Value.equal resp (Value.Int s) then Some (add s inv, lin)
               else None)
           (early configs pending))
    | Explore.Proc_crashed _ | Explore.Proc_wedged _ -> configs
  in
  {
    Explore.root = [ (0, []) ];
    event;
    at_leaf =
      (fun configs ~trace_rev:_ _ ->
        verdicts := (configs <> []) :: !verdicts);
    fingerprint =
      (fun configs ->
        Value.Intern.id
          (Value.Intern.intern ist
             (Value.list
                (List.map
                   (fun (s, lin) ->
                     Value.pair (Value.int s)
                       (Value.list
                          (List.map
                             (fun (p, r) -> Value.pair (Value.int p) r)
                             lin)))
                   configs))));
  }

let faa_workloads =
  [| [ Ops.fetch_add 1; Ops.fetch_add 2 ]; [ Ops.fetch_add 3; Ops.fetch_add 1 ] |]

(* The universal construction under a tracker whose state changes at every
   completion, with dedup engaged: every leaf must stay linearizable and
   the incremental engine must agree (the counts are pinned below). *)
let test_universal_tracker_parity () =
  let modulus = 5 in
  let target = Rmw.fetch_add_mod ~ports:2 ~modulus in
  let impl = Wfc_consensus.Universal.construct ~target ~procs:2 ~cells:10 () in
  let verdicts = ref [] in
  let stats =
    Explore.run impl ~workloads:faa_workloads ~options:Explore.fast
      ~tracker:(faa_tracker ~modulus ~verdicts) ()
  in
  Alcotest.(check bool) "dedup engaged" true (stats.Explore.pruned > 0);
  Alcotest.(check int) "one verdict per leaf" stats.Explore.leaves
    (List.length !verdicts);
  Alcotest.(check bool) "every leaf linearizable" true
    (List.for_all Fun.id !verdicts);
  match
    Wfc_linearize.Engine.verify impl ~workloads:faa_workloads
      ~mode:(Wfc_linearize.Engine.Incremental { compositional = true })
      ()
  with
  | Ok _ -> ()
  | Error v ->
    Alcotest.failf "engine verdict: %a" Wfc_linearize.Engine.pp_violation v

(* --- pinned counts ------------------------------------------------------------

   Every count below was recorded from the interpreted engine that the
   kernel replaced, and the kernel matched all of them on the same runs:
   nodes, leaves, pruned, sleep_skips, max_events, overflows. A change that
   moves any of them changes which tree is walked, or how it is reduced.

   Rows: 40 random register-machine workloads (fixed seed) under four
   modes; fault adversaries (crash-recovery, stale and safe glitches, a
   derail that wedges), summed over every input vector; budget-cut runs
   resumed from their checkpoints until exhaustive; runs without dedup
   with a checkpoint sink armed that never fires, which equal their
   unarmed runs; the universal fetch-and-add under a
   tracker; and tas and cas3 under each fault adversary of the experiments
   on one input vector, at the default dedup threshold. The Theorem 5
   output's rows are with its own test below. *)

let pinned =
  [
    ("q00/fast", 24, 5, 0, 5, 5, 0);
    ("q00/fast+symmetry", 24, 5, 0, 5, 5, 0);
    ("q00/por-only", 24, 5, 0, 5, 5, 0);
    ("q00/plain", 33, 10, 0, 0, 5, 0);
    ("q01/fast", 8, 1, 0, 4, 4, 0);
    ("q01/fast+symmetry", 8, 1, 0, 4, 4, 0);
    ("q01/por-only", 8, 1, 0, 4, 4, 0);
    ("q01/plain", 18, 6, 0, 0, 4, 0);
    ("q02/fast", 1, 1, 0, 0, 1, 0);
    ("q02/fast+symmetry", 1, 1, 0, 0, 1, 0);
    ("q02/por-only", 1, 1, 0, 0, 1, 0);
    ("q02/plain", 1, 1, 0, 0, 1, 0);
    ("q03/fast", 5, 1, 0, 2, 3, 0);
    ("q03/fast+symmetry", 5, 1, 0, 2, 3, 0);
    ("q03/por-only", 5, 1, 0, 2, 3, 0);
    ("q03/plain", 8, 3, 0, 0, 3, 0);
    ("q04/fast", 2, 2, 0, 0, 1, 0);
    ("q04/fast+symmetry", 2, 2, 0, 0, 1, 0);
    ("q04/por-only", 2, 2, 0, 0, 1, 0);
    ("q04/plain", 2, 2, 0, 0, 1, 0);
    ("q05/fast", 0, 1, 0, 0, 0, 0);
    ("q05/fast+symmetry", 0, 1, 0, 0, 0, 0);
    ("q05/por-only", 0, 1, 0, 0, 0, 0);
    ("q05/plain", 0, 1, 0, 0, 0, 0);
    ("q06/fast", 13, 4, 0, 0, 4, 0);
    ("q06/fast+symmetry", 13, 4, 0, 0, 4, 0);
    ("q06/por-only", 13, 4, 0, 0, 4, 0);
    ("q06/plain", 13, 4, 0, 0, 4, 0);
    ("q07/fast", 6, 2, 0, 1, 3, 0);
    ("q07/fast+symmetry", 6, 2, 0, 1, 3, 0);
    ("q07/por-only", 6, 2, 0, 1, 3, 0);
    ("q07/plain", 8, 3, 0, 0, 3, 0);
    ("q08/fast", 7, 1, 0, 3, 4, 0);
    ("q08/fast+symmetry", 7, 1, 0, 3, 4, 0);
    ("q08/por-only", 7, 1, 0, 3, 4, 0);
    ("q08/plain", 13, 4, 0, 0, 4, 0);
    ("q09/fast", 2, 1, 0, 0, 2, 0);
    ("q09/fast+symmetry", 2, 1, 0, 0, 2, 0);
    ("q09/por-only", 2, 1, 0, 0, 2, 0);
    ("q09/plain", 2, 1, 0, 0, 2, 0);
    ("q10/fast", 78, 12, 7, 20, 6, 0);
    ("q10/fast+symmetry", 78, 12, 7, 20, 6, 0);
    ("q10/por-only", 91, 20, 0, 20, 6, 0);
    ("q10/plain", 188, 60, 0, 0, 6, 0);
    ("q11/fast", 5, 1, 0, 2, 3, 0);
    ("q11/fast+symmetry", 5, 1, 0, 2, 3, 0);
    ("q11/por-only", 5, 1, 0, 2, 3, 0);
    ("q11/plain", 8, 3, 0, 0, 3, 0);
    ("q12/fast", 1, 1, 0, 0, 1, 0);
    ("q12/fast+symmetry", 1, 1, 0, 0, 1, 0);
    ("q12/por-only", 1, 1, 0, 0, 1, 0);
    ("q12/plain", 1, 1, 0, 0, 1, 0);
    ("q13/fast", 5, 1, 0, 2, 3, 0);
    ("q13/fast+symmetry", 5, 1, 0, 2, 3, 0);
    ("q13/por-only", 5, 1, 0, 2, 3, 0);
    ("q13/plain", 8, 3, 0, 0, 3, 0);
    ("q14/fast", 12, 2, 3, 0, 4, 0);
    ("q14/fast+symmetry", 12, 2, 3, 0, 4, 0);
    ("q14/por-only", 18, 6, 0, 0, 4, 0);
    ("q14/plain", 18, 6, 0, 0, 4, 0);
    ("q15/fast", 28, 2, 6, 6, 6, 0);
    ("q15/fast+symmetry", 28, 2, 6, 6, 6, 0);
    ("q15/por-only", 33, 4, 0, 12, 6, 0);
    ("q15/plain", 68, 20, 0, 0, 6, 0);
    ("q16/fast", 27, 2, 6, 11, 5, 0);
    ("q16/fast+symmetry", 27, 2, 6, 11, 5, 0);
    ("q16/por-only", 41, 6, 0, 20, 5, 0);
    ("q16/plain", 89, 30, 0, 0, 5, 0);
    ("q17/fast", 79, 15, 3, 18, 6, 0);
    ("q17/fast+symmetry", 79, 15, 3, 18, 6, 0);
    ("q17/por-only", 87, 18, 0, 20, 6, 0);
    ("q17/plain", 188, 60, 0, 0, 6, 0);
    ("q18/fast", 15, 1, 0, 9, 6, 0);
    ("q18/fast+symmetry", 15, 1, 0, 9, 6, 0);
    ("q18/por-only", 15, 1, 0, 9, 6, 0);
    ("q18/plain", 68, 20, 0, 0, 6, 0);
    ("q19/fast", 3, 1, 0, 1, 2, 0);
    ("q19/fast+symmetry", 3, 1, 0, 1, 2, 0);
    ("q19/por-only", 3, 1, 0, 1, 2, 0);
    ("q19/plain", 4, 2, 0, 0, 2, 0);
    ("q20/fast", 11, 2, 2, 1, 4, 0);
    ("q20/fast+symmetry", 11, 2, 2, 1, 4, 0);
    ("q20/por-only", 13, 4, 0, 1, 4, 0);
    ("q20/plain", 18, 6, 0, 0, 4, 0);
    ("q21/fast", 3, 1, 0, 0, 3, 0);
    ("q21/fast+symmetry", 3, 1, 0, 0, 3, 0);
    ("q21/por-only", 3, 1, 0, 0, 3, 0);
    ("q21/plain", 3, 1, 0, 0, 3, 0);
    ("q22/fast", 0, 1, 0, 0, 0, 0);
    ("q22/fast+symmetry", 0, 1, 0, 0, 0, 0);
    ("q22/por-only", 0, 1, 0, 0, 0, 0);
    ("q22/plain", 0, 1, 0, 0, 0, 0);
    ("q23/fast", 7, 2, 0, 1, 3, 0);
    ("q23/fast+symmetry", 7, 2, 0, 1, 3, 0);
    ("q23/por-only", 7, 2, 0, 1, 3, 0);
    ("q23/plain", 8, 3, 0, 0, 3, 0);
    ("q24/fast", 31, 3, 8, 8, 5, 0);
    ("q24/fast+symmetry", 31, 3, 8, 8, 5, 0);
    ("q24/por-only", 44, 9, 0, 13, 5, 0);
    ("q24/plain", 89, 30, 0, 0, 5, 0);
    ("q25/fast", 0, 1, 0, 0, 0, 0);
    ("q25/fast+symmetry", 0, 1, 0, 0, 0, 0);
    ("q25/por-only", 0, 1, 0, 0, 0, 0);
    ("q25/plain", 0, 1, 0, 0, 0, 0);
    ("q26/fast", 6, 2, 0, 1, 3, 0);
    ("q26/fast+symmetry", 6, 2, 0, 1, 3, 0);
    ("q26/por-only", 6, 2, 0, 1, 3, 0);
    ("q26/plain", 8, 3, 0, 0, 3, 0);
    ("q27/fast", 1, 1, 0, 0, 1, 0);
    ("q27/fast+symmetry", 1, 1, 0, 0, 1, 0);
    ("q27/por-only", 1, 1, 0, 0, 1, 0);
    ("q27/plain", 1, 1, 0, 0, 1, 0);
    ("q28/fast", 15, 1, 0, 13, 5, 0);
    ("q28/fast+symmetry", 15, 1, 0, 13, 5, 0);
    ("q28/por-only", 15, 1, 0, 13, 5, 0);
    ("q28/plain", 63, 20, 0, 0, 5, 0);
    ("q29/fast", 0, 1, 0, 0, 0, 0);
    ("q29/fast+symmetry", 0, 1, 0, 0, 0, 0);
    ("q29/por-only", 0, 1, 0, 0, 0, 0);
    ("q29/plain", 0, 1, 0, 0, 0, 0);
    ("q30/fast", 0, 1, 0, 0, 0, 0);
    ("q30/fast+symmetry", 0, 1, 0, 0, 0, 0);
    ("q30/por-only", 0, 1, 0, 0, 0, 0);
    ("q30/plain", 0, 1, 0, 0, 0, 0);
    ("q31/fast", 3, 1, 0, 1, 2, 0);
    ("q31/fast+symmetry", 3, 1, 0, 1, 2, 0);
    ("q31/por-only", 3, 1, 0, 1, 2, 0);
    ("q31/plain", 4, 2, 0, 0, 2, 0);
    ("q32/fast", 1, 1, 0, 0, 1, 0);
    ("q32/fast+symmetry", 1, 1, 0, 0, 1, 0);
    ("q32/por-only", 1, 1, 0, 0, 1, 0);
    ("q32/plain", 1, 1, 0, 0, 1, 0);
    ("q33/fast", 19, 4, 5, 1, 4, 0);
    ("q33/fast+symmetry", 19, 4, 5, 1, 4, 0);
    ("q33/por-only", 25, 10, 0, 1, 4, 0);
    ("q33/plain", 28, 12, 0, 0, 4, 0);
    ("q34/fast", 7, 2, 0, 1, 3, 0);
    ("q34/fast+symmetry", 7, 2, 0, 1, 3, 0);
    ("q34/por-only", 7, 2, 0, 1, 3, 0);
    ("q34/plain", 8, 3, 0, 0, 3, 0);
    ("q35/fast", 2, 1, 0, 0, 2, 0);
    ("q35/fast+symmetry", 2, 1, 0, 0, 2, 0);
    ("q35/por-only", 2, 1, 0, 0, 2, 0);
    ("q35/plain", 2, 1, 0, 0, 2, 0);
    ("q36/fast", 3, 1, 0, 0, 3, 0);
    ("q36/fast+symmetry", 3, 1, 0, 0, 3, 0);
    ("q36/por-only", 3, 1, 0, 0, 3, 0);
    ("q36/plain", 3, 1, 0, 0, 3, 0);
    ("q37/fast", 2, 1, 0, 0, 2, 0);
    ("q37/fast+symmetry", 2, 1, 0, 0, 2, 0);
    ("q37/por-only", 2, 1, 0, 0, 2, 0);
    ("q37/plain", 2, 1, 0, 0, 2, 0);
    ("q38/fast", 4, 2, 0, 0, 2, 0);
    ("q38/fast+symmetry", 4, 2, 0, 0, 2, 0);
    ("q38/por-only", 4, 2, 0, 0, 2, 0);
    ("q38/plain", 4, 2, 0, 0, 2, 0);
    ("q39/fast", 5, 1, 0, 2, 3, 0);
    ("q39/fast+symmetry", 5, 1, 0, 2, 3, 0);
    ("q39/por-only", 5, 1, 0, 2, 3, 0);
    ("q39/plain", 8, 3, 0, 0, 3, 0);
    ("cas2 crash-recovery/plain", 1120, 404, 0, 0, 7, 0);
    ("cas2 crash-recovery/exact", 448, 120, 136, 0, 7, 0);
    ("cas2 crash-recovery/fast", 362, 96, 110, 0, 7, 0);
    ("sticky3 crash2-recover1/plain", 4974, 2664, 0, 0, 5, 0);
    ("sticky3 crash2-recover1/exact", 1314, 504, 532, 0, 5, 0);
    ("sticky3 crash2-recover1/fast", 868, 304, 380, 0, 5, 0);
    ("tas stale:2/plain", 140, 64, 0, 0, 5, 0);
    ("tas stale:2/exact", 76, 24, 12, 0, 5, 0);
    ("tas stale:2/fast", 76, 24, 12, 0, 5, 0);
    ("broken stale:2/plain", 152, 84, 0, 0, 4, 0);
    ("broken stale:2/exact", 96, 44, 8, 0, 4, 0);
    ("broken stale:2/fast", 96, 44, 8, 0, 4, 0);
    ("cas2 safe/plain", 388, 176, 0, 0, 4, 0);
    ("cas2 safe/exact", 300, 92, 74, 0, 4, 0);
    ("cas2 safe/fast", 234, 72, 58, 0, 4, 0);
    ("strict derail/plain", 72, 31, 0, 0, 5, 0);
    ("strict derail/exact", 32, 10, 12, 0, 5, 0);
    ("cas3 resumed/plain", 270, 90, 0, 0, 6, 0);
    ("cas3 resumed/fast", 96, 10, 7, 48, 6, 0);
    ("cas3 crash-recovery resumed/fast", 1341, 167, 661, 0, 9, 0);
    ("cas3 armed/plain", 270, 90, 0, 0, 6, 0);
    ("cas3 armed/por", 54, 3, 0, 48, 6, 0);
    ("cas3 crash-recovery armed/plain", 11616, 3978, 0, 0, 9, 0);
    ("universal faa tracker/fast", 315, 12, 24, 149, 18, 0);
    ("tas clean/fast", 11, 2, 0, 3, 5, 0);
    ("tas crash-1/fast", 62, 30, 0, 0, 5, 0);
    ("tas crash-recovery-1-1/fast", 150, 37, 23, 0, 9, 0);
    ("tas stale-1-glitch-1/fast", 33, 15, 0, 0, 5, 0);
    ("tas stale-1-glitch-2/fast", 33, 15, 0, 0, 5, 0);
    ("cas3 clean/fast", 54, 3, 0, 48, 6, 0);
    ("cas3 crash-1/fast", 250, 55, 86, 0, 6, 0);
    ("cas3 crash-recovery-1-1/fast", 476, 61, 237, 0, 9, 0);
    ("cas3 stale-1-glitch-1/fast", 202, 34, 69, 0, 6, 0);
    ("cas3 stale-1-glitch-2/fast", 229, 39, 82, 0, 6, 0);
    ("cas5 capped/fast", 204604, 914, 120320, 81214, 15, 0);
  ]

let counts_of (s : Explore.stats) =
  ( s.Explore.nodes,
    s.Explore.leaves,
    s.Explore.pruned,
    s.Explore.sleep_skips,
    s.Explore.max_events,
    s.Explore.overflows )

let sum_counts (n, l, p, s, m, o) (n', l', p', s', m', o') =
  (n + n', l + l', p + p', s + s', max m m', o + o')

let run_counts ?faults ?(dedup_threshold = 0) ~options impl workloads =
  counts_of (Explore.run impl ~workloads ?faults ~options ~dedup_threshold ())

let over_vectors ?faults ?dedup_threshold ~options impl =
  List.fold_left
    (fun acc (v : Check.vector) ->
      sum_counts acc
        (run_counts ?faults ?dedup_threshold ~options impl v.Check.workloads))
    (0, 0, 0, 0, 0, 0)
    (Check.vectors ~repeat:false impl)

let proto name procs =
  match Protocols.of_name ~procs name with
  | Ok impl -> impl
  | Error e -> Alcotest.fail e

let workloads3 =
  [|
    [ Ops.propose Value.truth ];
    [ Ops.propose Value.falsity ];
    [ Ops.propose Value.truth ];
  |]

(* Budget-cut, checkpointed, resumed until exhaustive: the stitched totals. *)
let resumed ?faults ~budget ~options impl workloads =
  let path = Filename.temp_file "wfc_pinned" ".ck" in
  let rec go resume_from rounds =
    let s =
      Explore.run impl ~workloads ?faults ~options ~budget ?resume_from
        ~checkpoint:
          (3600., fun ck -> Result.get_ok (Wfc_sim.Checkpoint.save ck ~path))
        ()
    in
    match s.Explore.completeness with
    | Explore.Exhaustive -> s
    | Explore.Partial _ -> (
      if rounds > 1000 then Alcotest.fail "resume loop did not converge";
      match Wfc_sim.Checkpoint.load path with
      | Ok ck -> go (Some ck) (rounds + 1)
      | Error e -> Alcotest.fail e)
  in
  let s = go None 0 in
  if Sys.file_exists path then Sys.remove path;
  counts_of s

let theorem5_output () =
  let strategy =
    match
      Wfc_core.Theorem5.strategy_for
        (Catalog.find ~ports:2 "test-and-set").Catalog.spec
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  match Wfc_core.Theorem5.eliminate_registers ~strategy (proto "cas-ids" 3) with
  | Ok r -> r.Wfc_core.Theorem5.compiled
  | Error e -> Alcotest.fail e

(* The vector of a Theorem 5 output on which all three processes propose:
   the widest configuration the register-free construction reaches. *)
let theorem5_vector_workloads () =
  let t5 = theorem5_output () in
  let vs = Check.vectors ~repeat:false t5 in
  (List.nth vs (List.length vs - 1)).Check.workloads

let pinned_runs () =
  let modes =
    [
      ("fast", Explore.fast, pid_exact);
      ("fast+symmetry", Explore.fast, Fun.id);
      ("por-only", { Explore.naive with por = true }, Fun.id);
      ("plain", Explore.naive, Fun.id);
    ]
  in
  let random =
    List.concat
      (List.mapi
         (fun i (procs, bits, coin, wls) ->
           let impl = rw_impl ~procs ~bits ~coin in
           List.map
             (fun (sub, options, input) ->
               (Fmt.str "q%02d/%s" i sub, run_counts ~options (input impl) wls))
             modes)
         (QCheck.Gen.generate ~rand:(Random.State.make [| 15 |]) ~n:40
            gen_workloads))
  in
  let cr11 = Faults.crash_recovery ~crashes:1 ~recoveries:1 in
  let fault_modes =
    [
      ("plain", Explore.naive, Fun.id);
      ("exact", Explore.fast, pid_exact);
      ("fast", Explore.fast, Fun.id);
    ]
  in
  let adversaries =
    List.concat_map
      (fun (name, impl, faults) ->
        List.map
          (fun (sub, options, input) ->
            (name ^ "/" ^ sub, over_vectors ~faults ~options (input impl)))
          fault_modes)
      [
        ("cas2 crash-recovery", proto "cas" 2, cr11);
        ( "sticky3 crash2-recover1",
          proto "sticky" 3,
          Faults.crash_recovery ~crashes:2 ~recoveries:1 );
        ( "tas stale:2",
          proto "tas" 2,
          Faults.degrade_all (proto "tas" 2) ~glitches:2 (`Stale 2) );
        ( "broken stale:2",
          proto "broken" 2,
          Faults.degrade_all (proto "broken" 2) ~glitches:2 (`Stale 2) );
        ( "cas2 safe",
          proto "cas" 2,
          Faults.degrade_all (proto "cas" 2) ~glitches:1 `Safe );
      ]
  in
  let wedge =
    List.map
      (fun (sub, options, input) ->
        ( "strict derail/" ^ sub,
          run_counts ~faults:cr11 ~options
            (input (rw_impl ~procs:2 ~bits:1 ~coin:true))
            [|
              [ Value.sym "strict"; rd 0 ]; [ wr 0 true; Value.sym "strict" ];
            |] ))
      [ ("plain", Explore.naive, Fun.id); ("exact", Explore.fast, pid_exact) ]
  in
  let cas3 = proto "cas" 3 in
  let resumes =
    [
      ( "cas3 resumed/plain",
        resumed ~budget:60 ~options:Explore.naive cas3 workloads3 );
      ("cas3 resumed/fast", resumed ~budget:20 ~options:Explore.fast cas3 workloads3);
      ( "cas3 crash-recovery resumed/fast",
        resumed ~faults:cr11 ~budget:200 ~options:Explore.fast cas3 workloads3 );
    ]
  in
  (* A checkpoint sink that never fires (the interval outlasts the run)
     changes nothing: each armed row is its unarmed run's row. *)
  let armed =
    List.map
      (fun (name, faults, options) ->
        let path = Filename.temp_file "wfc_pinned" ".ck" in
        let s =
          Explore.run cas3 ~workloads:workloads3 ?faults ~options
            ~dedup_threshold:0
            ~checkpoint:
              (3600., fun ck -> Result.get_ok (Wfc_sim.Checkpoint.save ck ~path))
            ()
        in
        if Sys.file_exists path then Sys.remove path;
        Alcotest.(check bool) (name ^ ": armed = unarmed") true
          (counts_of s = run_counts ?faults ~options cas3 workloads3);
        (name, counts_of s))
      [
        ("cas3 armed/plain", None, Explore.naive);
        ("cas3 armed/por", None, { Explore.fast with dedup = false });
        ("cas3 crash-recovery armed/plain", Some cr11, Explore.naive);
      ]
  in
  let universal =
    let modulus = 5 in
    let impl =
      Wfc_consensus.Universal.construct
        ~target:(Rmw.fetch_add_mod ~ports:2 ~modulus)
        ~procs:2 ~cells:10 ()
    in
    [
      ( "universal faa tracker/fast",
        counts_of
          (Explore.run impl ~workloads:faa_workloads ~options:Explore.fast
             ~tracker:(faa_tracker ~modulus ~verdicts:(ref []))
             ()) );
    ]
  in
  let one_vector =
    List.concat_map
      (fun (name, impl, workloads) ->
        List.map
          (fun (adversary, faults) ->
            ( Fmt.str "%s %s/fast" name adversary,
              counts_of
                (Explore.run impl ~workloads ~faults ~options:Explore.fast ())
            ))
          [
            ("clean", Faults.none);
            ("crash-1", Faults.crashes 1);
            ("crash-recovery-1-1", cr11);
            ("stale-1-glitch-1", Faults.degrade_all impl ~glitches:1 (`Stale 1));
            ("stale-1-glitch-2", Faults.degrade_all impl ~glitches:2 (`Stale 1));
          ])
      [
        ( "tas",
          proto "tas" 2,
          [| [ Ops.propose Value.truth ]; [ Ops.propose Value.falsity ] |] );
        ("cas3", cas3, workloads3);
      ]
  in
  (* A table capped at its smallest size ([mem_budget_mb:0], 1,024 slots)
     over cas n=5's vectors, with repeated proposals: emptied where it
     would grow, at the same nodes every time, so the run revisits what it
     forgot. *)
  let capped =
    let cas5 = proto "cas" 5 and flushes = ref 0 in
    let counts =
      List.fold_left
        (fun acc (v : Check.vector) ->
          let s =
            Explore.run cas5 ~workloads:v.Check.workloads ~options:Explore.fast
              ~dedup_threshold:0 ~mem_budget_mb:0 ()
          in
          flushes := !flushes + s.Explore.evictions;
          sum_counts acc (counts_of s))
        (0, 0, 0, 0, 0, 0) (Check.vectors cas5)
    in
    Alcotest.(check int) "cas5 capped/fast: flushes" 40 !flushes;
    [ ("cas5 capped/fast", counts) ]
  in
  random @ adversaries @ wedge @ resumes @ armed @ universal @ one_vector
  @ capped

let test_pinned_counts () =
  let runs = pinned_runs () in
  Alcotest.(check int) "rows" (List.length pinned) (List.length runs);
  List.iter2
    (fun (name, nodes, leaves, pruned, sleeps, max_events, overflows)
         (name', (n, l, p, s, m, o)) ->
      Alcotest.(check string) "row" name name';
      Alcotest.(check int) (name ^ ": nodes") nodes n;
      Alcotest.(check int) (name ^ ": leaves") leaves l;
      Alcotest.(check int) (name ^ ": pruned") pruned p;
      Alcotest.(check int) (name ^ ": sleep_skips") sleeps s;
      Alcotest.(check int) (name ^ ": max_events") max_events m;
      Alcotest.(check int) (name ^ ": overflows") overflows o)
    pinned runs

(* --- allocation per node ---------------------------------------------------

   Minor-heap words per visited node on a warm second run. The figure is
   the same on every run of one build, so each bound is 1.5x a recorded
   figure plus two words: only a real hot-path regression trips it. E10
   never engages dedup; the cas n=6 row prunes, so the dedup probe is
   priced too, and the cas n=5 row runs the default engine ([Explore.fast]:
   symmetric dedup plus POR), so the key is salted by two symmetry
   classes. The Theorem 5 output row runs 73 objects and locals nested one
   pair deeper per eliminated register: its return edges must not pay for
   the size of the local. *)
let test_allocation_per_node () =
  List.iter
    (fun (name, impl, workloads, options, (nodes, pruned), recorded) ->
      let run () = Explore.run impl ~workloads ~options () in
      ignore (run ());
      let before = Gc.minor_words () in
      let s = run () in
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) (name ^ ": nodes") nodes s.Explore.nodes;
      Alcotest.(check int) (name ^ ": pruned") pruned s.Explore.pruned;
      let per_node = words /. float_of_int s.Explore.nodes in
      let bound = (1.5 *. recorded) +. 2. in
      if per_node > bound then
        Alcotest.failf "%s: %.1f minor words per node, bound %.1f" name
          per_node bound)
    [
      ( "E10 universal faa",
        Wfc_consensus.Universal.construct
          ~target:(Rmw.fetch_add_mod ~ports:2 ~modulus:5)
          ~procs:2 ~cells:8 (),
        [| [ Ops.fetch_add 1 ]; [ Ops.fetch_add 2 ] |],
        Explore.fast,
        (35, 0),
        36.8 );
      ( "cas6 T/F/T/F/T/F exact",
        pid_exact (proto "cas" 6),
        Array.init 6 (fun i -> [ Ops.propose (Value.bool (i mod 2 = 0)) ]),
        Explore.fast,
        (2710, 187),
        54.21 );
      ( "cas5 T/F/T/F/T fast",
        proto "cas" 5,
        Array.init 5 (fun i -> [ Ops.propose (Value.bool (i mod 2 = 0)) ]),
        Explore.fast,
        (367, 56),
        44.28 );
      ( "theorem5 output",
        theorem5_output (),
        theorem5_vector_workloads (),
        Explore.fast,
        (610, 0),
        17.65 );
    ]

(* --- the program table ------------------------------------------------------

   Each program-table entry (and so each local and result it interns) and
   each step-table row is compiled the first time a run meets it. A second
   run of the same vector must compile neither: a warm return edge looks up
   ints and interns nothing. *)
let test_warm_rerun_compiles_nothing () =
  List.iter
    (fun (name, impl, workloads) ->
      let run () = ignore (Explore.run impl ~workloads ~options:Explore.fast ()) in
      run ();
      let prog, step = Explore.compiled_rows impl in
      Alcotest.(check bool) (name ^ ": the first run compiles") true
        (prog > 0 && step > 0);
      run ();
      let prog', step' = Explore.compiled_rows impl in
      Alcotest.(check int) (name ^ ": program entries") prog prog';
      Alcotest.(check int) (name ^ ": step-table rows") step step')
    [
      ("theorem5 output", theorem5_output (), theorem5_vector_workloads ());
      ("cas3", proto "cas" 3, workloads3);
    ]

(* The shape the incremental fingerprint targets: a Theorem 5 output, many
   base objects and operations of ~20 accesses. Its plain tree is far too
   large for the interpreter, so every leaf the kernel reaches is replayed
   through it instead, and the summed counts are the interpreted engine's.
   The default threshold starts probing part-way through a run, 0 probes
   every node from the root; POR alone leaves dedup little to do on these
   vectors, so the dedup-only engine is run too. *)
let test_theorem5_compile_parity () =
  let t5 = theorem5_output () in
  Alcotest.(check bool) "wide configurations" true
    (Array.length t5.Implementation.objects > 20);
  List.iter
    (fun (name, options, dedup_threshold, expected) ->
      let counts =
        List.fold_left
          (fun acc (v : Check.vector) ->
            sum_counts acc
              (counts_of
                 (run_replayed
                    ~msg:(Fmt.str "vector %d %s" v.Check.pos name)
                    ~dedup_threshold ~options t5 v.Check.workloads)))
          (0, 0, 0, 0, 0, 0)
          (Check.vectors ~repeat:false t5)
      in
      let nodes, leaves, pruned, sleeps, max_events, overflows = expected in
      let n, l, p, s, m, o = counts in
      Alcotest.(check int) (name ^ ": nodes") nodes n;
      Alcotest.(check int) (name ^ ": leaves") leaves l;
      Alcotest.(check int) (name ^ ": pruned") pruned p;
      Alcotest.(check int) (name ^ ": sleep_skips") sleeps s;
      Alcotest.(check int) (name ^ ": max_events") max_events m;
      Alcotest.(check int) (name ^ ": overflows") overflows o)
    [
      ("fast/0", Explore.fast, 0, (2680, 54, 0, 3104, 22, 0));
      ( "fast/default",
        Explore.fast,
        Explore.default_dedup_threshold,
        (2680, 54, 0, 3104, 22, 0) );
      ( "dedup-only/0",
        { Explore.fast with por = false },
        0,
        (5784, 126, 3032, 0, 22, 0) );
    ];
  match Check.verify ~engine:Explore.fast ~repeat:false t5 with
  | Check.Verified _ -> ()
  | v -> Alcotest.failf "verdict: %a" Check.pp_verdict v


(* --- downstream verdict parity --------------------------------------------- *)

let flat_engine = Explore.fast

(* The unreduced engine is the oracle; execution counts differ (pruning
   visits fewer leaves), verdicts may not. *)
let test_verdict_parity () =
  List.iter
    (fun (name, impl, faults) ->
      let verify engine =
        Check.verify ~engine ?faults ~subsets:false (impl ())
      in
      match (verify flat_engine, verify Explore.naive) with
      | Check.Verified _, Check.Verified _ -> ()
      | Check.Falsified vf, Check.Falsified _ -> (
        (* a flat-engine violation must replay: its witness is real *)
        match vf.Check.witness with
        | None -> ()
        | Some w -> (
          match Witness.replay (impl ()) w with
          | Ok _ -> ()
          | Error e ->
            Alcotest.failf "%s: flat witness does not replay: %s" name e))
      | vf, vb ->
        Alcotest.failf "%s: verdicts disagree: flat %a, naive %a" name
          Check.pp_verdict vf Check.pp_verdict vb)
    [
      ( "cas2+crash",
        (fun () -> Protocols.from_cas ~procs:2 ()),
        Some (Faults.crashes 1) );
      ("broken", Protocols.broken_register_only, None);
    ]

(* The verdicts themselves, under the reduced and the unreduced engine. *)
let test_verdict_expected () =
  List.iter
    (fun (name, impl, expected) ->
      let verdict engine =
        match Check.verify ~engine ~subsets:false (impl ()) with
        | Check.Verified _ -> "verified"
        | Check.Falsified _ -> "falsified"
        | Check.Unknown _ -> "unknown"
      in
      Alcotest.(check string) (name ^ ": fast") expected
        (verdict Explore.fast);
      Alcotest.(check string) (name ^ ": naive") expected
        (verdict Explore.naive))
    [
      ("cas3", (fun () -> Protocols.from_cas ~procs:3 ()), "verified");
      ("sticky3", (fun () -> Protocols.from_sticky ~procs:3 ()), "verified");
      ("broken", Protocols.broken_register_only, "falsified");
    ]

(* --- the capped table ----------------------------------------------------- *)

(* Under [mem_budget_mb:0] the table holds at most 1,024 slots and is
   emptied where it would grow: the run forgets states and revisits them.
   Every flat configuration must still reach the naive observation set,
   end [Exhaustive] and visit at least the uncapped run's nodes, with and
   without a crash-recovery adversary, on the 40-case generator. *)
let assert_capped_observations ?faults ~msg impl workloads =
  let _, nobs = naive_reference ?faults impl workloads in
  List.iter
    (fun (sub, options, input) ->
      let msg = msg ^ "/" ^ sub in
      let impl = input impl in
      let uncapped, _ = collect ?faults ~options impl workloads in
      let capped, obs =
        collect ?faults ~mem_budget_mb:0 ~options impl workloads
      in
      Alcotest.(check (list value))
        (msg ^ ": observation set") nobs
        (List.sort_uniq Value.compare obs);
      Alcotest.(check bool) (msg ^ ": exhaustive") true
        (capped.Explore.completeness = Explore.Exhaustive);
      Alcotest.(check bool) (msg ^ ": no fewer nodes") true
        (capped.Explore.nodes >= uncapped.Explore.nodes))
    flat_configs

let prop_capped_parity =
  QCheck.Test.make ~count:40 ~name:"keeps naive observations"
    (QCheck.make gen_workloads ~print:(fun (procs, bits, coin, wls) ->
         Fmt.str "procs=%d bits=%d coin=%b workloads=%a" procs bits coin
           Fmt.(array (list Value.pp))
           wls))
    (fun (procs, bits, coin, wls) ->
      let impl = rw_impl ~procs ~bits ~coin in
      assert_capped_observations ~msg:"capped" impl wls;
      assert_capped_observations
        ~faults:(Faults.crash_recovery ~crashes:1 ~recoveries:1)
        ~msg:"capped+crash-recovery" impl wls;
      true)

(* A capped run's verdicts are exact: a clean protocol is [Verified] even
   where its tables flush, and a broken one is [Falsified] with a witness
   that replays. *)
let test_capped_verdicts () =
  (match
     Check.verify ~engine:flat_engine ~mem_budget_mb:0
       (Protocols.from_cas ~procs:5 ())
   with
  | Check.Verified r ->
    Alcotest.(check bool) "the tables flushed" true (r.Check.evictions > 0)
  | v -> Alcotest.failf "capped cas n=5 not verified: %a" Check.pp_verdict v);
  match
    Check.verify ~engine:flat_engine ~mem_budget_mb:0 ~subsets:false
      (Protocols.broken_register_only ())
  with
  | Check.Falsified v -> (
    match v.Check.witness with
    | None -> Alcotest.fail "capped falsification carries no witness"
    | Some w -> (
      match Witness.replay (Protocols.broken_register_only ()) w with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "capped witness does not replay: %s" e))
  | v ->
    Alcotest.failf "broken protocol not falsified under a cap: %a"
      Check.pp_verdict v

(* [Table.limit]: the capacity never passes the cap, a table above it is
   swapped for a default-sized one, and a flushed table answers [false]
   for every key it held. *)
let test_table_cap () =
  let module T = Fingerprint.Table in
  Alcotest.(check (list int)) "caps of 0, 1 and 3 MiB"
    [ 1024; 65536; 131072 ]
    (List.map T.cap_of_mib [ 0; 1; 3 ]);
  let key i = (i * 7919, (i * 104729) + 1) in
  let t = T.create () in
  for i = 0 to 5000 do
    let hi, lo = key i in
    ignore (T.mem_or_add t ~hi ~lo)
  done;
  Alcotest.(check bool) "uncapped: grew" true (T.capacity t > 1024);
  T.limit t (Some 0);
  Alcotest.(check int) "swapped for a default-sized table" 1024 (T.capacity t);
  Alcotest.(check int) "and emptied" 0 (T.length t);
  let last_flush = ref (-1) in
  for i = 0 to 5000 do
    let hi, lo = key i in
    let flushes = T.flushes t in
    ignore (T.mem_or_add t ~hi ~lo);
    if T.flushes t > flushes then last_flush := i;
    if T.capacity t > 1024 then
      Alcotest.failf "capacity %d past the cap" (T.capacity t)
  done;
  Alcotest.(check int) "a flush each 896 keys" (5001 / 896) (T.flushes t);
  Alcotest.(check int) "the last at the 896th key since the one before"
    ((5001 / 896 * 896) - 1) !last_flush;
  (* the keys since the last flush are held; every one before it is not
     (probing those adds them, distinct keys, so look at the held first) *)
  let answers a b =
    List.init (b - a + 1) (fun i ->
        let hi, lo = key (a + i) in
        T.mem_or_add t ~hi ~lo)
  in
  Alcotest.(check bool) "held since the last flush" true
    (List.for_all Fun.id (answers (!last_flush + 1) 5000));
  Alcotest.(check bool) "forgotten before it" true
    (not (List.exists Fun.id (answers 0 !last_flush)));
  T.limit t None;
  Alcotest.(check int) "limit restarts the flush count" 0 (T.flushes t)

(* --- open-addressing table vs Hashtbl oracle -------------------------------- *)

(* A table operation: probe one pair; probe a burst of [n] keys drawn from
   stream [seed] (small bursts grow the table past its default size, so a
   later [reset] after a small run takes the shrink path; large ones grow
   it past 2^16 slots, where it keeps no slot log, and a burst from a
   stream seen before probes keys already held); reset, then probe every
   key held before it; cap the table or lift its cap ([limit]); or
   re-probe every key the oracle holds. Probe lanes are often tiny, so keys
   pile up on the same few home slots and Robin Hood displacement runs
   long. *)
type table_op =
  | Probe of int * int
  | Burst of int * int
  | Reset
  | Limit of int option
  | Recheck

let gen_table_ops =
  QCheck.Gen.(
    let lane =
      oneof [ int_bound 3; int_bound 64; map (fun n -> n land max_int) int ]
    in
    list_size (int_range 0 400)
      (frequency
         [
           (600, map2 (fun hi lo -> Probe (hi, lo)) lane lane);
           (18, map2 (fun s n -> Burst (s, n)) (int_bound 3) (int_range 1 3000));
           ( 1,
             map2 (fun s n -> Burst (s, n)) (int_bound 3) (int_range 58000 70000)
           );
           (24, return Reset);
           (12, map (fun mb -> Limit mb) (option (int_bound 1)));
           (9, return Recheck);
         ]))

(* The table against a [Hashtbl] of the keys it must hold. A flush at the
   cap forgets every key, the one just probed included, so the oracle
   empties with it; [limit] empties both when it swaps out a table larger
   than the new cap. Every case ends with a re-probe of all held keys: a
   displacement that loses or duplicates an entry, a [grow] that breaks the
   Robin Hood order and a [reset] that leaves a key behind each fail it. *)
let prop_table_oracle =
  let module T = Fingerprint.Table in
  QCheck.Test.make ~count:100
    ~name:"Fingerprint.Table matches a Hashtbl oracle"
    (QCheck.make gen_table_ops
       ~print:(fun ops -> Fmt.str "%d operations" (List.length ops)))
    (fun ops ->
      (* tiny initial capacity: growth is exercised on almost every case *)
      let t = T.create ~capacity_log2:2 () in
      let oracle = Hashtbl.create 16 in
      let cap = ref max_int in
      let consistent () =
        T.length t = Hashtbl.length oracle && T.capacity t <= !cap
      in
      let probe (hi, lo) =
        (* the table documents the ⟨0,0⟩ → ⟨0,1⟩ remap; mirror it *)
        let key = if hi = 0 && lo = 0 then (0, 1) else (hi, lo) in
        let expect = Hashtbl.mem oracle key in
        let flushes = T.flushes t in
        let got = T.mem_or_add t ~hi ~lo in
        if T.flushes t > flushes then Hashtbl.reset oracle
        else Hashtbl.replace oracle key ();
        got = expect && consistent ()
      in
      let recheck () =
        Hashtbl.fold
          (fun (hi, lo) () ok -> T.mem_or_add t ~hi ~lo && ok)
          oracle true
        && consistent ()
      in
      List.for_all
        (function
          | Probe (hi, lo) -> probe (hi, lo)
          | Burst (seed, n) ->
            List.for_all probe
              (List.init n (fun i ->
                   (Fingerprint.tail_hi i seed, Fingerprint.tail_lo i seed)))
          | Reset ->
            (* every key held before must be gone: probing each misses *)
            let held = Hashtbl.fold (fun k () ks -> k :: ks) oracle [] in
            T.reset t;
            Hashtbl.reset oracle;
            T.length t = 0 && List.for_all probe held
          | Limit mb ->
            let emptied =
              match mb with
              | None -> false
              | Some mb -> T.capacity t > T.cap_of_mib mb
            in
            T.limit t mb;
            cap := Option.fold ~none:max_int ~some:T.cap_of_mib mb;
            if emptied then Hashtbl.reset oracle;
            T.flushes t = 0 && consistent ()
          | Recheck -> recheck ())
        ops
      && recheck ())

(* The [linearize] workload's 2x6 job holds 106,626 states: at up to 7/8
   load they fit in 131,072 slots, and a table that dense still finds every
   one of them. *)
let test_table_dense_fill () =
  let module T = Fingerprint.Table in
  let t = T.create () in
  let n = 106_626 in
  let key i = (Fingerprint.tail_hi i 7, Fingerprint.tail_lo i 7) in
  for i = 0 to n - 1 do
    let hi, lo = key i in
    if T.mem_or_add t ~hi ~lo then Alcotest.failf "fresh key %d reported held" i
  done;
  Alcotest.(check int) "every key held" n (T.length t);
  Alcotest.(check int) "in 131,072 slots" 131_072 (T.capacity t);
  for i = 0 to n - 1 do
    let hi, lo = key i in
    if not (T.mem_or_add t ~hi ~lo) then Alcotest.failf "key %d lost" i
  done;
  Alcotest.(check int) "found again, none added" n (T.length t)

(* [reset] clears a table in place when its last run filled it, and swaps
   an oversized one for a default-sized one. *)
let test_table_reset_shrinks () =
  let t = Fingerprint.Table.create () in
  let fill n =
    for i = 1 to n do
      ignore (Fingerprint.Table.mem_or_add t ~hi:(i * 7919) ~lo:(i * 104729))
    done
  in
  let words () = Obj.reachable_words (Obj.repr t) in
  let default_words = words () in
  fill 8000;
  let grown = words () in
  Alcotest.(check bool) "grew" true (grown > 8 * default_words);
  Fingerprint.Table.reset t;
  Alcotest.(check int) "a full table is cleared in place" grown (words ());
  Alcotest.(check int) "cleared" 0 (Fingerprint.Table.length t);
  fill 10;
  Fingerprint.Table.reset t;
  Alcotest.(check int) "an oversized table shrinks to the default size"
    default_words (words ());
  fill 100;
  Alcotest.(check int) "usable after the shrink" 100
    (Fingerprint.Table.length t);
  Alcotest.(check bool) "entries found again" true
    (Fingerprint.Table.mem_or_add t ~hi:7919 ~lo:104729)

(* [reset] clears from the slot log while a run fits it and clears the
   whole table once a run overflowed it; [grow] re-logs the entries while
   they fit. Tables of random initial size get random fills, most crossing
   the log of the capacity they grow to, some growing the table past 2^16
   slots, where it has no log, each fill followed by a reset: afterwards
   the table must be empty, report none of the keys it held, and be
   exactly as large as the shrink rule says, which a model of the capacity
   tracks. *)
let prop_table_reset_log =
  let default_cap = 1024 in
  QCheck.Test.make ~count:60 ~name:"Table.reset empties whatever the log held"
    QCheck.(
      make
        ~print:(fun (c, l) ->
          Fmt.str "2^%d: %s" c (String.concat "," (List.map string_of_int l)))
        Gen.(
          pair (int_range 2 10)
            (list_size (int_range 1 8)
               (frequency
                  [
                    (4, int_range 0 600);
                    (3, int_range 600 5000);
                    (1, int_range 16000 17000);
                    (1, int_range 66000 70000);
                  ]))))
    (fun (capacity_log2, fills) ->
      let default_words =
        Obj.reachable_words (Obj.repr (Fingerprint.Table.create ()))
      in
      let t = Fingerprint.Table.create ~capacity_log2 () in
      let words () = Obj.reachable_words (Obj.repr t) in
      let next = ref 0 and cap = ref (1 lsl capacity_log2) in
      (* distinct keys: [hi] is unique; [lo] is a mixer output, so keys
         share home slots and displace each other as fingerprints do *)
      let key k = (k, Fingerprint.tail_lo k 0) in
      List.for_all
        (fun n ->
          let first = !next in
          for _ = 1 to n do
            let hi, lo = key !next in
            incr next;
            if Fingerprint.Table.mem_or_add t ~hi ~lo then
              Alcotest.fail "a fresh key was reported present";
            if 8 * (!next - first) > 7 * (!cap - 1) then cap := 2 * !cap
          done;
          let filled = Fingerprint.Table.length t = n in
          Fingerprint.Table.reset t;
          if !cap > default_cap && !cap > 16 * n then cap := default_cap;
          let empty = Fingerprint.Table.length t = 0 in
          let sized = (words () = default_words) = (!cap = default_cap) in
          (* the first keys, which the log recorded, and the last ones:
             probing adds them again, so a second reset clears them *)
          let gone = ref true in
          for k = first to !next - 1 do
            if k - first < 150 || !next - k <= 150 then begin
              let hi, lo = key k in
              if Fingerprint.Table.mem_or_add t ~hi ~lo then gone := false
            end
          done;
          Fingerprint.Table.reset t;
          let m = min n 300 in
          if !cap > default_cap && !cap > 16 * m then cap := default_cap;
          filled && empty && sized && !gone
          && Fingerprint.Table.length t = 0)
        fills)

(* --- fingerprint hashing sanity --------------------------------------------- *)

(* The probe's per-key terms: each must separate what it is given, and the
   two lanes must be independent functions. *)
let test_hash_sensitivity () =
  let distinct name xs =
    Alcotest.(check int) name (List.length xs)
      (List.length (List.sort_uniq compare xs))
  in
  distinct "tail separates events"
    (List.init 64 (fun e -> Fingerprint.tail_hi e (-1)));
  distinct "tail separates tracker ids"
    (List.init 64 (fun id -> Fingerprint.tail_lo 5 (id - 1)));
  distinct "tail is order-sensitive"
    [ Fingerprint.tail_hi 3 7; Fingerprint.tail_hi 7 3 ];
  distinct "budget separates each budget"
    (List.concat_map
       (fun c ->
         List.concat_map
           (fun r -> List.init 4 (fun g -> Fingerprint.budget_hi c r g))
           [ 0; 1; 2; 3 ])
       [ 0; 1; 2; 3 ]);
  distinct "budget is order-sensitive"
    [ Fingerprint.budget_lo 1 0 0; Fingerprint.budget_lo 0 1 0;
      Fingerprint.budget_lo 0 0 1 ];
  let rand = Random.State.make [| 0x1A2E |] in
  for _ = 1 to 1000 do
    let r () = Random.State.int rand 1_000_000 in
    let a = r () and b = r () and c = r () and d = r () and e = r () in
    let salt = Random.State.int rand 6 in
    let h = Fingerprint.record_hi salt a b c d e
    and l = Fingerprint.record_lo salt a b c d e in
    if
      h < 0 || l < 0
      || Fingerprint.tail_hi a b < 0
      || Fingerprint.tail_lo a b < 0
    then Alcotest.fail "a term is negative";
    if h = l || Fingerprint.tail_hi a b = Fingerprint.tail_lo a b
       || Fingerprint.budget_hi a b c = Fingerprint.budget_lo a b c
    then Alcotest.fail "the lanes agree";
    if Fingerprint.asleep_hi h = h || Fingerprint.asleep_lo l = l then
      Alcotest.fail "asleep = awake";
    (* a sleeping record never stands in for an awake one of its class *)
    let h' = Fingerprint.record_hi salt a b c d (e + 1) in
    if Fingerprint.asleep_hi h = h' || Fingerprint.asleep_hi h' = h then
      Alcotest.fail "asleep term equals another record's awake term"
  done;
  Alcotest.(check bool) "string digest deterministic" true
    (Fingerprint.hash_string "wfc" = Fingerprint.hash_string "wfc");
  Alcotest.(check bool) "string digest separates" true
    (Fingerprint.hash_string "wfc-checkpoint/1"
    <> Fingerprint.hash_string "wfc-checkpoint/2");
  (* checkpoints store the digest: these are the values it has always had *)
  Alcotest.(check (list int)) "string digest pinned"
    [ 1108487571870962392; 2030648493744025355; 2570100490656976141 ]
    (List.map Fingerprint.hash_string
       [ ""; "wfc-checkpoint/5"; "digest the body\n" ]);
  Alcotest.(check (list int)) "component and record terms pinned"
    [ 1580394556071142693; 4193483965750566612; 467197854272810500;
      1972864303250822927 ]
    [ Fingerprint.component_hi 1 2 3 4; Fingerprint.component_lo 1 2 3 4;
      Fingerprint.record_hi 0 1 2 3 4 5; Fingerprint.record_lo 0 1 2 3 4 5 ]

(* Two fields share a word of a term, so fields that differ only across a
   word's seam, or only in the high field, must still give different terms:
   every combination of boundary values below, chain = -1 and fields at
   2^31 - 1 included, gets its own term in each lane. *)
let test_packed_terms_separate () =
  let top = Fingerprint.field_bound - 1 in
  let edges = [ 0; 1; 1 lsl 30; top ] in
  let distinct name terms =
    Alcotest.(check int) name (List.length terms)
      (List.length (List.sort_uniq compare terms))
  in
  let components =
    List.concat_map
      (fun pos ->
        List.concat_map
          (fun q ->
            List.concat_map
              (fun h -> List.map (fun a -> (pos, q, h, a)) edges)
              edges)
          edges)
      [ 0; 1; top ]
  in
  distinct "component hi"
    (List.map (fun (p, q, h, a) -> Fingerprint.component_hi p q h a) components);
  distinct "component lo"
    (List.map (fun (p, q, h, a) -> Fingerprint.component_lo p q h a) components);
  let records =
    List.concat_map
      (fun salt ->
        List.concat_map
          (fun local ->
            List.concat_map
              (fun next_op ->
                List.concat_map
                  (fun chain ->
                    List.concat_map
                      (fun ops ->
                        List.map
                          (fun flags -> (salt, local, next_op, chain, ops, flags))
                          [ 0; 1; 2; 3 ])
                      edges)
                  [ -1; 0; 1; top ])
              edges)
          edges)
      [ 0; 1 ]
  in
  distinct "record hi"
    (List.map
       (fun (s, l, n, c, o, f) -> Fingerprint.record_hi s l n c o f)
       records);
  distinct "record lo"
    (List.map
       (fun (s, l, n, c, o, f) -> Fingerprint.record_lo s l n c o f)
       records)

(* The key packs access counts and workload positions, both at most the
   event count, into 31-bit fields: a fuel that could exceed them is
   refused, and the largest one that cannot is accepted. *)
let test_fuel_range () =
  let impl = proto "tas" 2 in
  let workloads = [| [ Ops.propose (Value.bool true) ]; [ Ops.propose (Value.bool false) ] |] in
  (match Explore.run impl ~workloads ~fuel:Fingerprint.field_bound () with
  | _ -> Alcotest.fail "fuel 2^31 accepted"
  | exception Invalid_argument _ -> ());
  let st =
    Explore.run impl ~workloads ~fuel:(Fingerprint.field_bound - 1)
      ~options:Explore.fast ()
  in
  Alcotest.(check int) "no overflow" 0 st.Explore.overflows

(* --- additive segment hashing ---------------------------------------------- *)

let segment_sums comps =
  Array.fold_left
    (fun (h, l) (pos, a, b, c) ->
      (h + Fingerprint.component_hi pos a b c,
       l + Fingerprint.component_lo pos a b c))
    (0, 0) comps

let test_segment_update_revert () =
  let rng = Random.State.make [| 0x5E6 |] in
  let comp pos =
    (pos, Random.State.int rng 1000, Random.State.int rng 1000,
     Random.State.int rng 50)
  in
  for _ = 1 to 200 do
    let comps = Array.init 8 comp in
    let hi0, lo0 = segment_sums comps in
    let i = Random.State.int rng 8 in
    let ((pos, a, b, c) as old) = comps.(i) in
    let ((_, a', b', c') as nw) = (pos, a + 1 + Random.State.int rng 5, b, c + 1) in
    (* incremental update: subtract the old term, add the new one *)
    let hi1 =
      hi0 - Fingerprint.component_hi pos a b c + Fingerprint.component_hi pos a' b' c'
    and lo1 =
      lo0 - Fingerprint.component_lo pos a b c + Fingerprint.component_lo pos a' b' c'
    in
    comps.(i) <- nw;
    Alcotest.(check (pair int int)) "update matches recomputation"
      (segment_sums comps) (hi1, lo1);
    Alcotest.(check bool) "update moves both lanes" true (hi1 <> hi0 && lo1 <> lo0);
    (* revert *)
    let hi2 =
      hi1 - Fingerprint.component_hi pos a' b' c' + Fingerprint.component_hi pos a b c
    and lo2 =
      lo1 - Fingerprint.component_lo pos a' b' c' + Fingerprint.component_lo pos a b c
    in
    comps.(i) <- old;
    Alcotest.(check (pair int int)) "revert restores both sums" (hi0, lo0) (hi2, lo2)
  done

let test_segment_positions_salted () =
  let a = (17, 3, 1) and b = (42, 3, 2) in
  let at pos (x, y, z) = (pos, x, y, z) in
  let hi, lo = segment_sums [| at 0 a; at 1 b; at 2 a |] in
  let hi', lo' = segment_sums [| at 0 b; at 1 a; at 2 a |] in
  Alcotest.(check bool) "swap changes the hi lane" true (hi <> hi');
  Alcotest.(check bool) "swap changes the lo lane" true (lo <> lo');
  (* an equal component at two positions does not cancel out *)
  let hi_eq, lo_eq = segment_sums [| at 0 a; at 1 a |] in
  Alcotest.(check bool) "repeated component does not vanish" true
    ((hi_eq, lo_eq) <> (0, 0))

(* A random walk over configurations of 6 objects, each step changing one
   component the way an edge does (new state cell, access count + 1), with
   occasional jumps: ~10^5 distinct configurations, and no two may share
   their ⟨hi, lo⟩ pair of sums. *)
let test_segment_collision_probe () =
  let rng = Random.State.make [| 0xC011 |] in
  let k = 6 in
  let cur = Array.init k (fun _ -> (Random.State.int rng 8, 0, 0)) in
  let hi = ref 0 and lo = ref 0 in
  let recompute () =
    let h, l =
      segment_sums (Array.mapi (fun pos (a, b, c) -> (pos, a, b, c)) cur)
    in
    hi := h;
    lo := l
  in
  recompute ();
  let seen = Hashtbl.create 200_000 in
  let configs = ref 0 and collisions = ref 0 in
  for step = 1 to 100_000 do
    if step mod 997 = 0 then begin
      Array.iteri
        (fun i _ -> cur.(i) <- (Random.State.int rng 8, Random.State.int rng 3, 0))
        cur;
      recompute ()
    end
    else begin
      let o = Random.State.int rng k in
      let ((_, b, c) as old) = cur.(o) in
      let nw = (Random.State.int rng 8, b, c + 1) in
      let term f (x, y, z) = f o x y z in
      hi := !hi - term Fingerprint.component_hi old + term Fingerprint.component_hi nw;
      lo := !lo - term Fingerprint.component_lo old + term Fingerprint.component_lo nw;
      cur.(o) <- nw
    end;
    let key = Array.to_list cur in
    match Hashtbl.find_opt seen (!hi, !lo) with
    | Some k' -> if k' <> key then incr collisions
    | None ->
      incr configs;
      Hashtbl.add seen (!hi, !lo) key
  done;
  Alcotest.(check bool) "probe covers ~10^5 configurations" true
    (!configs > 90_000);
  Alcotest.(check int) "no equal ⟨hi, lo⟩ pairs" 0 !collisions

(* --- additive process records vs the sort encoding --------------------------

   The kernel keys the processes by a sum of record terms salted with each
   pid's class representative. The oracle is the encoding it replaced: per
   class, in representative order, the members' five-int records sorted
   lexicographically. Two configurations must get equal sums exactly when
   their oracle encodings are equal. *)

let record_sums rep (recs : int array array) =
  let hi = ref 0 and lo = ref 0 in
  Array.iteri
    (fun p r ->
      hi := !hi + Fingerprint.record_hi rep.(p) r.(0) r.(1) r.(2) r.(3) r.(4);
      lo := !lo + Fingerprint.record_lo rep.(p) r.(0) r.(1) r.(2) r.(3) r.(4))
    recs;
  (!hi, !lo)

let members rep r =
  List.filter (fun p -> rep.(p) = r) (List.init (Array.length rep) Fun.id)

let sorted_encoding rep (recs : int array array) =
  List.concat_map
    (fun r ->
      List.sort compare
        (List.map (fun p -> Array.to_list recs.(p)) (members rep r)))
    (List.filter (fun p -> rep.(p) = p) (List.init (Array.length rep) Fun.id))

(* Each pid joins the class of an earlier pid or starts its own; a class's
   representative is its smallest pid, as [Explore.Symmetry] builds them. *)
let gen_class_map n =
  QCheck.Gen.(
    map
      (fun picks ->
        let rep = Array.make n 0 in
        Array.iteri
          (fun p q -> rep.(p) <- (if q < p then rep.(q) else p))
          picks;
        rep)
      (array_size (return n) (int_bound (n - 1))))

(* Narrow fields, so equal records and equal multisets are common. *)
let gen_record = QCheck.Gen.(array_size (return 5) (int_bound 2))

(* Permute each class's records among its members. *)
let shuffle_classes rand rep (recs : int array array) =
  let out = Array.copy recs in
  Array.iteri
    (fun r _ ->
      let members = members rep r in
      let shuffled =
        List.map snd
          (List.sort compare
             (List.map (fun p -> (Random.State.bits rand, recs.(p))) members))
      in
      List.iter2 (fun p rc -> out.(p) <- rc) members shuffled)
    rep;
  out

let rng seed = Random.State.make [| seed |]

let gen_record_pair =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let* rep = gen_class_map n in
    let* a = array_size (return n) gen_record in
    let* b =
      frequency
        [
          (2, map (fun seed -> shuffle_classes (rng seed) rep a) int);
          (* across classes: equal only when the classes' multisets are *)
          ( 1,
            map (fun seed -> shuffle_classes (rng seed) (Array.make n 0) a) int
          );
          ( 1,
            let* p = int_bound (n - 1) and* f = int_bound 4 in
            let+ v = int_bound 2 in
            let b = Array.map Array.copy a in
            b.(p).(f) <- v;
            b );
          (1, array_size (return n) gen_record);
        ]
    in
    return (rep, a, b))

let prop_record_key_oracle =
  QCheck.Test.make ~count:2000
    ~name:"record sums equal iff the sorted per-class encodings are"
    (QCheck.make gen_record_pair ~print:(fun (rep, a, b) ->
         let recs rs = Fmt.(str "%a" (array (array ~sep:comma int)) rs) in
         Fmt.str "classes=%a a=%s b=%s" Fmt.(array int) rep (recs a) (recs b)))
    (fun (rep, a, b) ->
      record_sums rep a = record_sums rep b
      = (sorted_encoding rep a = sorted_encoding rep b))

let test_record_key_separates () =
  let rand = Random.State.make [| 0x5EC0 |] in
  for _ = 1 to 500 do
    let n = 2 + Random.State.int rand 5 in
    let rep = gen_class_map n rand in
    let recs = Array.init n (fun _ -> gen_record rand) in
    let key = record_sums rep recs in
    for p = 0 to n - 1 do
      (* the crashed and stuck bits of the kernel's flags field, and the
         next bit up *)
      List.iter
        (fun bit ->
          let flipped = Array.copy recs in
          flipped.(p) <- Array.copy recs.(p);
          flipped.(p).(4) <- flipped.(p).(4) lxor bit;
          Alcotest.(check bool)
            (Fmt.str "flipping flag bit %d of p%d changes the key" bit p)
            true
            (record_sums rep flipped <> key))
        [ 1; 2; 4 ];
      Array.iter
        (fun r ->
          if r <> rep.(p) && rep.(r) = r then begin
            let moved = Array.copy rep in
            moved.(p) <- r;
            Alcotest.(check bool)
              (Fmt.str "moving p%d's record to class %d changes the key" p r)
              true
              (record_sums moved recs <> key)
          end)
        rep
    done
  done

(* The segment probe's shape for the process sums: 6 processes in two
   classes, each step changing one field of one record the way an edge
   does, or moving one process into or out of the sleep set the way a
   probe does, with occasional jumps; ~10^5 distinct configurations up to
   the class symmetry, and no two may share their ⟨hi, lo⟩ sums. A
   sleeping process contributes [asleep_hi] of its record's term. *)
let test_record_collision_probe () =
  let rand = Random.State.make [| 0xC012 |] in
  let rep = [| 0; 0; 0; 3; 3; 3 |] in
  let field i = Random.State.int rand (if i = 4 then 4 else 16) in
  let fresh () = Array.init 5 field in
  let recs = Array.init 6 (fun _ -> fresh ()) in
  let asleep = Array.init 6 (fun _ -> Random.State.bool rand) in
  let hi = ref 0 and lo = ref 0 in
  let term (f, sleep_f) p r =
    let t = f rep.(p) r.(0) r.(1) r.(2) r.(3) r.(4) in
    if asleep.(p) then sleep_f t else t
  in
  let lane_hi = (Fingerprint.record_hi, Fingerprint.asleep_hi)
  and lane_lo = (Fingerprint.record_lo, Fingerprint.asleep_lo) in
  let recompute () =
    hi := 0;
    lo := 0;
    Array.iteri
      (fun p r ->
        hi := !hi + term lane_hi p r;
        lo := !lo + term lane_lo p r)
      recs
  in
  recompute ();
  let seen = Hashtbl.create 200_000 in
  let configs = ref 0 and collisions = ref 0 in
  for step = 1 to 100_000 do
    if step mod 997 = 0 then begin
      Array.iteri
        (fun p _ ->
          recs.(p) <- fresh ();
          asleep.(p) <- Random.State.bool rand)
        recs;
      recompute ()
    end
    else begin
      let p = Random.State.int rand 6 in
      let old = recs.(p) in
      hi := !hi - term lane_hi p old;
      lo := !lo - term lane_lo p old;
      if Random.State.int rand 4 = 0 then asleep.(p) <- not asleep.(p)
      else begin
        let nw = Array.copy old in
        let f = Random.State.int rand 5 in
        nw.(f) <- field f;
        recs.(p) <- nw
      end;
      hi := !hi + term lane_hi p recs.(p);
      lo := !lo + term lane_lo p recs.(p)
    end;
    let key =
      sorted_encoding rep
        (Array.mapi
           (fun p r -> Array.append r [| Bool.to_int asleep.(p) |])
           recs)
    in
    match Hashtbl.find_opt seen (!hi, !lo) with
    | Some k' -> if k' <> key then incr collisions
    | None ->
      incr configs;
      Hashtbl.add seen (!hi, !lo) key
  done;
  Alcotest.(check bool) "probe covers ~10^5 configurations" true
    (!configs > 90_000);
  Alcotest.(check int) "no equal ⟨hi, lo⟩ pairs" 0 !collisions

(* --- the pooled dedup context ---------------------------------------------- *)

let cas5 () =
  ( proto "cas" 5,
    Array.init 5 (fun i -> [ Ops.propose (Value.bool (i mod 2 = 0)) ]) )

(* A default-sized table is two 1024-word arrays, allocated straight into
   the major heap. After a warm-up run the pooled table is reused, so 20
   more runs must allocate almost nothing there directly; without the pool
   they allocate 41,000 words. *)
let test_pool_no_major_words () =
  let impl, workloads = cas5 () in
  let run () = ignore (Explore.run impl ~workloads ~options:Explore.fast ()) in
  run ();
  (* this domain's exact counters; [Gc.quick_stat]'s are sampled *)
  let _, promoted0, major0 = Gc.counters () in
  for _ = 1 to 20 do
    run ()
  done;
  let _, promoted1, major1 = Gc.counters () in
  let direct = major1 -. major0 -. (promoted1 -. promoted0) in
  if direct > 4096. then
    Alcotest.failf "20 pooled runs allocated %.0f major-heap words directly"
      direct

(* A leaf callback exploring the same implementation finds the pool
   borrowed and allocates its own table; neither run may see the other's
   entries. Runs alternating with the pid-exact input, whose compiled
   context keeps a pool of its own, change neither. *)
let test_pool_reentrant () =
  let impl, workloads = cas5 () in
  let exact = pid_exact impl in
  let alone impl = Explore.run impl ~workloads ~options:Explore.fast () in
  let lone_fast = alone impl and lone_exact = alone exact in
  Alcotest.(check bool) "inputs differ" true (lone_fast <> lone_exact);
  for _ = 1 to 2 do
    Alcotest.(check bool) "exact after symmetric" true
      (alone exact = lone_exact);
    Alcotest.(check bool) "symmetric after exact" true
      (alone impl = lone_fast)
  done;
  let nested = ref [] in
  let outer =
    Explore.run impl ~workloads ~options:Explore.fast
      ~on_leaf_trace:(fun _ _ ->
        nested := (alone impl, alone exact) :: !nested)
      ()
  in
  Alcotest.(check bool) "outer run = lone run" true (outer = lone_fast);
  Alcotest.(check int) "one nested run per leaf" outer.Explore.leaves
    (List.length !nested);
  List.iter
    (fun (s, e) ->
      Alcotest.(check bool) "nested run = lone run" true (s = lone_fast);
      Alcotest.(check bool) "nested exact run = lone run" true
        (e = lone_exact))
    !nested;
  Alcotest.(check bool) "a later run = lone run" true (alone impl = lone_fast)

let () =
  Alcotest.run "wfc_flat"
    [
      ( "flat engine parity",
        [
          Alcotest.test_case "fixed workloads" `Quick test_parity_fixed;
          Alcotest.test_case "under a fault adversary" `Quick
            test_parity_faults;
          QCheck_alcotest.to_alcotest prop_parity;
        ] );
      ( "compiled step tables",
        [
          Alcotest.test_case "agree with Type_spec across the zoo" `Quick
            test_step_table_agrees_with_zoo;
          Alcotest.test_case "compiled kernel parity (fixed)" `Quick
            test_compile_parity_fixed;
          QCheck_alcotest.to_alcotest prop_compile_parity;
        ] );
      ( "verdict parity",
        [
          Alcotest.test_case "Check.verify agrees" `Quick test_verdict_parity;
          Alcotest.test_case "Check.verify agrees with the expected verdicts"
            `Quick test_verdict_expected;
        ] );
      ( "pinned counts",
        [
          Alcotest.test_case "kernel matches the table" `Quick test_pinned_counts;
          Alcotest.test_case "program table: a warm re-run compiles nothing"
            `Quick test_warm_rerun_compiles_nothing;
          Alcotest.test_case "minor words per node" `Quick
            test_allocation_per_node;
        ] );
      ( "wide/tracked parity",
        [
          Alcotest.test_case "Theorem 5 output: compiled = interpreted" `Quick
            test_theorem5_compile_parity;
          Alcotest.test_case "universal faa under a tracker" `Quick
            test_universal_tracker_parity;
        ] );
      ( "capped table",
        [
          QCheck_alcotest.to_alcotest prop_capped_parity;
          Alcotest.test_case "verdicts stay exact" `Quick test_capped_verdicts;
          Alcotest.test_case "capacity under the cap" `Quick test_table_cap;
        ] );
      ( "fingerprint structures",
        [
          QCheck_alcotest.to_alcotest prop_table_oracle;
          Alcotest.test_case "hash sensitivity" `Quick test_hash_sensitivity;
          Alcotest.test_case "segment update then revert" `Quick
            test_segment_update_revert;
          Alcotest.test_case "segment positions are salted" `Quick
            test_segment_positions_salted;
          Alcotest.test_case "segment collision probe" `Quick
            test_segment_collision_probe;
          Alcotest.test_case "table reset shrinks an oversized table" `Quick
            test_table_reset_shrinks;
          Alcotest.test_case "dense fill: 106,626 keys in 131,072 slots" `Quick
            test_table_dense_fill;
          QCheck_alcotest.to_alcotest prop_table_reset_log;
          Alcotest.test_case "packed terms separate across seams" `Quick
            test_packed_terms_separate;
          Alcotest.test_case "fuel beyond the packed fields is refused" `Quick
            test_fuel_range;
          QCheck_alcotest.to_alcotest prop_record_key_oracle;
          Alcotest.test_case "record key separates flags and classes" `Quick
            test_record_key_separates;
          Alcotest.test_case "record collision probe" `Quick
            test_record_collision_probe;
          Alcotest.test_case "pooled table: no direct major words" `Quick
            test_pool_no_major_words;
          Alcotest.test_case "pooled table: reentrant and alternating runs"
            `Quick test_pool_reentrant;
        ] );
    ]
