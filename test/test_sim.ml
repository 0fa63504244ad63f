(* Tests for the program monad, implementations, vertical composition, and
   the execution engine (exhaustive exploration + guided runs). *)

open Wfc_spec
open Wfc_zoo
open Wfc_program

let value = Alcotest.testable Value.pp Value.equal

(* --- Program monad ------------------------------------------------------- *)

let test_program_bind () =
  let open Program.Syntax in
  let p =
    let* a = Program.invoke ~obj:0 Ops.read in
    let* b = Program.invoke ~obj:1 Ops.read in
    Program.return (Value.pair a b)
  in
  (* walk the tree by hand with a canned oracle *)
  let rec feed p answers =
    match (p, answers) with
    | Program.Return v, [] -> v
    | Program.Invoke { obj; inv; k; _ }, a :: rest ->
      Alcotest.check value "reads" Ops.read inv;
      Alcotest.(check bool) "obj in range" true (obj = 0 || obj = 1);
      feed (k a) rest
    | _ -> Alcotest.fail "shape mismatch"
  in
  let v = feed p [ Value.int 1; Value.int 2 ] in
  Alcotest.check value "pair result" (Value.pair (Value.int 1) (Value.int 2)) v

let test_program_rename () =
  let p = Program.invoke ~obj:3 Ops.read in
  match Program.rename_objects (fun o -> o + 10) p with
  | Program.Invoke { obj; _ } -> Alcotest.(check int) "renamed" 13 obj
  | Program.Return _ -> Alcotest.fail "expected invoke"

let test_program_repeat () =
  let p = Program.repeat 4 (fun _ -> Program.map ignore (Program.invoke ~obj:0 Ops.read)) in
  Alcotest.(check int) "4 invocations" 4
    (Program.length_along (fun _ -> Ops.ok) p)

(* --- helper implementations ---------------------------------------------- *)

(* Local-only implementation of fetch-and-add (correct only for one process;
   used to test local-state threading). *)
let local_faa ~procs =
  Implementation.make
    ~target:(Rmw.fetch_add_mod ~ports:procs ~modulus:4)
    ~procs ~objects:[]
    ~local_init:(fun _ -> Value.int 0)
    ~program:(fun ~proc:_ ~inv local ->
      match inv with
      | Value.Pair (Value.Sym "fetch-add", Value.Int d) ->
        let old = Value.as_int local in
        Program.return (Value.int old, Value.int ((old + d) mod 4))
      | Value.Sym "read" -> Program.return (local, local)
      | _ -> assert false)
    ()

(* Atomic bit implemented by writing two base bits and reading the second:
   linearizable (reads are single accesses to bit 1, writes hit bit 1 last —
   wait, writes hit bit 0 then bit 1, so bit 1 is the linearization point
   for both reads and writes). *)
let bit_from_two_bits ~procs =
  let bit = Register.bit ~ports:procs in
  Implementation.make ~target:bit ~procs
    ~objects:[ (bit, Value.falsity); (bit, Value.falsity) ]
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

(* --- Implementation basics ------------------------------------------------ *)

let test_identity_sequential () =
  let impl = Implementation.identity (Rmw.test_and_set ~ports:2) ~procs:2 in
  let resps, _ =
    Wfc_sim.Exec.sequential_oracle impl [ Ops.test_and_set; Ops.test_and_set ]
  in
  Alcotest.(check (list value)) "tas twice" [ Value.falsity; Value.truth ] resps

let test_identity_validates () =
  let impl = Implementation.identity (Register.bit ~ports:3) ~procs:3 in
  match Implementation.validate impl with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_validate_port_clash () =
  let bit = Register.bit ~ports:2 in
  let impl =
    Implementation.make ~target:bit ~procs:2
      ~objects:[ (bit, Value.falsity) ]
      ~port_map:(fun ~proc:_ ~obj:_ -> 0)
      ~program:(fun ~proc:_ ~inv local ->
        Program.map (fun r -> (r, local)) (Program.invoke ~obj:0 inv))
      ()
  in
  Alcotest.(check bool) "clash detected" true
    (Result.is_error (Implementation.validate impl))

let test_local_state_threading () =
  let impl = local_faa ~procs:1 in
  let resps, _ =
    Wfc_sim.Exec.sequential_oracle impl
      [ Ops.fetch_add 1; Ops.fetch_add 1; Ops.fetch_add 2; Ops.read ]
  in
  Alcotest.(check (list value))
    "locals persist across ops"
    [ Value.int 0; Value.int 1; Value.int 2; Value.int 0 ]
    resps

let test_zero_access_ops () =
  let impl = local_faa ~procs:1 in
  let _, leaf = Wfc_sim.Exec.sequential_oracle impl [ Ops.fetch_add 1 ] in
  match leaf.Wfc_sim.Exec.ops with
  | [ o ] ->
    Alcotest.(check int) "zero steps" 0 o.Wfc_sim.Exec.steps;
    Alcotest.(check int) "start=end" o.Wfc_sim.Exec.start_step
      o.Wfc_sim.Exec.end_step
  | _ -> Alcotest.fail "expected one op"

(* --- exploration ------------------------------------------------------------ *)

let test_explore_tas_identity () =
  let impl = Implementation.identity (Rmw.test_and_set ~ports:2) ~procs:2 in
  let winners = ref [] in
  let stats =
    Wfc_sim.Exec.explore impl
      ~workloads:[| [ Ops.test_and_set ]; [ Ops.test_and_set ] |]
      ~on_leaf:(fun leaf ->
        let w =
          List.filter
            (fun (o : Wfc_sim.Exec.op) -> Value.equal o.resp Value.falsity)
            leaf.ops
        in
        winners := List.length w :: !winners)
      ()
  in
  Alcotest.(check int) "two interleavings" 2 stats.Wfc_sim.Exec.leaves;
  Alcotest.(check int) "no overflow" 0 stats.Wfc_sim.Exec.overflows;
  Alcotest.(check int) "path length 2" 2 stats.Wfc_sim.Exec.max_events;
  Alcotest.(check (list int)) "exactly one winner per leaf" [ 1; 1 ] !winners

let test_explore_nondet_branching () =
  (* one process reads a coin twice: 2 × 2 = 4 leaves *)
  let impl = Implementation.identity (Nondet.coin ~ports:1) ~procs:1 in
  let stats =
    Wfc_sim.Exec.explore impl ~workloads:[| [ Ops.read; Ops.read ] |] ()
  in
  Alcotest.(check int) "nondet leaves" 4 stats.Wfc_sim.Exec.leaves

let test_explore_interleaving_count () =
  (* two procs, each: write then read on bit_from_two_bits. Each op is
     1 (read) or 2 (write) accesses; per proc 3 events; interleavings of
     3+3 events = C(6,3) = 20 schedules, all deterministic. *)
  let impl = bit_from_two_bits ~procs:2 in
  let wl = [ Ops.write Value.truth; Ops.read ] in
  let stats = Wfc_sim.Exec.explore impl ~workloads:[| wl; wl |] () in
  Alcotest.(check int) "C(6,3) leaves" 20 stats.Wfc_sim.Exec.leaves;
  Alcotest.(check int) "max op steps" 2 stats.Wfc_sim.Exec.max_op_steps

let test_explore_access_counts () =
  let impl = bit_from_two_bits ~procs:2 in
  let wl = [ Ops.write Value.truth; Ops.read ] in
  let stats = Wfc_sim.Exec.explore impl ~workloads:[| wl; wl |] () in
  (* bit 0: 1 write-access per proc = 2; bit 1: write+read per proc = 4 *)
  Alcotest.(check int) "bit0 accesses" 2 stats.Wfc_sim.Exec.max_accesses.(0);
  Alcotest.(check int) "bit1 accesses" 4 stats.Wfc_sim.Exec.max_accesses.(1)

let test_explore_fuel_overflow () =
  (* a deliberately non-wait-free program: spin until another process writes,
     but no one ever writes — fuel must catch it. *)
  let bit = Register.bit ~ports:1 in
  let impl =
    Implementation.make ~target:(Register.bit ~ports:1) ~procs:1
      ~objects:[ (bit, Value.falsity) ]
      ~program:(fun ~proc:_ ~inv:_ _local ->
        let open Program.Syntax in
        let rec spin () =
          let* v = Program.invoke ~obj:0 Ops.read in
          if Value.as_bool v then Program.return (Ops.ok, Value.unit)
          else spin ()
        in
        spin ())
      ()
  in
  let stats =
    Wfc_sim.Exec.explore impl ~workloads:[| [ Ops.read ] |] ~fuel:50 ()
  in
  Alcotest.(check int) "overflow detected" 1 stats.Wfc_sim.Exec.overflows;
  Alcotest.(check int) "no leaf" 0 stats.Wfc_sim.Exec.leaves

(* --- fold_tree ----------------------------------------------------------------- *)

let test_fold_tree_counts_leaves () =
  (* folding with leaf ↦ 1 / node ↦ sum must agree with explore's count *)
  let impl = Implementation.identity (Rmw.test_and_set ~ports:2) ~procs:2 in
  let workloads = [| [ Ops.test_and_set ]; [ Ops.test_and_set ] |] in
  let via_fold =
    Wfc_sim.Exec.fold_tree impl ~workloads
      ~leaf:(fun _ -> 1)
      ~node:(fun _ children -> List.fold_left ( + ) 0 children)
      ()
  in
  let stats = Wfc_sim.Exec.explore impl ~workloads () in
  Alcotest.(check int) "fold = explore" stats.Wfc_sim.Exec.leaves via_fold

let test_fold_tree_next_accesses () =
  (* at the root, both processes' pending accesses are visible and point at
     the single TAS object *)
  let impl = Implementation.identity (Rmw.test_and_set ~ports:2) ~procs:2 in
  let seen_root = ref None in
  ignore
    (Wfc_sim.Exec.fold_tree impl
       ~workloads:[| [ Ops.test_and_set ]; [ Ops.test_and_set ] |]
       ~leaf:(fun _ -> 0)
       ~node:(fun view children ->
         if view.Wfc_sim.Exec.depth = 0 then
           seen_root := Some view.Wfc_sim.Exec.next_accesses;
         List.fold_left max 0 children + 1)
       ());
  match !seen_root with
  | Some [ (0, 0, _); (1, 0, _) ] -> ()
  | Some other ->
    Alcotest.failf "unexpected root accesses: %d entries" (List.length other)
  | None -> Alcotest.fail "root never visited"

let test_fold_tree_fuel () =
  let bit = Register.bit ~ports:1 in
  let impl =
    Implementation.make ~target:bit ~procs:1
      ~objects:[ (bit, Value.falsity) ]
      ~program:(fun ~proc:_ ~inv:_ _local ->
        let open Program.Syntax in
        let rec spin () =
          let* _ = Program.invoke ~obj:0 Ops.read in
          spin ()
        in
        spin ())
      ()
  in
  Alcotest.(check bool) "fuel raises" true
    (match
       Wfc_sim.Exec.fold_tree impl
         ~workloads:[| [ Ops.read ] |]
         ~fuel:30
         ~leaf:(fun _ -> ())
         ~node:(fun _ _ -> ())
         ()
     with
    | () -> false
    | exception Failure _ -> true)

(* --- crash exploration ------------------------------------------------------------ *)

let test_crash_leaves_have_partial_ops () =
  (* with one crash allowed, some leaf completes only one of the two ops *)
  let impl = Implementation.identity (Rmw.test_and_set ~ports:2) ~procs:2 in
  let partial = ref false and complete = ref false in
  let stats =
    Wfc_sim.Exec.explore impl
      ~workloads:[| [ Ops.test_and_set ]; [ Ops.test_and_set ] |]
      ~faults:(Wfc_sim.Faults.crashes 1)
      ~on_leaf:(fun leaf ->
        match List.length leaf.Wfc_sim.Exec.ops with
        | 1 -> partial := true
        | 2 -> complete := true
        | _ -> ())
      ()
  in
  Alcotest.(check bool) "partial leaves exist" true !partial;
  Alcotest.(check bool) "complete leaves exist" true !complete;
  Alcotest.(check bool) "more leaves than crash-free" true
    (stats.Wfc_sim.Exec.leaves > 2)

let test_crash_budget_respected () =
  (* with as many crashes as processes, the all-crashed empty leaf exists *)
  let impl = Implementation.identity (Rmw.test_and_set ~ports:2) ~procs:2 in
  let empty_leaf = ref false in
  ignore
    (Wfc_sim.Exec.explore impl
       ~workloads:[| [ Ops.test_and_set ]; [ Ops.test_and_set ] |]
       ~faults:(Wfc_sim.Faults.crashes 2)
       ~on_leaf:(fun leaf ->
         if leaf.Wfc_sim.Exec.ops = [] then empty_leaf := true)
       ());
  Alcotest.(check bool) "everyone can crash" true !empty_leaf

let test_crash_mid_operation () =
  (* bit_from_two_bits: crashing the writer between its two base writes
     leaves the bits inconsistent — visible in some leaf's final state *)
  let impl = bit_from_two_bits ~procs:2 in
  let torn = ref false in
  ignore
    (Wfc_sim.Exec.explore impl
       ~workloads:[| [ Ops.write Value.truth ]; [ Ops.read ] |]
       ~faults:(Wfc_sim.Faults.crashes 1)
       ~on_leaf:(fun leaf ->
         let b0 = leaf.Wfc_sim.Exec.objects.(0)
         and b1 = leaf.Wfc_sim.Exec.objects.(1) in
         if Value.equal b0 Value.truth && Value.equal b1 Value.falsity then
           torn := true)
       ());
  Alcotest.(check bool) "mid-write crash leaves torn state" true !torn

(* --- substitution ------------------------------------------------------------ *)

let test_substitute_identity_chain () =
  (* identity(bit) with its base object replaced by bit_from_two_bits:
     behaves like a bit, has 2 base objects. *)
  let outer = Implementation.identity (Register.bit ~ports:2) ~procs:2 in
  let composed =
    Implementation.substitute ~obj:0 ~replacement:(bit_from_two_bits ~procs:2) outer
  in
  Alcotest.(check int) "two base objects" 2
    (Implementation.base_object_count composed);
  let resps, _ =
    Wfc_sim.Exec.sequential_oracle composed
      [ Ops.read; Ops.write Value.truth; Ops.read ]
  in
  Alcotest.(check (list value))
    "register behaviour preserved"
    [ Value.falsity; Ops.ok; Value.truth ]
    resps

let test_substitute_spec_mismatch () =
  let outer = Implementation.identity (Rmw.test_and_set ~ports:2) ~procs:2 in
  Alcotest.(check bool) "wrong target rejected" true
    (match
       Implementation.substitute ~obj:0
         ~replacement:(bit_from_two_bits ~procs:2) outer
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_substitute_where () =
  let _bit = Register.bit ~ports:2 in
  (* an implementation with two bit objects; replace all bits *)
  let impl = bit_from_two_bits ~procs:2 in
  let composed =
    Implementation.substitute_where impl
      ~pred:(fun spec -> String.equal spec.Type_spec.name "atomic-bit")
      ~replace:(fun _ (_, init) ->
        let sub = bit_from_two_bits ~procs:2 in
        if Value.equal init Value.falsity then sub
        else Alcotest.fail "unexpected init")
  in
  Alcotest.(check int) "4 base objects after fan-out" 4
    (Implementation.base_object_count composed);
  Alcotest.(check int) "no direct bits left... (they are the sub's bits)" 4
    (Implementation.count_objects_where composed ~pred:(fun s ->
         String.equal s.Type_spec.name "atomic-bit"));
  let resps, _ =
    Wfc_sim.Exec.sequential_oracle composed
      [ Ops.read; Ops.write Value.truth; Ops.read; Ops.write Value.falsity; Ops.read ]
  in
  Alcotest.(check (list value))
    "still a register"
    [ Value.falsity; Ops.ok; Value.truth; Ops.ok; Value.falsity ]
    resps

let test_substitute_local_impl () =
  (* replacing an object with a 0-object (purely local) implementation *)
  let outer = Implementation.identity (Rmw.fetch_add_mod ~ports:1 ~modulus:4) ~procs:1 in
  let composed =
    Implementation.substitute ~obj:0 ~replacement:(local_faa ~procs:1) outer
  in
  let resps, _ =
    Wfc_sim.Exec.sequential_oracle composed [ Ops.fetch_add 1; Ops.fetch_add 1 ]
  in
  Alcotest.(check (list value)) "still counts" [ Value.int 0; Value.int 1 ] resps;
  Alcotest.(check int) "slot holds placeholder" 0
    (Implementation.count_objects_where composed ~pred:(fun s ->
         String.equal s.Type_spec.name "fetch-add-mod4"))

(* --- guided runs -------------------------------------------------------------- *)

let test_run_round_robin () =
  let impl = bit_from_two_bits ~procs:2 in
  let sched = Wfc_sim.Schedulers.round_robin in
  let leaf =
    Wfc_sim.Exec.run impl
      ~workloads:[| [ Ops.write Value.truth ]; [ Ops.read; Ops.read ] |]
      ~pick_proc:sched.Wfc_sim.Schedulers.pick_proc
      ~pick_alt:sched.Wfc_sim.Schedulers.pick_alt ()
  in
  Alcotest.(check int) "3 ops completed" 3 (List.length leaf.Wfc_sim.Exec.ops)

let test_run_random_schedulers () =
  let impl = bit_from_two_bits ~procs:3 in
  let rng = Random.State.make [| 7 |] in
  let scheds =
    [
      (Wfc_sim.Schedulers.random rng, 3);
      (Wfc_sim.Schedulers.handicap rng ~slow:[ 0 ] ~bias:4, 3);
      (* a dead process never finishes: the run stalls gracefully and
         returns the survivors' completed ops instead of spinning *)
      (Wfc_sim.Schedulers.crash rng ~dead:[ 2 ], 2);
    ]
  in
  List.iter
    (fun ((s : Wfc_sim.Schedulers.t), expected) ->
      let leaf =
        Wfc_sim.Exec.run impl
          ~workloads:
            [| [ Ops.write Value.truth ]; [ Ops.read ]; [ Ops.write Value.falsity ] |]
          ~pick_proc:s.pick_proc ~pick_alt:s.pick_alt ()
      in
      Alcotest.(check int) "all live ops complete" expected
        (List.length leaf.Wfc_sim.Exec.ops))
    scheds

let () =
  Alcotest.run "wfc_sim"
    [
      ( "program",
        [
          Alcotest.test_case "bind/invoke" `Quick test_program_bind;
          Alcotest.test_case "rename objects" `Quick test_program_rename;
          Alcotest.test_case "repeat" `Quick test_program_repeat;
        ] );
      ( "implementation",
        [
          Alcotest.test_case "identity sequential" `Quick test_identity_sequential;
          Alcotest.test_case "identity validates" `Quick test_identity_validates;
          Alcotest.test_case "port clash" `Quick test_validate_port_clash;
          Alcotest.test_case "local threading" `Quick test_local_state_threading;
          Alcotest.test_case "zero-access ops" `Quick test_zero_access_ops;
        ] );
      ( "explore",
        [
          Alcotest.test_case "tas identity" `Quick test_explore_tas_identity;
          Alcotest.test_case "nondet branching" `Quick test_explore_nondet_branching;
          Alcotest.test_case "interleaving count" `Quick
            test_explore_interleaving_count;
          Alcotest.test_case "access counts" `Quick test_explore_access_counts;
          Alcotest.test_case "fuel catches spin" `Quick test_explore_fuel_overflow;
        ] );
      ( "fold_tree",
        [
          Alcotest.test_case "counts leaves" `Quick test_fold_tree_counts_leaves;
          Alcotest.test_case "next accesses at root" `Quick
            test_fold_tree_next_accesses;
          Alcotest.test_case "fuel raises" `Quick test_fold_tree_fuel;
        ] );
      ( "crash exploration",
        [
          Alcotest.test_case "partial leaves" `Quick
            test_crash_leaves_have_partial_ops;
          Alcotest.test_case "full crash budget" `Quick test_crash_budget_respected;
          Alcotest.test_case "mid-operation torn state" `Quick
            test_crash_mid_operation;
        ] );
      ( "substitute",
        [
          Alcotest.test_case "identity chain" `Quick test_substitute_identity_chain;
          Alcotest.test_case "spec mismatch" `Quick test_substitute_spec_mismatch;
          Alcotest.test_case "substitute_where" `Quick test_substitute_where;
          Alcotest.test_case "local replacement" `Quick test_substitute_local_impl;
        ] );
      ( "guided runs",
        [
          Alcotest.test_case "round robin" `Quick test_run_round_robin;
          Alcotest.test_case "random & adversarial" `Quick
            test_run_random_schedulers;
        ] );
    ]
