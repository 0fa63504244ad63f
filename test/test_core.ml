(* The paper's own constructions: §4.3 (E4), §5.1 (E5), §5.2 (E6),
   §5.3 (E7), Theorem 5 (E8), and the nondeterminism ablation (E9). *)

open Wfc_spec
open Wfc_zoo
open Wfc_program
open Wfc_core



let w v = Ops.write v
let r = Ops.read

let expect_ok name = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %s" name e

(* every interleaving linearizable, or the first diagnosis *)
let lin_all impl ~workloads =
  Result.map_error
    (fun v -> v.Wfc_linearize.Engine.reason)
    (Wfc_linearize.Engine.verify impl ~workloads ())

let is_linearizable ~spec ops =
  match Wfc_linearize.Engine.check ~spec ops with
  | Wfc_linearize.Engine.Linearizable _ -> true
  | Wfc_linearize.Engine.Not_linearizable _ -> false

(* --- E4: §4.3 bounded-use bit from one-use bits ----------------------------- *)

let test_bit_count_formula () =
  List.iter
    (fun (reads, writes) ->
      let impl = Bounded_bit.from_one_use ~reads ~writes ~init:false () in
      Alcotest.(check int)
        (Fmt.str "r=%d w=%d" reads writes)
        (Bounded_bit.bit_count ~reads ~writes)
        (Implementation.base_object_count impl);
      Alcotest.(check int)
        "formula is r(w+1)"
        (reads * (writes + 1))
        (Bounded_bit.bit_count ~reads ~writes))
    [ (1, 0); (1, 1); (2, 1); (2, 2); (3, 2); (4, 4) ]

let test_bounded_bit_all_bases_one_use () =
  let impl = Bounded_bit.from_one_use ~reads:3 ~writes:2 ~init:false () in
  Alcotest.(check int) "all bases are one-use bits"
    (Implementation.base_object_count impl)
    (Implementation.count_objects_where impl ~pred:(fun s ->
         String.equal s.Type_spec.name "one-use-bit"))

let lin_bounded_bit ?(init = false) ~reads ~writes ~writer_ops ~reader_ops () =
  let impl = Bounded_bit.from_one_use ~reads ~writes ~init () in
  lin_all impl ~workloads:[| writer_ops; reader_ops |]

let test_bounded_bit_atomic_small () =
  ignore
    (expect_ok "r2w1"
       (Result.map_error Fun.id
          (lin_bounded_bit ~reads:2 ~writes:1 ~writer_ops:[ w Value.truth ]
             ~reader_ops:[ r; r ] ())))

let test_bounded_bit_atomic_larger () =
  ignore
    (expect_ok "r3w2"
       (lin_bounded_bit ~reads:3 ~writes:2
          ~writer_ops:[ w Value.truth; w Value.falsity ]
          ~reader_ops:[ r; r; r ] ()))

let test_bounded_bit_init_true () =
  ignore
    (expect_ok "init=true"
       (lin_bounded_bit ~init:true ~reads:2 ~writes:1
          ~writer_ops:[ w Value.falsity ] ~reader_ops:[ r; r ] ()))

let test_bounded_bit_guard_same_value () =
  (* same-value writes cost zero accesses and preserve the value *)
  let impl = Bounded_bit.from_one_use ~reads:2 ~writes:1 ~init:false () in
  ignore
    (expect_ok "same-value writes"
       (lin_all impl
          ~workloads:[| [ w Value.falsity; w Value.falsity ]; [ r; r ] |]))

let test_bounded_bit_unguarded_toggles () =
  let impl =
    Bounded_bit.from_one_use ~guard:false ~reads:1 ~writes:1 ~init:false ()
  in
  match
    lin_all impl ~workloads:[| [ w Value.falsity ]; [ r ] |]
  with
  | Ok _ -> Alcotest.fail "unguarded same-value write must corrupt the bit"
  | Error _ -> ()

let test_bounded_bit_read_budget () =
  let impl = Bounded_bit.from_one_use ~reads:1 ~writes:1 ~init:false () in
  Alcotest.(check bool) "second read exceeds budget" true
    (match
       Wfc_sim.Exec.explore impl ~workloads:[| []; [ r; r ] |] ()
     with
    | _ -> false
    | exception Type_spec.Bad_step _ -> true)

let test_bounded_bit_write_budget () =
  let impl = Bounded_bit.from_one_use ~reads:1 ~writes:1 ~init:false () in
  Alcotest.(check bool) "second changing write exceeds budget" true
    (match
       Wfc_sim.Exec.explore impl
         ~workloads:[| [ w Value.truth; w Value.falsity ]; [] |]
         ()
     with
    | _ -> false
    | exception Type_spec.Bad_step _ -> true)

let test_bounded_bit_one_use_discipline () =
  (* no one-use bit is ever read twice or written twice: every base object
     ends in a state reachable by ≤1 read and ≤1 write; directly check that
     per-object access counts never exceed 2 (1 write + 1 read) *)
  let impl = Bounded_bit.from_one_use ~reads:2 ~writes:2 ~init:false () in
  let stats =
    Wfc_sim.Exec.explore impl
      ~workloads:[| [ w Value.truth; w Value.falsity ]; [ r; r ] |]
      ()
  in
  Array.iteri
    (fun i a ->
      Alcotest.(check bool)
        (Fmt.str "bit %d accessed ≤ 2 times" i)
        true (a <= 2))
    stats.Wfc_sim.Exec.max_accesses

let prop_bounded_bit_random =
  QCheck.Test.make ~count:25 ~name:"bounded bit: random schedules, r=4 w=3"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let impl = Bounded_bit.from_one_use ~reads:4 ~writes:3 ~init:false () in
      let sched = Wfc_sim.Schedulers.random rng in
      let leaf =
        Wfc_sim.Exec.run impl
          ~workloads:
            [|
              [ w Value.truth; w Value.falsity; w Value.truth ];
              [ r; r; r; r ];
            |]
          ~pick_proc:sched.Wfc_sim.Schedulers.pick_proc
          ~pick_alt:sched.Wfc_sim.Schedulers.pick_alt ()
      in
      is_linearizable ~spec:(Register.bit ~ports:2) leaf.Wfc_sim.Exec.ops)

let test_bounded_bit_rectangular () =
  (* distinct read/write budgets: the array is genuinely rectangular *)
  List.iter
    (fun (reads, writes) ->
      let impl = Bounded_bit.from_one_use ~reads ~writes ~init:false () in
      Alcotest.(check int)
        (Fmt.str "r=%d w=%d objects" reads writes)
        (reads * (writes + 1))
        (Implementation.base_object_count impl);
      (* exercise the full budget sequentially through a guided run *)
      let sched = Wfc_sim.Schedulers.round_robin in
      let leaf =
        Wfc_sim.Exec.run impl
          ~workloads:
            [|
              List.init writes (fun i -> w (Value.bool (i mod 2 = 0)));
              List.init reads (fun _ -> r);
            |]
          ~pick_proc:sched.Wfc_sim.Schedulers.pick_proc
          ~pick_alt:sched.Wfc_sim.Schedulers.pick_alt ()
      in
      Alcotest.(check bool) "all ops done" true
        (List.length leaf.Wfc_sim.Exec.ops = reads + writes);
      Alcotest.(check bool) "history linearizable" true
        (is_linearizable ~spec:(Register.bit ~ports:2) leaf.Wfc_sim.Exec.ops))
    [ (1, 3); (5, 1); (3, 4); (6, 2) ]

let test_bounded_bit_access_shape () =
  (* the paper's pseudocode shape: a changing write flips exactly [reads]
     bits (one row); a read walks rows+1 cells of its column. Drive the ops
     in the order w r w r r with a plan-following scheduler (writer is
     process 0, reader process 1). *)
  let impl = Bounded_bit.from_one_use ~reads:3 ~writes:2 ~init:false () in
  let plan = [| 0; 1; 0; 1; 1 |] in
  let pos = ref 0 in
  let leaf =
    Wfc_sim.Exec.run impl
      ~workloads:[| [ w Value.truth; w Value.falsity ]; [ r; r; r ] |]
      ~pick_proc:(fun ~enabled ~step:_ ->
        let want = plan.(min !pos (Array.length plan - 1)) in
        if List.mem want enabled then want else List.hd enabled)
      ~pick_alt:(fun ~n:_ ~step:_ -> 0)
      ~on_event:(function
        | Wfc_sim.Exec.Completed _ -> incr pos
        | _ -> ())
      ()
  in
  (match leaf.Wfc_sim.Exec.ops with
  | [ w1; r1; w2; r2; r3 ] ->
    Alcotest.(check int) "write flips a row of 3" 3 w1.Wfc_sim.Exec.steps;
    Alcotest.(check int) "read walks past 1 flipped row + stop" 2
      r1.Wfc_sim.Exec.steps;
    Alcotest.(check int) "second write flips another row" 3
      w2.Wfc_sim.Exec.steps;
    (* the reader RESUMES from its row pointer i_r — it never rewalks rows
       it already passed (this is exactly why the paper keeps i_r in the
       reader's persistent state) *)
    Alcotest.(check int) "read resumes: flipped row + stop" 2
      r2.Wfc_sim.Exec.steps;
    Alcotest.(check int) "third read: only the stopping row" 1
      r3.Wfc_sim.Exec.steps
  | _ -> Alcotest.fail "expected 5 ops");
  (* totals match the pseudocode exactly: 2 rows of 3 writes + 2+2+1 reads *)
  Alcotest.(check int) "total accesses" 11
    (Array.fold_left ( + ) 0 leaf.Wfc_sim.Exec.accesses)

(* --- E5: §5.1 triviality + one-use bits from oblivious det types ------------ *)

let test_triviality_matches_catalog () =
  List.iter
    (fun (e : Catalog.entry) ->
      if e.deterministic && e.oblivious then
        match Triviality.decide e.spec with
        | Error msg -> Alcotest.failf "%s: %s" e.spec.Type_spec.name msg
        | Ok verdict ->
          let got = verdict = Triviality.Trivial in
          Alcotest.(check bool)
            (e.spec.Type_spec.name ^ " triviality")
            e.trivial got)
    (Catalog.all ~ports:2)

let test_triviality_rejects_nondet () =
  Alcotest.(check bool) "flaky-bit rejected" true
    (Result.is_error (Triviality.decide (Nondet.flaky_bit ~ports:2)));
  Alcotest.(check bool) "non-oblivious rejected" true
    (Result.is_error (Triviality.decide (Nondet.non_oblivious_flag ~ports:2)))

let test_witnesses_verify () =
  List.iter
    (fun (e : Catalog.entry) ->
      if e.deterministic && e.oblivious && not e.trivial then
        match Triviality.decide e.spec with
        | Ok (Triviality.Nontrivial witness) ->
          Alcotest.(check bool)
            (e.spec.Type_spec.name ^ " witness checks")
            true
            (Triviality.verify_witness e.spec witness)
        | _ -> Alcotest.failf "%s should be nontrivial" e.spec.Type_spec.name)
    (Catalog.all ~ports:2)

let one_use_from name spec =
  match Triviality.decide spec with
  | Ok (Triviality.Nontrivial witness) ->
    Triviality.one_use_bit spec witness ()
  | Ok Triviality.Trivial -> Alcotest.failf "%s is trivial" name
  | Error e -> Alcotest.failf "%s: %s" name e

let test_one_use_bit_sweep () =
  (* the §5.1 construction passes the full conformance check for every
     non-trivial oblivious deterministic type in the zoo *)
  List.iter
    (fun (e : Catalog.entry) ->
      if e.deterministic && e.oblivious && not e.trivial then
        let impl = one_use_from e.spec.Type_spec.name e.spec in
        match One_use_bit.check_impl impl with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: %s" e.spec.Type_spec.name msg)
    (Catalog.all ~ports:2)

let test_one_use_bit_from_delayed_reveal () =
  (* witness three steps deep: the decision procedure must initialize the
     object in a non-initial state *)
  let spec = Degenerate.delayed_reveal ~ports:2 in
  let impl = one_use_from "delayed-reveal" spec in
  ignore (expect_ok "delayed-reveal conformance" (One_use_bit.check_impl impl));
  let _, init = impl.Implementation.objects.(0) in
  Alcotest.(check bool) "starts at the witness state" true
    (Value.equal init (Value.sym "c") || Value.equal init (Value.sym "d")
    || Value.equal init (Value.sym "a") || Value.equal init (Value.sym "b"))

let test_identity_one_use_bit () =
  ignore
    (expect_ok "identity one-use bit"
       (One_use_bit.check_impl (One_use_bit.identity ~procs:2)))

(* --- E6: §5.2 non-trivial pairs ------------------------------------------------ *)

let test_pair_search_non_oblivious () =
  let spec = Nondet.non_oblivious_flag ~ports:2 in
  match Nontrivial_pair.search spec with
  | Error e -> Alcotest.fail e
  | Ok None -> Alcotest.fail "non-oblivious-flag must have a pair"
  | Ok (Some p) ->
    Alcotest.(check int) "reader on port 0" 0 p.Nontrivial_pair.reader_port;
    Alcotest.(check int) "k = 1 (single probe)" 1
      (List.length p.Nontrivial_pair.probes);
    Alcotest.(check bool) "mover is touch" true
      (Value.equal p.Nontrivial_pair.mover (Value.sym "touch"));
    Alcotest.(check bool) "returns differ" true
      (not
         (Value.equal p.Nontrivial_pair.h1_return p.Nontrivial_pair.h2_return))

let test_pair_search_oblivious_types_too () =
  (* §5.2 subsumes §5.1: it must also find pairs for oblivious types *)
  List.iter
    (fun name ->
      let e = Catalog.find ~ports:2 name in
      match Nontrivial_pair.search e.Catalog.spec with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok None -> Alcotest.failf "%s: no pair found" name
      | Ok (Some _) -> ())
    [ "test-and-set"; "fifo-queue"; "sticky-bit"; "swap3" ]

let test_pair_search_trivial_none () =
  List.iter
    (fun name ->
      let e = Catalog.find ~ports:2 name in
      match Nontrivial_pair.search e.Catalog.spec with
      | Ok None -> ()
      | Ok (Some p) ->
        Alcotest.failf "%s: unexpected pair %a" name Nontrivial_pair.pp_pair p
      | Error msg -> Alcotest.failf "%s: %s" name msg)
    [ "constant"; "ack-counter4"; "two-phase-ack"; "latent" ]

let test_lemmas_2_3_4 () =
  (* the general minimal pair has the exact shape Lemmas 2–4 predict *)
  List.iter
    (fun name ->
      let e = Catalog.find ~ports:2 name in
      match Nontrivial_pair.search_general ~max_len:5 e.Catalog.spec with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok None -> Alcotest.failf "%s: no raw pair" name
      | Ok (Some raw) ->
        let k = List.length raw.Nontrivial_pair.raw_h1 in
        let on_port port =
          List.filter (fun (p, _) -> p = port)
        in
        (* Lemma 2: H1 is all on the observing port *)
        Alcotest.(check int)
          (name ^ ": Lemma 2")
          k
          (List.length
             (on_port raw.Nontrivial_pair.raw_port raw.Nontrivial_pair.raw_h1));
        (* Lemma 4: |H2| = k+1 *)
        Alcotest.(check int)
          (name ^ ": Lemma 4")
          (k + 1)
          (List.length raw.Nontrivial_pair.raw_h2);
        (* Lemma 3/4: H2 = one foreign invocation, then all on the port *)
        (match raw.Nontrivial_pair.raw_h2 with
        | (p0, _) :: rest ->
          Alcotest.(check bool)
            (name ^ ": H2 starts foreign")
            true
            (p0 <> raw.Nontrivial_pair.raw_port);
          Alcotest.(check int)
            (name ^ ": H2 tail on port")
            k
            (List.length (on_port raw.Nontrivial_pair.raw_port rest))
        | [] -> Alcotest.fail "empty H2"))
    [ "test-and-set"; "non-oblivious-flag"; "sticky-bit" ]

let test_pair_construction_conformance () =
  List.iter
    (fun name ->
      let e = Catalog.find ~ports:2 name in
      match Nontrivial_pair.search e.Catalog.spec with
      | Ok (Some p) ->
        let impl = Nontrivial_pair.one_use_bit e.Catalog.spec p () in
        ignore (expect_ok (name ^ " §5.2 bit") (One_use_bit.check_impl impl))
      | _ -> Alcotest.failf "%s: no pair" name)
    [ "non-oblivious-flag"; "test-and-set"; "fifo-queue" ]

let test_pair_search_rejects_nondet () =
  Alcotest.(check bool) "nondet-once rejected" true
    (Result.is_error (Nontrivial_pair.search (Nondet.nondet_once ~ports:2)))

(* --- E7: §5.3 one-use bits from consensus --------------------------------------- *)

let test_from_consensus_object () =
  ignore
    (expect_ok "§5.3 over primitive consensus"
       (One_use_bit.check_impl (From_consensus.from_consensus_object ())))

let test_from_consensus_cas () =
  let impl =
    From_consensus.from_consensus_impl
      ~consensus:(Wfc_consensus.Protocols.from_cas ~procs:2 ())
      ()
  in
  ignore (expect_ok "§5.3 over CAS consensus" (One_use_bit.check_impl impl))

let test_from_consensus_sticky () =
  let impl =
    From_consensus.from_consensus_impl
      ~consensus:(Wfc_consensus.Protocols.from_sticky ~procs:2 ())
      ()
  in
  ignore (expect_ok "§5.3 over sticky consensus" (One_use_bit.check_impl impl))

let test_from_consensus_rejects_wrong_target () =
  Alcotest.(check bool) "non-consensus rejected" true
    (match
       From_consensus.from_consensus_impl
         ~consensus:(Implementation.identity (Register.bit ~ports:2) ~procs:2)
         ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- E9: the §5.1 recipe is unsound on nondeterministic types ------------------- *)

let test_nondet_ablation () =
  (* apply the §5.1 reader inference to the flaky bit by hand: read answers
     false in unset, {false,true} in set — "response = false ⟹ not yet
     written" is a lie, and the conformance checker must catch it *)
  let spec = Nondet.flaky_bit ~ports:2 in
  let open Program.Syntax in
  let impl =
    Implementation.make
      ~target:(One_use.spec_n ~ports:2)
      ~implements:One_use.unset ~procs:2
      ~objects:[ (spec, spec.Type_spec.initial) ]
      ~program:(fun ~proc:_ ~inv local ->
        match inv with
        | Value.Sym "read" ->
          let+ resp = Program.invoke ~obj:0 Ops.read in
          ((if Value.equal resp Value.falsity then Value.falsity else Value.truth), local)
        | Value.Sym "write" ->
          let+ _ = Program.invoke ~obj:0 (Value.sym "write") in
          (Ops.ok, local)
        | _ -> assert false)
      ()
  in
  match One_use_bit.check_impl impl with
  | Ok () -> Alcotest.fail "the §5.1 recipe must be unsound on flaky-bit"
  | Error msg ->
    Alcotest.(check bool) "diagnosis mentions the read" true
      (String.length msg > 0)

(* --- E8: Theorem 5 --------------------------------------------------------------- *)

let strategy_of name =
  expect_ok
    (name ^ " strategy")
    (Theorem5.strategy_for (Catalog.find ~ports:2 name).Catalog.spec)

let test_strategy_selection () =
  (match strategy_of "test-and-set" with
  | Theorem5.Oblivious_witness _ -> ()
  | _ -> Alcotest.fail "tas → §5.1");
  (match strategy_of "non-oblivious-flag" with
  | Theorem5.General_pair _ -> ()
  | _ -> Alcotest.fail "non-oblivious → §5.2");
  (match Theorem5.strategy_for (Degenerate.constant ~ports:2) with
  | Error msg ->
    Alcotest.(check bool) "trivial refused with Theorem 5 case 1 note" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "trivial type must be refused");
  match Theorem5.strategy_for (Nondet.flaky_bit ~ports:2) with
  | Error msg ->
    Alcotest.(check bool) "nondet points at Consensus_based" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "nondet must be refused"

let compile_and_verify ~name ~strategy source =
  let report =
    expect_ok (name ^ " compile") (Theorem5.eliminate_registers ~strategy source)
  in
  Alcotest.(check int)
    (name ^ ": no registers left")
    0
    (Implementation.count_objects_where report.Theorem5.compiled
       ~pred:(fun s -> String.equal s.Type_spec.name "atomic-bit"));
  (match Wfc_consensus.Check.result_exn
           (Wfc_consensus.Check.verify report.Theorem5.compiled)
   with
  | Ok _ -> ()
  | Error v ->
    Alcotest.failf "%s: compiled implementation wrong: %a" name
      Wfc_consensus.Check.pp_violation v);
  report

let test_theorem5_tas () =
  let report =
    compile_and_verify ~name:"tas" ~strategy:(strategy_of "test-and-set")
      (Wfc_consensus.Protocols.from_tas ())
  in
  Alcotest.(check int) "two registers eliminated" 2
    report.Theorem5.registers_eliminated;
  Alcotest.(check bool) "one-use bits introduced" true
    (report.Theorem5.one_use_bits > 0);
  Alcotest.(check bool) "bound D positive" true
    (report.Theorem5.bounds.Wfc_consensus.Access_bounds.bound_d > 0)

let test_theorem5_queue () =
  (* consensus from queues + registers, compiled to consensus from queues
     ONLY (the one-use bits become queue objects) *)
  let report =
    compile_and_verify ~name:"queue" ~strategy:(strategy_of "fifo-queue")
      (Wfc_consensus.Protocols.from_queue ())
  in
  Alcotest.(check bool) "compiled uses queues for the bits" true
    (Implementation.count_objects_where report.Theorem5.compiled ~pred:(fun s ->
         String.equal s.Type_spec.name "fifo-queue")
    > 1)

let test_theorem5_faa () =
  ignore
    (compile_and_verify ~name:"faa" ~strategy:(strategy_of "fetch-add-mod5")
       (Wfc_consensus.Protocols.from_faa ()))

let test_theorem5_swap () =
  ignore
    (compile_and_verify ~name:"swap" ~strategy:(strategy_of "swap3")
       (Wfc_consensus.Protocols.from_swap ()))

let test_theorem5_register_free_source () =
  (* a source with no registers compiles to itself *)
  let report =
    compile_and_verify ~name:"cas" ~strategy:(strategy_of "cas2")
      (Wfc_consensus.Protocols.from_cas ~procs:2 ())
  in
  Alcotest.(check int) "nothing eliminated" 0 report.Theorem5.registers_eliminated;
  Alcotest.(check int) "nothing localized" 0 report.Theorem5.registers_localized

let test_theorem5_consensus_based () =
  (* Theorem 5 case 3: T nondeterministic is fine as long as h_m(T) ≥ 2;
     here the one-use bits are built from CAS-based consensus *)
  let strategy =
    Theorem5.Consensus_based
      (fun () -> Wfc_consensus.Protocols.from_cas ~procs:2 ())
  in
  ignore
    (compile_and_verify ~name:"consensus-based" ~strategy
       (Wfc_consensus.Protocols.from_tas ()))

let test_theorem5_consensus_based_rejects_registers () =
  let strategy =
    Theorem5.Consensus_based (fun () -> Wfc_consensus.Protocols.from_tas ())
  in
  Alcotest.(check bool) "factory with registers rejected" true
    (match
       Theorem5.eliminate_registers ~strategy
         (Wfc_consensus.Protocols.from_tas ())
     with
    | Ok _ -> false
    | Error _ -> true
    | exception Invalid_argument _ -> true)

let test_theorem5_idempotent () =
  (* compiling an already register-free implementation changes nothing *)
  let strategy = strategy_of "test-and-set" in
  let once =
    expect_ok "first pass"
      (Theorem5.eliminate_registers ~strategy
         (Wfc_consensus.Protocols.from_tas ()))
  in
  let twice =
    expect_ok "second pass"
      (Theorem5.eliminate_registers ~strategy once.Theorem5.compiled)
  in
  Alcotest.(check int) "second pass eliminates nothing" 0
    twice.Theorem5.registers_eliminated;
  Alcotest.(check int) "object count stable" once.Theorem5.t_objects
    twice.Theorem5.t_objects

let test_explore_deterministic () =
  (* regression guard: exploration is a pure function of the implementation *)
  let impl = Wfc_consensus.Protocols.from_queue () in
  let go () =
    let s =
      Wfc_sim.Exec.explore impl
        ~workloads:
          [| [ Ops.propose Value.truth ]; [ Ops.propose Value.falsity ] |]
        ()
    in
    (s.Wfc_sim.Exec.leaves, s.Wfc_sim.Exec.nodes, s.Wfc_sim.Exec.max_events)
  in
  Alcotest.(check (triple int int int)) "same stats twice" (go ()) (go ())

let test_universal_three_procs () =
  (* every interleaving of the workloads, each history checked against the
     target by the fused engine *)
  let target = Sticky.bit ~ports:3 in
  let impl = Wfc_consensus.Universal.construct ~target ~procs:3 ~cells:14 () in
  match
    Wfc_linearize.Engine.verify impl
      ~workloads:
        [|
          [ Ops.stick Value.truth ];
          [ Ops.stick Value.falsity; Ops.read ];
          [ Ops.read ];
        |]
      ()
  with
  | Ok _ -> ()
  | Error v ->
    Alcotest.failf "3-proc universal sticky: %a"
      Wfc_linearize.Engine.pp_violation v

(* --- shape facts --------------------------------------------------------------------

   The deterministic figures EXPERIMENTS.md quotes: the §4.2 bound D of
   each consensus protocol (E3), one-use bits per bounded bit (E4), the
   register chain's footprints (E2), Theorem 5 on tas over tas (E8), and
   the universal construction's longest operation (E10). *)

let test_shape_facts () =
  let open Wfc_consensus in
  let d_of name impl =
    (expect_ok name (Access_bounds.analyze impl)).Access_bounds.bound_d
  in
  List.iter
    (fun (name, impl, d) -> Alcotest.(check int) ("E3 D " ^ name) d (d_of name impl))
    [
      ("tas", Protocols.from_tas (), 5);
      ("faa", Protocols.from_faa (), 5);
      ("swap", Protocols.from_swap (), 5);
      ("queue", Protocols.from_queue (), 5);
      ("cas2", Protocols.from_cas ~procs:2 (), 4);
      ("cas3", Protocols.from_cas ~procs:3 (), 6);
      ("sticky3", Protocols.from_sticky ~procs:3 (), 3);
    ];
  List.iter
    (fun (reads, writes, bits) ->
      Alcotest.(check int)
        (Fmt.str "E4 r%dw%d" reads writes)
        bits
        (Bounded_bit.bit_count ~reads ~writes))
    [ (2, 1, 4); (4, 3, 16); (8, 7, 64) ];
  let module Chain = Wfc_registers.Chain in
  Alcotest.(check int) "E2 regular 3-valued, 2 readers: safe bits" 6
    (Chain.srsw_bit_count
       (Chain.regular_bounded_from_safe_bits ~readers:2 ~values:3 ~init:0 ()));
  Alcotest.(check int) "E2 atomic MRSW, 2 readers: registers" 4
    (Chain.srsw_bit_count
       (Chain.atomic_mrsw_from_regular_srsw ~readers:2 ~init:(Value.int 0) ()));
  Alcotest.(check int) "E2 atomic MRMW, 2 writers: registers" 2
    (Chain.srsw_bit_count
       (Chain.atomic_mrmw_from_regular_srsw ~writers:2 ~extra_readers:0
          ~init:(Value.int 0) ()));
  let r =
    expect_ok "E8 tas"
      (Theorem5.eliminate_registers ~strategy:(strategy_of "test-and-set")
         (Protocols.from_tas ()))
  in
  Alcotest.(check (list int)) "E8 tas→tas: D, registers, one-use bits, objects"
    [ 5; 2; 12; 13 ]
    [
      r.Theorem5.bounds.Access_bounds.bound_d;
      r.Theorem5.registers_eliminated;
      r.Theorem5.one_use_bits;
      r.Theorem5.t_objects;
    ];
  let universal =
    Universal.construct
      ~target:(Rmw.fetch_add_mod ~ports:2 ~modulus:5)
      ~procs:2 ~cells:8 ()
  in
  let stats =
    Wfc_sim.Exec.explore universal
      ~workloads:[| [ Ops.fetch_add 1 ]; [ Ops.fetch_add 2 ] |]
      ()
  in
  Alcotest.(check int) "E10 universal faa: max steps per op" 5
    stats.Wfc_sim.Exec.max_op_steps

(* --- Theorem 5 beyond two processes -------------------------------------------------- *)

let test_cas_ids_protocol_correct () =
  (* the compiler's n=3 source is itself a correct protocol *)
  (match Wfc_consensus.Check.result_exn
           (Wfc_consensus.Check.verify
              (Wfc_consensus.Protocols.from_cas_ids ~procs:2 ()))
   with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "n=2: %a" Wfc_consensus.Check.pp_violation v);
  match
    Wfc_consensus.Check.result_exn
      (Wfc_consensus.Check.verify ~subsets:false ~repeat:false
         (Wfc_consensus.Protocols.from_cas_ids ~procs:3 ()))
  with
  | Ok r -> Alcotest.(check int) "8 vectors" 8 r.Wfc_consensus.Check.vectors
  | Error v -> Alcotest.failf "n=3: %a" Wfc_consensus.Check.pp_violation v

let compile_cas_ids3 tname =
  expect_ok "n=3 compile"
    (Theorem5.eliminate_registers ~strategy:(strategy_of tname)
       (Wfc_consensus.Protocols.from_cas_ids ~procs:3 ()))

let test_theorem5_three_processes () =
  (* compile the n=3 protocol: 6 SRSW registers eliminated, and the result
     verified exhaustively — every participation subset, input vector,
     repeated proposal and interleaving *)
  let report = compile_cas_ids3 "sticky-bit" in
  Alcotest.(check int) "six registers eliminated" 6
    report.Theorem5.registers_eliminated;
  Alcotest.(check int) "no registers left" 0
    (Implementation.count_objects_where report.Theorem5.compiled
       ~pred:(fun s -> String.equal s.Type_spec.name "atomic-bit"));
  match
    Wfc_consensus.Check.result_exn
      (Wfc_consensus.Check.verify report.Theorem5.compiled)
  with
  | Ok r ->
    Alcotest.(check int) "every input vector" 26 r.Wfc_consensus.Check.vectors
  | Error v ->
    Alcotest.failf "agreement/validity/wait-freedom: %a"
      Wfc_consensus.Check.pp_violation v

let test_theorem5_three_processes_degraded () =
  (* negative control for the exhaustive n=3 check: one glitching read of
     any compiled bit (stale or safe) breaks the protocol, and the checker
     says so with a witness that replays to the same violation *)
  List.iter
    (fun tname ->
      let compiled = (compile_cas_ids3 tname).Theorem5.compiled in
      List.iter
        (fun (dname, degradation) ->
          let name = Fmt.str "%s, %s" tname dname in
          let faults =
            Wfc_sim.Faults.degrade_all compiled ~glitches:1 degradation
          in
          match Wfc_consensus.Check.verify ~faults compiled with
          | Wfc_consensus.Check.Falsified
              { witness = Some w; reason; _ } -> (
            match Wfc_consensus.Check.replay_violation compiled ~reason w with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s: witness does not replay: %s" name e)
          | v ->
            Alcotest.failf "%s: expected a violation with a witness, got %a"
              name Wfc_consensus.Check.pp_verdict v)
        [ ("stale:1", `Stale 1); ("safe", `Safe) ])
    [ "test-and-set"; "sticky-bit" ]

let test_theorem5_rejects_mrsw_registers () =
  (* announce bits at n=3 are read by two processes: the compiler must
     refuse and point at the §4.1 chain *)
  let impl =
    Wfc_consensus.Multivalued.from_binary ~announce_bits:true ~procs:3
      ~values:2 ()
  in
  let composed =
    List.fold_left
      (fun acc obj ->
        Implementation.substitute ~obj
          ~replacement:(Wfc_consensus.Protocols.from_sticky ~procs:3 ())
          acc)
      impl
      (Wfc_consensus.Multivalued.consensus_object_indices ~procs:3 ~values:2
         ~announce_bits:true)
  in
  match
    Theorem5.eliminate_registers ~strategy:(strategy_of "sticky-bit") composed
  with
  | Ok _ -> Alcotest.fail "MRSW registers must be rejected"
  | Error e ->
    Alcotest.(check bool) "mentions the chain" true
      (let needle = "4.1 chain" in
       let n = String.length e and m = String.length needle in
       let rec has i = i + m <= n && (String.sub e i m = needle || has (i + 1)) in
       has 0)

(* --- hierarchy certificates -------------------------------------------------------- *)

let test_hierarchy_certify () =
  let cert =
    expect_ok "cas h_m"
      (Hierarchy.certify ~type_name:"cas"
         (Wfc_consensus.Protocols.from_cas ~procs:2 ()))
  in
  Alcotest.(check int) "level 2" 2 cert.Hierarchy.level;
  Alcotest.(check bool) "no registers" false cert.Hierarchy.registers_used;
  Alcotest.(check bool) "tas with registers refused for h_m" true
    (Result.is_error
       (Hierarchy.certify ~type_name:"tas" (Wfc_consensus.Protocols.from_tas ())));
  let cert_r =
    expect_ok "tas h_m^r"
      (Hierarchy.certify ~type_name:"tas" ~allow_registers:true
         (Wfc_consensus.Protocols.from_tas ()))
  in
  Alcotest.(check bool) "registers used" true cert_r.Hierarchy.registers_used

let test_hierarchy_single_object () =
  (* one-object, register-free certificates witness h_1 *)
  let cert =
    expect_ok "sticky h_1"
      (Hierarchy.certify ~type_name:"sticky"
         (Wfc_consensus.Protocols.from_sticky ~procs:3 ()))
  in
  Alcotest.(check bool) "h_1 evidence" true cert.Hierarchy.single_object;
  (* one object of T + registers is exactly Herlihy's h_1^r *)
  let cert_r =
    expect_ok "cas-ids h_1^r"
      (Hierarchy.certify ~type_name:"cas" ~allow_registers:true
         (Wfc_consensus.Protocols.from_cas_ids ~procs:2 ()))
  in
  Alcotest.(check bool) "single T object" true cert_r.Hierarchy.single_object;
  Alcotest.(check bool) "with registers" true cert_r.Hierarchy.registers_used;
  (* the compiled artifact has many T objects: h_m, not h_1 *)
  let cert_m =
    expect_ok "compiled h_m"
      (Hierarchy.certify ~type_name:"test-and-set"
         (expect_ok "compile"
            (Theorem5.eliminate_registers ~strategy:(strategy_of "test-and-set")
               (Wfc_consensus.Protocols.from_tas ())))
           .Theorem5.compiled)
  in
  Alcotest.(check bool) "many objects: not h_1" false
    cert_m.Hierarchy.single_object

let test_hierarchy_transfer () =
  (* h_m^r(TAS) ≥ 2 transfers to h_m(TAS) ≥ 2 — the Theorem 5 corollary *)
  let cert, report =
    expect_ok "transfer"
      (Hierarchy.transfer ~type_name:"test-and-set"
         ~strategy:(strategy_of "test-and-set")
         (Wfc_consensus.Protocols.from_tas ()))
  in
  Alcotest.(check int) "same level" 2 cert.Hierarchy.level;
  Alcotest.(check bool) "now register-free" false cert.Hierarchy.registers_used;
  Alcotest.(check bool) "report agrees" true
    (report.Theorem5.registers_eliminated = 2)

let () =
  Alcotest.run "wfc_core"
    [
      ( "E4 bounded bit (§4.3)",
        [
          Alcotest.test_case "r(w+1) formula" `Quick test_bit_count_formula;
          Alcotest.test_case "bases are one-use bits" `Quick
            test_bounded_bit_all_bases_one_use;
          Alcotest.test_case "atomic r2w1" `Quick test_bounded_bit_atomic_small;
          Alcotest.test_case "atomic r3w2" `Quick test_bounded_bit_atomic_larger;
          Alcotest.test_case "init true" `Quick test_bounded_bit_init_true;
          Alcotest.test_case "guard: same-value writes" `Quick
            test_bounded_bit_guard_same_value;
          Alcotest.test_case "ablation: unguarded toggles" `Quick
            test_bounded_bit_unguarded_toggles;
          Alcotest.test_case "ablation: read budget" `Quick
            test_bounded_bit_read_budget;
          Alcotest.test_case "ablation: write budget" `Quick
            test_bounded_bit_write_budget;
          Alcotest.test_case "one-use discipline" `Quick
            test_bounded_bit_one_use_discipline;
          QCheck_alcotest.to_alcotest prop_bounded_bit_random;
          Alcotest.test_case "rectangular budgets" `Quick
            test_bounded_bit_rectangular;
          Alcotest.test_case "pseudocode access shape" `Quick
            test_bounded_bit_access_shape;
        ] );
      ( "E5 triviality (§5.1)",
        [
          Alcotest.test_case "decision matches catalog" `Quick
            test_triviality_matches_catalog;
          Alcotest.test_case "rejects out-of-scope types" `Quick
            test_triviality_rejects_nondet;
          Alcotest.test_case "witnesses verify" `Quick test_witnesses_verify;
          Alcotest.test_case "one-use bit zoo sweep" `Quick test_one_use_bit_sweep;
          Alcotest.test_case "delayed reveal" `Quick
            test_one_use_bit_from_delayed_reveal;
          Alcotest.test_case "identity baseline" `Quick test_identity_one_use_bit;
        ] );
      ( "E6 non-trivial pairs (§5.2)",
        [
          Alcotest.test_case "finds the flag's pair" `Quick
            test_pair_search_non_oblivious;
          Alcotest.test_case "oblivious types too" `Quick
            test_pair_search_oblivious_types_too;
          Alcotest.test_case "trivial types: none" `Quick
            test_pair_search_trivial_none;
          Alcotest.test_case "Lemmas 2-4 shapes" `Quick test_lemmas_2_3_4;
          Alcotest.test_case "construction conformance" `Quick
            test_pair_construction_conformance;
          Alcotest.test_case "rejects nondeterminism" `Quick
            test_pair_search_rejects_nondet;
        ] );
      ( "E7 from consensus (§5.3)",
        [
          Alcotest.test_case "primitive consensus" `Quick test_from_consensus_object;
          Alcotest.test_case "over CAS" `Quick test_from_consensus_cas;
          Alcotest.test_case "over sticky" `Quick test_from_consensus_sticky;
          Alcotest.test_case "wrong target" `Quick
            test_from_consensus_rejects_wrong_target;
        ] );
      ( "E9 nondeterminism ablation",
        [ Alcotest.test_case "§5.1 unsound on flaky bit" `Quick test_nondet_ablation ] );
      ( "E8 Theorem 5",
        [
          Alcotest.test_case "strategy selection" `Quick test_strategy_selection;
          Alcotest.test_case "compile tas" `Quick test_theorem5_tas;
          Alcotest.test_case "compile queue" `Quick test_theorem5_queue;
          Alcotest.test_case "compile faa" `Quick test_theorem5_faa;
          Alcotest.test_case "compile swap" `Quick test_theorem5_swap;
          Alcotest.test_case "register-free source" `Quick
            test_theorem5_register_free_source;
          Alcotest.test_case "consensus-based (case 3)" `Quick
            test_theorem5_consensus_based;
          Alcotest.test_case "case-3 factory discipline" `Quick
            test_theorem5_consensus_based_rejects_registers;
          Alcotest.test_case "idempotent" `Quick test_theorem5_idempotent;
          Alcotest.test_case "explore deterministic" `Quick
            test_explore_deterministic;
          Alcotest.test_case "universal 3 procs exhaustive" `Quick
            test_universal_three_procs;
        ] );
      ( "E8 beyond two processes",
        [
          Alcotest.test_case "cas-ids protocol correct" `Quick
            test_cas_ids_protocol_correct;
          Alcotest.test_case "compile n=3" `Quick test_theorem5_three_processes;
          Alcotest.test_case "compile n=3, degraded bits" `Quick
            test_theorem5_three_processes_degraded;
          Alcotest.test_case "MRSW registers rejected" `Quick
            test_theorem5_rejects_mrsw_registers;
        ] );
      ( "hierarchies",
        [
          Alcotest.test_case "certify" `Quick test_hierarchy_certify;
          Alcotest.test_case "single-object h_1" `Quick
            test_hierarchy_single_object;
          Alcotest.test_case "Theorem 5 transfer" `Quick test_hierarchy_transfer;
        ] );
      ( "shape facts",
        [ Alcotest.test_case "E2/E3/E4/E8/E10 figures" `Quick test_shape_facts ]
      );
    ]
