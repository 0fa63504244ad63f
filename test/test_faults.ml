(* Fault-injection adversaries, replayable witnesses, and budgeted
   exploration: crash-recovery and degraded-register robustness of the
   paper's wait-free constructions, and the graceful-degradation contract of
   the engines. *)

open Wfc_spec
open Wfc_zoo
open Wfc_program
open Wfc_consensus
open Wfc_core

let crash_recovery = Wfc_sim.Faults.crash_recovery ~crashes:1 ~recoveries:1

(* --- wait-free protocols survive crash-recovery ----------------------------- *)

let test_protocols_survive_crash_recovery () =
  List.iter
    (fun (name, impl, subsets) ->
      match Check.verify ~subsets ~faults:crash_recovery impl with
      | Check.Verified r ->
        Alcotest.(check bool)
          (name ^ ": faulty executions explored")
          true
          (r.Check.executions > 0)
      | Check.Falsified v ->
        Alcotest.failf "%s under crash-recovery: %a" name Check.pp_violation v
      | Check.Unknown _ -> Alcotest.failf "%s: unexpected Unknown" name)
    [
      ("tas", Protocols.from_tas (), true);
      ("cas", Protocols.from_cas ~procs:2 (), true);
      ("sticky", Protocols.from_sticky ~procs:2 (), false);
    ]

let test_theorem5_pipeline_survives_faults () =
  (* Theorem 5 output (one-use bits out of bounded bits, no registers) must
     stay correct when the adversary crashes and revives processes. *)
  let strategy =
    match
      Theorem5.strategy_for (Catalog.find ~ports:2 "test-and-set").Catalog.spec
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let compiled =
    match Theorem5.eliminate_registers ~strategy (Protocols.from_tas ()) with
    | Ok r -> r.Theorem5.compiled
    | Error e -> Alcotest.fail e
  in
  match
    Check.verify ~subsets:false ~repeat:false ~faults:crash_recovery compiled
  with
  | Check.Verified _ -> ()
  | Check.Falsified v ->
    Alcotest.failf "compiled pipeline under crash-recovery: %a"
      Check.pp_violation v
  | Check.Unknown _ -> Alcotest.fail "unexpected Unknown"

(* --- degraded registers falsify register-dependent protocols --------------- *)

let expect_witness name = function
  | Check.Verified _ -> Alcotest.failf "%s: expected a violation" name
  | Check.Unknown _ -> Alcotest.failf "%s: unexpected Unknown" name
  | Check.Falsified v -> (
    match v.Check.witness with
    | Some w -> (v, w)
    | None -> Alcotest.failf "%s: violation carries no witness" name)

let test_stale_registers_break_tas_protocol () =
  let impl = Protocols.from_tas () in
  let faults = Wfc_sim.Faults.degrade_all impl ~glitches:2 (`Stale 1) in
  let _v, w = expect_witness "tas+stale" (Check.verify ~faults impl) in
  (* the shrunk witness replays deterministically to a violating leaf *)
  match Wfc_sim.Witness.replay impl w with
  | Error e -> Alcotest.failf "witness replay failed: %s" e
  | Ok leaf -> (
    match leaf.Wfc_sim.Exec.ops with
    | [] -> Alcotest.fail "witness leaf has no completed ops"
    | o0 :: rest ->
      let agreement =
        List.for_all
          (fun (o : Wfc_sim.Exec.op) -> Value.equal o.resp o0.Wfc_sim.Exec.resp)
          rest
      in
      let proposals =
        Array.to_list w.Wfc_sim.Witness.workloads
        |> List.concat_map (function
             | inv :: _ -> (
               match Ops.propose_arg inv with
               | v -> [ v ]
               | exception Value.Type_error _ -> [])
             | [] -> [])
      in
      let validity =
        List.exists (Value.equal o0.Wfc_sim.Exec.resp) proposals
      in
      Alcotest.(check bool) "violation reproduced by replay" true
        (not (agreement && validity)))

let test_safe_registers_break_tas_protocol () =
  let impl = Protocols.from_tas () in
  let faults = Wfc_sim.Faults.degrade_all impl ~glitches:1 `Safe in
  let _v, w = expect_witness "tas+safe" (Check.verify ~faults impl) in
  Alcotest.(check bool) "witness trace non-empty" true
    (w.Wfc_sim.Witness.trace <> [])

(* --- the acceptance path: broken protocol → shrunk, replayable witness ----- *)

let test_broken_register_only_witness () =
  let impl = Protocols.broken_register_only () in
  let v, w = expect_witness "broken" (Check.verify impl) in
  (* shrinking dropped the repeat proposals: one propose per participant,
     and a short decision trace *)
  Array.iter
    (fun wl ->
      Alcotest.(check bool) "≤ 1 invocation per process after shrinking" true
        (List.length wl <= 1))
    w.Wfc_sim.Witness.workloads;
  Alcotest.(check bool) "short trace" true
    (List.length w.Wfc_sim.Witness.trace <= 6);
  Alcotest.(check bool) "reason mentions agreement or validity" true
    (v.Check.reason <> "");
  (* replay reproduces the same violation *)
  (match Wfc_sim.Witness.replay impl w with
  | Error e -> Alcotest.failf "replay failed: %s" e
  | Ok leaf -> (
    match leaf.Wfc_sim.Exec.ops with
    | (o0 : Wfc_sim.Exec.op) :: rest ->
      Alcotest.(check bool) "disagreement reproduced" true
        (not
           (List.for_all
              (fun (o : Wfc_sim.Exec.op) -> Value.equal o.resp o0.resp)
              rest))
    | [] -> Alcotest.fail "no ops on replayed leaf"));
  (* the witness survives a serialization round-trip *)
  match Wfc_sim.Witness.of_string (Wfc_sim.Witness.to_string w) with
  | Error e -> Alcotest.failf "round-trip: %s" e
  | Ok w' -> (
    Alcotest.(check bool) "same trace after round-trip" true
      (w'.Wfc_sim.Witness.trace = w.Wfc_sim.Witness.trace);
    match Wfc_sim.Witness.replay impl w' with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "round-tripped replay failed: %s" e)

let test_trace_text_roundtrip () =
  let open Wfc_sim.Faults in
  let trace =
    [
      { proc = 0; kind = Step 1 };
      { proc = 1; kind = Glitch 0 };
      { proc = 1; kind = Crash };
      { proc = 1; kind = Recover };
      { proc = 0; kind = Wedge };
    ]
  in
  match trace_of_string (trace_to_string trace) with
  | Ok t -> Alcotest.(check bool) "round-trip" true (t = trace)
  | Error e -> Alcotest.fail e

(* --- regularity checker: degraded adversary yields a replayable witness ---- *)

let test_register_props_witness_under_staleness () =
  let impl = Implementation.identity (Register.bit ~ports:2) ~procs:2 in
  let faults = Wfc_sim.Faults.degrade_all impl ~glitches:1 (`Stale 1) in
  match
    Wfc_linearize.Register_props.check_all_regular impl ~init:Value.falsity
      ~workloads:[| [ Ops.write Value.truth ]; [ Ops.read; Ops.read ] |]
      ~faults ()
  with
  | Ok _ -> Alcotest.fail "stale reads must break regularity"
  | Error viol -> (
    match viol.Wfc_linearize.Register_props.witness with
    | None -> Alcotest.fail "violation carries no witness"
    | Some w -> (
      match Wfc_sim.Witness.replay impl w with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "replay failed: %s" e))

(* --- graceful degradation: budgets and deadlines --------------------------- *)

let test_budget_returns_unknown () =
  match Check.verify ~budget:50 (Protocols.from_tas ()) with
  | Check.Unknown { partial; reason; _ } ->
    Alcotest.(check bool) "reason mentions budget" true
      (reason = "node budget exhausted");
    Alcotest.(check bool) "partial progress reported" true
      (partial.Check.executions >= 0 && partial.Check.vectors >= 1)
  | Check.Verified _ -> Alcotest.fail "50 nodes cannot verify tas"
  | Check.Falsified v -> Alcotest.failf "unexpected: %a" Check.pp_violation v

let test_zero_deadline_returns_unknown () =
  match Check.verify ~deadline_s:0. (Protocols.from_tas ()) with
  | Check.Unknown { reason; _ } ->
    Alcotest.(check string) "reason" "deadline exceeded" reason
  | _ -> Alcotest.fail "expired deadline must yield Unknown"

let test_explore_partial_never_hangs () =
  let impl = Protocols.from_sticky ~procs:3 () in
  let workloads =
    Array.init 3 (fun p -> [ Ops.propose (Value.bool (p mod 2 = 0)) ])
  in
  let stats =
    Wfc_sim.Explore.run impl ~workloads ~budget:10
      ~options:Wfc_sim.Explore.naive ()
  in
  (match stats.Wfc_sim.Explore.completeness with
  | Wfc_sim.Explore.Partial Wfc_sim.Explore.Budget_exhausted -> ()
  | c ->
    Alcotest.failf "expected budget-partial, got %a"
      Wfc_sim.Explore.pp_completeness c);
  Alcotest.(check bool) "stopped promptly" true
    (stats.Wfc_sim.Explore.nodes <= 20)

let test_access_bounds_budget_incomplete () =
  match Access_bounds.analyze ~budget:5 (Protocols.from_tas ()) with
  | Ok _ -> Alcotest.fail "5 nodes cannot bound tas"
  | Error e ->
    Alcotest.(check bool) "reports incompleteness, claims no bound" true
      (String.length e > 0
      && String.sub e 0 (min 19 (String.length e)) = "analysis incomplete")

(* --- engine parity under faults -------------------------------------------- *)

let test_exec_explore_parity_under_faults () =
  let impl = Protocols.from_tas () in
  let workloads =
    [| [ Ops.propose Value.truth ]; [ Ops.propose Value.falsity ] |]
  in
  let faults = Wfc_sim.Faults.crash_recovery ~crashes:1 ~recoveries:1 in
  let naive_leaves = ref 0 in
  let exec_stats =
    Wfc_sim.Exec.explore impl ~workloads ~faults
      ~on_leaf:(fun _ -> incr naive_leaves)
      ()
  in
  let explore_leaves = ref 0 in
  let explore_stats =
    Wfc_sim.Explore.run impl ~workloads ~faults
      ~options:Wfc_sim.Explore.naive
      ~on_leaf_trace:(fun _ _ -> incr explore_leaves)
      ()
  in
  Alcotest.(check int)
    "same leaf count" exec_stats.Wfc_sim.Exec.leaves
    explore_stats.Wfc_sim.Explore.leaves;
  Alcotest.(check int) "on_leaf parity" !naive_leaves !explore_leaves;
  Alcotest.(check int)
    "same node count" exec_stats.Wfc_sim.Exec.nodes
    explore_stats.Wfc_sim.Explore.nodes

let () =
  Alcotest.run "wfc_faults"
    [
      ( "crash-recovery",
        [
          Alcotest.test_case "protocols survive" `Slow
            test_protocols_survive_crash_recovery;
          Alcotest.test_case "Theorem 5 pipeline survives" `Slow
            test_theorem5_pipeline_survives_faults;
        ] );
      ( "degraded registers",
        [
          Alcotest.test_case "stale reads break tas protocol" `Quick
            test_stale_registers_break_tas_protocol;
          Alcotest.test_case "safe reads break tas protocol" `Quick
            test_safe_registers_break_tas_protocol;
          Alcotest.test_case "regularity witness under staleness" `Quick
            test_register_props_witness_under_staleness;
        ] );
      ( "witnesses",
        [
          Alcotest.test_case "broken protocol: shrunk replayable witness"
            `Quick test_broken_register_only_witness;
          Alcotest.test_case "trace text round-trip" `Quick
            test_trace_text_roundtrip;
        ] );
      ( "graceful degradation",
        [
          Alcotest.test_case "budget → Unknown" `Quick
            test_budget_returns_unknown;
          Alcotest.test_case "deadline → Unknown" `Quick
            test_zero_deadline_returns_unknown;
          Alcotest.test_case "Explore.run partial, never hangs" `Quick
            test_explore_partial_never_hangs;
          Alcotest.test_case "Access_bounds budget → incomplete" `Quick
            test_access_bounds_budget_incomplete;
        ] );
      ( "engine parity",
        [
          Alcotest.test_case "Exec.explore ≡ Explore.run naive under faults"
            `Quick test_exec_explore_parity_under_faults;
        ] );
    ]
