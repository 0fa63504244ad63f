(* E3 / E10 / E11 — consensus protocols, the §4.2 access-bound analyzer, the
   universal construction, and the register-only impossibility controls. *)

open Wfc_spec
open Wfc_zoo
open Wfc_program
open Wfc_consensus

let expect_ok name = function
  | Ok r -> r
  | Error v -> Alcotest.failf "%s: %a" name Check.pp_violation v

(* collapse the three-valued verdict: no test here sets a budget/deadline,
   so Unknown is unreachable *)
let verify ?subsets ?repeat ?domain ?faults ?fuel impl =
  Check.result_exn (Check.verify ?subsets ?repeat ?domain ?faults ?fuel impl)

let crashes = Wfc_sim.Faults.crashes

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- protocol correctness (exhaustive, incl. subsets and repeats) --------- *)

let verify_protocol name impl () =
  let report = expect_ok name (verify impl) in
  Alcotest.(check bool) "checked several vectors" true (report.Check.vectors > 2);
  Alcotest.(check bool) "explored executions" true (report.Check.executions > 0)

let test_cas_three_procs () =
  let report =
    expect_ok "cas3" (verify (Protocols.from_cas ~procs:3 ()))
  in
  (* subsets: 7 non-empty subsets; inputs 2^|S| → 2*3 + 4*3 + 8 = 26 vectors *)
  Alcotest.(check int) "vector count" 26 report.Check.vectors

let test_sticky_four_procs () =
  ignore
    (expect_ok "sticky4"
       (verify ~subsets:false (Protocols.from_sticky ~procs:4 ())))

let test_broken_register_only () =
  match verify (Protocols.broken_register_only ()) with
  | Ok _ -> Alcotest.fail "register-only consensus cannot be correct"
  | Error v ->
    Alcotest.(check bool) "agreement or validity broken" true
      (v.Check.reason <> "")

let test_repeat_invocations_cached () =
  (* second propose must return the first decision without object accesses *)
  let impl = Protocols.from_tas () in
  let resps, leaf =
    Wfc_sim.Exec.sequential_oracle impl
      [ Ops.propose Value.truth; Ops.propose Value.falsity ]
  in
  Alcotest.(check bool) "same decision twice" true
    (match resps with
    | [ a; b ] -> Value.equal a b && Value.equal a Value.truth
    | _ -> false);
  (match leaf.Wfc_sim.Exec.ops with
  | [ _; second ] ->
    Alcotest.(check int) "cached: zero accesses" 0 second.Wfc_sim.Exec.steps
  | _ -> Alcotest.fail "expected two ops")

(* A count below a protocol's minimum is an [Error] naming the protocol, not
   an exception out of its builder; the smallest allowed count builds. *)
let test_of_name_refuses_counts () =
  List.iter
    (fun (name, procs) ->
      match Protocols.of_name ~procs name with
      | Ok _ -> Alcotest.failf "%s n=%d accepted" name procs
      | Error e ->
        Alcotest.(check bool) (Fmt.str "%s n=%d names it" name procs) true
          (contains e name)
      | exception e ->
        Alcotest.failf "%s n=%d raised %s" name procs (Printexc.to_string e))
    [ ("cas", 0); ("cas", -1); ("sticky", 0); ("cas-ids", 1); ("cas-ids", 0) ];
  List.iter
    (fun (name, procs) ->
      match Protocols.of_name ~procs name with
      | Ok impl ->
        Alcotest.(check int) (Fmt.str "%s n=%d procs" name procs) procs
          impl.Implementation.procs
      | Error e -> Alcotest.failf "%s n=%d refused: %s" name procs e)
    [ ("cas", 1); ("sticky", 1); ("cas-ids", 2) ]

(* a deliberately non-wait-free "protocol": proc 0 decides and publishes,
   proc 1 spins until it sees the decision *)
let spinning_consensus () =
  let procs = 2 in
  let reg = Register.bounded ~ports:procs ~values:3 in
  let open Program.Syntax in
  let program ~proc ~inv local =
    let v =
      match inv with
      | Value.Pair (Value.Sym "propose", v) -> v
      | _ -> assert false
    in
    if proc = 0 then
      let* _ =
        Program.invoke ~obj:0
          (Ops.write (Value.int (if Value.as_bool v then 1 else 0)))
      in
      Program.return (v, local)
    else
      let rec spin () =
        let* d = Program.invoke ~obj:0 Ops.read in
        if Value.as_int d = 2 then spin ()
        else Program.return (Value.bool (Value.as_int d = 1), local)
      in
      spin ()
  in
  Implementation.make
    ~target:(Consensus_type.binary ~ports:procs)
    ~implements:Consensus_type.bot ~procs
    ~objects:[ (reg, Value.int 2) ]
    ~program ()

let test_spinning_not_wait_free () =
  match verify ~fuel:200 (spinning_consensus ()) with
  | Ok _ -> Alcotest.fail "spinning protocol must be flagged"
  | Error v ->
    Alcotest.(check bool) "flagged as not wait-free" true
      (String.length v.Check.reason > 0
      && String.sub v.Check.reason (String.length v.Check.reason - 13) 13
         = "not wait-free")

(* --- §4.2 access bounds ------------------------------------------------------ *)

let test_access_bounds_tas () =
  match Access_bounds.analyze (Protocols.from_tas ()) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "four trees" 4 (List.length r.Access_bounds.trees);
    Alcotest.(check int) "fan-out 2" 2 r.Access_bounds.fan_out;
    (* per process: write + tas + (loser) read = ≤ 3 accesses; D ≤ 6 *)
    Alcotest.(check bool) "D small and positive" true
      (r.Access_bounds.bound_d >= 4 && r.Access_bounds.bound_d <= 6);
    List.iter
      (fun (t : Access_bounds.tree) ->
        Alcotest.(check bool) "every tree finite & explored" true
          (t.Access_bounds.leaves > 0 && t.Access_bounds.depth > 0))
      r.Access_bounds.trees

let test_access_bounds_all_protocols () =
  let protos =
    [
      ("tas", Protocols.from_tas ());
      ("faa", Protocols.from_faa ());
      ("swap", Protocols.from_swap ());
      ("queue", Protocols.from_queue ());
      ("cas2", Protocols.from_cas ~procs:2 ());
      ("sticky2", Protocols.from_sticky ~procs:2 ());
    ]
  in
  List.iter
    (fun (name, impl) ->
      match Access_bounds.analyze impl with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok r ->
        Alcotest.(check bool)
          (name ^ ": D bounded") true
          (r.Access_bounds.bound_d > 0 && r.Access_bounds.bound_d <= 10))
    protos

let test_access_bounds_cas3 () =
  match Access_bounds.analyze (Protocols.from_cas ~procs:3 ()) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "eight trees" 8 (List.length r.Access_bounds.trees);
    (* 3 procs × 2 accesses each *)
    Alcotest.(check int) "D = 6" 6 r.Access_bounds.bound_d

let test_access_bounds_rejects_spin () =
  match Access_bounds.analyze ~fuel:200 (spinning_consensus ()) with
  | Ok _ -> Alcotest.fail "spin must exhaust fuel"
  | Error e ->
    Alcotest.(check bool) "König mention" true
      (contains e "König" || contains e "non-wait")

let test_access_bounds_rejects_nondet () =
  let impl = Implementation.identity (Nondet.flaky_bit ~ports:2) ~procs:2 in
  let impl =
    { impl with Implementation.target = Consensus_type.binary ~ports:2 }
  in
  match Access_bounds.analyze impl with
  | Ok _ -> Alcotest.fail "nondeterministic base must be rejected"
  | Error e ->
    Alcotest.(check bool) "mentions nondeterminism" true
      (contains e "nondeterministic")

(* Every tree of tas, cas n=3 and cas-ids n=4 as a multiset of ⟨inputs,
   leaves, nodes, depth⟩, with D and the per-object bounds. The order of
   the trees is the enumeration's and is not pinned; every binary input
   vector has one tree, and all of a protocol's trees count alike. *)
let test_access_bounds_pinned () =
  let rec every_vector n =
    if n = 0 then [ [] ]
    else
      List.concat_map
        (fun v -> [ Ops.propose Value.falsity :: v; Ops.propose Value.truth :: v ])
        (every_vector (n - 1))
  in
  List.iter
    (fun (name, impl, (leaves, nodes, depth), d, per_object) ->
      match Access_bounds.analyze impl with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok r ->
        let n = impl.Implementation.procs in
        let multiset ts = List.sort compare ts in
        Alcotest.(check bool)
          (name ^ ": trees") true
          (multiset
             (List.map
                (fun (t : Access_bounds.tree) ->
                  (t.inputs, t.leaves, t.nodes, t.depth))
                r.Access_bounds.trees)
          = multiset
              (List.map (fun v -> (v, leaves, nodes, depth)) (every_vector n)));
        Alcotest.(check int) (name ^ ": D") d r.Access_bounds.bound_d;
        Alcotest.(check (array int))
          (name ^ ": per-object") per_object r.Access_bounds.per_object)
    [
      ("tas", Protocols.from_tas (), (2, 11, 5), 5, [| 2; 2; 2 |]);
      ("cas n=3", Protocols.from_cas ~procs:3 (), (3, 54, 6), 6, [| 6 |]);
      ( "cas-ids n=4",
        Protocols.from_cas_ids ~procs:4 (),
        (4, 2999, 23),
        23,
        [| 8; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2; 2 |] );
    ]

(* A target proposing a single value has one tree: no vector needs a
   second value when no process proposes twice. *)
let test_access_bounds_one_value () =
  let impl =
    Implementation.identity (Consensus_type.any ~ports:2) ~procs:2
  in
  match Access_bounds.analyze impl with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "one tree" 1 (List.length r.Access_bounds.trees);
    Alcotest.(check int) "D" 2 r.Access_bounds.bound_d

(* §4.2 bounds wait-free consensus implementations only: a protocol whose
   leaves break agreement has no D, and the error's trace replays to such a
   leaf. *)
let test_access_bounds_rejects_broken () =
  let impl = Protocols.broken_register_only () in
  match Access_bounds.analyze impl with
  | Ok r -> Alcotest.failf "broken protocol given D = %d" r.Access_bounds.bound_d
  | Error e -> (
    Alcotest.(check bool) "names agreement" true (contains e "agreement");
    let marker = "replay trace: " in
    let rec find i =
      if i + String.length marker > String.length e then
        Alcotest.failf "no replay trace in %S" e
      else if String.sub e i (String.length marker) = marker then
        i + String.length marker
      else find (i + 1)
    in
    let at = find 0 in
    match
      Wfc_sim.Faults.trace_of_string (String.sub e at (String.length e - at))
    with
    | Error why -> Alcotest.failf "trace does not parse: %s" why
    | Ok trace ->
      Alcotest.(check bool)
        "the trace replays to a failing leaf" true
        (List.exists
           (fun (v : Check.vector) ->
             match
               Wfc_sim.Exec.replay impl ~workloads:v.Check.workloads trace
             with
             | Ok leaf -> Result.is_error (Check.check_leaf ~inputs:v.inputs leaf)
             | Error _ -> false)
           (Check.vectors ~subsets:false ~repeat:false impl)))

let test_access_bounds_rejects_non_consensus () =
  let spec = Rmw.test_and_set ~ports:2 in
  match Access_bounds.analyze (Implementation.identity spec ~procs:2) with
  | Ok _ -> Alcotest.fail "a test-and-set target has no proposals"
  | Error e ->
    Alcotest.(check bool) "names the target" true
      (contains e spec.Type_spec.name)

(* A budget either covers the whole analysis, which is then the uncut
   report, or it is "analysis incomplete": never another D. The whole
   analysis spends, per tree, its nodes and its root. *)
let test_access_bounds_budget_sweep () =
  let impl = Protocols.from_cas ~procs:3 () in
  match Access_bounds.analyze impl with
  | Error e -> Alcotest.fail e
  | Ok full ->
    let total =
      List.fold_left
        (fun acc (t : Access_bounds.tree) -> acc + t.nodes + 1)
        0 full.Access_bounds.trees
    in
    for budget = 1 to total do
      match Access_bounds.analyze ~budget impl with
      | Ok r ->
        Alcotest.(check bool)
          (Fmt.str "budget %d: the uncut report" budget)
          true
          (budget = total && r = full)
      | Error e ->
        Alcotest.(check bool)
          (Fmt.str "budget %d: incomplete" budget)
          true
          (budget < total && contains e "analysis incomplete")
    done

(* --- multivalued consensus from binary (E13) -------------------------------------- *)

let test_bits_needed () =
  List.iter
    (fun (values, expect) ->
      Alcotest.(check int) (Fmt.str "values=%d" values) expect
        (Multivalued.bits_needed ~values))
    [ (2, 1); (3, 2); (4, 2); (5, 3); (8, 3); (9, 4) ]

let int_domain n = List.init n Value.int

let test_multivalued_exhaustive () =
  let impl = Multivalued.from_binary ~procs:2 ~values:3 () in
  match verify ~domain:(int_domain 3) impl with
  | Ok r ->
    (* subsets {0},{1},{0,1} × 3^|S| inputs = 3+3+9 = 15 vectors *)
    Alcotest.(check int) "vectors" 15 r.Check.vectors
  | Error v -> Alcotest.failf "multivalued: %a" Check.pp_violation v

let test_multivalued_four_values () =
  let impl = Multivalued.from_binary ~procs:2 ~values:4 () in
  match
    verify ~domain:(int_domain 4) ~subsets:false ~repeat:false impl
  with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "values=4: %a" Check.pp_violation v

let test_multivalued_announce_bits () =
  let impl = Multivalued.from_binary ~announce_bits:true ~procs:2 ~values:2 () in
  match verify ~domain:(int_domain 2) impl with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "announce bits: %a" Check.pp_violation v

let test_multivalued_crashes () =
  let impl = Multivalued.from_binary ~procs:2 ~values:3 () in
  match
    verify ~domain:(int_domain 3) ~subsets:false ~repeat:false
      ~faults:(crashes 1) impl
  with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "multivalued crashes: %a" Check.pp_violation v

let test_multivalued_over_tas_protocol () =
  (* replace the primitive binary consensus objects by the TAS protocol:
     multivalued consensus with no consensus primitives at all *)
  let impl = Multivalued.from_binary ~procs:2 ~values:2 () in
  let composed =
    List.fold_left
      (fun acc obj ->
        Implementation.substitute ~obj ~replacement:(Protocols.from_tas ()) acc)
      impl
      (Multivalued.consensus_object_indices ~procs:2 ~values:2
         ~announce_bits:false)
  in
  match
    verify ~domain:(int_domain 2) ~subsets:false ~repeat:false
      composed
  with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "over tas: %a" Check.pp_violation v

let test_multivalued_full_pipeline () =
  (* announce bits + TAS-protocol rounds + Theorem 5: multivalued consensus
     from test-and-set objects only, checked exhaustively *)
  let impl = Multivalued.from_binary ~announce_bits:true ~procs:2 ~values:2 () in
  let composed =
    List.fold_left
      (fun acc obj ->
        Implementation.substitute ~obj ~replacement:(Protocols.from_tas ()) acc)
      impl
      (Multivalued.consensus_object_indices ~procs:2 ~values:2
         ~announce_bits:true)
  in
  let strategy =
    match Wfc_core.Theorem5.strategy_for (Rmw.test_and_set ~ports:2) with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  match Wfc_core.Theorem5.eliminate_registers ~strategy composed with
  | Error e -> Alcotest.failf "pipeline compile: %s" e
  | Ok report ->
    Alcotest.(check int) "register-free" 0
      (Implementation.count_objects_where report.Wfc_core.Theorem5.compiled
         ~pred:(fun s -> String.equal s.Type_spec.name "atomic-bit"));
    match
      verify ~domain:(int_domain 2) report.Wfc_core.Theorem5.compiled
    with
    | Ok r ->
      (* subsets {0},{1},{0,1} × 2^|S| inputs = 2+2+4 = 8 vectors *)
      Alcotest.(check int) "vectors" 8 r.Check.vectors
    | Error v -> Alcotest.failf "full pipeline: %a" Check.pp_violation v

(* --- valence (FLP) analysis ------------------------------------------------------ *)

let test_valence_bivalent_root () =
  List.iter
    (fun (name, impl) ->
      match Valence.analyze impl ~inputs:[ false; true ] () with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok r ->
        Alcotest.(check bool) (name ^ ": root bivalent") true
          (r.Valence.root = Valence.Bivalent);
        Alcotest.(check bool) (name ^ ": has critical configs") true
          (r.Valence.critical_nodes > 0);
        Alcotest.(check bool) (name ^ ": critical on one shared object") true
          r.Valence.critical_same_object;
        (* the classical lemma: the critical object is never a register *)
        Alcotest.(check bool)
          (name ^ ": no register decides") true
          (List.for_all
             (fun (obj_name, _) -> obj_name <> "atomic-bit")
             r.Valence.critical_objects))
    [
      ("tas", Protocols.from_tas ());
      ("faa", Protocols.from_faa ());
      ("queue", Protocols.from_queue ());
      ("cas", Protocols.from_cas ~procs:2 ());
      ("sticky", Protocols.from_sticky ~procs:2 ());
    ]

let test_valence_univalent_inputs () =
  (* same proposals on both sides: the root is already univalent (validity
     pins the decision) and no critical configuration exists *)
  match
    Valence.analyze (Protocols.from_tas ()) ~inputs:[ true; true ] ()
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "univalent root" true
      (r.Valence.root = Valence.Univalent true);
    Alcotest.(check int) "no critical configs" 0 r.Valence.critical_nodes

let test_valence_broken_is_mixed () =
  match
    Valence.analyze (Protocols.broken_register_only ()) ~inputs:[ false; true ] ()
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "mixed" true (r.Valence.root = Valence.Mixed)

let test_valence_compiled_keeps_decider () =
  (* after Theorem 5, the critical accesses still target the strong type *)
  let strategy =
    match Wfc_core.Theorem5.strategy_for (Rmw.test_and_set ~ports:2) with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  match
    Wfc_core.Theorem5.eliminate_registers ~strategy (Protocols.from_tas ())
  with
  | Error e -> Alcotest.fail e
  | Ok report -> (
    match
      Valence.analyze report.Wfc_core.Theorem5.compiled
        ~inputs:[ false; true ] ()
    with
    | Error e -> Alcotest.fail e
    | Ok r ->
      Alcotest.(check bool) "bivalent" true (r.Valence.root = Valence.Bivalent);
      Alcotest.(check (list (pair string int)))
        "critical object is the TAS"
        [ ("test-and-set", r.Valence.critical_nodes) ]
        r.Valence.critical_objects)

(* --- crash injection ------------------------------------------------------------ *)

let test_protocols_survive_midop_crashes () =
  (* up to one process halts between any two of its base accesses; the
     survivor must still decide correctly on whatever object states the dead
     process left behind *)
  List.iter
    (fun (name, impl) ->
      match verify ~subsets:false ~repeat:false ~faults:(crashes 1) impl with
      | Ok r ->
        Alcotest.(check bool)
          (name ^ ": crashes explored") true
          (r.Check.executions > 0)
      | Error v -> Alcotest.failf "%s under crashes: %a" name Check.pp_violation v)
    [
      ("tas", Protocols.from_tas ());
      ("faa", Protocols.from_faa ());
      ("swap", Protocols.from_swap ());
      ("queue", Protocols.from_queue ());
      ("cas2", Protocols.from_cas ~procs:2 ());
      ("sticky2", Protocols.from_sticky ~procs:2 ());
    ]

let test_cas3_survives_two_crashes () =
  match
    verify ~subsets:false ~repeat:false ~faults:(crashes 2)
      (Protocols.from_cas ~procs:3 ())
  with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "cas3 under 2 crashes: %a" Check.pp_violation v

let test_crash_injection_explores_more () =
  let impl = Protocols.from_tas () in
  let count k =
    let r =
      Wfc_sim.Exec.explore impl
        ~workloads:[| [ Ops.propose Value.truth ]; [ Ops.propose Value.falsity ] |]
        ~faults:(crashes k) ()
    in
    r.Wfc_sim.Exec.leaves
  in
  Alcotest.(check bool) "crashes add executions" true
    (count 1 > count 0)

(* a protocol that is correct without crashes but breaks when the winner
   dies between its TAS and publishing: the loser reads the proposal
   register BEFORE racing, so a late write by the winner is missed — builds
   evidence that mid-op crash checking catches real fault-tolerance bugs *)
let fragile_consensus () =
  let procs = 2 in
  let reg = Register.bounded ~ports:procs ~values:3 in
  let tas = Rmw.test_and_set ~ports:procs in
  let open Program.Syntax in
  let bot_mark = Value.int 2 in
  let to_int v = Value.int (if Value.as_bool v then 1 else 0) in
  let to_bool v = Value.bool (Value.as_int v = 1) in
  let program ~proc ~inv local =
    let v =
      match inv with
      | Value.Pair (Value.Sym "propose", v) -> v
      | _ -> assert false
    in
    (* bug: publish AFTER the race instead of before *)
    let* won = Program.invoke ~obj:0 Ops.test_and_set in
    if Value.equal won Value.falsity then
      let* _ = Program.invoke ~obj:(1 + proc) (Ops.write (to_int v)) in
      Program.return (v, local)
    else
      let rec wait_for_winner () =
        let* other = Program.invoke ~obj:(1 + (1 - proc)) Ops.read in
        if Value.equal other bot_mark then wait_for_winner ()
        else Program.return (to_bool other, local)
      in
      wait_for_winner ()
  in
  Implementation.make
    ~target:(Consensus_type.binary ~ports:procs)
    ~implements:Consensus_type.bot ~procs
    ~objects:[ (tas, Value.falsity); (reg, bot_mark); (reg, bot_mark) ]
    ~program ()

let test_fragile_protocol_caught_by_crashes () =
  (* The loser waits for the winner's publication, which happens after the
     race — if the winner halts in between, the loser spins forever. Note
     that an exhaustive explorer's unfair schedules already subsume the
     SAFETY consequences of crashes (a crash is a suffix of never being
     scheduled), so this protocol is flagged as non-wait-free even
     crash-free; with crashes injected the same diagnosis arrives with a
     first-class crash scenario rather than a starved-schedule suspicion.
     Both must flag it. *)
  (match
     verify ~subsets:false ~repeat:false ~fuel:500 (fragile_consensus ())
   with
  | Ok _ -> Alcotest.fail "starvation schedules must already expose the spin"
  | Error _ -> ());
  match
    verify ~subsets:false ~repeat:false ~faults:(crashes 1) ~fuel:500
      (fragile_consensus ())
  with
  | Ok _ -> Alcotest.fail "crash injection must expose the hang"
  | Error v ->
    Alcotest.(check bool) "diagnosed as not wait-free" true
      (String.length v.Check.reason > 0)

(* --- universal construction ---------------------------------------------------- *)

let lin_ok name impl ~workloads =
  match Wfc_linearize.Engine.verify impl ~workloads () with
  | Ok st ->
    Alcotest.(check bool)
      (name ^ ": explored") true
      (st.Wfc_linearize.Engine.explore.Wfc_sim.Explore.leaves > 0)
  | Error v -> Alcotest.failf "%s: %s" name v.Wfc_linearize.Engine.reason

let test_universal_sticky () =
  let target = Sticky.bit ~ports:2 in
  let impl = Universal.construct ~target ~procs:2 ~cells:6 () in
  Alcotest.(check int) "cells counted" 6 (Universal.consensus_cell_count impl);
  lin_ok "universal sticky" impl
    ~workloads:[| [ Ops.stick Value.truth ]; [ Ops.stick Value.falsity ] |]

let test_universal_queue () =
  let target =
    Collections.queue ~ports:2 ~capacity:2 ~domain:[ Value.int 0; Value.int 1 ]
  in
  let impl = Universal.construct ~target ~procs:2 ~cells:8 () in
  lin_ok "universal queue" impl
    ~workloads:[| [ Ops.enq (Value.int 0); Ops.deq ]; [ Ops.enq (Value.int 1) ] |]

let test_universal_faa () =
  let target = Rmw.fetch_add_mod ~ports:2 ~modulus:5 in
  let impl = Universal.construct ~target ~procs:2 ~cells:8 () in
  lin_ok "universal faa" impl
    ~workloads:[| [ Ops.fetch_add 1; Ops.fetch_add 1 ]; [ Ops.fetch_add 2 ] |]

let test_universal_sequential () =
  let target = Rmw.fetch_add_mod ~ports:1 ~modulus:5 in
  let impl = Universal.construct ~target ~procs:1 ~cells:6 () in
  let resps, _ =
    Wfc_sim.Exec.sequential_oracle impl
      [ Ops.fetch_add 1; Ops.fetch_add 2; Ops.read ]
  in
  Alcotest.(check bool) "counts like faa" true
    (List.map Value.to_string resps = [ "0"; "1"; "3" ])

let test_universal_non_oblivious () =
  (* the universal construction must respect ports for non-oblivious types *)
  let target = Nondet.non_oblivious_flag ~ports:2 in
  let impl = Universal.construct ~target ~procs:2 ~cells:8 () in
  lin_ok "universal non-oblivious" impl
    ~workloads:
      [| [ Value.sym "touch"; Value.sym "probe" ]; [ Value.sym "touch" ] |]

let test_universal_pool_exhaustion () =
  let target = Sticky.bit ~ports:1 in
  let impl = Universal.construct ~target ~procs:1 ~cells:1 () in
  Alcotest.(check bool) "pool exhaustion raises" true
    (match
       Wfc_sim.Exec.sequential_oracle impl
         [ Ops.stick Value.truth; Ops.stick Value.truth ]
     with
    | _ -> false
    | exception Type_spec.Bad_step _ -> true)

(* consensus from a universal queue: close the loop — build T_{c,2} from the
   queue protocol where the queue itself is universal-constructed *)
let test_universal_closes_loop () =
  let queue_target = Collections.queue ~ports:2 ~capacity:1 ~domain:[ Value.sym "win" ] in
  (* a universal queue pre-filled is encoded by starting the simulated state
     at [win] *)
  let uqueue =
    Universal.construct ~target:queue_target
      ~init:(Collections.initial_of_list [ Value.sym "win" ])
      ~procs:2 ~cells:8 ()
  in
  let base = Protocols.from_queue () in
  let composed = Implementation.substitute ~obj:0 ~replacement:uqueue base in
  ignore
    (expect_ok "consensus over universal queue"
       (verify ~subsets:true ~repeat:false composed))

let () =
  Alcotest.run "wfc_consensus"
    [
      ( "protocols",
        [
          Alcotest.test_case "tas" `Quick (verify_protocol "tas" (Protocols.from_tas ()));
          Alcotest.test_case "faa" `Quick (verify_protocol "faa" (Protocols.from_faa ()));
          Alcotest.test_case "swap" `Quick (verify_protocol "swap" (Protocols.from_swap ()));
          Alcotest.test_case "queue" `Quick
            (verify_protocol "queue" (Protocols.from_queue ()));
          Alcotest.test_case "cas n=2" `Quick
            (verify_protocol "cas" (Protocols.from_cas ~procs:2 ()));
          Alcotest.test_case "cas n=3" `Quick test_cas_three_procs;
          Alcotest.test_case "sticky n=2" `Quick
            (verify_protocol "sticky" (Protocols.from_sticky ~procs:2 ()));
          Alcotest.test_case "sticky n=4" `Quick test_sticky_four_procs;
          Alcotest.test_case "repeat invocations cached" `Quick
            test_repeat_invocations_cached;
          Alcotest.test_case "of_name refuses impossible counts" `Quick
            test_of_name_refuses_counts;
        ] );
      ( "impossibility (E11)",
        [
          Alcotest.test_case "register-only disagrees" `Quick
            test_broken_register_only;
          Alcotest.test_case "spinning flagged" `Quick test_spinning_not_wait_free;
        ] );
      ( "access bounds (E3)",
        [
          Alcotest.test_case "tas trees" `Quick test_access_bounds_tas;
          Alcotest.test_case "all protocols bounded" `Quick
            test_access_bounds_all_protocols;
          Alcotest.test_case "cas n=3" `Quick test_access_bounds_cas3;
          Alcotest.test_case "spin rejected" `Quick test_access_bounds_rejects_spin;
          Alcotest.test_case "nondet rejected" `Quick
            test_access_bounds_rejects_nondet;
          Alcotest.test_case "pinned trees" `Quick test_access_bounds_pinned;
          Alcotest.test_case "broken rejected" `Quick
            test_access_bounds_rejects_broken;
          Alcotest.test_case "non-consensus target refused" `Quick
            test_access_bounds_rejects_non_consensus;
          Alcotest.test_case "budget sweep" `Quick
            test_access_bounds_budget_sweep;
          Alcotest.test_case "one-value target" `Quick
            test_access_bounds_one_value;
        ] );
      ( "multivalued (E13)",
        [
          Alcotest.test_case "bits_needed" `Quick test_bits_needed;
          Alcotest.test_case "3-valued exhaustive" `Quick
            test_multivalued_exhaustive;
          Alcotest.test_case "4-valued" `Quick test_multivalued_four_values;
          Alcotest.test_case "announce bits" `Quick
            test_multivalued_announce_bits;
          Alcotest.test_case "under crashes" `Quick test_multivalued_crashes;
          Alcotest.test_case "over the TAS protocol" `Quick
            test_multivalued_over_tas_protocol;
          Alcotest.test_case "full pipeline exhaustive" `Quick
            test_multivalued_full_pipeline;
        ] );
      ( "valence (FLP)",
        [
          Alcotest.test_case "bivalent roots, non-register criticals" `Quick
            test_valence_bivalent_root;
          Alcotest.test_case "univalent inputs" `Quick
            test_valence_univalent_inputs;
          Alcotest.test_case "broken protocol is mixed" `Quick
            test_valence_broken_is_mixed;
          Alcotest.test_case "compiled keeps the decider" `Quick
            test_valence_compiled_keeps_decider;
        ] );
      ( "crash injection",
        [
          Alcotest.test_case "protocols survive mid-op crashes" `Quick
            test_protocols_survive_midop_crashes;
          Alcotest.test_case "cas3 survives two crashes" `Quick
            test_cas3_survives_two_crashes;
          Alcotest.test_case "crashes enlarge the space" `Quick
            test_crash_injection_explores_more;
          Alcotest.test_case "fragile protocol exposed" `Quick
            test_fragile_protocol_caught_by_crashes;
        ] );
      ( "universal construction (E10)",
        [
          Alcotest.test_case "sticky bit" `Quick test_universal_sticky;
          Alcotest.test_case "queue" `Quick test_universal_queue;
          Alcotest.test_case "fetch-and-add" `Quick test_universal_faa;
          Alcotest.test_case "sequential semantics" `Quick
            test_universal_sequential;
          Alcotest.test_case "non-oblivious target" `Quick
            test_universal_non_oblivious;
          Alcotest.test_case "pool exhaustion" `Quick
            test_universal_pool_exhaustion;
          Alcotest.test_case "consensus over universal queue" `Quick
            test_universal_closes_loop;
        ] );
    ]
