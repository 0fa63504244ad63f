open Wfc_spec
open Wfc_zoo
open Wfc_program

type violation = {
  participants : int list;
  inputs : (int * Value.t) list;
  reason : string;
  ops : Wfc_sim.Exec.op list;
  witness : Wfc_sim.Witness.t option;
}

type report = {
  vectors : int;
  executions : int;
  max_events : int;
  max_op_steps : int;
  degraded : int;
  evictions : int;
}

type verdict =
  | Verified of report
  | Falsified of violation
  | Unknown of { partial : report; reason : string }

let pp_violation ppf v =
  Fmt.pf ppf "@[<v>participants %a with inputs %a: %s@,ops: %a"
    Fmt.(list ~sep:(any ",") int)
    v.participants
    Fmt.(list ~sep:(any " ") (pair ~sep:(any ":") int Value.pp))
    v.inputs v.reason Wfc_linearize.Engine.pp_ops v.ops;
  (match v.witness with
  | Some w ->
    Fmt.pf ppf "@,faults: %a@,witness trace: %a" Wfc_sim.Faults.pp
      w.Wfc_sim.Witness.faults Wfc_sim.Faults.pp_trace w.Wfc_sim.Witness.trace
  | None -> ());
  Fmt.pf ppf "@]"

let pp_verdict ppf = function
  | Verified r ->
    Fmt.pf ppf "verified: %d vector(s), %d execution(s)" r.vectors r.executions
  | Falsified v -> Fmt.pf ppf "falsified: %a" pp_violation v
  | Unknown { partial; reason } ->
    Fmt.pf ppf
      "unknown (%s): not falsified within %d vector(s), %d execution(s)"
      reason partial.vectors partial.executions

let result_exn = function
  | Verified r -> Ok r
  | Falsified v -> Error v
  | Unknown { reason; _ } ->
    Fmt.failwith
      "Check: exploration was cut (%s) — no verdict; raise the budget or \
       deadline"
      reason

exception Found of violation

let subsets_of n =
  (* all non-empty subsets of 0..n-1, as sorted lists *)
  let rec go i =
    if i = n then [ [] ]
    else
      let rest = go (i + 1) in
      rest @ List.map (fun s -> i :: s) rest
  in
  List.filter (fun s -> s <> []) (go 0)

let vectors_over ~domain participants =
  List.fold_left
    (fun acc p ->
      List.concat_map
        (fun v -> List.map (fun d -> (p, d) :: v) domain)
        acc)
    [ [] ] participants
  |> List.map List.rev

let check_leaf ~inputs (leaf : Wfc_sim.Exec.leaf) =
  let first_round =
    List.filter (fun (o : Wfc_sim.Exec.op) -> o.op_index = 0) leaf.ops
  in
  match first_round with
  | [] -> Ok ()
  | o0 :: _ ->
    let decided = o0.Wfc_sim.Exec.resp in
    if
      not
        (List.for_all
           (fun (o : Wfc_sim.Exec.op) -> Value.equal o.resp decided)
           leaf.ops)
    then Error "agreement violated: differing responses"
    else if
      not
        (List.exists (fun (_, input) -> Value.equal input decided) inputs)
    then Error "validity violated: decision is nobody's proposal"
    else Ok ()

(* Recover ⟨participant, proposal⟩ pairs from (possibly shrunk) workloads:
   the participants are the processes with a non-empty workload and their
   input is their first proposal. *)
let inputs_of_workloads workloads =
  Array.to_list workloads
  |> List.mapi (fun p wl -> (p, wl))
  |> List.filter_map (fun (p, wl) ->
         match wl with
         | [] -> None
         | inv :: _ -> (
           match Ops.propose_arg inv with
           | v -> Some (p, v)
           | exception Value.Type_error _ -> None))

(* A leaf is still "bad" after shrinking when agreement/validity fails
   against the inputs its own workloads encode. *)
let bad_leaf ~workloads leaf =
  let inputs = inputs_of_workloads workloads in
  inputs <> [] && Result.is_error (check_leaf ~inputs leaf)

let shrink_violation impl (v : violation) =
  match v.witness with
  | None -> v
  | Some w -> (
    (* Only a violation whose replayed leaf fails the check is shrinkable by
       the leaf predicate; wait-freedom (overflow) witnesses replay the
       runaway path as-is. *)
    match Wfc_sim.Witness.replay impl w with
    | Ok leaf when bad_leaf ~workloads:w.Wfc_sim.Witness.workloads leaf -> (
      let w' = Wfc_sim.Witness.shrink impl ~bad:bad_leaf w in
      match Wfc_sim.Witness.replay impl w' with
      | Ok leaf' ->
        let inputs = inputs_of_workloads w'.Wfc_sim.Witness.workloads in
        let reason =
          match check_leaf ~inputs leaf' with
          | Error r -> r
          | Ok () -> v.reason
        in
        {
          participants = List.map fst inputs;
          inputs;
          reason;
          ops = leaf'.Wfc_sim.Exec.ops;
          witness = Some w';
        }
      | Error _ -> { v with witness = Some w' })
    | _ -> v)

(* Local control-flow exception: the global budget/deadline ran out. *)
exception Exhausted of string

(* --- the (subset, input-vector) job enumeration -------------------------------

   Exposed so the distributed fleet ({!Wfc_fleet}) schedules {e exactly} the
   jobs this verifier would run — same positions, same participant subsets,
   same workload construction — and its stitched verdict means the same
   thing as a single-process one. *)

type vector = {
  pos : int;
  participants : int list;
  inputs : (int * Value.t) list;
  workloads : Value.t list array;
}

let vectors ?(subsets = true) ?(repeat = true)
    ?(domain = [ Value.falsity; Value.truth ]) (impl : Implementation.t) =
  if List.length domain < 2 then
    invalid_arg "Check.vectors: domain needs at least two values";
  let other_than v = List.find (fun d -> not (Value.equal d v)) domain in
  let n = impl.Implementation.procs in
  let participant_sets =
    if subsets then subsets_of n else [ List.init n Fun.id ]
  in
  let pos = ref 0 in
  List.concat_map
    (fun participants ->
      List.map
        (fun inputs ->
          incr pos;
          let workloads =
            Array.init n (fun p ->
                match List.assoc_opt p inputs with
                | None -> []
                | Some v ->
                  let first = Ops.propose v in
                  if repeat then [ first; Ops.propose (other_than v) ]
                  else [ first ])
          in
          { pos = !pos; participants; inputs; workloads })
        (vectors_over ~domain participants))
    participant_sets

let verify ?(subsets = true) ?(repeat = true)
    ?(domain = [ Value.falsity; Value.truth ]) ?(faults = Wfc_sim.Faults.none)
    ?fuel ?budget ?deadline_s ?(shrink = true)
    ?(engine = Wfc_sim.Explore.fast) ?checkpoint ?resume
    ?mem_budget_mb ?interrupt ?(meta = []) (impl : Implementation.t) =
  let all_vectors = vectors ~subsets ~repeat ~domain impl in
  let deadline =
    Option.map (fun s -> Wfc_sim.Monotime.now () +. s) deadline_s
  in
  let budget_left = ref budget in
  let vectors = ref 0 in
  let executions = ref 0 in
  let max_events = ref 0 in
  let max_op_steps = ref 0 in
  let degraded = ref 0 in
  let evictions = ref 0 in
  let probabilistic = ref false in
  (* Restore the cross-vector accumulators a previous run snapshotted into
     the checkpoint's meta section, and remember at which vector (in the
     deterministic subset × input-vector enumeration) to pick the search
     back up. *)
  let resume_at =
    match resume with
    | None -> None
    | Some ck ->
      let geti k =
        match Wfc_sim.Checkpoint.meta_find ck k with
        | Some s -> (
          match int_of_string_opt s with
          | Some i -> i
          | None ->
            invalid_arg (Fmt.str "Check: bad %s in checkpoint meta" k))
        | None ->
          invalid_arg
            (Fmt.str
               "Check: checkpoint has no %s entry (not a verification \
                checkpoint)"
               k)
      in
      vectors := geti "check.vectors";
      executions := geti "check.executions";
      max_events := geti "check.max_events";
      max_op_steps := geti "check.max_op_steps";
      degraded := geti "check.degraded";
      evictions := geti "check.evictions";
      (* absent in checkpoints from before the Bloom tier: default clean *)
      (match Wfc_sim.Checkpoint.meta_find ck "check.probabilistic" with
      | Some "1" -> probabilistic := true
      | _ -> ());
      Some (geti "check.vector", ck)
  in
  let resume_pending = ref resume_at in
  let last_pos = ref 0 in
  let report () =
    {
      vectors = !vectors;
      executions = !executions;
      max_events = !max_events;
      max_op_steps = !max_op_steps;
      degraded = !degraded;
      evictions = !evictions;
    }
  in
  let remove_checkpoint () =
    match checkpoint with
    | Some (path, _) -> ( try Sys.remove path with Sys_error _ -> ())
    | None -> ()
  in
  try
    List.iter
      (fun { pos; participants; inputs; workloads } ->
        last_pos := pos;
        begin
            let skip, this_resume =
              match !resume_pending with
              | Some (v0, _) when pos < v0 -> (true, None)
              | Some (v0, ck) when pos = v0 ->
                resume_pending := None;
                (false, Some ck)
              | _ -> (false, None)
            in
            if not skip then begin
              (* A resumed vector was already counted when first armed. *)
              (match this_resume with
              | None -> incr vectors
              | Some _ -> ());
              (* Snapshot the accumulators {e excluding} this vector: a
                 checkpoint taken mid-vector restores exactly this state and
                 re-adds the vector's own contribution from its counts. *)
              let vec_meta =
                meta
                @ [
                    ("check.vector", string_of_int pos);
                    ("check.vectors", string_of_int !vectors);
                    ("check.executions", string_of_int !executions);
                    ("check.max_events", string_of_int !max_events);
                    ("check.max_op_steps", string_of_int !max_op_steps);
                    ("check.degraded", string_of_int !degraded);
                    ("check.evictions", string_of_int !evictions);
                    ("check.probabilistic", if !probabilistic then "1" else "0");
                  ]
              in
              (* The budget and deadline are global across all vectors: hand
                 each exploration what remains. *)
              let deadline_s_left =
                Option.map (fun t -> t -. Wfc_sim.Monotime.now ()) deadline
              in
              (match deadline_s_left with
              | Some s when s <= 0. ->
                (* Tripping between vectors bypasses the engine's own
                   checkpoint sink, so save a vector-boundary checkpoint:
                   the empty trace prefix is the unexplored root of this
                   whole vector. *)
                (match checkpoint with
                | Some (path, _) ->
                  let ck =
                    Wfc_sim.Checkpoint.make ~meta:vec_meta
                      ~engine
                      ~fuel:
                        (Option.value fuel
                           ~default:Wfc_sim.Explore.default_fuel)
                      ?budget_left:!budget_left ~faults ~workloads
                      ~counts:
                        (Wfc_sim.Checkpoint.zero_counts
                           ~n_objs:(Array.length impl.Implementation.objects))
                      ~frontier:[ [] ] ()
                  in
                  Wfc_sim.Checkpoint.save ck ~path
                | None -> ());
                raise (Exhausted "deadline exceeded")
              | _ -> ());
              (* Leaves the resumed segment already emitted are not
                 re-visited; fold them into the execution count up front. *)
              let base =
                match this_resume with
                | Some ck -> ck.Wfc_sim.Checkpoint.counts
                | None -> Wfc_sim.Checkpoint.zero_counts ~n_objs:0
              in
              executions := !executions + base.Wfc_sim.Checkpoint.leaves;
              (* Agreement/validity read only operation values, never
                 timestamps, so the reduced engine is sound here (see
                 {!Wfc_sim.Explore}'s soundness envelope). That includes
                 process-symmetry reduction: equal-input participants get
                 syntactically equal workloads (the [repeat] follow-up
                 proposal is a function of the input alone), and both
                 predicates are invariant under permuting them. *)
              let stats =
                Wfc_sim.Explore.run impl ~workloads ?fuel ~faults
                  ?budget:!budget_left ?deadline_s:deadline_s_left
                  ~options:engine
                  ~on_leaf_trace:(fun trace leaf ->
                    incr executions;
                    match check_leaf ~inputs leaf with
                    | Ok () -> ()
                    | Error reason ->
                      raise
                        (Found
                           {
                             participants;
                             inputs;
                             reason;
                             ops = leaf.Wfc_sim.Exec.ops;
                             witness =
                               Some
                                 (Wfc_sim.Witness.make ~workloads ~faults
                                    trace);
                           }))
                  ?checkpoint ~checkpoint_meta:vec_meta
                  ?resume_from:this_resume ?interrupt ?mem_budget_mb ()
              in
              (* The engine folds the resumed segment's counts into its
                 stats; subtract that base wherever we accumulate, so it is
                 not double-counted against the restored state. *)
              evictions :=
                !evictions
                + (stats.Wfc_sim.Explore.evictions
                  - base.Wfc_sim.Checkpoint.evictions);
              if stats.Wfc_sim.Explore.max_events > !max_events then
                max_events := stats.Wfc_sim.Explore.max_events;
              if stats.Wfc_sim.Explore.max_op_steps > !max_op_steps then
                max_op_steps := stats.Wfc_sim.Explore.max_op_steps;
              (match stats.Wfc_sim.Explore.completeness with
              | Wfc_sim.Explore.Exhaustive -> ()
              | Wfc_sim.Explore.Partial Wfc_sim.Explore.Budget_exhausted ->
                raise (Exhausted "node budget exhausted")
              | Wfc_sim.Explore.Partial Wfc_sim.Explore.Deadline_exceeded ->
                raise (Exhausted "deadline exceeded")
              | Wfc_sim.Explore.Partial Wfc_sim.Explore.Interrupted ->
                raise (Exhausted "interrupted")
              | Wfc_sim.Explore.Partial Wfc_sim.Explore.Probabilistic ->
                (* the vector finished — under a Bloom-tier dedup whose
                   false positives can wrongly prune. Keep searching: a
                   violation found later is still definitive; only a final
                   clean sweep must be downgraded to Unknown. *)
                probabilistic := true
              | Wfc_sim.Explore.Partial Wfc_sim.Explore.Stopped ->
                (* on_leaf_trace only ever raises Found, never Stop *)
                assert false);
              budget_left :=
                Option.map
                  (fun b ->
                    max 0
                      (b
                      - (stats.Wfc_sim.Explore.nodes
                        - base.Wfc_sim.Checkpoint.nodes)))
                  !budget_left;
              if stats.Wfc_sim.Explore.overflows > 0 then
                raise
                  (Found
                     {
                       participants;
                       inputs;
                       reason =
                         Fmt.str "%d path(s) exhausted fuel: not wait-free"
                           stats.Wfc_sim.Explore.overflows;
                       ops = [];
                       witness =
                         Option.map
                           (Wfc_sim.Witness.make ~workloads ~faults)
                           stats.Wfc_sim.Explore.overflow_trace;
                     })
            end
        end)
      all_vectors;
    (match !resume_pending with
    | Some (v0, _) ->
      invalid_arg
        (Fmt.str
           "Check: checkpoint points at vector %d but only %d exist — was it \
            taken with different subsets/repeat/domain settings?"
           v0 !last_pos)
    | None -> ());
    remove_checkpoint ();
    if !probabilistic then
      (* Every vector ran to completion, but at least one did so on the
         Bloom dedup tier: a false positive could have pruned a genuinely
         new subtree, so the clean sweep is a probabilistic claim, not a
         proof. (The run is over — resuming would not help — hence the
         checkpoint is removed above.) *)
      Unknown
        { partial = report (); reason = "probabilistic dedup (memory budget)" }
    else Verified (report ())
  with
  | Found v ->
    remove_checkpoint ();
    Falsified (if shrink then shrink_violation impl v else v)
  | Exhausted reason -> Unknown { partial = report (); reason }
