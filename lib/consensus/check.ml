open Wfc_spec
open Wfc_zoo
open Wfc_program
open Wfc_sim

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

let empty_report =
  {
    vectors = 0;
    executions = 0;
    max_events = 0;
    max_op_steps = 0;
    degraded = 0;
    evictions = 0;
  }

let add_counts r (k : Checkpoint.counts) =
  {
    r with
    executions = r.executions + k.leaves;
    max_events = max r.max_events k.max_events;
    max_op_steps = max r.max_op_steps k.max_op_steps;
    evictions = r.evictions + k.evictions;
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

(* A violation of the job over [workloads]: participants and inputs are the
   ones the workloads encode. *)
let violation_of ~workloads reason ops witness =
  let inputs = inputs_of_workloads workloads in
  { participants = List.map fst inputs; inputs; reason; ops; witness }

(* --- witness validation: a witness, a worker's or the shrinker's, is
   trusted only once it replays here --------------------------------------- *)

let replay_violation impl ?fuel ~reason (w : Witness.t) =
  match Witness.replay impl w with
  | Error e -> Error (Fmt.str "witness does not replay: %s" e)
  | Ok leaf -> (
    let workloads = w.Witness.workloads in
    let violation reason ops =
      Ok (violation_of ~workloads reason ops (Some w))
    in
    match (check_leaf ~inputs:(inputs_of_workloads workloads) leaf, fuel) with
    | Error confirmed, _ -> violation confirmed leaf.Exec.ops
    (* not a bad leaf: a wait-freedom claim holds if the path is fuel-long *)
    | Ok (), Some fuel when leaf.Exec.events >= fuel -> violation reason []
    | Ok (), _ ->
      Error
        (Fmt.str "witness replays to a passing %d-event execution"
           leaf.Exec.events))

let shrink_violation impl (v : violation) =
  match v.witness with
  | None -> v
  | Some w -> (
    (* Only a violation whose replayed leaf fails the check is shrinkable by
       the leaf predicate; wait-freedom (overflow) witnesses replay the
       runaway path as-is. *)
    match Witness.replay impl w with
    | Ok leaf when bad_leaf ~workloads:w.Witness.workloads leaf -> (
      let w' = Witness.shrink impl ~bad:bad_leaf w in
      match replay_violation impl ~reason:v.reason w' with
      | Ok v' -> v'
      | Error _ -> { v with witness = Some w' })
    | _ -> v)

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

(* --- one job: the per-vector search of [verify], the fleet worker and the
   coordinator's local fallback -------------------------------------------- *)

type job =
  | Root of {
      engine : Explore.options;
      fuel : int;
      faults : Faults.t;
      workloads : Value.t list array;
    }
  | Frontier of Checkpoint.t

type job_result =
  | Drained of Checkpoint.counts
  | Cut of {
      reason : string;
      counts : Checkpoint.counts;
      remainder : Checkpoint.t;
    }
  | Violated of violation

let job_checkpoint ?budget_left impl = function
  | Frontier ck -> ck
  | Root { engine; fuel; faults; workloads } ->
    let n_objs = Array.length impl.Implementation.objects in
    Checkpoint.make ~engine ~fuel ?budget_left ~faults ~workloads
      ~counts:(Checkpoint.zero_counts ~n_objs) ~frontier:[ [] ] ()

let run_job ?budget ?deadline_s ?interrupt ?mem_budget_mb ?checkpoint
    ?(on_leaf = ignore) impl job =
  let options, fuel, faults, workloads, resume_from =
    match job with
    | Root { engine; fuel; faults; workloads } ->
      (engine, fuel, faults, workloads, None)
    | Frontier ck ->
      Checkpoint.(ck.engine, ck.fuel, ck.faults, ck.workloads, Some ck)
  in
  let inputs = inputs_of_workloads workloads in
  let witness trace = Some (Witness.make ~workloads ~faults trace) in
  (* Agreement/validity read only operation values, never timestamps, so
     the reduced engine is sound here (see {!Wfc_sim.Explore}'s soundness
     envelope). That includes process-symmetry reduction: equal-input
     participants get syntactically equal workloads (the [repeat] follow-up
     proposal is a function of the input alone), and both predicates are
     invariant under permuting them. *)
  match
    Explore.run impl ~workloads ~fuel ~faults ?budget ?deadline_s ~options
      ~on_leaf_trace:(fun trace leaf ->
        (match check_leaf ~inputs leaf with
        | Ok () -> ()
        | Error reason ->
          let ops = leaf.Exec.ops in
          raise (Found (violation_of ~workloads reason ops (witness trace))));
        on_leaf ())
      ?checkpoint ?resume_from ?interrupt ?mem_budget_mb ()
  with
  | exception Found v -> Violated v
  | { Explore.overflows; overflow_trace; _ } when overflows > 0 ->
    Violated
      (violation_of ~workloads
         (Fmt.str "%d path(s) exhausted fuel: not wait-free" overflows)
         [] (Option.bind overflow_trace witness))
  | stats -> (
    let counts = Explore.counts_of_stats stats in
    match (stats.Explore.completeness, stats.Explore.remainder) with
    (* a Bloom-tier sweep drained too; [counts.probabilistic] says so *)
    | Explore.(Exhaustive | Partial Probabilistic), _ -> Drained counts
    | Explore.Partial reason, Some remainder ->
      Cut { reason = Fmt.str "%a" Explore.pp_partial_reason reason; counts; remainder }
    | Explore.Partial _, None ->
      (* only a Stop leaves no remainder, and the leaf callback above only
         ever raises Found *)
      assert false)

(* --- the cross-vector ledger: the only writer and reader of the [check.*]
   checkpoint keys ---------------------------------------------------------- *)

type ledger = { vector : int; report : report; probabilistic : bool }

let position_meta pos = [ ("check.vector", string_of_int pos) ]

let ledger_meta { vector; report = r; probabilistic } =
  position_meta vector
  @ [
      ("check.vectors", string_of_int r.vectors);
      ("check.executions", string_of_int r.executions);
      ("check.max_events", string_of_int r.max_events);
      ("check.max_op_steps", string_of_int r.max_op_steps);
      ("check.degraded", string_of_int r.degraded);
      ("check.evictions", string_of_int r.evictions);
      ("check.probabilistic", if probabilistic then "1" else "0");
    ]

let ledger_of_checkpoint ck =
  let ( let* ) = Result.bind in
  let int k =
    match Checkpoint.meta_find ck k with
    | None ->
      Error
        (Fmt.str "checkpoint has no %s entry (not a verification checkpoint)"
           k)
    | Some s ->
      Option.to_result (int_of_string_opt s)
        ~none:(Fmt.str "malformed %s entry %S" k s)
  in
  let* vector = int "check.vector" in
  let* vectors = int "check.vectors" in
  let* executions = int "check.executions" in
  let* max_events = int "check.max_events" in
  let* max_op_steps = int "check.max_op_steps" in
  let* degraded = int "check.degraded" in
  let* evictions = int "check.evictions" in
  let report =
    { vectors; executions; max_events; max_op_steps; degraded; evictions }
  in
  (* absent in checkpoints from before the Bloom tier: clean *)
  let probabilistic =
    Checkpoint.meta_find ck "check.probabilistic" = Some "1"
  in
  Ok { vector; report; probabilistic }

let resume_ledger ~vectors ~engine ~fuel ~faults ck =
  let refuse why = invalid_arg ("Check: cannot resume: " ^ why) in
  match ledger_of_checkpoint ck with
  | Error e -> refuse e
  | Ok l -> (
    match List.find_opt (fun v -> v.pos = l.vector) vectors with
    | None ->
      refuse
        (Fmt.str
           "checkpoint points at vector %d but only %d exist — was it taken \
            with different subsets/repeat/domain settings?"
           l.vector (List.length vectors))
    | Some v -> (
      match
        Checkpoint.describe_mismatch ck ~engine ~fuel ~faults
          ~workloads:v.workloads
      with
      | Some why -> refuse why
      | None -> l))

(* --- the verifier ---------------------------------------------------------- *)

(* Local control-flow exception: the global budget/deadline ran out. *)
exception Exhausted of string

let no_counts = Checkpoint.zero_counts ~n_objs:0

let verify ?(subsets = true) ?(repeat = true)
    ?(domain = [ Value.falsity; Value.truth ]) ?(faults = Faults.none)
    ?(fuel = Explore.default_fuel) ?budget ?deadline_s ?(shrink = true)
    ?(engine = Explore.fast) ?checkpoint ?resume ?mem_budget_mb ?interrupt
    ?(meta = []) (impl : Implementation.t) =
  let all_vectors = vectors ~subsets ~repeat ~domain impl in
  (* A checkpoint that is not this run's is refused before anything runs. *)
  let resume =
    Option.map
      (fun ck ->
        (resume_ledger ~vectors:all_vectors ~engine ~fuel ~faults ck, ck))
      resume
  in
  (* The report so far; a vector's counts join it when its job returns. *)
  let acc, probabilistic =
    match resume with
    | Some (l, _) -> (ref l.report, ref l.probabilistic)
    | None -> (ref empty_report, ref false)
  in
  let deadline = Option.map (fun s -> Monotime.now () +. s) deadline_s in
  let budget_left = ref budget in
  (* One clock for periodic saves across the whole run: the engine's own
     interval restarts with every vector, so a run of short vectors would
     otherwise never save. A save during a job records the report as it
     stood before the job, and a resume re-adds the vector's own counts. *)
  let last_save = ref (Monotime.now ()) in
  let save pos ck =
    Option.iter
      (fun (path, _) ->
        let ledger =
          { vector = pos; report = !acc; probabilistic = !probabilistic }
        in
        let meta = meta @ ledger_meta ledger in
        Checkpoint.save (Checkpoint.with_meta ck meta) ~path;
        last_save := Monotime.now ())
      checkpoint
  in
  let remove_checkpoint () =
    Option.iter
      (fun (path, _) -> try Sys.remove path with Sys_error _ -> ())
      checkpoint
  in
  let run pos job =
    (match (checkpoint, job) with
    | Some (_, interval), Root _
      when Monotime.now () -. !last_save >= interval ->
      save pos (job_checkpoint ?budget_left:!budget_left impl job)
    | _ -> ());
    (* The budget and deadline are global across all vectors: hand each job
       what remains. *)
    let result =
      run_job ?budget:!budget_left
        ?deadline_s:(Option.map (fun t -> t -. Monotime.now ()) deadline)
        ?interrupt ?mem_budget_mb
        ?checkpoint:
          (Option.map (fun (_, interval) -> (interval, save pos)) checkpoint)
        impl job
    in
    (* A resumed job's counts include its earlier segments, which the ledger
       does not hold: its executions count in full, its evictions and nodes
       from this segment on. *)
    let base =
      match job with Frontier ck -> ck.Checkpoint.counts | Root _ -> no_counts
    in
    let account (k : Checkpoint.counts) =
      acc := add_counts !acc { k with evictions = k.evictions - base.evictions }
    in
    match result with
    | Violated v -> raise (Found v)
    | Cut { reason; counts; _ } ->
      account counts;
      raise (Exhausted reason)
    | Drained k ->
      account k;
      if k.probabilistic then probabilistic := true;
      budget_left :=
        Option.map (fun b -> max 0 (b - (k.nodes - base.nodes))) !budget_left
  in
  let resume_pending = ref resume in
  let run_vector v =
    match !resume_pending with
    | Some (l, _) when v.pos < l.vector -> ()
    | Some (_, ck) ->
      (* a resumed vector was already counted when first armed *)
      resume_pending := None;
      run v.pos (Frontier ck)
    | None ->
      acc := { !acc with vectors = (!acc).vectors + 1 };
      run v.pos (Root { engine; fuel; faults; workloads = v.workloads })
  in
  try
    List.iter run_vector all_vectors;
    remove_checkpoint ();
    if !probabilistic then
      (* Every vector ran to completion, but at least one did so on the
         Bloom dedup tier: a false positive could have pruned a genuinely
         new subtree, so the clean sweep is a probabilistic claim, not a
         proof. (The run is over — resuming would not help — hence the
         checkpoint is removed above.) *)
      Unknown { partial = !acc; reason = "probabilistic dedup (memory budget)" }
    else Verified !acc
  with
  | Found v ->
    remove_checkpoint ();
    Falsified (if shrink then shrink_violation impl v else v)
  | Exhausted reason -> Unknown { partial = !acc; reason }
