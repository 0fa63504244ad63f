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

type verdict =
  | Verified of report
  | Falsified of violation
  | Unknown of { partial : report; reason : string; unsaved : string option }

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
  | Unknown { partial; reason; _ } ->
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

(* --- the (subset, input-vector) job enumeration, which a run's book
   schedules in a single process and in the fleet alike ------------------- *)

type vector = {
  pos : int;
  participants : int list;
  inputs : (int * Value.t) list;
  workloads : Value.t list array;
}

let vectors ?(subsets = true) ?(repeat = true)
    ?(domain = [ Value.falsity; Value.truth ]) (impl : Implementation.t) =
  if repeat && List.length domain < 2 then
    invalid_arg "Check.vectors: repeated proposals need two domain values";
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

type job_result =
  | Drained of Checkpoint.counts
  | Cut of { reason : string; remainder : Checkpoint.t }
  | Violated of violation

let run_job ?budget ?deadline_s ?interrupt ?mem_budget_mb ?checkpoint
    ?(on_leaf = ignore) impl (job : Checkpoint.t) =
  let workloads = job.Checkpoint.workloads and faults = job.faults in
  let inputs = inputs_of_workloads workloads in
  let witness trace = Some (Witness.make ~workloads ~faults trace) in
  (* Agreement/validity read only operation values, never timestamps, so
     the reduced engine is sound here (see {!Wfc_sim.Explore}'s soundness
     envelope). That includes process-symmetry reduction: equal-input
     participants get syntactically equal workloads (the [repeat] follow-up
     proposal is a function of the input alone), and both predicates are
     invariant under permuting them. *)
  match
    Explore.run impl ~workloads ~fuel:job.fuel ~faults ?budget ?deadline_s
      ~options:job.engine
      ~on_leaf_trace:(fun trace leaf ->
        (match check_leaf ~inputs leaf with
        | Ok () -> ()
        | Error reason ->
          let ops = leaf.Exec.ops in
          raise (Found (violation_of ~workloads reason ops (witness trace))));
        on_leaf leaf)
      ?checkpoint ~resume_from:job ?interrupt ?mem_budget_mb ()
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
    | Explore.Exhaustive, _ -> Drained counts
    | Explore.Partial reason, Some remainder ->
      Cut { reason = Fmt.str "%a" Explore.pp_partial_reason reason; remainder }
    | Explore.Partial _, None ->
      (* only a Stop leaves no remainder, and the leaf callback above only
         ever raises Found *)
      assert false)

(* --- the cross-vector ledger: the only writer and reader of the [check.*]
   checkpoint keys ---------------------------------------------------------- *)

type ledger = { vector : int; report : report }

let ledger_meta { vector; report = r } =
  [
    ("check.vector", string_of_int vector);
    ("check.vectors", string_of_int r.vectors);
    ("check.executions", string_of_int r.executions);
    ("check.max_events", string_of_int r.max_events);
    ("check.max_op_steps", string_of_int r.max_op_steps);
    ("check.degraded", string_of_int r.degraded);
    ("check.evictions", string_of_int r.evictions);
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
  Ok { vector; report }

let resume_ledger ~vectors ~engine ~fuel ~faults ck =
  let ( let* ) = Result.bind in
  let* l = ledger_of_checkpoint ck in
  let* v =
    Option.to_result
      (List.find_opt (fun v -> v.pos = l.vector) vectors)
      ~none:
        (Fmt.str
           "checkpoint points at vector %d but only %d exist — was it taken \
            with different subsets/repeat/domain settings?"
           l.vector (List.length vectors))
  in
  match
    Checkpoint.describe_mismatch ck ~engine ~fuel ~faults
      ~workloads:v.workloads
  with
  | Some why -> Error why
  | None -> Ok l

let resumable ?subsets ?repeat ?domain ?(faults = Faults.none)
    ?(fuel = Explore.default_fuel) ?(engine = Explore.fast) impl ck =
  resume_ledger
    ~vectors:(vectors ?subsets ?repeat ?domain impl)
    ~engine ~fuel ~faults ck

(* --- the run account, shared by [verify] and the fleet coordinator ------- *)

type slot = {
  vec : vector;
  mutable counts : Checkpoint.counts;  (* the results recorded for it *)
  mutable started : bool;  (* a result was recorded, or a resume covers it *)
  mutable left : int;  (* its jobs not yet returned; 0 once drained *)
}

type book = {
  slots : slot array;  (* in {!vectors} order *)
  root : Checkpoint.t;  (* the problem, with zero counts and workloads *)
  resumed : int * Checkpoint.t;  (* a resumed vector's position and job *)
  mutable cut : int;  (* the first slot not drained *)
  mutable head : report;  (* the slots before the cut and the lost leases *)
  mutable budget_left : int option;
  deadline : float option;
  interrupt : bool Atomic.t option;
}

let add_slot r { started; counts = k; _ } =
  if not started then r
  else
    {
      r with
      vectors = r.vectors + 1;
      executions = r.executions + k.leaves;
      max_events = max r.max_events k.max_events;
      max_op_steps = max r.max_op_steps k.max_op_steps;
      evictions = r.evictions + k.evictions;
    }

(* Fold the drained slots at the cut into the head: only the slots past
   the cut keep counts of their own. *)
let advance b =
  while b.cut < Array.length b.slots && b.slots.(b.cut).left = 0 do
    let s = b.slots.(b.cut) in
    b.head <- add_slot b.head s;
    s.counts <- b.root.counts;
    b.cut <- b.cut + 1
  done

let book ?subsets ?repeat ?domain ?budget ?deadline_s ?interrupt ?resume
    ~engine ~fuel ~faults impl =
  let vectors = vectors ?subsets ?repeat ?domain impl in
  let n_objs = Array.length impl.Implementation.objects in
  let root =
    Checkpoint.make ~engine ~fuel ~faults ~workloads:[||]
      ~counts:(Checkpoint.zero_counts ~n_objs) ~frontier:[ [] ] ()
  in
  (* A checkpoint that is not this run's is refused before anything runs.
     Its ledger covers the vectors before its own, which keeps the
     checkpoint's counts and frontier. *)
  let l, ck =
    match resume with
    | Some ck -> (
      match resume_ledger ~vectors ~engine ~fuel ~faults ck with
      | Ok l -> (l, ck)
      | Error why -> invalid_arg ("Check: cannot resume: " ^ why))
    | None -> ({ vector = 0; report = empty_report }, root)
  in
  let slot v =
    let counts = if v.pos = l.vector then ck.counts else root.counts in
    let left =
      if v.pos < l.vector then 0
      else if v.pos = l.vector then if ck.frontier = [] then 0 else 1
      else 1
    in
    { vec = v; counts; started = v.pos <= l.vector; left }
  in
  let b =
    {
      slots = Array.of_list (List.map slot vectors);
      root;
      resumed = (l.vector, ck);
      cut = 0;
      head = { l.report with vectors = 0 };
      budget_left = budget;
      deadline = Option.map (fun s -> Monotime.now () +. s) deadline_s;
      interrupt;
    }
  in
  advance b;
  b

let jobs b =
  Array.to_seq b.slots
  |> Seq.filter_map (fun s ->
         if s.left = 0 then None
         else if s.vec.pos = fst b.resumed then Some (s.vec, snd b.resumed)
         else Some (s.vec, { b.root with workloads = s.vec.workloads }))

let allowance ?quantum b =
  let stop r = Error (Fmt.str "%a" Explore.pp_partial_reason r) in
  (* in the order the engine tests its own limits at a node *)
  match (b.interrupt, b.deadline, b.budget_left) with
  | Some flag, _, _ when Atomic.get flag -> stop Explore.Interrupted
  | _, Some t, _ when Monotime.now () > t -> stop Explore.Deadline_exceeded
  | _, _, Some n when n <= 0 -> stop Explore.Budget_exhausted
  | _, deadline, left ->
    let budget =
      match quantum with
      | Some q -> Some (Option.fold ~none:q ~some:(min q) left)
      | None -> left
    in
    Ok (budget, Option.map (fun t -> t -. Monotime.now ()) deadline)

(* [k] less the counts [from] its job started with: sums subtract, and the
   maxima already cover [from]. *)
let since ~(from : Checkpoint.counts) (k : Checkpoint.counts) =
  {
    k with
    leaves = k.leaves - from.leaves;
    nodes = k.nodes - from.nodes;
    overflows = k.overflows - from.overflows;
    pruned = k.pruned - from.pruned;
    sleep_skips = k.sleep_skips - from.sleep_skips;
    evictions = k.evictions - from.evictions;
  }

(* What the job spent of its budget: the engine's limiter takes one visit
   per configuration, each root of the job's frontier included, while
   [nodes] counts edges, the edges to the prefixes the job hands back
   included, which a later job enters as its roots. *)
let record b pos ~(from : Checkpoint.t) (ck : Checkpoint.t) ~left =
  let s = b.slots.(pos - 1) in
  let d = since ~from:from.counts ck.counts in
  s.counts <- Checkpoint.add_counts s.counts d;
  s.started <- true;
  s.left <- s.left - 1 + left;
  let spent =
    d.nodes + List.length from.frontier - List.length ck.frontier
  in
  b.budget_left <- Option.map (fun n -> max 0 (n - spent)) b.budget_left;
  advance b

let degrade b = b.head <- { b.head with degraded = b.head.degraded + 1 }

let finished b = b.cut = Array.length b.slots

let verdict ?cut ?unsaved b =
  let partial =
    Array.fold_left add_slot b.head
      (Array.sub b.slots b.cut (Array.length b.slots - b.cut))
  in
  match cut with
  | Some reason -> Unknown { partial; reason; unsaved }
  | None when not (finished b) -> invalid_arg "Check.verdict: vectors left"
  | None -> Verified partial

(* The ledger of the vectors before the cut; it counts its own vector as
   started, since a resume starts it. *)
let cut_meta ~meta b =
  let vector = b.cut + 1 in
  meta @ ledger_meta { vector; report = { b.head with vectors = vector } }

let stamp ?(meta = []) b ck = Checkpoint.with_meta ck (cut_meta ~meta b)

let checkpoint ?meta b ~frontier =
  if finished b then None
  else
    let s = b.slots.(b.cut) in
    Some
      (stamp ?meta b
         {
           b.root with
           budget_left = b.budget_left;
           workloads = s.vec.workloads;
           counts = s.counts;
           frontier = frontier s.vec;
         })

(* --- the verifier ---------------------------------------------------------- *)

let verify ?subsets ?repeat ?domain ?(faults = Faults.none)
    ?(fuel = Explore.default_fuel) ?budget ?deadline_s ?(shrink = true)
    ?(engine = Explore.fast) ?checkpoint:armed ?resume ?mem_budget_mb
    ?interrupt ?(meta = []) (impl : Implementation.t) =
  let b =
    book ?subsets ?repeat ?domain ?budget ?deadline_s ?interrupt ?resume
      ~engine ~fuel ~faults impl
  in
  (* One clock for periodic saves across the whole run: the engine's own
     interval restarts with every job, so a run of short vectors would
     otherwise never save. *)
  let writer =
    Option.map
      (fun (path, interval_s) -> Checkpoint.writer ~path ~interval_s)
      armed
  in
  let write ck = Option.iter (fun w -> Checkpoint.write w ck) writer in
  let finish ~cut = Option.bind writer (Checkpoint.finish ~cut) in
  let sink =
    Option.map
      (fun (_, interval) -> (interval, fun ck -> write (stamp ~meta b ck)))
      armed
  in
  let rec run jobs =
    match jobs () with
    | Seq.Nil ->
      ignore (finish ~cut:false);
      verdict b
    | Seq.Cons (((v : vector), (job : Checkpoint.t)), rest) -> (
      let save_job () =
        Option.iter write
          (checkpoint ~meta b ~frontier:(fun _ -> job.frontier))
      in
      match allowance b with
      | Error reason ->
        save_job ();
        verdict ~cut:reason ?unsaved:(finish ~cut:true) b
      | Ok (budget, deadline_s) -> (
        if Option.fold ~none:false ~some:Checkpoint.due writer then save_job ();
        match
          run_job ?budget ?deadline_s ?interrupt ?mem_budget_mb
            ?checkpoint:sink impl job
        with
        | Violated v ->
          ignore (finish ~cut:false);
          Falsified (if shrink then shrink_violation impl v else v)
        | Cut { reason; remainder } ->
          record b v.pos ~from:job remainder ~left:1;
          verdict ~cut:reason ?unsaved:(finish ~cut:true) b
        | Drained counts ->
          record b v.pos ~from:job { job with counts; frontier = [] } ~left:0;
          run rest))
  in
  run (jobs b)
