(** Exhaustive correctness verification of consensus implementations.

    For every participation subset (processes that crashed before taking any
    step simply never appear) and every input vector, every interleaving and
    every nondeterministic base-object alternative is explored, and each
    complete execution is checked for:

    - {e agreement}: all responses (across all processes and repeated
      invocations) are the same value;
    - {e validity}: that value is one of the participants' first proposals;
    - {e wait-freedom}: no path exceeds its fuel (with finite workloads a
      correct wait-free implementation always quiesces).

    Because the consensus type's sequential specification already forces
    agreement + validity, this is equivalent to linearizability against
    T_{c,n} from ⊥, but the direct check is faster and produces pointed
    diagnostics.

    The verdict is three-valued: {!Verified}, {!Falsified} (with a
    replayable, shrunk counterexample witness), or {!Unknown} when the
    optional node budget or deadline ran out before the search finished —
    "not falsified within budget" is surfaced honestly instead of running
    forever. *)

open Wfc_program

type violation = {
  participants : int list;
  inputs : (int * Wfc_spec.Value.t) list;  (** proposals of the participants *)
  reason : string;
  ops : Wfc_sim.Exec.op list;  (** the offending completed operations *)
  witness : Wfc_sim.Witness.t option;
      (** replayable decision trace of the offending path (shrunk by default;
          for wait-freedom violations: the first fuel-overflowing path);
          [None] only when the engine cannot attribute a path *)
}

type report = {
  vectors : int;
      (** (subset, input-vector) combinations whose search has begun: a job
          of theirs returned, drained or cut, or a resumed checkpoint covers
          them (its own vector included). In an {!Unknown} report, a vector
          the run was cut before does not count. *)
  executions : int;  (** total complete executions examined *)
  max_events : int;  (** longest execution *)
  max_op_steps : int;  (** most base accesses by one propose *)
  degraded : int;
      (** fleet lease misses absorbed: shards whose worker died or went
          silent and were requeued (see [Wfc_fleet.Coordinator]). A
          single-process run only carries over what a resumed fleet
          checkpoint recorded. *)
  evictions : int;
      (** table flushes: the times a duplicate-state table capped by
          [mem_budget_mb] was emptied instead of growing *)
}

val empty_report : report
(** All zero: the report of a run that has checked nothing yet. *)

type verdict =
  | Verified of report
  | Falsified of violation
  | Unknown of { partial : report; reason : string; unsaved : string option }
      (** search cut by [budget]/[deadline_s]/[interrupt]; [partial] covers
          what was explored before the cut. [unsaved] is why the cut's
          checkpoint could not be written, when one was armed and its save
          failed: there is then nothing new to resume from. *)

val verify :
  ?subsets:bool ->
  ?repeat:bool ->
  ?domain:Wfc_spec.Value.t list ->
  ?faults:Wfc_sim.Faults.t ->
  ?fuel:int ->
  ?budget:int ->
  ?deadline_s:float ->
  ?shrink:bool ->
  ?engine:Wfc_sim.Explore.options ->
  ?checkpoint:string * float ->
  ?resume:Wfc_sim.Checkpoint.t ->
  ?mem_budget_mb:int ->
  ?interrupt:bool Atomic.t ->
  ?meta:(string * string) list ->
  Implementation.t ->
  verdict
(** [engine] (default {!Wfc_sim.Explore.fast}) selects the exploration
    engine options. Agreement/validity/wait-freedom are timing-insensitive,
    so duplicate-state pruning and partial-order reduction are sound here and
    on by default. The dedup key is canonicalized under process symmetry
    whenever the implementation declares
    {!Wfc_program.Implementation.symmetric} (agreement and validity are
    invariant under permuting equal-input participants); no option turns
    that off, but [{ impl with symmetric = false }] keys processes by pid.
    Pass {!Wfc_sim.Explore.naive} to force the unreduced search (the
    property suite asserts both give the same verdict), or change
    individual fields.
    [report.executions] counts the executions the engine actually visited.

    [subsets] (default true) also checks partial participation; [repeat]
    (default true) has each participant propose a second, {e different}
    value — the response must still be the original decision (Section 2.1:
    the first invocation determines all future responses). [domain]
    (default the binary domain) is the finite proposal domain, at least two
    values under [repeat] — the multivalued consensus construction passes a
    larger one; every input vector over it is checked ({!vectors}).

    [faults] (default {!Wfc_sim.Faults.none}) supplies the fault adversary
    ({!Wfc_sim.Faults.t}). Under {!Wfc_sim.Faults.crashes}[ k] up to [k]
    processes may halt {e mid-operation} at every possible point (see
    {!Wfc_sim.Exec.explore}); agreement and validity are then required of
    the survivors' responses, and wait-freedom of the survivors'
    operations — stopping failures must be harmless, which is the whole
    point of wait-freedom. Crash-recoveries and degraded-read glitches
    branch the tree exactly like crashes do, and correctness is required of
    every completed operation in every faulty execution.

    [budget] (configurations visited) and [deadline_s] (seconds of wall
    clock) bound the {e whole} verification, across all participation
    subsets and input vectors, as its {!book} accounts them; when either
    runs out the verdict is {!Unknown} with the partial report — never a
    false "verified" and never a hang.

    On {!Falsified}, the violation carries a {!Wfc_sim.Witness.t} that
    {!Wfc_sim.Exec.replay} re-executes to the same violation; it is first
    minimized by delta debugging ({!Wfc_sim.Witness.shrink} — drop
    participants, drop trailing proposals, ddmin the decision trace, trim
    fault budgets) unless [shrink] is [false].

    {2 Resilience}

    [checkpoint:(path, interval_s)] arms durable checkpointing: at least
    every [interval_s] seconds of the whole run, and when it is cut by the
    budget, the deadline or [interrupt], the {!checkpoint} of the run is
    saved to [path]: the unexplored frontier of its first vector not
    drained (see {!Wfc_sim.Checkpoint}) with the {!type:ledger} of the
    vectors before it. A {!Wfc_sim.Checkpoint.writer} writes it, under its
    policy: a failed save never ends the run, a cut's is the verdict's
    [unsaved], and the file survives only a cut. [meta] adds caller entries
    (e.g. {!Protocols.meta}) to every checkpoint written; keys must be
    space-free.

    [resume] continues a prior run from its loaded checkpoint: vectors
    before the checkpointed one are skipped (their results are in its
    ledger) and the checkpointed vector is re-entered at its saved
    frontier, so a resumed run that finishes reports the same verdict as an
    uninterrupted one. A checkpoint that {!book} refuses raises
    [Invalid_argument] before anything runs; [budget] and [deadline_s] are
    {e not} read from the checkpoint.

    [interrupt] is polled by the engine at every node; setting it (e.g.
    from a SIGINT handler) makes the verdict
    [Unknown {reason = "interrupted"}] after a final checkpoint flush.

    [mem_budget_mb] caps each vector's duplicate-state table
    ({!Wfc_sim.Explore.run}): a full table is emptied instead of growing,
    which costs revisits, never exactness. The verdict stays {!Verified},
    {!Falsified} or a cut's {!Unknown}; [report.evictions] counts the
    flushes. *)

val result_exn : verdict -> (report, violation) result
(** Collapse to the pre-budget two-valued interface.
    @raise Failure on {!Unknown} — callers that set no budget/deadline never
    see it. *)

(** {2 The job enumeration, the job and the ledger}

    The building blocks {!verify} is made of, exposed so the distributed
    fleet ({!Wfc_fleet}) and the §4.2 analysis ({!Access_bounds}) run
    {e exactly} the same jobs through {e exactly} the same code — fleet
    verdicts, single-process verdicts and the bound D are then statements
    about the same search. *)

type vector = {
  pos : int;
      (** 1-based position in the deterministic subset × input-vector
          enumeration — the value a {!type:ledger} stores as [vector] *)
  participants : int list;
  inputs : (int * Wfc_spec.Value.t) list;
  workloads : Wfc_spec.Value.t list array;
}

val vectors :
  ?subsets:bool ->
  ?repeat:bool ->
  ?domain:Wfc_spec.Value.t list ->
  Implementation.t ->
  vector list
(** Every (participation subset, input vector) job {!verify} would run, in
    order. Defaults mirror {!verify}: all non-empty subsets, repeated
    proposals, the binary domain. *)

val check_leaf :
  inputs:(int * Wfc_spec.Value.t) list ->
  Wfc_sim.Exec.leaf ->
  (unit, string) result
(** The agreement + validity predicate applied to one complete execution
    (wait-freedom is checked separately, from [stats.overflows]). *)

val inputs_of_workloads :
  Wfc_spec.Value.t list array -> (int * Wfc_spec.Value.t) list
(** Recover ⟨participant, proposal⟩ pairs from (possibly shrunk) workloads:
    participants are the processes with a non-empty workload, their input
    the argument of their first proposal. *)

type job_result =
  | Drained of Wfc_sim.Checkpoint.counts
      (** including the counts the job started with *)
  | Cut of {
      reason : string;  (** as {!Unknown} reports it *)
      remainder : Wfc_sim.Checkpoint.t;
          (** what is left, with no meta and the job's counts so far: the
              remainder of the search's DFS stack
              ({!Wfc_sim.Explore.stats.remainder}) *)
    }
  | Violated of violation
      (** a leaf failed {!check_leaf}, or a path exhausted its fuel *)

val run_job :
  ?budget:int ->
  ?deadline_s:float ->
  ?interrupt:bool Atomic.t ->
  ?mem_budget_mb:int ->
  ?checkpoint:float * (Wfc_sim.Checkpoint.t -> unit) ->
  ?on_leaf:(Wfc_sim.Exec.leaf -> unit) ->
  Implementation.t ->
  Wfc_sim.Checkpoint.t ->
  job_result
(** Search one job with {!check_leaf} at every leaf: the per-vector body of
    {!verify}, of a fleet worker's shard and of the coordinator's local
    fallback. A job is a checkpoint: a problem (engine, fuel, adversary,
    workloads), the counts it starts from and its frontier, the prefixes
    left to search — [[[]]] for a vector's root. It is one
    {!Wfc_sim.Explore.run} resumed at that frontier, and a [checkpoint]
    sink only receives periodic saves and a cut's remainder, without
    changing what is explored. [on_leaf] gets each leaf that passed
    {!check_leaf}: the fleet worker polls its socket there, and
    {!Access_bounds} reads a tree's depth off it.
    Raises [Invalid_argument] when the frontier is not a path of its own
    problem's tree. *)

(** The cross-vector ledger a verification checkpoint carries: the report
    of the vectors before the one its frontier belongs to. This module alone
    writes and reads its meta keys: [check.vector], [check.vectors],
    [check.executions], [check.max_events], [check.max_op_steps],
    [check.degraded] and [check.evictions]. *)
type ledger = {
  vector : int;  (** the {!vector.pos} the frontier belongs to *)
  report : report;  (** its [vectors] count this vector too *)
}

val ledger_meta : ledger -> (string * string) list

val ledger_of_checkpoint : Wfc_sim.Checkpoint.t -> (ledger, string) result
(** [Error] names the first missing or malformed key. *)

val resumable :
  ?subsets:bool ->
  ?repeat:bool ->
  ?domain:Wfc_spec.Value.t list ->
  ?faults:Wfc_sim.Faults.t ->
  ?fuel:int ->
  ?engine:Wfc_sim.Explore.options ->
  Implementation.t ->
  Wfc_sim.Checkpoint.t ->
  (ledger, string) result
(** The one resume check, with {!verify}'s arguments and defaults: the
    checkpoint's ledger when a run with these arguments may resume from
    it, or why not — a missing or malformed ledger key, a vector outside
    the enumeration, or another problem's checkpoint
    ({!Wfc_sim.Checkpoint.describe_mismatch}: engine options, fuel,
    adversary or workloads). {!book} refuses what it refuses; [wfc] asks
    it before any search starts. *)

(** {2 The run account} *)

type book
(** How a run over many vectors is accounted, once for {!verify}, the
    fleet coordinator and {!Access_bounds.analyze}: a caller runs {!jobs},
    asks {!allowance} before each and {!record}s what each returns. *)

val book :
  ?subsets:bool ->
  ?repeat:bool ->
  ?domain:Wfc_spec.Value.t list ->
  ?budget:int ->
  ?deadline_s:float ->
  ?interrupt:bool Atomic.t ->
  ?resume:Wfc_sim.Checkpoint.t ->
  engine:Wfc_sim.Explore.options ->
  fuel:int ->
  faults:Wfc_sim.Faults.t ->
  Implementation.t ->
  book
(** The account of a run over {!vectors}, with {!verify}'s arguments.
    Raises [Invalid_argument "Check: cannot resume: …"] with the reason
    {!resumable} gives when [resume] is not this run's. *)

val jobs : book -> (vector * Wfc_sim.Checkpoint.t) Seq.t
(** The jobs the run starts with, in order, each built when reached: every
    vector not drained from its root, a resumed one at its checkpoint. *)

val allowance :
  ?quantum:int -> book -> (int option * float option, string) result
(** The node budget (at most [quantum] and what is left) and the seconds
    the next job may spend, or why none may start: the engine's reason for
    the interrupt, the deadline or the budget. *)

val record :
  book ->
  int ->
  from:Wfc_sim.Checkpoint.t ->
  Wfc_sim.Checkpoint.t ->
  left:int ->
  unit
(** [record b pos ~from ck ~left]: the job [from] of vector [pos] returned
    [ck], its counts and the frontier it hands back (empty when it
    drained), dealt into [left] jobs. What the engine's limiter spent comes
    off the budget: one visit per configuration, which is [ck]'s new nodes
    plus the roots of [from]'s frontier less those of [ck]'s. A budget
    equal to what the first k vectors spend therefore drains exactly those
    k vectors. *)

val degrade : book -> unit
(** Count a lost fleet lease into [report.degraded]. *)

val finished : book -> bool
(** Every vector drained. *)

val verdict : ?cut:string -> ?unsaved:string -> book -> verdict
(** [Unknown {reason = cut; unsaved}] over the report so far; without
    [cut], once {!finished}: {!Verified}. *)

val checkpoint :
  ?meta:(string * string) list ->
  book ->
  frontier:(vector -> Wfc_sim.Faults.trace list) ->
  Wfc_sim.Checkpoint.t option
(** The checkpoint that cuts the run at its first vector not drained: its
    recorded counts and [frontier], with [meta] and the ledger of the
    vectors before it. [None] once {!finished}. *)

val stamp :
  ?meta:(string * string) list ->
  book ->
  Wfc_sim.Checkpoint.t ->
  Wfc_sim.Checkpoint.t
(** A job's own checkpoint of the first vector not drained, with [meta] and
    the ledger of the vectors before it. *)

val replay_violation :
  Implementation.t ->
  ?fuel:int ->
  reason:string ->
  Wfc_sim.Witness.t ->
  (violation, string) result
(** Replay a witness and rebuild its violation from the replayed leaf. A
    leaf that passes {!check_leaf} still confirms a wait-freedom claim
    ([reason], no operations) when it is at least [fuel] events long.
    [Error] when the witness does not replay or replays to a passing
    execution. *)

val shrink_violation : Implementation.t -> violation -> violation
(** Delta-debug a violation's witness ({!Wfc_sim.Witness.shrink}) and
    rebuild the violation from the shrunk witness ({!replay_violation}) —
    the minimization {!verify} applies before reporting {!Falsified}. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_verdict : Format.formatter -> verdict -> unit
