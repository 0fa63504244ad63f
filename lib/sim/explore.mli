(** The fast exploration engine: {!Exec.explore} semantics with composable
    state-space reductions.

    {!Exec.explore} is a naive DFS over every interleaving and every
    nondeterministic base-object alternative. That is the right {e baseline}
    — it is the paper's execution-tree model verbatim — but verification
    workloads (consensus checking over all input vectors, the §4.2 access
    bounds behind König's bound D, Theorem 5 pipelines) revisit the same
    configuration over and over along different schedules. This module keeps
    the naive engine's semantics and statistics contract while adding these
    optimizations:

    - {b duplicate-state pruning} ([dedup = Exact]): configurations are
      fingerprinted — object states, per-process control state (workload
      position, whether an operation is pending and its responses so far,
      local state), completed operations' positions, {e results} and step
      counts, crash bookkeeping, event and access totals — and a revisited
      fingerprint cuts the whole subtree ([stats.pruned] counts the cuts).
      No invocation enters the key: the workloads are fixed for the run, so
      a process's workload position names its remaining operations, its
      pending invocation and each completed operation's invocation, and
      under [Symmetric] only processes with equal workloads share a
      class. The key is a
      fixed-width ⟨hi, lo⟩ 124-bit fingerprint ({!Wfc_spec.Fingerprint}):
      in each lane, a sum of per-object and per-process terms over interned
      ids, kept current along tree edges, plus terms for the fault budgets,
      the event count and the tracker. It is probed in an open-addressing
      table — no boxed key is ever built on the hot path, and an edge
      updates only the terms it changed, so a probe's cost does not grow
      with the number of base objects or processes or the length of pending
      operations. [?mem_budget_mb] caps the table, which is emptied
      instead of growing past the cap: the run forgets states and revisits
      them, but stays exhaustive. The other memory a run holds is its DFS
      path, so nothing else needs shedding;
    - {b process-symmetry reduction} ([dedup = Symmetric]): the same key,
      canonicalized under permutations of interchangeable processes (see
      {!Symmetry});
    - {b partial-order reduction} ([por]): a source-set/sleep-set rule
      explores only one order of two adjacent steps when they are commuting
      deterministic accesses — to {e different} base objects, or state-
      preserving reads of the {e same} object ([stats.sleep_skips] counts
      sibling subtrees skipped); each process's poised step and its
      alternatives are computed {e once} per node and shared between the
      independence check and child generation.

    {b Soundness envelope.} Both reductions preserve the {e set of
    timing-insensitive leaf observations}: final object states, final locals,
    completed operations' ⟨proc, op_index, inv, resp, steps⟩, total events and
    per-object access counts, and overflow detection. Verdicts computed from
    those — consensus agreement/validity, wait-freedom by fuel, the §4.2
    access bounds — are identical to the naive engine's. What they do {e not}
    preserve is per-operation {e timestamps} ([start_step]/[end_step]) and
    the completion {e order} of concurrent operations, nor the number of
    leaves/nodes visited. Callers whose leaf predicate reads timestamps
    (linearizability, safeness/regularity of registers) must keep
    [dedup = Off] and [por = false]. POR is
    additionally switched off automatically whenever the fault adversary
    branches at all (anything but {!Faults.is_none}: crashes, recoveries
    and glitches are per-process transitions the sleep-set rule does not
    commute).

    {b One traversal.} Every mode runs on one kernel: a DFS over a single
    mutable configuration with an undo log (apply an edge in place,
    recurse, revert on backtrack), answering base-object invocations from
    lazily compiled {!Wfc_spec.Step_table} rows and advancing programs
    through a program table compiled as lazily: an object is its state
    number in its step table, a program position is a node id, a local is
    a number of the program table, and each ⟨node, response⟩ row runs its
    continuation and numbers the local it returns once, for every later
    run of the implementation (see {!compiled_rows}).
    Crashes, recoveries, glitches and wedges are edges of the same kernel.
    A checkpoint, a resume or a cut changes nothing about the traversal:
    a resumed subtree is entered by applying its decision-trace prefix in
    place, each decision checked as {!Exec.replay} checks it, and a cut's
    remainder is read off the DFS path once the run has stopped (see
    {!run}). {!Exec.explore} stays the reference semantics the kernel is
    tested against.

    The engine is sequential. A verification splits into independent
    problems (one per input vector, or one per frontier shard of a
    checkpoint), and the process fleet ([Wfc_fleet], [wfc serve]) is what
    runs those in parallel. *)

open Wfc_program
open Wfc_spec

type dedup = Checkpoint.dedup =
  | Off  (** no duplicate-state pruning *)
  | Exact  (** prune revisited configurations, keyed pid-exactly *)
  | Symmetric
      (** like [Exact], with the key canonicalized under permutations of
          interchangeable processes, so schedules differing only by a pid
          permutation within a class merge. The reduction needs the
          implementation to declare
          {!Wfc_program.Implementation.symmetric}, every base spec to be
          port-oblivious, no user tracker, and at least two processes with
          equal workloads and equal initial locals (see {!Symmetry});
          otherwise the keys stay pid-exact, as under [Exact] — which is why
          it is safe as the default in {!fast}. *)

type options = Checkpoint.engine = {
  dedup : dedup;  (** duplicate-state pruning mode *)
  por : bool;  (** source-set dynamic partial-order reduction *)
}
(** The engine options, which are exactly what a checkpoint records. *)

val naive : options
(** All reductions off: bit-for-bit the behaviour (visit order,
    statistics, leaves and their timestamps) of {!Exec.explore}. *)

val fast : options
(** [dedup = Symmetric] + [por]. The right choice for timing-insensitive
    verdicts. *)

val engine_of_options : options -> Checkpoint.engine
(** The identity: [options] is the record checkpoints store. *)

(** Process-symmetry classes: which processes are interchangeable.

    Soundness: exploration always proceeds on real configurations — traces,
    witnesses and leaves keep their un-permuted pids, and replayability is
    untouched. Only the dedup key is canonicalized: records are salted by
    class, not pid, so the key sees each class's multiset of records. A
    state π-equivalent to a visited one is then pruned; its subtree is the
    π-image of the visited subtree, and every timing-insensitive verdict in
    this library (consensus agreement/validity, wait-freedom fuel,
    per-object access bounds) is invariant under renaming processes within
    a class of equal inputs, so verdicts are unchanged. *)
module Symmetry : sig
  type t

  val of_impl :
    Wfc_program.Implementation.t -> workloads:Value.t list array -> t option
  (** Derive the symmetry group the engine would use: requires the
      implementation to declare [symmetric], every base spec to be
      port-oblivious, and groups processes by ⟨workload, initial local⟩.
      [None] when no class has ≥ 2 members. *)

  val classes : t -> int array
  (** [classes g].(p) is the smallest pid interchangeable with [p]. *)

  val group_order : t -> int
  (** Order of the permutation group (product of class factorials) — the
      ideal-case node-reduction factor. *)
end

type partial_reason =
  | Budget_exhausted  (** the [?budget] node allowance ran out *)
  | Deadline_exceeded  (** the [?deadline_s] wall-clock limit passed *)
  | Stopped  (** [on_leaf_trace] or a tracker raised {!Exec.Stop} *)
  | Interrupted
      (** the [?interrupt] flag was set (e.g. by a SIGINT/SIGTERM handler);
          if a checkpoint sink is armed, it was handed a final checkpoint
          before returning *)

type completeness =
  | Exhaustive  (** every reachable behaviour was covered *)
  | Partial of partial_reason
      (** the search was cut: absence of a violation is {e not} a verdict *)

val pp_partial_reason : Format.formatter -> partial_reason -> unit
val pp_completeness : Format.formatter -> completeness -> unit

type stats = {
  leaves : int;  (** complete executions actually visited *)
  nodes : int;  (** scheduling events actually executed over the tree *)
  max_events : int;  (** longest visited root-to-leaf path, in events *)
  max_op_steps : int;  (** most base accesses by any single operation *)
  max_accesses : int array;  (** per object: max accesses along any path *)
  overflows : int;  (** paths cut off by [fuel] *)
  pruned : int;  (** subtrees cut by duplicate-state pruning *)
  sleep_skips : int;  (** sibling subtrees skipped by the sleep-set rule *)
  evictions : int;
      (** table flushes: the times the dedup table, capped by
          [?mem_budget_mb], was emptied instead of growing *)
  completeness : completeness;
  overflow_trace : Faults.trace option;
      (** decision trace of the first fuel-overflowing path — a replayable
          non-wait-freedom suspect *)
  remainder : Checkpoint.t option;
      (** when the run was cut by [budget], [deadline_s] or [interrupt]:
          what is left, as a checkpoint with no meta that [resume_from]
          continues (see {!run}); [None] otherwise *)
}

val default_fuel : int
(** The [?fuel] default (10_000) — exposed so callers building checkpoints
    ({!Check.verify}) use the same value the engine will. *)

val counts_of_stats : stats -> Checkpoint.counts
(** The counts a checkpoint of this run carries: the one conversion, used
    for the checkpoints the engine hands its sink and for a drained run. *)

val to_exec_stats : stats -> Exec.stats
(** Forget the engine-specific counters (for callers exposing
    {!Exec.stats}). *)

(** {1 Path trackers}

    A tracker threads caller state {e down} the exploration tree: the state
    is advanced functionally at every tree edge that completes a
    target-level operation (or crashes/wedges a process), so sibling
    subtrees share the state computed along their common prefix. This is
    the hook the incremental linearizability engine
    ({!Wfc_linearize.Engine}) fuses into: checking work done for a schedule
    prefix is paid once, not once per leaf.

    {b Soundness envelope.} A tracker observes the completion {e order} of
    operations, each completed operation's values, and the set of
    operations pending (invoked, not yet returned) at each completion —
    never raw [start_step]/[end_step] timestamps. [por] is sound under a
    tracker when sleep-set POR commutes only accesses strictly between
    completions, since these observations are then identical on the
    representative and the skipped interleavings. Known gap: the
    independence relation commutes accesses to different objects even when
    one of them completes an operation and the other starts one, which
    changes the pending set a tracker sees; a read that starts after a
    write completed can then be explored only as overlapping it (the
    ROADMAP item "Make every linearizability verdict sound" has a failing
    case). Duplicate-state pruning keys on the tracker's [fingerprint]. *)

type path_event =
  | Op_completed of {
      op : Exec.op;  (** the operation that just returned *)
      pending : (int * Value.t) list;
          (** ⟨proc, target-level invocation⟩ of every {e live} pending
              operation (invoked, not returned, process neither crashed nor
              wedged) right after this completion *)
    }
  | Proc_crashed of int
      (** the process crashed mid-operation: its current pending attempt
          will never complete as-is (a recovery restarts it from scratch
          with a fresh invocation time) *)
  | Proc_wedged of int
      (** the process stepped off its envelope and is stuck forever *)

type 'a tracker = {
  root : 'a;  (** state at the root of the tree *)
  event : 'a -> trace_rev:Faults.trace -> path_event -> 'a;
      (** advance the state over one edge; [trace_rev] is the decision
          trace from the root to the child, most recent first (for building
          replayable witnesses). May raise {!Exec.Stop} to abort the whole
          exploration (e.g. the prefix is already a violation). *)
  at_leaf : 'a -> trace_rev:Faults.trace -> Exec.leaf -> unit;
      (** called at every complete leaf with the state accumulated along
          its path, after [on_leaf_trace]; may raise
          {!Exec.Stop} *)
  fingerprint : 'a -> int;
      (** an int naming the state, folded into the duplicate-state key as
          it is: the kernel interns nothing of the tracker's. It must be
          injective over the tracker states of one run, up to states that
          behave alike on every extension of the path (two states with
          equal ints are treated as one; two with different ints never
          are). Ints from the tracker's own intern state or counter do;
          they need not be stable across runs, since the dedup table is
          emptied between runs. It is asked again only below an edge whose
          [event] returned a state that is not physically the one it was
          given. *)
}

val default_dedup_threshold : int
(** Minimum nodes a run must visit before it starts probing its dedup
    table (64). The key itself is kept from the root and the table is
    pooled, so the threshold saves only the probes of the first nodes, and
    the states visited before it are explored again when met again, which
    is sound. It stays because deleting it changes node counts (the ROADMAP
    item "Delete the lazy dedup threshold"). Pass [~dedup_threshold:0] to
    probe from the root. *)

val run :
  Implementation.t ->
  workloads:Value.t list array ->
  ?fuel:int ->
  ?faults:Faults.t ->
  ?budget:int ->
  ?deadline_s:float ->
  ?options:options ->
  ?dedup_threshold:int ->
  ?tracker:'a tracker ->
  ?on_leaf_trace:(Faults.trace -> Exec.leaf -> unit) ->
  ?checkpoint:float * (Checkpoint.t -> unit) ->
  ?resume_from:Checkpoint.t ->
  ?interrupt:bool Atomic.t ->
  ?mem_budget_mb:int ->
  unit ->
  stats
(** Drop-in replacement for {!Exec.explore} (defaults: [fuel = 10_000],
    [faults = Faults.none], [options = naive]). Raises [Invalid_argument]
    on a [fuel] of 2{^31} or more: the dedup key packs access counts and
    workload positions, both at most the fuel, into 31-bit fields.

    [on_leaf_trace] is the one leaf callback: it receives each complete
    leaf with its decision {!Faults.trace}, the path identifier that
    {!Exec.replay} re-executes. It may raise {!Exec.Stop} to abort early;
    statistics then reflect the explored prefix
    ([completeness = Partial Stopped]). Any other exception it raises
    aborts the exploration and is re-raised.

    [tracker] threads per-path state down the tree (see {!type:tracker}).

    [faults] supplies the fault adversary ({!Faults.t} — see
    {!Exec.explore}); POR is switched off automatically
    whenever any fault branching is on (crash/recovery/glitch transitions
    are per-process moves the sleep-set rule does not commute).

    [budget] bounds the configurations visited and [deadline_s] the wall
    clock (monotonic — immune to NTP steps and suspends): when either trips, the whole exploration stops promptly (it
    never hangs) and [stats.completeness] reports
    [Partial Budget_exhausted]/[Partial Deadline_exceeded]. Exploration is
    then a three-valued procedure: a violation found, exhaustively clean, or
    {e unknown within budget}.

    {2 Resilience}

    [budget], [deadline_s] and [interrupt] can cut a run at any node. A cut
    run returns its remainder in [stats.remainder]: the cut node, then
    for each depth of the path to it the siblings not yet explored, deepest
    first, each as the decision-trace prefix that reaches it — the order
    the uncut run would have explored them in. The remainder is derived
    only when needed, by replaying the path once. Its counts include the
    edges to the listed siblings (and the siblings the sleep-set rule
    skips along the path), so under {!naive} the segments of a cut and
    resumed run visit exactly the uncut run's leaves and nodes, each once.
    A run stopped by {!Exec.Stop} has no remainder.

    [checkpoint:(interval_s, sink)] arms a checkpoint sink. Arming it
    changes nothing about the traversal: a run that is never cut visits
    exactly what the unarmed run visits. Whenever [interval_s] seconds have
    passed since the run started or last called [sink] (looked at every
    1024 nodes), [sink] gets a {!Checkpoint.t} of what a cut at the current
    node would leave; a cut run hands it its remainder. Checkpoints carry
    the accumulated counts and problem configuration, with no meta; the
    engine writes no file. A run that completes calls [sink] (with an empty
    frontier) only if it called it before, so a saved copy can be
    refreshed.

    [resume_from] continues a checkpointed search: every frontier root is
    re-materialized by replaying its decision-trace prefix and exploration
    proceeds from there, in frontier order, with counts — and therefore
    [stats] and [completeness] — stitched across segments. Raises
    [Invalid_argument] if the checkpoint was taken for a different problem
    (engine options, fuel, adversary or workloads differ), if a frontier
    prefix is not a path of the tree (each decision is checked as
    {!Exec.replay} checks it, before anything is explored), or if combined
    with a user [tracker] (tracker state cannot be serialized). A resumed
    prefix starts with an empty sleep set and an empty dedup table, so
    under reductions a resumed run explores a superset of what the uncut
    run would have explored below it: verdicts and the set of leaf
    observations are unchanged, counts may grow. [budget] is {e not} read
    from the checkpoint — pass the remaining allowance explicitly
    ([Checkpoint.t.budget_left] records it).

    [interrupt] is a cooperative cancellation flag, checked at every node:
    setting it (e.g. from a signal handler) cuts the run like a deadline,
    with [Partial Interrupted] and a remainder.

    [mem_budget_mb] caps the duplicate-state table at the largest power of
    two of 16-byte slots that fits in that many MiB, never below the
    default 1,024 slots ({!Wfc_spec.Fingerprint.Table.cap_of_mib}; [0] is
    the smallest table). The table fills up to 7/8 load, so 1 MiB holds
    57,344 states. Where the table would grow past the cap it is
    emptied instead, and [stats.evictions] counts the flushes. A flushed
    table forgets, it never answers wrongly: the run stays exhaustive and
    its verdict exact, and pays in revisited states, which can be many for
    a tiny cap ([budget] and [deadline_s] still bound such a run). The
    flushes fall at the same nodes every time, so a capped run's counts are
    deterministic. It bounds the table, not the heap. *)

val compiled_rows : Implementation.t -> int * int
(** [(program, step)]: the program-table entries and {!Wfc_spec.Step_table}
    rows compiled so far for the implementation in this domain's compiled
    context, or [(0, 0)] if it has none. A run compiles an entry or a row
    the first time it meets it, so re-running the same workloads compiles
    neither. Observability only. *)
