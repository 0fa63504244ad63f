(** Durable checkpoints for long exploration runs.

    A budgeted or interrupted {!Explore.run} does not throw away the work
    it did: in the TLC tradition, a cut run returns, and hands its sink,
    its {e unexplored frontier} — the remainder of its depth-first stack,
    each pending subtree root identified by the replayable {!Faults.trace}
    prefix that reaches it — together with the accumulated statistics, the
    engine options and the problem configuration (workloads, fuel, fault
    adversary), for the caller to {!save} or keep; a periodic save holds
    what a cut at that moment would leave. Resuming re-materializes every
    frontier root by replaying its prefix and continues the search, with
    [stats] and [completeness] stitched across segments.

    The file format is line-oriented text in the wfc-witness/1 style and
    reuses the {!Faults} line codec (fault budgets, degradations, workloads,
    decision traces). The header is [wfc-checkpoint/7]; a [digest] line
    carries the {!Wfc_spec.Fingerprint.hash_string} digest of the canonical
    body. {!of_string} refuses files whose digest does not match and files
    of the earlier /1 to /6 formats (naming the header found), and
    {!describe_mismatch} lets {!Explore.run} refuse to resume a checkpoint
    against a different problem. *)

open Wfc_spec

type engine = { dedup : bool; por : bool }
(** The engine options, re-exported as [Explore.options] (this module sits
    below [Explore] in the dependency order, so the type lives here):
    duplicate-state pruning and partial-order reduction, each on or off.
    Whether the dedup key is pid-exact or symmetric is the problem's, not
    an option (see [Explore.Symmetry]). The file spells it
    [engine dedup=0|1 por=0|1]. *)

val por_runs : engine -> Faults.t -> bool
(** Whether a search with these options under this adversary runs with
    partial-order reduction: only when [por] is set and the adversary is
    {!Faults.none}, since sleep sets would put a process's own crashes,
    recoveries and glitches to sleep. *)

type counts = {
  leaves : int;
  nodes : int;
  max_events : int;
  max_op_steps : int;
  max_accesses : int array;
  overflows : int;
  pruned : int;
  sleep_skips : int;
  evictions : int;
      (** the times a capped dedup table was emptied (see
          [Explore.run]'s [mem_budget_mb]) *)
}
(** Accumulated statistics of the checkpointed segments — the plain-data
    mirror of [Explore.stats] (minus completeness, which is implied: a
    checkpoint with a non-empty frontier is by construction partial). *)

val zero_counts : n_objs:int -> counts

val add_counts : counts -> counts -> counts
(** Pointwise merge of two segments' ledgers: sums for the additive
    counters, max for the high-water marks;
    [max_accesses] is padded to the longer array. Used by the run account
    ([Wfc_consensus.Check.book]) to stitch a vector's job results. *)

type t = {
  meta : (string * string) list;
      (** caller context, excluded from validation: protocol name, vector
          index, report counters… Keys must be space- and newline-free,
          values newline-free. *)
  engine : engine;
  fuel : int;
  budget_left : int option;  (** remaining node budget at save time *)
  faults : Faults.t;
  workloads : Value.t list array;
  counts : counts;
  frontier : Faults.trace list;
      (** decision-trace prefixes of the unexplored subtree roots; empty
          means the checkpointed run finished this problem *)
}

val make :
  ?meta:(string * string) list ->
  engine:engine ->
  fuel:int ->
  ?budget_left:int ->
  faults:Faults.t ->
  workloads:Value.t list array ->
  counts:counts ->
  frontier:Faults.trace list ->
  unit ->
  t
(** Raises [Invalid_argument] on meta entries that would corrupt the
    line-oriented format. *)

val with_meta : t -> (string * string) list -> t
(** Replace the meta entries, refusing bad ones as {!make} does. *)

val engine_summary : t -> string
(** The reductions the checkpointed search ran with, e.g.
    ["dedup=on por=off (fault adversary)"]: POR is named as
    {!por_runs} decides, not as the options asked. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Total: returns [Error _] on any malformed input, never raises. Verifies
    the digest by re-serializing the parsed checkpoint. *)

val save : t -> path:string -> (unit, string) result
(** [save_string (to_string t) ~path]. *)

val save_string : string -> path:string -> (unit, string) result
(** Atomic {e and} durable: writes [path ^ ".tmp"], fsyncs it, renames, and
    fsyncs the directory — a crash mid-save leaves the previous file
    intact, and a host crash right after [save_string] returns cannot
    surface a renamed-but-truncated file. Sync failures (e.g. filesystems
    without fsync) are swallowed; a failed open, write or rename (a full
    disk, a file-size limit) is [Error] with the system's reason, never an
    exception, and leaves no [.tmp] file behind. [wfc] writes its
    checkpoints, witnesses and DOT files this way. *)

val check_path : string -> (unit, string) result
(** [Error] naming the directory when the one that would hold a file at
    this path does not exist: a caller refuses the path before its search
    starts instead of failing at the first save. *)

(** {2 The run's checkpoint file}

    One policy for every driver of a run that checkpoints
    ([Wfc_consensus.Check.verify] and the fleet coordinator):
    - a save is {!due} once [interval_s] has passed since the writer was
      made or last wrote;
    - a failed save never ends the run: {!write} keeps it, and it is
      reported on stderr, once per run, when a later save or a definitive
      verdict shows that the run went on past it;
    - a cut's failed save is not reported: {!finish} returns it, for the
      verdict's [unsaved], and the file stays for a resume;
    - a definitive verdict ([~cut:false]) deletes the file. *)

type writer

val writer : path:string -> interval_s:float -> writer
val due : writer -> bool
val write : writer -> t -> unit
val finish : writer -> cut:bool -> string option

val split : t -> into:int -> t list
(** Partition the frontier round-robin into at most [into] shards (fewer
    when there are fewer prefixes; [[]] on an empty frontier). Each shard
    copies the problem description and meta but carries {e zeroed} counts:
    the parent's accumulated counts belong to the caller's ledger exactly
    once. Raises [Invalid_argument] when [into < 1]. *)

val load : string -> (t, string) result

val describe_mismatch :
  t ->
  engine:engine ->
  fuel:int ->
  faults:Faults.t ->
  workloads:Value.t list array ->
  string option
(** [Some reason] when the checkpoint was taken for a different problem than
    the resuming run — different engine options, fuel, adversary or
    workloads. [meta] is deliberately not compared. *)

val meta_find : t -> string -> string option
