(** A standing, crash-safe verification job queue.

    [wfc queue] drains a protocol × adversary matrix through the fleet
    coordinator, one job at a time, with per-job retry budgets and
    quarantine. Progress lives in an append-only journal: every record is
    fsync'd before the action it describes is considered taken (and the
    journal's directory is fsync'd at creation, the same
    durability discipline as {!Wfc_sim.Checkpoint.save}), so a
    coordinator killed mid-matrix — even SIGKILL — restarts with {!run}
    on the same journal and finishes every job {e exactly once}: jobs
    with a recorded verdict are never re-run, the in-flight job resumes
    from its per-job checkpoint file in [state_dir] (kept fresh by the
    coordinator's periodic flush), and jobs never started are started.

    The journal tolerates a torn tail: a crash mid-append leaves at most
    one unterminated last line, which {!load} drops and the next {!run}
    cuts off before it appends. A journal with no complete line (one a
    failed first write left empty) is started afresh. Anything else
    malformed is reported as corruption rather than guessed at.

    Job execution is a callback, so this module stays socket-free and
    unit-testable; the CLI wires [exec] to {!Coordinator.serve}. *)

type job = {
  id : string;  (** stable key, no whitespace — journal records join on it *)
  protocol : string;  (** {!Wfc_consensus.Protocols.of_name} name *)
  procs : int;
  crashes : int;  (** adversary: max crash faults *)
}

type verdict = Verified | Falsified | Unknown of string

type status =
  | Pending of int  (** not finished; the int counts failed attempts *)
  | Done of verdict
  | Quarantined of string  (** retry budget exhausted; last failure inside *)

type entry = { job : job; status : status }

type report = {
  entries : entry list;  (** matrix order *)
  completed : int;
  quarantined : int;
  retried : int;  (** failed attempts across all jobs *)
}

val matrix :
  protocols:(string * int) list -> crashes:int list -> job list
(** [matrix ~protocols ~crashes] is the cross product, with stable ids
    [<name><procs>.c<crashes>] — the standing workload of a queue run. *)

val load : string -> (entry list, string) result
(** Replay a journal into per-job statuses (matrix order as journalled).
    A missing file is the empty queue; a torn last line is dropped; any
    other malformed record is an [Error]. *)

val run :
  journal:string ->
  state_dir:string ->
  ?max_retries:int ->
  ?interrupt:bool Atomic.t ->
  ?log:(string -> unit) ->
  exec:
    (job ->
    checkpoint:string ->
    resume:Wfc_sim.Checkpoint.t option ->
    (verdict, string) result) ->
  job list ->
  (report, string) result
(** Drain the matrix. The journal at [journal] is replayed first (so a
    restart continues, never repeats); jobs already journalled keep their
    journalled definition, new jobs are appended. Each unfinished job is
    run via [exec job ~checkpoint ~resume] where [checkpoint] is the
    job's private file under [state_dir] (created if missing) and
    [resume] is its last flushed checkpoint, if any. [Ok v] journals the
    verdict and deletes the checkpoint; [Error why] journals the failure
    and retries, up to [max_retries] attempts (default 3) before
    quarantining. [interrupt] stops between attempts, leaving the journal
    resumable. [Error] only on journal I/O failure or corruption, or a
    [state_dir] that cannot be created: a record that cannot be written (a
    full disk, a file size limit) stops the run with ["journal FILE: cannot
    write: reason"], and the same call resumes it once there is room. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_status : Format.formatter -> status -> unit
