(** Disk spill for frontier work items.

    The unit of spill is a decision-trace prefix — exactly the
    representation checkpoints serialize ({!Faults.trace_to_string}) — so a
    spilled pending subtree is one text line in a per-run temp file and its
    in-RAM handle is ⟨offset, length⟩. Taking a spilled item re-reads the
    line and replays the prefix from the root, the same path resume already
    takes; the materialized configuration, fingerprint cache and sleep set
    are dropped at spill time (sleep sets restart empty, which is sound —
    sleeping only ever skips).

    Appends happen during expansion and reads during the drain, on the
    run's own domain. The file is deleted on {!close} (best-effort on
    finalization otherwise). *)

type t

val create : ?dir:string -> unit -> t
(** Open a fresh spill file (in [dir], default the system temp directory). *)

val append : t -> Faults.trace -> int * int
(** Write one trace prefix; returns its ⟨offset, length⟩ handle. *)

val read : t -> off:int -> len:int -> (Faults.trace, string) result
(** Re-read a spilled prefix. Total: I/O failure or a corrupt line is an
    [Error], never an exception. *)

val spilled : t -> int
(** Number of items appended so far. *)

val close : t -> unit
(** Close and delete the spill file. Idempotent. *)
