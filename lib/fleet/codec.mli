(** The [wfc-fleet/3] wire protocol.

    Coordinator and workers exchange length-prefixed frames over a Unix
    domain or TCP socket ({!Transport}): a 4-byte big-endian payload length
    followed by a line-oriented text payload whose first line is
    ["wfc-fleet/3 <type>"], then [key value] lines, then — for messages
    carrying a job or a counterexample — a ["--"] separator line and a blob
    in an existing self-validating codec ({!Wfc_sim.Checkpoint} for jobs
    and results, {!Wfc_sim.Witness} for violations). Everything a shard
    needs to run is therefore one checkpoint value; fleet work items and
    single-process resume files are the same artifact.

    {!decode} is total: any byte string yields [Ok] or [Error], never an
    exception — garbage on the wire (chaos injection, truncated writes from
    a killed peer) must surface as a dropped connection, not a crash. *)

open Wfc_sim

val protocol : string
(** ["wfc-fleet/3"] — v2 added the session [token] to [Hello] so a
    reconnecting worker can re-attach to its live lease; v3 dropped the
    unread [nodes] field from [Heartbeat] and the never-sent [Progress]
    message. *)

val max_frame : int
(** Frames claiming a larger payload are rejected before allocation: a
    garbage length prefix cannot make the reader allocate gigabytes. *)

type outcome =
  | Done of Checkpoint.t
      (** shard drained ([frontier = []]) or cut at the quantum
          ([frontier <> []]: the remainder, ready to requeue or split);
          [counts] are the {e net} work of this lease (jobs are issued with
          zeroed counts) *)
  | Violation of { reason : string; witness : Witness.t }
      (** a bad leaf (or fuel overflow) — the coordinator re-validates the
          witness by replay before trusting it *)
  | Refused of string
      (** the worker cannot run the job (unknown protocol name, checkpoint
          mismatch); the coordinator requeues or falls back to local
          execution *)

type msg =
  | Hello of { pid : int; name : string; token : string }
      (** worker registration. [token] identifies the worker {e session}
          across TCP connections: a worker that loses its connection
          mid-lease reconnects, says Hello with the same token, and the
          coordinator re-attaches the new connection to the still-live
          lease instead of requeueing the shard. *)
  | Lease of { shard : int; lease_s : float; quantum : int; job : Checkpoint.t }
      (** coordinator → worker: run [job] for at most [quantum] nodes,
          heartbeating; the lease expires [lease_s] after the last
          heartbeat *)
  | Heartbeat of { shard : int }
      (** worker → coordinator: still alive ([shard = -1] when idle) *)
  | Result of { shard : int; outcome : outcome }
  | Steal of { shard : int }
      (** coordinator → worker: cut the running shard now and return the
          remainder, so its frontier can be split across idle workers *)
  | Shutdown of { reason : string }

val encode : msg -> string
(** Payload text, without the length prefix. Newlines inside [name]/[reason]
    values are flattened to spaces (the payload is line-oriented). *)

val decode : string -> (msg, string) result
(** Total inverse of {!encode}. *)

val frame : msg -> bytes
(** Length prefix + payload, ready for the wire. *)

val write : ?deadline_s:float -> Unix.file_descr -> msg -> unit
(** Write a whole frame, polling over partial writes on the nonblocking
    fd. Raises [Unix_error] ([EPIPE], [ECONNRESET]…) like the underlying
    syscall, or {!Transport.Timeout} once [deadline_s] is spent against a
    full socket buffer — callers map both to their lease-loss/reconnect
    path, so one wedged peer can never pin the writer. *)

val write_all :
  ?deadline_s:float -> Unix.file_descr -> bytes -> int -> int -> unit
(** Raw deadline-bounded write (no framing) — the chaos harness uses it to
    put garbage on the wire. *)

(** Incremental frame reassembly for one connection: feed raw bytes in
    whatever chunks [read] produces, pop complete messages out. *)
module Frames : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> unit
  (** Append the first [n] bytes of the chunk. *)

  val read_from : t -> Unix.file_descr -> int
  (** One [Unix.read] into the buffer; returns the byte count ([0] = EOF,
      [-1] = nothing buffered on the nonblocking fd — a spurious wakeup,
      not EOF). Raises [Unix_error] like the syscall. *)

  val pop : t -> (msg option, string) result
  (** [Ok None] — no complete frame buffered yet (e.g. a truncated frame
      from a crashed peer stays pending forever; the connection's lease
      expiry cleans it up). [Error _] — framing or decode violation; the
      connection is poisoned and should be dropped. *)
end

val pp_msg : Format.formatter -> msg -> unit
