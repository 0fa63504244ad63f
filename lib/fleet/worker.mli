(** A fleet worker: connect, lease shards, explore, heartbeat, return
    results — and survive both the coordinator and the network vanishing.

    The worker is single-threaded. While a shard runs, the socket is polled
    non-blockingly from inside the exploration's leaf callback, so [Steal]
    and [Shutdown] interrupt the search cooperatively (the engine's
    [?interrupt] flag) and heartbeats flow without a second thread.

    {b Reconnect-safe leases.} The connection is state, not control flow:
    losing it mid-shard does {e not} abandon the shard. The worker keeps
    exploring, reconnects under jittered exponential backoff ({!Backoff})
    without ever blocking the search, and re-sends [Hello] with its
    session [token] — the coordinator re-attaches the new connection to
    the still-live lease, so a transient blip is a non-event. Only when
    the outage outlasts the lease is the result dropped (the coordinator
    has requeued the shard by then and would discard it as stale). *)

open Wfc_program
open Wfc_sim

type config = {
  addr : Transport.addr;  (** coordinator address *)
  name : string;
  token : string;
      (** session identity carried in [Hello]; stable across reconnects *)
  chaos : Chaos.plan;  (** fault-injection plan ({!Chaos.none} in production) *)
  seed : int;  (** backoff jitter seed *)
  connect_attempts : int;
      (** give up (with [Error]) after this many failed connects in a row *)
  hb_interval_s : float;
  io_deadline_s : float;  (** per-connect/per-write deadline *)
  persist : bool;
      (** standing-fleet mode: treat [Shutdown] as "this run ended" and
          wait for the next coordinator instead of exiting — how `wfc
          queue` keeps one worker pool across a whole job matrix *)
  log : string -> unit;
}

val config :
  ?name:string ->
  ?token:string ->
  ?chaos:Chaos.plan ->
  ?seed:int ->
  ?connect_attempts:int ->
  ?hb_interval_s:float ->
  ?io_deadline_s:float ->
  ?persist:bool ->
  ?log:(string -> unit) ->
  string ->
  config
(** [config addr], where [addr] is parsed by {!Transport.parse} (a bare
    string is a Unix-domain socket path). Defaults: name ["worker-<pid>"],
    fresh token, no chaos, 60 connect attempts, 500 ms heartbeats, 5 s I/O
    deadline, not persistent, silent. Raises [Invalid_argument] on a
    malformed address. *)

val exec_shard :
  Implementation.t ->
  job:Checkpoint.t ->
  ?quantum:int ->
  ?interrupt:bool Atomic.t ->
  ?on_leaf:(Wfc_sim.Exec.leaf -> unit) ->
  unit ->
  Codec.outcome
(** Run one shard: {!Wfc_consensus.Check.run_job} on the job's frontier,
    cut at [quantum] nodes (or when [interrupt] is set). A drained shard and
    a cut's remainder come back as [Done] values carrying the job's meta; no
    file is written. The remote worker and the coordinator's local fallback
    both call it, so degraded execution cannot diverge from distributed
    execution. [on_leaf], run at each passing leaf, is the caller's polling
    hook (sockets, chaos); exceptions it raises propagate. *)

val run : config -> (unit, string) result
(** Serve until the coordinator says [Shutdown] (or, with [persist],
    forever): [Error] only when the coordinator could not be reached for
    [connect_attempts] consecutive attempts. *)
