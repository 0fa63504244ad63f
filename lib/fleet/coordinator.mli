(** The fleet coordinator: split a verification run into leased shards,
    survive worker churn, and produce the same three-valued verdict as
    single-process {!Wfc_consensus.Check.verify}.

    The unit of distribution is a {!Wfc_sim.Checkpoint.t}: every (subset ×
    input-vector) job of the {!Wfc_consensus.Check.vectors} enumeration
    starts as a root shard (frontier [[[]]] — the whole execution tree) and
    a shard cut at its node quantum comes back as a checkpoint whose
    frontier, the remainder of the lease's DFS stack, the coordinator
    {!Wfc_sim.Checkpoint.split}s across idle workers: stack splitting, as
    in Rao and Kumar's parallel depth-first search (1987). The remainder is
    disjoint from what the lease explored, so each lease makes progress
    and the folded counts describe disjoint work. Work-stealing falls out: when the queue is dry and a worker
    idles, the coordinator [Steal]s the slowest lease, splitting the
    returned remainder.

    {b Fault tolerance.} Shards are held under leases renewed by
    heartbeats. A {e connection-level} loss — peer closed, read/write
    error or deadline, wire garbage — parks the lease under the worker's
    Hello token: the session is probably still alive behind a network
    blip, and when it reconnects (same token) it re-attaches to the lease
    and the shard continues uninterrupted (counted in
    [stats.reattaches], {e not} in [degraded]). Only a lease that
    actually expires — worker crash, stall, partition outlasting the
    lease — requeues the shard, {e exactly once}; a shard lost twice runs
    locally on the coordinator (same {!Worker.exec_shard} code path), so
    the run completes even if every worker dies. Every expiry is
    surfaced in the verdict's [report.degraded]. Worker-reported
    violations are validated by witness replay before the run is declared
    [Falsified] — a lying or corrupted worker is an availability problem,
    never a soundness problem.

    {b Hostile clients.} All socket I/O goes through {!Transport}: every
    fd is nonblocking and every write carries a deadline, so a wedged
    peer with a full receive buffer costs [io_deadline_s], never a hang.
    Connections that don't complete [Hello] within [hello_grace_s] are
    dropped, and at most [max_conns] connections are held at once.

    {b Degradation to a single process.} The run is accounted by a
    {!Wfc_consensus.Check.book}, as {!Wfc_consensus.Check.verify}'s is: it
    folds shard results, spends the budget (a lease's quantum is capped at
    the budget left) and makes the verdict. A cut flushes its
    {!Wfc_consensus.Check.checkpoint}, whose frontier is the union of the
    first incomplete vector's pending shard prefixes, so [wfc verify
    --resume] picks up a fleet run and vice versa. With a [checkpoint]
    armed the same file is also flushed periodically, so even a SIGKILL'd
    coordinator resumes from a recent cut (the crash-safety `wfc queue`
    builds on). *)

open Wfc_program
open Wfc_sim

type config = {
  addr : Transport.addr;  (** where to listen ([unix:PATH] or [tcp:HOST:PORT]) *)
  lease_s : float;  (** lease duration, renewed by each heartbeat *)
  quantum : int;  (** node budget per lease — the work-stealing grain *)
  local_grace_s : float;
      (** with no connected workers after this long, the coordinator starts
          draining shards itself *)
  hello_grace_s : float;
      (** connections that haven't completed [Hello] within this window are
          dropped *)
  max_conns : int;  (** concurrent-connection cap; excess is shed at accept *)
  io_deadline_s : float;
      (** per-write deadline on every coordinator socket write *)
  log : string -> unit;
}

val config :
  ?lease_s:float ->
  ?quantum:int ->
  ?local_grace_s:float ->
  ?hello_grace_s:float ->
  ?max_conns:int ->
  ?io_deadline_s:float ->
  ?log:(string -> unit) ->
  string ->
  config
(** [config addr], where [addr] is parsed by {!Transport.parse} (a bare
    string is a Unix-domain socket path, backward compatible). Defaults:
    10 s leases, 20k-node quantum, 1 s local grace, 5 s hello grace, 64
    connections, 5 s write deadline, silent. Raises [Invalid_argument] on
    a malformed address. *)

type fleet_stats = {
  workers_seen : int;
  lease_misses : int;
      (** shards that had to be requeued (or re-run locally): worker
          crashes, stalls, expired orphans, delayed acks — folded into the
          verdict's [report.degraded] *)
  reattaches : int;
      (** leases that survived a dropped connection because the worker
          reconnected with its session token before expiry — non-events,
          deliberately {e not} counted in [degraded] *)
  steals : int;
  splits : int;  (** cut shards whose frontier was split across workers *)
  shards_run : int;
  local_shards : int;  (** shards the coordinator drained itself *)
}

val serve :
  ?subsets:bool ->
  ?repeat:bool ->
  ?domain:Wfc_spec.Value.t list ->
  ?faults:Faults.t ->
  ?fuel:int ->
  ?budget:int ->
  ?deadline_s:float ->
  ?shrink:bool ->
  ?engine:Explore.options ->
  ?checkpoint:string * float ->
  ?resume:Checkpoint.t ->
  ?interrupt:bool Atomic.t ->
  ?meta:(string * string) list ->
  config:config ->
  Implementation.t ->
  Wfc_consensus.Check.verdict * fleet_stats
(** Run the verification to a verdict, delegating to whatever workers
    connect. Parameters are {!Wfc_consensus.Check.verify}'s, with the same
    defaults, verdict semantics and checkpoint format, except that there is
    no [mem_budget_mb] (shards' dedup tables are uncapped); [checkpoint]
    is written by a {!Wfc_sim.Checkpoint.writer}, as [Check.verify]'s
    is. [meta] must include the
    {!Wfc_consensus.Protocols.meta} entries workers rebuild the
    implementation from. [engine] is the
    per-worker engine configuration (default {!Explore.fast}).
    Never raises on worker misbehaviour; socket setup errors ([Unix_error])
    do propagate. *)
