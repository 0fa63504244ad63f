(** Seeded, replayable wire-level chaos: a proxy that interposes on the
    fleet's byte stream and injects the {!Chaos.Wire} faults of a
    {!Chaos.plan} — added latency, partitions, connection resets, 1-byte
    fragmentation, mid-frame corruption. A plan's process faults are the
    worker's to inject; [wfc netchaos --plan] refuses them
    ({!Chaos.of_spec}).

    The fault {e decisions} live in a pure per-direction state machine
    ({!Stream}): fed the same chunks under the same plan, it emits the
    same actions and the same fault log, which is what the
    replay-determinism tests assert. The {!run} proxy is just plumbing
    around it — accept, connect upstream, shuttle bytes through two
    streams, honour the delays with a timer queue. *)

(** What the proxy should do with one fed chunk. Delays are relative to
    the direction's previous action (the proxy keeps per-direction due
    times monotonic, so one delayed chunk delays everything behind it —
    which is exactly how a partition silences a stream). *)
type action =
  | Forward of { data : string; delay_s : float }
  | Reset  (** hard-close both sides of the connection, now *)

(** The pure fault schedule for one direction of one connection. *)
module Stream : sig
  type t

  val create : Chaos.plan -> t

  val feed : t -> string -> action list
  (** Decide the fate of one chunk. Total and deterministic: same plan +
      same chunk sequence ⇒ same actions (and same {!faults} log). After
      a [Reset] every later chunk yields [[]]. *)

  val faults : t -> string list
  (** Injected-fault log, oldest first — the replayable schedule. *)
end

val run :
  ?log:(string -> unit) ->
  ?stop:bool Atomic.t ->
  listen:Transport.addr ->
  upstream:Transport.addr ->
  Chaos.plan ->
  unit
(** Serve until [stop] flips (checked every select tick): accept clients
    on [listen], connect each to [upstream], and shuttle bytes through a
    fresh pair of {!Stream}s per connection. Upstream connect failures
    just close the client (the fleet's backoff retries through). *)

val spawn :
  ?log:(string -> unit) ->
  listen:Transport.addr ->
  upstream:Transport.addr ->
  Chaos.plan ->
  int
(** Fork {!run} as a child process and return its pid ({!Local.kill} /
    {!Local.shutdown} dispose of it) — how tests and CI interpose the
    proxy between a real coordinator and real workers. *)
