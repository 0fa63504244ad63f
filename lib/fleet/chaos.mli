(** Seeded, replayable fault-injection plans for the fleet.

    A plan says how a fleet misbehaves, deterministically, so chaos runs
    are replayable: the integration tests derive every plan from
    ⟨seed, index⟩ and assert that the fleet's verdict still matches
    single-process {!Wfc_consensus.Check.verify} — crashes, stalls,
    garbage, delays and network faults are availability events, never
    correctness events.

    One grammar covers both places faults are injected; each fault kind
    belongs to one {!side}:
    - {e process} faults, injected by a worker into its own run
      ({!Worker.config} [~chaos]; [wfc worker]/[wfc serve --chaos]):
      [kill:N], [stall:N], [garbage:N], [delay:F];
    - {e wire} faults, injected by the {!Netchaos} proxy into the byte
      stream ([wfc netchaos --plan]): [latency:LO-HI], [partition:N:S],
      [reset:N], [fragment], [corrupt:N], [jitter:J].

    Wire counters are per direction; both directions of a proxied
    connection run the same plan independently. *)

type side = Process | Wire

type plan = {
  kill_after : int option;
      (** process: [Unix._exit] mid-shard after visiting this many leaves —
          a hard crash with the lease held *)
  stall_after : int option;
      (** process: stop heartbeating and exploring after this many leaves —
          a wedged process that holds its lease until it expires *)
  garbage_after : int option;
      (** process: once per process, at the first leaf (from this many
          leaves of a lease on) where the link is up, write raw garbage
          bytes to the socket — the coordinator must drop the connection,
          not crash *)
  delay_result_s : float option;
      (** process: sleep this long before sending each [Result] — exercises
          the stale-result path when the lease has already been re-issued *)
  latency : (float * float) option;
      (** wire: uniform per-chunk delay in [\[LO, HI\]] seconds *)
  partition : (int * float) option;
      (** wire: after the [N]th chunk, go silent for [S] seconds *)
  reset : int option;  (** wire: after the [N]th chunk, hard-close both sides *)
  fragment : bool;  (** wire: forward one byte at a time *)
  corrupt : int option;  (** wire: flip one random bit of the [N]th chunk *)
  jitter : int;  (** wire: seed for latency draws and corruption positions *)
}

val none : plan
val is_none : plan -> bool

val seeded : side -> seed:int -> index:int -> plan
(** Deterministic plan of [side]'s kinds, at most one fault, chosen and
    parameterized by ⟨seed, index⟩ alone — [index] is the worker index for
    {!Process} and the stream index for {!Wire}. *)

val of_spec : side -> string -> (plan, string) result
(** Parse a comma-separated spec of [side]'s kinds (see above); [seed:S:K]
    expands to {!seeded} [side ~seed:S ~index:K] and ["none"] is {!none}.
    A kind of the other side is refused with an error naming it: an option
    never silently does nothing. *)

val to_spec : plan -> string
val pp : Format.formatter -> plan -> unit
