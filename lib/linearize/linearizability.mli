(** Linearizability checking (Herlihy–Wing), in the style of Wing & Gould.

    A concurrent history — the completed operations of one {!Wfc_sim.Exec}
    execution against a single implemented object — is linearizable w.r.t. a
    sequential specification iff the operations can be totally ordered such
    that (1) the order extends real-time precedence (op A precedes op B when
    [A.end_step < B.start_step]) and (2) the invocation/response pairs form a
    legal sequential history of the spec from the given initial state.

    This module is the stable facade; the checking itself lives in
    {!Engine}, which adds incremental (fused-with-exploration) and
    compositional (per-object) checking. Histories whose invocations are
    addressed with {!Wfc_zoo.Ops.at} are decomposed automatically — each
    object is checked independently (Herlihy–Wing locality), so the 62-op
    bitmask limit applies per object, not per history. *)

open Wfc_spec

type verdict = Engine.verdict =
  | Linearizable of Wfc_sim.Exec.op list
      (** a witness order (the ops in linearization order) *)
  | Not_linearizable of string  (** human-readable diagnosis *)

val check :
  spec:Type_spec.t ->
  ?init:Value.t ->
  ?port_of:(int -> int) ->
  Wfc_sim.Exec.op list ->
  verdict
(** [port_of proc] gives the spec port a process's operations use (default:
    the process id itself). [init] defaults to [spec.initial].
    {!Wfc_zoo.Ops.at}-addressed histories are decomposed per object, each an
    independent instance of [spec] from [init]; each single-object
    subhistory supports at most 62 operations (bitmask memoization), and
    exceeding that raises [Invalid_argument] naming the object. *)

val is_linearizable :
  spec:Type_spec.t ->
  ?init:Value.t ->
  ?port_of:(int -> int) ->
  Wfc_sim.Exec.op list ->
  bool

val check_all_executions :
  Wfc_program.Implementation.t ->
  workloads:Value.t list array ->
  ?fuel:int ->
  unit ->
  (Wfc_sim.Exec.stats, string) result
(** Explore every interleaving of the workloads and check each leaf history
    against [impl.target] from [impl.implements]. [Error] carries the first
    counterexample (diagnosis plus the offending prefix, pretty-printed).
    Also fails if any path overflows its fuel (suspected non-wait-freedom).

    Delegates to {!Engine.verify} in its fused incremental mode: partial
    linearizations are threaded down the exploration tree, so shared
    schedule prefixes share checking work, and the tracker's
    timestamp-free observations make the {e fast} (dedup + POR) exploration
    engine sound here — the per-leaf-DFS-on-the-naive-engine behaviour
    survives as {!Engine.Per_leaf}, the differential-testing oracle. *)

val pp_ops : Format.formatter -> Wfc_sim.Exec.op list -> unit
