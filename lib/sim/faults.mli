(** Fault adversaries and decision traces.

    Wait-freedom is a robustness claim: the paper's constructions must stay
    correct when processes stall or crash between base accesses (Sections 2
    and 4.2), and related work shows correctness is sensitive to {e how much}
    the substrate misbehaves (regular-vs-atomic register relaxations). A
    value of {!t} describes an adversary — how many mid-operation crashes,
    crash-{e recoveries} (a crashed process restarts its pending operation
    from scratch against the dirty shared state) and degraded-read glitches
    it may inject, and which base objects are degraded. {!Exec.explore} and
    {!Explore.run} take the adversary as a first-class parameter and branch
    the execution tree on every injection point.

    Every explored path is identified by its {!trace}: the sequence of
    {!decision}s (which process moved, and whether the event was an honest
    step, a glitched read, a crash, a recovery, or a wedge). Traces are what
    make counterexamples replayable ({!Exec.replay}) and shrinkable
    ({!Witness.shrink}); they serialize to a compact text form
    ([p0.s1 p1.c p0.g0 …]). *)

open Wfc_spec
open Wfc_program

type degradation =
  | Safe_reads of Value.t list
      (** Lamport-safe behaviour: a read overlapping other activity may
          return {e any} value from the given response domain (cf.
          {!Wfc_zoo.Weak_register}). *)
  | Stale_reads of int
      (** Bounded staleness: a read may answer as if executed against one of
          the [k] most recently overwritten states of the object. *)

type t = {
  max_crashes : int;  (** mid-operation stopping failures (≥ 0) *)
  max_recoveries : int;
      (** crashed processes that may restart their interrupted operation
          from scratch — local effects rolled back, shared effects not *)
  max_glitches : int;  (** degraded-read events across all degraded objects *)
  degraded : (int * degradation) list;
      (** base objects (by index) subject to read glitches *)
}

val none : t
(** The empty adversary: clean runs, exactly the pre-fault semantics. *)

val crashes : int -> t
(** Crash-only adversary: at any point up to [k] processes may halt forever,
    possibly between two base accesses of an operation, leaving the
    implementing objects in whatever intermediate state the dead process
    created. A leaf then only requires the surviving processes to finish —
    which wait-freedom demands they do. Crashed processes' incomplete
    operations simply never appear in a leaf's [ops].

    Note that for {e safety} properties exhaustive exploration already
    subsumes crashes — a crash is indistinguishable from never being
    scheduled again, and any wrong response in a crash scenario also occurs
    along some crash-free path (it cannot be retracted by later steps of the
    slow process). What crashes add is {e liveness} phrasing: executions in
    which a process never returns become first-class leaves with checkable
    histories rather than fuel-overflow suspicions. *)

val crash_recovery : crashes:int -> recoveries:int -> t

val degrade : glitches:int -> (int * degradation) list -> t

val degrade_all :
  Implementation.t -> glitches:int -> [ `Safe | `Stale of int ] -> t
(** Degrades every base object of the implementation. [`Safe] applies only
    to objects with a declared finite response domain. *)

val is_none : t -> bool

val can_derail : t -> bool
(** Whether this adversary can push a program off its specified envelope
    (onto a disabled invocation or an undecodable response) — true when
    recoveries or effective glitches are available. The engines then turn a
    [Type_spec.Bad_step] / [Value.Type_error] raised by a process into a
    {e wedged} process (out of the enabled set forever) rather than an
    exploration error. *)

val degradation_of : t -> int -> degradation option
val tracks_history : t -> int -> bool
val stale_depth : t -> int -> int

val glitch_responses :
  alts:(Value.t * Value.t) list ->
  alts_at:(Value.t -> (Value.t * Value.t) list) ->
  q:Value.t ->
  hist:Value.t list ->
  degradation ->
  Value.t list
(** The glitched responses available for one access: [alts] are the honest
    alternatives at the current state [q], [alts_at] recomputes alternatives
    at a historic state, [hist] is the object's overwritten-states history
    (most recent first). Empty unless the access is a {e pure read} (every
    honest alternative leaves the state unchanged); honest responses and
    duplicates are filtered out. *)

val pp : Format.formatter -> t -> unit
val pp_degradation : Format.formatter -> degradation -> unit

val equal : t -> t -> bool
(** Structural equality, with [Value.equal] on safe-read domains. Used by
    {!Checkpoint} resume validation to refuse a checkpoint taken under a
    different adversary. *)

(** {1 Shared line codec}

    The fault lines of the wfc-witness/1 text format: {!Witness} and the
    checkpoint format ({!Checkpoint}) both print and parse them with these
    functions, so the two formats have one codec. *)

val field_of_values : Value.t list -> string
(** ['|']-separated value list, the field convention shared by workload
    lines and safe-read domains ([0|1|unit]). *)

val values_of_field : string -> (Value.t list, string) result

val budgets_line : t -> string
(** The [faults crashes=N recoveries=N glitches=N] line. *)

val parse_budgets : string -> (int * int * int, string) result
(** Parses the body after the [faults] keyword back into
    [(crashes, recoveries, glitches)]. *)

val degrade_line : int * degradation -> string
(** The [degrade OBJ stale K] / [degrade OBJ safe v|v] line. *)

val parse_degrade : string -> (int * degradation, string) result
(** Parses the body after the [degrade] keyword. *)

(** {1 Decision traces} *)

type kind =
  | Step of int  (** honest step, resolving to the i-th alternative *)
  | Glitch of int  (** glitched read, the i-th available glitch response *)
  | Crash
  | Recover
  | Wedge
      (** the process's next step raised [Bad_step]/[Type_error] under an
          adversary that {!can_derail}: it is stuck forever *)

type decision = { proc : int; kind : kind }

type trace = decision list
(** Root-to-leaf list of decisions — a path identifier for the execution
    tree, sufficient to deterministically re-execute the path
    ({!Exec.replay}). *)

val pp_decision : Format.formatter -> decision -> unit
val pp_trace : Format.formatter -> trace -> unit
val decision_to_string : decision -> string
val decision_of_string : string -> (decision, string) result
val trace_to_string : trace -> string
val trace_of_string : string -> (trace, string) result
