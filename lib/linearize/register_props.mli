(** Safeness and regularity of read/write histories (Lamport [13]).

    These are weaker-than-linearizability register conditions, defined for
    single-writer registers (writes are totally ordered because one process
    issues them):

    - {e safe}: a read not overlapping any write returns the most recently
      completed written value (or the initial value); an overlapping read may
      return anything in the domain;
    - {e regular}: additionally, an overlapping read returns either that most
      recent value or the value of one of the overlapping writes.

    Operations are classified by the {!Wfc_zoo.Ops} conventions: [Ops.read]
    and [Ops.write v]. Used to validate the weak end of the §4.1 chain —
    including the {e negative} controls, where a deliberately broken
    construction must fail these checks. *)

open Wfc_spec

type failure = {
  read : Wfc_sim.Exec.op;
  allowed : Value.t list;
  explanation : string;
}

val check_regular :
  init:Value.t -> Wfc_sim.Exec.op list -> (unit, failure) result
(** @raise Invalid_argument if two writes overlap or are issued by different
    processes (the single-writer discipline is the caller's obligation). *)

val check_safe :
  init:Value.t ->
  domain:Value.t list ->
  Wfc_sim.Exec.op list ->
  (unit, failure) result
(** Safe check additionally needs the domain (overlapping reads may return
    any domain value, but nothing outside it). *)

type violation = {
  failure : failure option;  (** [None] for fuel overflow *)
  reason : string;
  witness : Wfc_sim.Witness.t option;
      (** replayable decision trace of the offending interleaving *)
}

val check_all_regular :
  Wfc_program.Implementation.t ->
  init:Value.t ->
  workloads:Value.t list array ->
  ?fuel:int ->
  ?faults:Wfc_sim.Faults.t ->
  unit ->
  (Wfc_sim.Explore.stats, violation) result
(** Explore all interleavings (optionally under a fault adversary); check
    each leaf with {!check_regular}. Regularity depends on operation timing
    (overlap intervals), so the unreduced naive engine is always used. A
    violation carries a {!Wfc_sim.Witness.t} that {!Wfc_sim.Exec.replay}
    re-executes to the offending leaf. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_violation : Format.formatter -> violation -> unit
