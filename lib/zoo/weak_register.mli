(** Safe and regular registers with visible overlap (two-phase writes).

    In an interleaving simulator a one-step base object is always atomic, so
    the anomalies that distinguish Lamport's safe and regular registers from
    atomic ones can never occur. Following the standard modelling trick, a
    write here takes two invocations — [Ops.write_start v] and
    [Ops.write_end] — and a read that lands strictly between them observes
    the weakness:

    - a {e safe} register returns an arbitrary domain value;
    - a {e regular} register returns either the old or the new value.

    Reads remain single invocations (two overlapping reads exhibit no
    anomaly). The state is ⟨current, writing-status⟩. These types are
    nondeterministic by design; they are the weak end of the §4.1
    construction chain. Single-writer use is a discipline of the
    implementations built on top, not of the spec. *)

open Wfc_spec

val safe_bit : ports:int -> Type_spec.t
(** Safe Boolean register, initially [false]. A read overlapping a write
    returns [true] or [false] nondeterministically. *)

val regular_bit : ports:int -> Type_spec.t
(** Regular Boolean register: a read overlapping a write returns the old or
    the new value. *)

val safe_values : ports:int -> domain:Value.t list -> Type_spec.t
(** Safe register over an explicit value domain (an overlapping read may
    return any of them). Initial state: first domain element, idle. *)

val regular_unbounded : ports:int -> initial:Value.t -> Type_spec.t
(** Regular register over all of [Value.t] (no state enumeration). Regularity
    needs no domain: an overlapping read returns the old or the new value.
    Used by the timestamp constructions, whose values ⟨ts, v⟩ are unbounded. *)

val initial : Value.t -> Value.t
(** State with the given current value and no write in progress. *)

val is_mid_write : Value.t -> bool
(** True when the state carries an unfinished [write_start]. *)
