(** Atomic read/write registers.

    These are the registers of Jayanti's hierarchies with the superscript
    "r": atomic, multi-reader, multi-writer, multi-value (Section 4.1 notes
    that Herlihy [7] and Jayanti [9] require exactly these). In the
    step-granular simulator every base object is atomic, so these specs are
    single-invocation reads and writes. The weak (safe/regular) registers,
    whose anomalies require visible overlap, live in {!Weak_register}. *)

open Wfc_spec

val bit : ports:int -> Type_spec.t
(** Atomic Boolean register, initially [false]. Invocations:
    [Ops.read] ↦ current value; [Ops.write (Bool b)] ↦ [Ops.ok]. *)

val bounded : ports:int -> values:int -> Type_spec.t
(** Atomic register over the domain [{0..values-1}], initially [0]. The
    finite state enumeration makes it usable with the decision procedures of
    Section 5. *)

val unbounded : ports:int -> Type_spec.t
(** Atomic register over all of [Value.t], initially [Int 0]. No state
    enumeration (infinite Q); used as the substrate that the §4.1 chain and
    the Theorem 5 compiler eliminate. *)
