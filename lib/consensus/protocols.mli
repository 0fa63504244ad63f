(** Wait-free consensus protocols from the classical primitives.

    Each builder returns an implementation of the binary consensus type
    T_{c,n} ({!Wfc_zoo.Consensus_type.binary}). These are the "given
    implementations of n-process consensus using registers and objects of
    type T" that Sections 4 and 6 of the paper quantify over; the Theorem 5
    compiler consumes them. All protocols cache their decision locally so
    that repeated invocations return the first response without touching the
    implementing objects — exactly the observation of Section 4.2 ("we
    consider only first invocations").

    Herlihy consensus numbers dictate which are possible: TAS, FAA, swap and
    queue protocols serve 2 processes (and need registers to exchange
    proposals); CAS and sticky-bit protocols serve any n (and are naturally
    register-free). *)

open Wfc_program

val from_tas : unit -> Implementation.t
(** 2 processes; 1 test-and-set + 2 atomic bits (per-process proposal
    registers). Winner decides its own value, loser reads the winner's. *)

val from_faa : unit -> Implementation.t
(** 2 processes; 1 fetch-and-add (mod 5) + 2 proposal bits. The process that
    sees 0 when adding 1 wins. *)

val from_swap : unit -> Implementation.t
(** 2 processes; 1 swap register (initially 0 = untaken) + 2 proposal bits.
    The process that swaps out the 0 wins. *)

val from_queue : unit -> Implementation.t
(** 2 processes; 1 FIFO queue pre-filled with a winner token + 2 proposal
    bits. The process that dequeues the token wins. *)

val from_cas : procs:int -> unit -> Implementation.t
(** n processes; a single binary compare-and-swap object, {e no registers}:
    cas(⊥ → v) then read the decided value. *)

val from_sticky : procs:int -> unit -> Implementation.t
(** n processes; a single binary sticky bit, {e no registers}: stick your
    proposal, the response is the decision. *)

val from_cas_ids : procs:int -> unit -> Implementation.t
(** n processes; 1 compare-and-swap storing the {e winner's identity} plus
    n(n-1) single-reader single-writer proposal bits (reg(p→q) written only
    by p, read only by q). Functionally equivalent to {!from_cas} but built
    to exercise the Theorem 5 compiler beyond two processes: all its
    registers obey the SRSW discipline the compiler checks for. *)

val broken_register_only : unit -> Implementation.t
(** Negative control (E11): a plausible 2-process protocol over registers
    only — write your proposal, read the other's, prefer the other's if
    present. The checker exhibits disagreement; registers alone cannot solve
    2-process consensus [4,7,14]. *)

val with_decision_cache : Implementation.t -> Implementation.t
(** Wrap any consensus implementation so each process remembers its first
    response in local state and answers later invocations from it. The
    builders above apply this already; exposed for user-supplied protocols
    (the Theorem 5 compiler relies on the single-access-phase property it
    provides). *)

val names : string list
(** Every protocol {!of_name} accepts, in display order. *)

val of_name : ?procs:int -> string -> (Implementation.t, string) result
(** Build a protocol by its CLI name ([procs] defaults to 2 and only
    matters for cas/cas-ids/sticky). [Error] on an unknown name and on a
    count below the protocol's minimum: 1 for cas and sticky, 2 for
    cas-ids. The one name table shared by the CLI,
    witness replay and the fleet workers, so a serialized job always
    rebuilds the implementation it was created from. *)

val meta : name:string -> procs:int -> (string * string) list
(** The [protocol] and [procs] meta entries that checkpoints, fleet jobs and
    witnesses carry: the one writer of these keys. *)

val of_meta :
  procs:int -> (string * string) list -> (string * int, string) result
(** The one reader of {!meta}'s entries; [procs] when that entry is absent.
    [Error] when there is no [protocol] entry or [procs] is malformed. *)
