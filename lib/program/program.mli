(** Deterministic programs over shared base objects.

    A program is a lazy tree whose internal nodes are single atomic
    invocations on base objects — exactly the granularity at which the
    paper's execution trees (Section 4.2) branch. A [Return] leaf carries the
    program's result. The tree is deterministic: branching happens only in
    the {e simulator}, over scheduler choices and over nondeterministic base
    objects, never inside a program (Section 2.2 requires the programs of an
    implementation to be deterministic). *)

open Wfc_spec

type 'a t =
  | Return of 'a
  | Invoke of {
      obj : int;
      inv : Value.t;
      k : Value.t -> 'a t;
    }  (** invoke [inv] on base object [obj]; continue with the response *)

val return : 'a -> 'a t

val invoke : obj:int -> Value.t -> Value.t t
(** A single invocation whose result is the response. *)

val bind : 'a t -> ('a -> 'b t) -> 'b t

val map : ('a -> 'b) -> 'a t -> 'b t

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
end

val rename_objects : (int -> int) -> 'a t -> 'a t
(** Renumber every [obj] index (lazily, as the tree unfolds). *)

val length_along : (Value.t -> Value.t) -> 'a t -> int
(** Number of invocations executed when every invocation is answered by the
    given oracle (e.g. a deterministic object's response). Diverges if the
    program does. Useful in tests. *)

val for_list : 'a list -> ('a -> unit t) -> unit t
(** Sequence a body over a list, left to right. *)

val repeat : int -> (int -> unit t) -> unit t
(** [repeat n body] runs [body 0], …, [body (n-1)] in order. *)
