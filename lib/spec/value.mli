(** Universal dynamic values.

    States, invocations and responses of every type specification in this
    library are all values of this single type. This is what lets the generic
    algorithms of the paper — reachability, the triviality decision procedure
    of Section 5.1, the non-trivial pair search of Section 5.2, vertical
    composition of implementations — operate uniformly over arbitrary types. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Sym of string  (** symbolic atoms, e.g. [Sym "ok"], [Sym "unset"] *)
  | Pair of t * t
  | List of t list

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order, suitable for [Map]/[Set] keys. *)

val hash : t -> int
(** Structural hash, consistent with {!equal}. Children are folded in with a
    position-sensitive bit mixer (Boost [hash_combine] style), so reordered
    siblings and re-nested spines — the shapes exploration fingerprints are
    made of — land in different buckets, unlike the multiplicative
    [h*65599 + h'] chains this replaced. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parses the concrete syntax printed by {!pp} — ["()"], booleans,
    integers, ["(a, b)"], ["[a; b]"] and bare symbol atoms. Inverse of
    {!to_string} for every value whose symbols avoid the delimiter
    characters [()[],;|] and whitespace (true of all symbols in this
    library). Used to deserialize stored counterexample witnesses. *)

(** {1 Constructors} *)

val unit : t
val bool : bool -> t
val int : int -> t
val sym : string -> t
val pair : t -> t -> t
val list : t list -> t
val truth : t
val falsity : t

(** {1 Destructors}

    Each raises [Type_error] with a diagnostic message when the value has the
    wrong shape. Implementations use these to decode base-object responses;
    a [Type_error] in a test therefore indicates a protocol bug. *)

exception Type_error of string

val as_bool : t -> bool
val as_int : t -> int
val as_sym : t -> string
val as_pair : t -> t * t
val as_list : t -> t list

(** {1 Collections keyed by values} *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

(** Pairs ⟨a, b⟩ of ints in [\[0, 2{^31})] — ids — to non-negative ints,
    by open addressing (power-of-two capacity, linear probing, grown at
    half load). A hit allocates nothing. {!Intern} keeps its id-only tuples
    in one, {!Step_table} its rows, and the exploration kernel its program
    table's rows and tops.
    Every operation raises [Invalid_argument] on a component out of
    range. *)
module Imap : sig
  type t

  val create : int -> t
  (** [create cap] is an empty map with room for [cap / 2] bindings before it
      grows; [cap] must be a power of two. *)

  val find : t -> int -> int -> int
  (** [find t a b] is the value bound to ⟨a, b⟩, or [-1]. *)

  val add : t -> int -> int -> int -> unit
  (** [add t a b v] binds an unbound ⟨a, b⟩ to [v >= 0]. *)
end

(** {1 Hash-consing}

    Maximal-sharing constructors over an explicit intern {!Intern.state}.
    Within one state, structurally equal values are represented by one
    physically unique {!Intern.cell} carrying a cached hash (equal to
    {!val:hash} of the underlying value) and a dense id, so equality is
    pointer comparison and hashing is a field read — O(1) instead of a walk
    over the whole configuration tree.

    Keys are ints (atom values and child ids; symbols go in a string
    table), so the tables are open-addressing arrays: interning a value that
    is already present allocates nothing, and a cell is built only on a
    miss.

    States are not global and not thread-safe by design: the exploration
    engine keeps one per implementation, in that implementation's compiled
    context, and keys its transition and dedup tables on that state's cells.
    Never mix cells from different states: physical equality and ids are
    meaningful only within the state that allocated them. *)
module Intern : sig
  type state
  (** Intern tables plus an id counter. Not thread-safe: use one from one
      domain at a time. *)

  type cell
  (** An interned value. Cells of one state are in bijection with the
      distinct values interned into it. *)

  val create : unit -> state

  val value : cell -> t
  (** The underlying value, with maximal sharing among subterms. *)

  val hash : cell -> int
  (** Cached; equals [hash (value c)]. *)

  val id : cell -> int
  (** Unique within the owning state, in order of first interning. Cells
      and {!tuple}s draw their ids from one counter, so the ids of a state
      that never makes a tuple are dense. *)

  val equal : cell -> cell -> bool
  (** Physical equality. Within one state, [equal (intern st a) (intern st b)]
      iff [Value.equal a b]. *)

  val intern : state -> t -> cell
  (** Bottom-up interning of an arbitrary value. Allocates only for the
      cells it creates: re-interning a value allocates nothing. *)

  (** Smart constructors interning one node given already-interned children —
      O(1) each (amortized, [list] linear in its length), no traversal of the
      children, and no allocation when the node is already interned. *)

  val unit : state -> cell
  val bool : state -> bool -> cell
  val int : state -> int -> cell
  val sym : state -> string -> cell
  val pair : state -> cell -> cell -> cell
  val list : state -> cell list -> cell

  val tuple : state -> int -> int -> int
  (** [tuple st a b] is an id for the ordered pair ⟨a, b⟩ of ints in
      [\[0, 2^31)] (typically ids): equal pairs get equal ids, different
      pairs different ones, and no tuple id is ever the id of a cell of
      [st]. It builds no cell and no value, and a pair met before allocates
      nothing. Raises [Invalid_argument] on a component out of range. *)

  (** Hashtables keyed on cells of a single state: physical-equality probes
      with the id as hash — O(1) per operation regardless of value size. *)
  module H : Hashtbl.S with type key = cell

  val max_cells : int
  (** 2{^31}: every cell and {!tuple} id of a state is below it. *)

  (** A dense numbering of some cells of one state: the [k]th cell numbered
      gets [k], and its number gives it back by one array load, so a holder
      of numbers keeps ints and rebuilds values only where it reads them.
      Numbering a cell met before allocates nothing. *)
  module Numbering : sig
    type t

    val create : unit -> t

    val number : t -> cell -> int
    (** The cell's number, given on first call. *)

    val cell : t -> int -> cell
    (** The cell numbered [k]; raises [Invalid_argument] when no cell is. *)

    val length : t -> int
    (** How many cells are numbered. *)
  end
end
