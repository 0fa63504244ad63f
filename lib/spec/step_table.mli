(** Compiled transition tables over numbered states.

    The interpreted step ([Type_spec.alternatives]) applies the spec's
    transition closure on every visit. A [Step_table.t] pays that cost once
    per distinct (state, port, invocation) triple: the first visit runs the
    closure, interns the resulting successor/response pairs into the table's
    {!Value.Intern.state}, and caches the row; every later visit is one
    {!Value.Imap} probe on ⟨state, port⟩ and the invocation's cell id. The
    key is structural: every copy of an invocation finds the same row.

    A table numbers the states it meets densely: the ones a caller hands to
    {!state} and every successor of a compiled row. The exploration engine
    holds an object as its state number and a classification as a row
    number, both ints, and rebuilds a state's value ({!value}) only where it
    reads one. Rows hand out the canonical interned responses, so
    downstream identity tests (duplicate detection, the engine's
    program-table rows keyed on response cell ids) coincide with structural
    equality.

    Soundness rests on [Type_spec.transition] being a pure function of
    (state, port, invocation) — the contract every spec in the library
    already obeys (nondeterminism is expressed as multiple alternatives, not
    as impurity). The declared [oblivious] flag is {e not} used to share rows
    across ports: tables are lazy, so honesty costs only what is visited,
    and a spec that lies about obliviousness cannot corrupt results.

    Tables inherit the intern state's threading discipline: one table per
    domain, never shared. *)

module I = Value.Intern

type row = {
  alts : (Value.t * Value.t) list;
      (** the alternatives exactly as the interpreted step would return
          them (same order), but canonical — maximally shared within the
          table's intern state *)
  next : int array;  (** per alternative, its successor's state number *)
  resps : I.cell array;  (** per alternative, its interned response *)
  n_alts : int;  (** [List.length alts], precomputed for the hot path *)
  det : bool;  (** exactly one alternative *)
  pure_read : bool;
      (** deterministic and the successor is the argument state *)
}

type t

val create : ?ist:I.state -> Type_spec.t -> t
(** A fresh table with no compiled rows and no numbered state. Pass [ist]
    to share an intern state with the caller (e.g. the one in the
    exploration engine's compiled context) so the canonical representatives
    are canonical for the caller too; otherwise a private state is
    created. *)

val intern_state : t -> I.state
(** The intern state rows are canonicalized into. *)

val state : t -> I.cell -> int
(** [state t qc] is the number of state [qc] (a cell of
    [intern_state t]), numbering it if the table has not met it. *)

val value : t -> int -> Value.t
(** The value of a state number; [Invalid_argument] on a number the table
    never gave. *)

val row_id : t -> int -> port:int -> inv:I.cell -> int
(** [row_id t s ~port ~inv] is the number of the compiled row for state
    number [s] under invocation [inv] (a cell of [intern_state t]) on
    [port], compiling it on a miss. Raises [Type_spec.Bad_step] on an
    out-of-range port (same message as the interpreted path) and
    [Invalid_argument] on a state number the table never gave; a
    [Bad_step] raised by the spec's transition itself propagates
    uncached. *)

val row : t -> int -> row
(** The row of a number {!row_id} returned. *)

val alternatives : t -> Value.t -> port:int -> inv:Value.t -> (Value.t * Value.t) list
(** Drop-in for [Type_spec.alternatives spec]: interns the arguments and
    returns the cached row's alternatives. Agrees with the interpreted step
    up to [Value.equal] on every pair, in the same order (the compiled-vs-
    interpreted qcheck in [test/test_flat.ml] asserts this across the whole
    zoo). *)

val compiled_rows : t -> int
(** Number of rows compiled so far (cache misses); observability only. *)
