(** Fixed-width fingerprints and the flat dedup tables built on them.

    The exploration engine keys a configuration by a ⟨hi, lo⟩ pair of
    62-bit lanes (~124 bits total, splitmix64-family avalanche mixers with
    independent seeds per lane) and probes that pair in an open-addressing
    {!Table}: no boxed key is ever built, no structural equality is ever
    walked.

    Each lane is a sum, modulo 2^63 and masked non-negative, of terms the
    engine keeps current on its undo path, so a probe adds a few cached ints
    whatever the number of processes and objects:
    - one position-salted term per object over ⟨state number, history id,
      access count⟩ ({!component_hi}, {!component_lo}). An access replaces
      its object's term, and backtracking restores the saved term and sum;
    - one term per process ({!record_hi}, {!record_lo}) over its local's
      number, workload position [next_op], response chain id (-1 when no
      operation is pending, non-negative exactly when one is),
      completed-ops id and crashed/stuck bits, salted by its
      symmetry-class representative (its pid without classes), so the sum
      sees each class's records as a multiset. No
      invocation is hashed: the workloads are fixed for a run, a process's
      todo list, pending invocation and completed invocations are its
      workload at [next_op] and at each op index, and processes share a
      class only when their workloads are equal. A process in the sleep
      set contributes {!asleep_hi} of its term instead;
    - a term over the three fault budgets ({!budget_hi});
    - a tail over the event count and the tracker's id ({!tail_hi}).

    Term layout. Every field of a component or record is in
    [\[0, {!field_bound})] = [\[0, 2{^31})]: ids and numbers are below
    [Value.Intern.max_cells], a position is an object index or a pid, and
    access counts and workload positions are at most the event count, which
    is at most the run's fuel ([Explore.run] refuses a fuel of 2{^31} or
    more). So two fields share one 62-bit word and one mixer round per
    lane: a component is ⟨pos, state⟩ ⟨hist, acc⟩, two rounds, and a record
    ⟨salt, local⟩ ⟨chain + 1, next_op⟩ ⟨flags, ops⟩, three rounds. The high
    field of a word may reach 2{^31}, which is where chain + 1 goes. The
    terms are functions of their fields only; nothing persists them.

    Collisions: every part is a Zobrist-style sum. Two configurations that
    differ agree on both lanes only when two independent 63-bit sums
    collide at once. This is hash compaction: fingerprint equality is
    treated as state equality, and for a 10^9-state run the collision
    probability is ≈ 2^-64.

    {!Table} is the only duplicate-state store. A memory budget caps its
    capacity and empties it when full, so the engine's answers stay exact
    under any budget: a forgotten state is only revisited. *)

val field_bound : int
(** 2{^31}: every field of {!component_hi} and {!record_hi} is below it,
    except a record's [chain], which is in [\[-1, field_bound)]. The terms
    do not check it: the engine establishes each range where the field is
    made. *)

val component_hi : int -> int -> int -> int -> int
(** [component_hi pos a b c] is the hi-lane term of the three-int component
    ⟨a, b, c⟩ at position [pos] of an additive segment: a 62-bit mix,
    salted by [pos], so equal components at different positions get
    unrelated terms. A segment's lane hash is the sum of its components'
    terms (OCaml [int] arithmetic, modulo 2^63); changing one component
    subtracts its old term and adds its new one, and subtracting a term
    undoes adding it exactly. *)

val component_lo : int -> int -> int -> int -> int
(** The lo-lane term: the same shape through the second mixer and an
    independent seed. *)

val record_hi : int -> int -> int -> int -> int -> int -> int
val record_lo : int -> int -> int -> int -> int -> int -> int
(** [record_hi salt local next_op chain ops flags] and [record_lo ...] are
    the two lanes' terms of the record ⟨local, next_op, chain, ops, flags⟩,
    summed like {!component_hi}'s; records that share a [salt] are
    interchangeable in the sum, so it hashes the multiset of records per
    salt. [chain] may be -1. *)

val asleep_hi : int -> int
val asleep_lo : int -> int
(** [asleep_hi t] is the term a record whose awake hi-lane term is [t]
    contributes while its process is in the sleep set: one more mixer round
    over [t], so a sleeping and an awake record never share a term. *)

val budget_hi : int -> int -> int -> int
val budget_lo : int -> int -> int -> int
(** [budget_hi crashes recoveries glitches] is the term of the remaining
    fault budgets. *)

val tail_hi : int -> int -> int
val tail_lo : int -> int -> int
(** [tail_hi events tracker] is the term of the event count and the
    tracker's id (-1 without a tracker): two mixer rounds per lane. *)

val hash_string : string -> int
(** One-pass 62-bit digest of a string (both mixer lanes folded together).
    Replaces MD5 as the checkpoint body digest: not cryptographic, but
    detects any realistic corruption/truncation of a line-oriented text
    body, with no dependency and ~6x the throughput. *)

(** Open-addressing fingerprint set: two parallel [int array] lanes,
    power-of-two capacity, linear probing in Robin Hood order (Celis,
    Larson and Munro, FOCS '85), up to 7/8 load, 16-byte slots. A key's
    home slot is its lo lane masked to the capacity; along a run the homes
    never decrease, so a probe for an absent key stops at the first entry
    that sits closer to its home than the probe has walked, and a miss
    shifts the rest of the run up one slot. The all-zero slot encodes
    "empty"; ⟨0,0⟩ keys are remapped to ⟨0,1⟩ internally. A slot log
    records which slots the first entries since the last reset made
    occupied (a miss occupies exactly one, at the end of its run). Its
    size follows the capacity, not the entries: one 16-bit entry per 2
    slots in a default-sized table, per 8 slots in a larger one of up to
    2{^16} slots (at most 16 KiB, 1/64 of the lanes), none above. Growing
    re-logs the entries while they fit the new log.

    A table may be capped ({!limit}). Where growing would pass the cap, the
    table is emptied instead ({!reset}) and counts one {!flushes}: what
    happens under memory pressure is decided here and nowhere else. An
    emptied table forgets, it never answers wrongly, so a search that
    prunes on [true] stays exhaustive and only revisits what it forgot. *)
module Table : sig
  type t

  val create : ?capacity_log2:int -> unit -> t
  (** Default capacity 2^10 entries, no cap. *)

  val mem_or_add : t -> hi:int -> lo:int -> bool
  (** [true] iff the fingerprint was already present; records it otherwise.
      The only hot-path operation. A miss that takes the table past 7/8 of
      its capacity grows it, or, at its cap, empties it: the key just
      recorded is forgotten with the rest. A table of 1,024 slots holds 896
      keys. *)

  val length : t -> int

  val capacity : t -> int
  (** Slots, a power of two: never above the cap once {!limit} set one. *)

  val cap_of_mib : int -> int
  (** [cap_of_mib mb] is the cap a budget of [mb] MiB sets: the largest
      power of two of 16-byte slots that fits in [mb] MiB, and never below
      the default 2^10 slots, so [0] (or less) means the smallest table.
      Up to 7/8 of the slots hold keys: 57,344 in 1 MiB. *)

  val limit : t -> int option -> unit
  (** [limit t (Some mb)] caps [t] at {!cap_of_mib}[ mb] slots, [limit t
      None] lifts the cap; either way {!flushes} starts again from 0. A
      table already larger than the cap is swapped for an empty
      default-sized one. *)

  val flushes : t -> int
  (** The times {!mem_or_add} emptied [t] at its cap since the last
      {!limit}. *)

  val reset : t -> unit
  (** Empty the table for reuse. A run whose entries fit the log is
      cleared slot by slot from it, so reusing a large table for a small
      run costs that run's entries, not the capacity. A run that
      overflowed the log filled at least 1/8 of the table and gets one
      full clear, a loop of stores over the lanes. A table of more than 16
      slots per entry of its last run is replaced by a default-sized one
      instead. The cap stays. *)
end
