(** Fixed-width fingerprints and the flat dedup tables built on them.

    The exploration engine's flat hot path encodes a configuration as a
    small [int array], hashes it into a ⟨hi, lo⟩ pair of 62-bit lanes
    (~124 bits total, splitmix64-family avalanche mixers with two
    independent seeds), and probes that pair in an open-addressing {!Table}
    — no boxed key is ever built, no structural equality is ever walked.

    The array has a fixed layout whose length does not grow with the number
    of base objects:
    - two additive sums standing for the whole object segment. Each object
      contributes one position-salted term over ⟨state cell id, history
      cell id, access count⟩ per lane ({!component_hi}, {!component_lo}),
      summed modulo 2^63. An access swaps one term, and backtracking
      restores the two saved sums;
    - two additive sums standing for the whole process segment, one term
      per process and lane ({!record_hi}, {!record_lo}) over its ⟨todo,
      ⟨next_op, local⟩⟩ cell, pending head and response chain cells (-1
      when none is pending), completed-ops cell and crashed/stuck/sleep
      bits, salted by its symmetry-class representative (its pid without
      classes), so the sums see each class's records as a multiset;
    - the event count, the fault budgets and the tracker's cell id.

    Nine ints, whatever the number of processes and objects.

    Collisions: both segments are Zobrist-style sums. Two configurations
    whose segments differ agree on both sums only when two independent
    63-bit lanes collide at once, and the array is then folded into 124
    bits. Both steps are hash compaction. Fingerprint equality is treated as
    state equality; for a 10^9-state run the collision probability is
    ≈ 2^-64.

    {!Bloom} is the constant-memory second tier for runs that outgrow
    their memory budget: membership answers become "possibly seen", so an
    engine on this tier reports its result as probabilistic rather than
    exhaustive. *)

val hash_array : int array -> len:int -> int * int
(** [hash_array a ~len] folds [a.(0 .. len-1)] into a ⟨hi, lo⟩ fingerprint.
    Position-sensitive in both lanes; only the first [len] elements are
    read. Both lanes are non-negative. *)

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
(** [record_hi salt a b c d e] and [record_lo ...] are the two lanes' terms
    of the record ⟨a, b, c, d, e⟩, summed like {!component_hi}'s; records
    that share a [salt] are interchangeable in the sum, so it hashes the
    multiset of records per salt. *)

val hash_string : string -> int
(** One-pass 62-bit digest of a string (both mixer lanes folded together).
    Replaces MD5 as the checkpoint body digest: not cryptographic, but
    detects any realistic corruption/truncation of a line-oriented text
    body, with no dependency and ~6x the throughput. *)

(** Open-addressing fingerprint set: two parallel [int array] lanes,
    power-of-two capacity, linear probing, growth at 50% load, 16 bytes
    per entry flat. The all-zero slot encodes "empty"; ⟨0,0⟩ keys are
    remapped to ⟨0,1⟩ internally. *)
module Table : sig
  type t

  val create : ?capacity_log2:int -> unit -> t
  (** Default capacity 2^10 entries. *)

  val mem_or_add : t -> hi:int -> lo:int -> bool
  (** [true] iff the fingerprint was already present; records it otherwise.
      The only hot-path operation. *)

  val length : t -> int

  val reset : t -> unit
  (** Empty the table for reuse in O(entries added since the last reset):
      a table more than 8x larger than they needed is replaced by a
      default-sized one instead of cleared. *)

  val iter : (hi:int -> lo:int -> unit) -> t -> unit
  (** Iterate stored fingerprints (used to migrate a table into a {!Bloom}
      when the memory watchdog trips). *)
end

(** Constant-memory probabilistic membership, k = 3 probes per key derived
    from the two fingerprint lanes. A false positive makes the engine
    wrongly treat a new state as seen — prune a subtree — which is sound
    for falsification (a found violation is always real) but downgrades a
    clean sweep to a probabilistic claim. *)
module Bloom : sig
  type t

  val default_bits_log2 : int
  (** 23: a 1 MiB bit array, ≈0.3% false-positive rate at 10^6 states. *)

  val create : ?bits_log2:int -> unit -> t
  (** [bits_log2] is clamped to [6 .. 30]. *)

  val mem_or_add : t -> hi:int -> lo:int -> bool
  (** [true] = possibly seen before; [false] = definitely new (and now
      recorded). *)
end
