(* Fixed-width fingerprints for the exploration hot path.

   A fingerprint is a pair ⟨hi, lo⟩ of native OCaml ints (62 significant
   bits each after the sign/tag bits, ~124 bits total): in each lane, the
   sum of per-component terms of a configuration, every term a few rounds
   of that lane's independently seeded avalanche mixer. At 124 bits, the birthday bound for a run of
   10^9 distinct states puts the collision probability around 2^-64 — far
   below the probability of a cosmic-ray bit flip over the same run — so
   the table treats fingerprint equality as state equality.

   The mixer is the splitmix64/murmur3 finalizer family, restricted to
   multiplier constants that fit OCaml's 63-bit int. Multiplication wraps
   modulo 2^63 (the sign bit participates), xor-shift folds the high bits
   back down, and [land max_int] keeps results non-negative so they can be
   printed as hex and used directly as array indices after masking. *)

let m1 = 0x2545F4914F6CDD1D
let m2 = 0x27220A95FE4D3EEB

(* One round of each lane's mixer. The multipliers are constants, so an
   inlined round is a handful of instructions with no closure call. *)
let[@inline] mix1 h x =
  let h = (h lxor x) * m1 in
  let h = h lxor (h lsr 29) in
  let h = h * m1 in
  (h lxor (h lsr 32)) land max_int

let[@inline] mix2 h x =
  let h = (h lxor x) * m2 in
  let h = h lxor (h lsr 29) in
  let h = h * m2 in
  (h lxor (h lsr 32)) land max_int

(* --- additive segment hashing ------------------------------------------------

   A segment of k fixed-width components (the engine's per-object
   ⟨state, history, access count⟩ triples) hashes to the sum, modulo 2^63,
   of one mix per component, in each of two lanes. The mix is salted by the
   component's position, so the sum is a Zobrist-style hash: updating one
   component subtracts its old mix and adds its new one, and modular
   subtraction undoes an addition bit for bit. A fold over the whole segment
   would cost O(k) per probe; the sum costs O(1) per changed component.

   Every field is below [field_bound] = 2^31 (ids are below
   [Value.Intern.max_cells], access counts and workload positions below
   the run's fuel, which [Explore.run] caps), so two fields share one word
   and one mixer round: [pack a b] puts [b] in bits 0–30 and [a] above it.
   The packing is injective for [b] in [0, 2^31) and [a] in [0, 2^32), so
   the high field may reach 2^31: it takes a response chain id + 1, which
   is 2^31 at most. A component is two rounds per lane, ⟨pos, state⟩ then
   ⟨hist, acc⟩, from each lane's own seed, so the two lanes are independent
   functions of the component, and a collision between two segments that
   differ needs both 63-bit sums to agree. *)
let field_bound = 1 lsl 31
let () = assert (Value.Intern.max_cells <= field_bound)
let[@inline] pack a b = (a lsl 31) lor b

let component_hi pos state hist acc =
  mix1 (mix1 0x6A09E667 (pack pos state)) (pack hist acc)

let component_lo pos state hist acc =
  mix2 (mix2 0x3C6EF372 (pack pos state)) (pack hist acc)

(* Five-field records, salted by a class instead of a position: records
   that share a salt are interchangeable in a sum, so a segment of them
   hashes the multiset of records per salt and needs no canonical sort.
   Three rounds per lane: ⟨salt, local⟩ (the head), then ⟨chain + 1,
   next_op⟩ (a chain of -1, no pending operation, packs as 0) and ⟨flags,
   ops⟩ (the rest). A record's salt and local change less often than the
   rest, so a caller can keep the head and mix only the rest. *)
let record_head_hi salt local = mix1 0x510E527F (pack salt local)
let record_head_lo salt local = mix2 0x1F83D9AB (pack salt local)

let record_rest_hi head next_op chain ops flags =
  mix1 (mix1 head (pack (chain + 1) next_op)) (pack flags ops)

let record_rest_lo head next_op chain ops flags =
  mix2 (mix2 head (pack (chain + 1) next_op)) (pack flags ops)

let record_hi salt local next_op chain ops flags =
  record_rest_hi (record_head_hi salt local) next_op chain ops flags

let record_lo salt local next_op chain ops flags =
  record_rest_lo (record_head_lo salt local) next_op chain ops flags

(* A sleeping process's term is one more round over its awake term, so the
   sleep bit is a per-process adjustment of the sum: the awake term is kept
   on the engine's undo path and a probe swaps it for this one. *)
let asleep_hi t = mix1 t 0x9B05688C
let asleep_lo t = mix2 t 0x5BE0CD19

let budget_hi c r g = mix1 (mix1 (mix1 0x6C62272E c) r) g
let budget_lo c r g = mix2 (mix2 (mix2 0x07B0A03D c) r) g

let tail_hi events tracker = mix1 (mix1 0x243F6A88 events) tracker
let tail_lo events tracker = mix2 (mix2 0x13198A2E events) tracker

(* 62-bit string hash used as the checkpoint body digest: two lanes folded
   together. One pass, no allocation, ~6x faster than MD5 on
   checkpoint-sized bodies and with 62 bits still far stronger than needed
   to catch truncation/corruption of a text file. Checkpoints store it, so
   its values must never change. *)
let hash_string s =
  let h1 = ref (mix1 0x9E3779B9 (String.length s)) in
  let h2 = ref (mix2 0x85EBCA6B (String.length s)) in
  String.iter
    (fun c ->
      let b = Char.code c in
      h1 := mix1 !h1 b;
      h2 := mix2 !h2 b)
    s;
  (!h1 lxor (!h2 lsr 7)) land max_int

(* --- open-addressing fingerprint set -----------------------------------------

   Two parallel int arrays (hi lane, lo lane), power-of-two capacity, linear
   probing in Robin Hood order (Celis–Larson–Munro, FOCS '85), grown past
   7/8 load, the maximum load of SwissTable and hashbrown. The slot ⟨0, 0⟩
   marks "empty"; a real fingerprint landing on exactly ⟨0, 0⟩ (probability
   2^-124) is remapped to ⟨0, 1⟩, which merely aliases two astronomically
   unlikely keys. Compared with [Hashtbl] over boxed keys this stores no key
   objects, no buckets and no list cells — 16-byte slots, so 16 to 37 bytes
   per entry as the load runs from 7/8 down to 7/16 after a doubling. A
   probe reads slot i of each lane: two reads at the same index of two
   separate arrays, so usually two cache lines. Interleaving both lanes in
   one array was measured and gained nothing beyond noise (EXPERIMENTS.md,
   "an id-keyed linearizability tracker").

   Robin Hood order. A key's home is [lo land mask], and its distance in
   slot i is [(i - home) land mask]. Every key lies at or after its home
   with no empty slot in between, and every key it passed on the way sits
   at least as far from its own home as the probe had walked, so along a
   run the homes never decrease. A probe therefore stops at the first slot
   that is empty or whose entry sits closer to its home than the probe has
   walked: the key would have been placed there. Over the benchmark
   workloads' probes, plain linear probing at 7/8 load reads 1.18 to 5.06
   slots per probe; the early stop holds that to 1.13 to 2.16, against 1.12
   to 1.61 at half load (EXPERIMENTS.md, "A dense dedup table"). On a miss
   the key takes the slot the probe stopped at and the entries from there
   to the next empty slot move up one slot each, which keeps the order:
   exactly one slot, the run's end, becomes occupied.

   A table may be capped ([limit]): where it would grow past the cap it is
   emptied instead. Forgetting a state only costs revisiting it (state-space
   caching, Godefroid–Holzmann–Pirottin, CAV '92), so a capped table's
   answers stay exact: [true] still means "seen". The cap is checked in the
   branch that already decides to grow, so a probe pays nothing for it. *)
module Table = struct
  type t = {
    mutable hi : int array;
    mutable lo : int array;
    mutable mask : int;  (* capacity - 1 *)
    mutable count : int;
    mutable log : Bytes.t;
        (* while [count] fits, the [k]th 16-bit entry, [k < count], is the
           slot the [k]th entry since the last reset made occupied *)
    mutable max_cap : int;  (* a power of two, or [max_int]: no cap *)
    mutable flushes : int;  (* emptied at the cap since the last [limit] *)
  }

  let default_capacity_log2 = 10

  (* Half the capacity in a default-sized table (1 KiB: 512 of the 896
     entries it takes), an eighth in a larger one of at most 2^16 slots
     (whose indices 16 bits hold), none above: at most 8192 entries
     (16 KiB), 1/64 of what the lanes take. A run that overflows a large
     table's log left it at least 1/8 full, and clearing the whole of it
     with a plain loop costs about what clearing from a log would; in the
     default table the log still wins up to half full (an eighth measured
     1-2% slower on [verify], whose runs mostly fit that table). [grow]
     re-logs the entries while they fit the new capacity's log; past the
     default size they never do, since a run that grows a table has 7/16
     of the new capacity in entries, so a large table's log serves runs in
     a table an earlier run grew. *)
  let log_length cap =
    if cap <= 1 lsl default_capacity_log2 then cap / 2
    else if cap <= 1 lsl 16 then cap / 8
    else 0
  let make_log cap = Bytes.create (2 * log_length cap)
  let[@inline] logged t = Bytes.length t.log lsr 1

  let create ?(capacity_log2 = default_capacity_log2) () =
    let cap = 1 lsl capacity_log2 in
    {
      hi = Array.make cap 0;
      lo = Array.make cap 0;
      mask = cap - 1;
      count = 0;
      log = make_log cap;
      max_cap = max_int;
      flushes = 0;
    }

  let length t = t.count
  let capacity t = t.mask + 1
  let flushes t = t.flushes

  (* Swap in a default-sized table's lanes and log, empty. *)
  let shrink t =
    let d = create () in
    t.hi <- d.hi;
    t.lo <- d.lo;
    t.mask <- d.mask;
    t.log <- d.log;
    t.count <- 0

  (* The largest power of two of 16-byte slots in [mb] MiB, and never
     below the default capacity. *)
  let cap_of_mib mb =
    let slots = min (max mb 0) (1 lsl 40) * ((1 lsl 20) / 16) in
    let c = ref (1 lsl default_capacity_log2) in
    while 2 * !c <= slots do
      c := 2 * !c
    done;
    !c

  let limit t mem_budget_mb =
    t.max_cap <- Option.fold ~none:max_int ~some:cap_of_mib mem_budget_mb;
    t.flushes <- 0;
    if capacity t > t.max_cap then shrink t

  (* A run that fit the log clears the slots it filled; one that overflowed
     it clears the whole table. A table of over 16 slots per entry of its
     last run is replaced by a default-sized one, with a default-sized log,
     instead. The whole-table clear is a loop of stores: [Array.fill]
     checks every old value for the write barrier and costs about 10x as
     much on a table whose slots are a random mix of empty and full. *)
  let reset t =
    let cap = capacity t in
    if cap > 1 lsl default_capacity_log2 && cap > 16 * t.count then shrink t
    else if t.count <= logged t then
      for k = 0 to t.count - 1 do
        let i = Bytes.get_uint16_le t.log (2 * k) in
        Array.unsafe_set t.hi i 0;
        Array.unsafe_set t.lo i 0
      done
    else begin
      let hi = t.hi and lo = t.lo in
      for i = 0 to cap - 1 do
        Array.unsafe_set hi i 0;
        Array.unsafe_set lo i 0
      done
    end;
    t.count <- 0

  (* The lo lane a key is stored under: ⟨0, 0⟩ becomes ⟨0, 1⟩. *)
  let[@inline] remap_lo ~hi ~lo = if hi = 0 && lo = 0 then 1 else lo

  (* Insert into [hi]/[lo] by plain linear probing, assuming the key is
     absent and there is room; the slot it took. *)
  let insert_fresh hi lo mask h l =
    let i = ref (l land mask) in
    while Array.unsafe_get lo !i <> 0 || Array.unsafe_get hi !i <> 0 do
      i := (!i + 1) land mask
    done;
    Array.unsafe_set hi !i h;
    Array.unsafe_set lo !i l;
    !i

  (* Double the capacity. Entries are re-inserted by [insert_fresh],
     taken in slot order from an empty slot onwards: no run crosses an
     empty slot, so that order visits every run's homes in nondecreasing
     order, a key's new home is its old one or the old one plus the old
     capacity, and a run of the new table, shorter than the old capacity,
     receives its keys in nondecreasing home order too. Appending each at
     the first empty slot from its home then leaves the new table in Robin
     Hood order with no displacement. Starting at slot 0 instead would
     break the order wherever a run wraps past the last slot. *)
  let grow t =
    let cap = capacity t * 2 in
    let hi = Array.make cap 0 and lo = Array.make cap 0 in
    let mask = cap - 1 in
    let log = make_log cap in
    let relog = t.count <= log_length cap in
    let ohi = t.hi and olo = t.lo and omask = t.mask in
    let s = ref 0 in
    while Array.unsafe_get olo !s <> 0 || Array.unsafe_get ohi !s <> 0 do
      incr s
    done;
    let k = ref 0 in
    for n = 1 to omask + 1 do
      let i = (!s + n) land omask in
      let h = Array.unsafe_get ohi i and l = Array.unsafe_get olo i in
      if h <> 0 || l <> 0 then begin
        let j = insert_fresh hi lo mask h l in
        if relog then Bytes.set_uint16_le log (2 * !k) j;
        incr k
      end
    done;
    t.hi <- hi;
    t.lo <- lo;
    t.mask <- mask;
    t.log <- log

  (* The one hot-path operation: membership probe that records the key on a
     miss. Returns [true] when the fingerprint was already present. A hit
     costs what it cost under plain linear probing: the key compare comes
     first, and an entry's distance is computed only once it fails. Past
     7/8 load the table grows, or, at its cap, is emptied. *)
  let mem_or_add t ~hi ~lo =
    let h = hi and l = remap_lo ~hi ~lo in
    let mask = t.mask in
    let thi = t.hi and tlo = t.lo in
    let home = l land mask in
    let i = ref home in
    (* 0: probing; 1: found; 2: absent, slot [!i] is empty; 3: absent, the
       entry in slot [!i] sits closer to its home than the probe walked *)
    let state = ref 0 in
    while !state = 0 do
      let sl = Array.unsafe_get tlo !i in
      if sl = l && Array.unsafe_get thi !i = h then state := 1
      else if sl = 0 && Array.unsafe_get thi !i = 0 then state := 2
      else if (!i - sl) land mask < (!i - home) land mask then state := 3
      else i := (!i + 1) land mask
    done;
    if !state >= 2 then begin
      if !state = 2 then begin
        Array.unsafe_set thi !i h;
        Array.unsafe_set tlo !i l
      end
      else begin
        (* Shift the run from [!i] up one slot, carrying each entry into
           the next slot, until an empty slot is picked up: that one is the
           slot this miss made occupied. *)
        let ch = ref h and cl = ref l in
        while !cl <> 0 || !ch <> 0 do
          let rh = Array.unsafe_get thi !i and rl = Array.unsafe_get tlo !i in
          Array.unsafe_set thi !i !ch;
          Array.unsafe_set tlo !i !cl;
          ch := rh;
          cl := rl;
          i := (!i + 1) land mask
        done;
        i := (!i - 1) land mask
      end;
      let n = t.count in
      if n < logged t then Bytes.set_uint16_le t.log (2 * n) !i;
      t.count <- n + 1;
      (* past 7/8 of [capacity - 1] keys: a table of 1,024 slots holds 896,
         and even the smallest keeps a slot empty, which ends every run *)
      if 8 * t.count > 7 * mask then
        if capacity t >= t.max_cap then begin
          reset t;
          t.flushes <- t.flushes + 1
        end
        else grow t
    end;
    !state = 1
end
