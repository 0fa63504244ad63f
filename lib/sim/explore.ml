open Wfc_spec
open Wfc_program

type options = Checkpoint.engine = { dedup : bool; por : bool }

let naive = { dedup = false; por = false }
let fast = { dedup = true; por = true }

type partial_reason =
  | Budget_exhausted
  | Deadline_exceeded
  | Stopped
  | Interrupted

type completeness = Exhaustive | Partial of partial_reason

let pp_partial_reason ppf = function
  | Budget_exhausted -> Fmt.string ppf "node budget exhausted"
  | Deadline_exceeded -> Fmt.string ppf "deadline exceeded"
  | Stopped -> Fmt.string ppf "stopped by a callback"
  | Interrupted -> Fmt.string ppf "interrupted"

let pp_completeness ppf = function
  | Exhaustive -> Fmt.string ppf "exhaustive"
  | Partial r -> Fmt.pf ppf "partial (%a)" pp_partial_reason r

type stats = {
  leaves : int;
  nodes : int;
  max_events : int;
  max_op_steps : int;
  max_accesses : int array;
  overflows : int;
  pruned : int;
  sleep_skips : int;
  evictions : int;
  completeness : completeness;
  overflow_trace : Faults.trace option;
  remainder : Checkpoint.t option;
}

let default_fuel = 10_000

let to_exec_stats s =
  {
    Exec.leaves = s.leaves;
    nodes = s.nodes;
    max_events = s.max_events;
    max_op_steps = s.max_op_steps;
    max_accesses = s.max_accesses;
    overflows = s.overflows;
  }

(* --- path trackers ----------------------------------------------------------

   A tracker threads caller state down the tree, advanced at every edge that
   completes an operation or crashes/wedges a process. The state is
   persistent, so sibling subtrees share the value computed along their
   common prefix — this is what the incremental linearizability engine fuses
   into. Trackers observe completion order and pending sets, never raw
   timestamps; see the .mli for why that makes POR sound here. *)

type path_event =
  | Op_completed of { op : Exec.op; pending : (int * Value.t) list }
  | Proc_crashed of int
  | Proc_wedged of int

type 'a tracker = {
  root : 'a;
  event : 'a -> trace_rev:Faults.trace -> path_event -> 'a;
  at_leaf : 'a -> trace_rev:Faults.trace -> Exec.leaf -> unit;
  fingerprint : 'a -> int;
}

(* run is monomorphic in its result, so the caller's state type is hidden
   behind an existential and the engine below is written once, generically. *)
type etracker = Tracker : 'a tracker -> etracker

let null_tracker =
  {
    root = ();
    event = (fun () ~trace_rev:_ _ -> ());
    at_leaf = (fun () ~trace_rev:_ _ -> ());
    fingerprint = (fun () -> 0);
  }

(* --- process-symmetry reduction ---------------------------------------------

   Two configurations that differ only by a permutation π of interchangeable
   processes have π-isomorphic subtrees: every schedule of one is a schedule
   of the other with pids renamed, and every verdict predicate we run
   (agreement, validity, wait-freedom fuel, per-object access bounds) is
   invariant under renaming processes *within a class of equal inputs*. So
   instead of exploring both, we canonicalize the dedup KEY — never the
   configuration itself — by salting each process's record term with its
   class representative instead of its pid, so the key's process sum sees
   each class's records as a multiset. Exploration always proceeds
   on real configurations, so traces, witnesses and leaves are reported in
   un-permuted pids; symmetry only makes the dedup table coarser, which
   composes with sleep sets exactly like plain dedup does (the sleep bits
   are canonicalized along with the process components).

   Interchangeability is DECLARED ([Implementation.symmetric] promises the
   program text never inspects [proc]) and then narrowed here: every base
   spec must be port-oblivious, and only processes with equal workloads and
   equal initial local states fall in one class. Trackers thread caller
   state whose pid-equivariance we cannot see, so a user tracker disables
   the reduction (the engine falls back to exact, pid-ordered keys). *)

module Symmetry = struct
  (* [classes.(p)] is the smallest pid interchangeable with [p]; a process
     in no nontrivial class is its own representative. *)
  type t = { classes : int array }

  let classes g = g.classes

  let group_order g =
    let n = Array.length g.classes in
    let size = Array.make n 0 in
    Array.iter (fun r -> size.(r) <- size.(r) + 1) g.classes;
    let fact k =
      let rec go acc i = if i <= 1 then acc else go (acc * i) (i - 1) in
      go 1 k
    in
    Array.fold_left (fun acc s -> if s > 1 then acc * fact s else acc) 1 size

  let of_impl (impl : Implementation.t) ~(workloads : Value.t list array) =
    if not impl.Implementation.symmetric then None
    else if
      Array.exists
        (fun (spec, _) -> not spec.Type_spec.oblivious)
        impl.Implementation.objects
    then None
    else begin
      let n = Array.length workloads in
      let classes = Array.init n Fun.id in
      for p = 1 to n - 1 do
        let rec find q =
          if q >= p then p
          else if
            classes.(q) = q
            && List.equal Value.equal workloads.(q) workloads.(p)
            && Value.equal
                 (impl.Implementation.local_init q)
                 (impl.Implementation.local_init p)
          then q
          else find (q + 1)
        in
        classes.(p) <- find 0
      done;
      let nontrivial = ref false in
      Array.iteri (fun p r -> if r <> p then nontrivial := true) classes;
      if !nontrivial then Some { classes } else None
    end
end

(* --- interned, incremental fingerprints --------------------------------------

   Every component of the dedup key is an id of the implementation's
   [Value.Intern] state or a number that stands for one: a cell's id for a
   value, an [I.tuple] id for an ordered pair of ids, an object's state
   number in its [Step_table] and a local's number in the program table
   ([Intern.Numbering]). The key is therefore a handful of integers (see
   "flat fingerprint encoding" below) instead of a deep [Value.t] walked by
   [Value.hash]/[Value.equal].

   The ids are maintained *incrementally* along tree edges, and each edge
   pays for what it changed, not for the size of what it touched:

   - A process is keyed by its local's number and [next_op], the pending
     operation's response chain (responses so far, newest first) and the
     chain of its completed operations ⟨op_index, ⟨resp, steps⟩⟩. The
     local's number is what the kernel holds: the program table numbered
     it when the row that returned it was compiled. Chains are [I.tuple]s,
     so no list is built to hold their ids. A response chain is a function
     of the program node the operation has reached, and a ⟨resp, steps⟩
     entry of the [Return] node it ended at, so the program table makes
     both once, with the node's entry: an access interns nothing, and a
     completion conses ⟨op_index, entry⟩ onto the process's chain, two
     tuples, which allocate nothing when met before. No edge writes a boxed
     value into the configuration's arrays.

   - No workload value enters the key. A process's remaining operations
     are its workload's suffix from [next_op] (plus one when an operation is
     pending), the pending operation is the workload's entry at [next_op],
     and a completed operation's invocation is the entry at its op_index.
     The key holds [next_op] and whether an operation is pending, and the
     workload is fixed for the run, so the todo list, the pending
     invocation and each completed op's invocation are functions of what
     the key already holds for that pid. Under symmetry the record is
     salted by its class representative instead of the pid, and
     {!Symmetry.of_impl} puts two pids in one class only when their
     workloads are equal, so the same holds for every member of a class.

   - Objects and processes each contribute one cached term per lane to an
     additive sum, so an access replaces terms instead of re-hashing every
     component.

   The kernel keeps these ids and terms in int arrays next to the
   configuration and restores them on backtrack.

   Per-process components deliberately exclude the pid itself (the record
   term's salt carries it; under symmetry, the class representative), and a
   process's completed operations form a chain extended by one tuple when
   an edge retires an operation — completion order across processes never
   enters the key. *)

module I = Value.Intern
module Imap = Value.Imap

(* --- the program table --------------------------------------------------------

   A compiled context's programs, held as ids. A node id names a program
   node met through the table. The node itself gives an [Invoke]'s object,
   invocation and continuation; an [Invoke] entry also holds its
   invocation's cell and its response chain (the responses that led to it
   from its top, newest first, as an [I.tuple] chain; a top's is [unit]),
   and a [Return] entry its result's cell, its local's number and the
   key's ⟨result cell id, steps⟩ tuple, steps being its depth below its
   top: all made when the entry is made. An entry has one parent row, so
   its chain and depth are functions of its id. A local
   is numbered once ([Intern.Numbering]), and its number gives the value
   back by an array load, the way an object's state number does in its
   step table. A row ⟨node id, response cell id⟩ gives the successor's
   node id, and a top ⟨pid, invocation cell id, local number⟩ the node a
   fresh operation starts at; an object's step table keys its rows on the
   invocation cell too, so every node that invokes an equal invocation
   shares one step row. Programs are deterministic functions of ⟨pid, invocation,
   local⟩ and continuations of their response, so a row is made once and
   reused by every later visit, of any run of the implementation. A program
   or continuation that raises makes no row, so its [Bad_step] or
   [Type_error] surfaces again on every visit, as in {!Exec}. The kernel
   holds a program position as its node id and a local as its number: an
   edge whose rows are compiled looks up ints and interns nothing. *)

module Ptable = struct
  type node = (Value.t * Value.t) Program.t

  type t = {
    ist : I.state;
    mutable nodes : node array;
    mutable cell : I.cell array;
        (* an [Invoke]'s invocation, a [Return]'s result *)
    mutable loc : int array;  (* a [Return]'s local, as its number *)
    mutable chain : int array;
        (* an [Invoke]'s response chain id, a [Return]'s ⟨result, steps⟩ id *)
    mutable steps : int array;  (* depth below the entry's top *)
    mutable n : int;
    rows : Imap.t;  (* ⟨node id, response cell id⟩ → node id *)
    tops : Imap.t array;  (* per pid: ⟨invocation id, local⟩ → node id *)
    locals : I.Numbering.t;  (* every local met, numbered *)
  }

  let dummy : node = Program.Return (Value.unit, Value.unit)

  let create ist ~n_procs =
    {
      ist;
      nodes = Array.make 64 dummy;
      cell = Array.make 64 (I.unit ist);
      loc = Array.make 64 0;
      chain = Array.make 64 0;
      steps = Array.make 64 0;
      n = 0;
      rows = Imap.create 64;
      tops = Array.init n_procs (fun _ -> Imap.create 64);
      locals = I.Numbering.create ();
    }

  (* A local's number, which the kernel holds: the value comes back from it
     by one array load, the way an object's state does from its table. *)
  let local_id pt v = I.Numbering.number pt.locals (I.intern pt.ist v)
  let local_value pt k = I.value (I.Numbering.cell pt.locals k)

  let grow pt =
    let cap = 2 * pt.n in
    let extend a fill =
      Array.init cap (fun i -> if i < pt.n then a.(i) else fill)
    in
    pt.nodes <- extend pt.nodes dummy;
    pt.cell <- extend pt.cell (I.unit pt.ist);
    pt.loc <- extend pt.loc 0;
    pt.chain <- extend pt.chain 0;
    pt.steps <- extend pt.steps 0

  (* A fresh entry for [node], [steps] below its top, reached over the
     response chain [chain]. *)
  let add pt node ~steps ~chain =
    if pt.n = Array.length pt.nodes then grow pt;
    let id = pt.n in
    pt.nodes.(id) <- node;
    pt.steps.(id) <- steps;
    (match node with
    | Program.Return (res, local) ->
      let rc = I.intern pt.ist res in
      pt.cell.(id) <- rc;
      pt.loc.(id) <- local_id pt local;
      pt.chain.(id) <- I.tuple pt.ist (I.id rc) steps
    | Program.Invoke { inv; _ } ->
      pt.cell.(id) <- I.intern pt.ist inv;
      pt.chain.(id) <- chain);
    pt.n <- id + 1;
    id

  let node pt id = Array.unsafe_get pt.nodes id
  let cell pt id = Array.unsafe_get pt.cell id
  let loc pt id = Array.unsafe_get pt.loc id
  let chain pt id = Array.unsafe_get pt.chain id
  let steps pt id = Array.unsafe_get pt.steps id

  (* The successor of [Invoke] entry [id] on response cell [rc]. *)
  let succ pt id rc =
    let s = Imap.find pt.rows id (I.id rc) in
    if s >= 0 then s
    else
      match node pt id with
      | Program.Return _ -> invalid_arg "Ptable.succ: Return has no continuation"
      | Program.Invoke { k; _ } ->
        let s =
          add pt (k (I.value rc))
            ~steps:(steps pt id + 1)
            ~chain:(I.tuple pt.ist (I.id rc) (chain pt id))
        in
        Imap.add pt.rows id (I.id rc) s;
        s

  (* The node [p] starts the operation [inv] (cell id [inv_id]) at, from
     local [local] (a local number). *)
  let top pt (impl : Implementation.t) p ~inv ~inv_id ~local =
    let tops = Array.unsafe_get pt.tops p in
    let s = Imap.find tops inv_id local in
    if s >= 0 then s
    else begin
      let s =
        add pt
          (impl.Implementation.program ~proc:p ~inv (local_value pt local))
          ~steps:0 ~chain:(I.id (I.unit pt.ist))
      in
      Imap.add tops inv_id local s;
      s
    end
end

(* --- graceful degradation ----------------------------------------------------

   [budget] (configurations visited) and [deadline] (absolute wall clock)
   cut the whole exploration rather than a single path: an exceeded limit
   raises [Cut] with the path to the node it was met at, records why, and
   the final stats carry [completeness = Partial _] — "not falsified within
   budget" instead of a verdict — and the remainder of the cut. *)

exception Cut of Faults.trace  (* the path to the cut node, most recent first *)

type limiter = {
  budget : int ref option;  (* remaining visits *)
  deadline : float option;  (* absolute, Monotime scale *)
  interrupt : bool Atomic.t option;  (* e.g. set by a SIGINT handler *)
  mutable tripped : partial_reason option;
  active : bool;
}

let make_limiter ?budget ?deadline_s ?interrupt () =
  let budget = Option.map ref budget in
  let deadline = Option.map (fun s -> Monotime.now () +. s) deadline_s in
  {
    budget;
    deadline;
    interrupt;
    tripped = None;
    active =
      Option.is_some budget || Option.is_some deadline
      || Option.is_some interrupt;
  }

let trip lim reason = if lim.tripped = None then lim.tripped <- Some reason

(* Spend one visit; [true] when a limit is exceeded, which is recorded. *)
let out_of_limits lim =
  let reason =
    match lim.interrupt with
    | Some flag when Atomic.get flag -> Some Interrupted
    | _ -> (
      match lim.deadline with
      | Some t when Monotime.now () > t -> Some Deadline_exceeded
      | _ -> (
        match lim.budget with
        | Some b ->
          let left = !b in
          b := left - 1;
          if left <= 0 then Some Budget_exhausted else None
        | None -> None))
  in
  match reason with
  | None -> false
  | Some r ->
    trip lim r;
    true

(* --- the engine -------------------------------------------------------------- *)

type counters = {
  mutable leaves : int;
  mutable nodes : int;
  mutable max_events : int;
  mutable max_op_steps : int;
  max_accesses : int array;
  mutable overflows : int;
  mutable pruned : int;
  mutable sleep_skips : int;
  mutable evictions : int;
  mutable overflow_trace : Faults.trace option;
}

let fresh_counters n_objs =
  {
    leaves = 0;
    nodes = 0;
    max_events = 0;
    max_op_steps = 0;
    max_accesses = Array.make n_objs 0;
    overflows = 0;
    pruned = 0;
    sleep_skips = 0;
    evictions = 0;
    overflow_trace = None;
  }

(* Stitch in the accumulated counts of previously checkpointed segments, so
   the stats a resumed run reports cover the whole search, not just the
   last segment. *)
let add_counts (a : counters) (k : Checkpoint.counts) =
  a.leaves <- a.leaves + k.Checkpoint.leaves;
  a.nodes <- a.nodes + k.nodes;
  if k.max_events > a.max_events then a.max_events <- k.max_events;
  if k.max_op_steps > a.max_op_steps then a.max_op_steps <- k.max_op_steps;
  Array.iteri
    (fun i v ->
      if i < Array.length a.max_accesses && v > a.max_accesses.(i) then
        a.max_accesses.(i) <- v)
    k.max_accesses;
  a.overflows <- a.overflows + k.overflows;
  a.pruned <- a.pruned + k.pruned;
  a.sleep_skips <- a.sleep_skips + k.sleep_skips;
  a.evictions <- a.evictions + k.evictions

let engine_of_options (o : options) : Checkpoint.engine = o

(* --- flat fingerprint encoding -----------------------------------------------

   The dedup key deliberately drops the timing fields ([started],
   [start_step]/[end_step]) so that interleavings converging to the same
   configuration merge; it keeps everything a timing-insensitive leaf
   predicate can observe: object states, per-process control (workload
   position [next_op], whether an operation is pending and its responses so
   far, local state), completed operations' results and step counts — the
   workload positions stand for the invocations (see "interned, incremental
   fingerprints" above) — the fault bookkeeping
   (crashed/stuck flags, remaining budgets, staleness histories), and the
   event/access totals (which also makes fuel and max-accesses accounting
   exact — states at different depths never merge). The active sleep set is
   part of the key: combining sleep sets with state caching is only sound
   when a cached state was explored under the same (or smaller) sleep set,
   and keying on the exact set is the simple sound choice. Completed
   operations enter per process, in ⟨proc, op_index⟩ order, not completion
   order: schedules that completed the same operations with the same values
   merge even when they retired them in a different order — completion
   order is already outside the engine's soundness envelope.

   The key is a ⟨hi, lo⟩ 124-bit {!Wfc_spec.Fingerprint}, probed in an
   open-addressing table: no boxed key, no bucket, no structural equality,
   and nothing added to the intern state per probe. Each lane is a sum of
   terms the kernel keeps current on its undo path, masked non-negative:

     obj sum + proc sum + budget term + tail(events, tracker id or -1)

   The object sum adds one position-salted term per object over ⟨state
   number, history id, access count⟩ ({!Fingerprint.component_hi}); an
   access replaces its object's term. The process sum adds one term per
   process over the record ⟨local, next_op, chain, completed ops, flags⟩
   ({!Fingerprint.record_hi}): the local's number, the workload position,
   the response chain or -1 when nothing is pending, and flags the crashed
   and stuck bits. A chain id is non-negative exactly when an operation is
   pending, so the record still says whether one is. Its salt is the
   process's symmetry-class representative (its pid without classes), so
   each class's records enter as a multiset and canonicalization needs no
   sort. Every edge that changes a record sets that process's term and
   restores it on backtrack. The sleep bit is a per-process adjustment made
   by the probe: a process in the sleep set contributes
   {!Fingerprint.asleep_hi} of its term instead of the term. The budget term
   over ⟨crashes, recoveries, glitches left⟩ lives on the undo path too,
   mixed again only on the edges that spend a budget, and the tail term
   comes from a per-depth table tagged with the tracker id it was mixed
   for, so a probe adds a few cached ints, plus one round per sleeping
   process, and allocates nothing. Each term packs two 31-bit fields per
   mixer round (see {!Fingerprint}), so an object term costs two rounds per
   lane and a record three; a process's first round ⟨salt, local⟩, its
   record's head, is kept and mixed again only when its local changes, so
   an edge mixes two. [run] refuses a fuel that would let an access count or [next_op]
   outgrow its field.

   Ids are unique within the owning intern state, so records are equal iff
   their components are equal values. All parts are Zobrist-style sums:
   hash compaction, treated as negligible (≈2^-64 collision risk at 10^9
   states). *)

(* One table per domain, lent to one run at a time by the rule of the
   kernel's [mut_state] pool and returned reset, so a verify over hundreds
   of vectors allocates it once. One slot, not one per implementation,
   keeps finished runs' tables from staying alive. *)
let table_pool : Fingerprint.Table.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Per-run duplicate-state machinery. The kernel keeps the key's ids and
   terms current from the root, but probes only once the run has visited
   [threshold] nodes; the table is taken at the first probe and capped at
   the run's memory budget ({!Fingerprint.Table.limit}). States visited
   before that are never cached, which is sound (pruning only ever happens
   on a hit). *)
type dedup_ctx = {
  threshold : int;
  salts : int array;  (* per pid: its class representative, or itself *)
  mem_budget_mb : int option;
  mutable table : Fingerprint.Table.t option;
}

(* The run's table, taken from the pool (or made) on first use. *)
let table_of dd =
  match dd.table with
  | Some tbl -> tbl
  | None ->
    let pool = Domain.DLS.get table_pool in
    let tbl =
      match !pool with
      | Some tbl ->
        pool := None;
        tbl
      | None -> Fingerprint.Table.create ()
    in
    Fingerprint.Table.limit tbl dd.mem_budget_mb;
    dd.table <- Some tbl;
    tbl

(* The times the run's table was emptied at its cap so far. *)
let flushes (dd : dedup_ctx option) =
  match dd with
  | Some { table = Some tbl; _ } -> Fingerprint.Table.flushes tbl
  | _ -> 0

(* Count a finished run's flushes as evictions and return its table to
   the pool, emptied. *)
let table_release c (dd : dedup_ctx option) =
  c.evictions <- c.evictions + flushes dd;
  match dd with
  | Some { table = Some tbl; _ } ->
    Fingerprint.Table.reset tbl;
    Domain.DLS.get table_pool := Some tbl
  | _ -> ()

let stats_of ?remainder c ~lim =
  {
    leaves = c.leaves;
    nodes = c.nodes;
    max_events = c.max_events;
    max_op_steps = c.max_op_steps;
    max_accesses = c.max_accesses;
    overflows = c.overflows;
    pruned = c.pruned;
    sleep_skips = c.sleep_skips;
    evictions = c.evictions;
    completeness =
      (match lim.tripped with
      | Some reason -> Partial reason
      | None -> Exhaustive);
    overflow_trace = c.overflow_trace;
    remainder;
  }

let counts_of_stats (s : stats) =
  {
    Checkpoint.leaves = s.leaves;
    nodes = s.nodes;
    max_events = s.max_events;
    max_op_steps = s.max_op_steps;
    max_accesses = Array.copy s.max_accesses;
    overflows = s.overflows;
    pruned = s.pruned;
    sleep_skips = s.sleep_skips;
    evictions = s.evictions;
  }

(* The threshold only delays probing: the table is pooled per domain and
   the key is kept from the root, so a run below it saves table lookups and
   nothing else, and loses the pruning of the states it visits first. It
   stays because deleting it changes node counts, which belongs with a
   re-pin of the pinned tables (the ROADMAP item "Delete the lazy dedup
   threshold"). The "dedup threshold is lazy" test (test/test_explore.ml)
   checks that a tiny tree never probes. *)
let default_dedup_threshold = 64

(* --- the kernel ---------------------------------------------------------------

   The one traversal. It walks the execution tree of {!Exec.explore} —
   scheduler choices, nondeterministic base-object responses and, under a
   fault adversary, crashes, recoveries, read glitches and wedges — in the
   same order: at each node, for each enabled process in pid order, its step
   children (or one wedge child when a derailing adversary pushed it off its
   envelope), then its glitches, then its crash; recoveries of crashed
   processes come last. A configuration with no enabled process is a leaf,
   and still goes on to expand its recoveries.

   - Transitions come from [Step_table] rows — one per ⟨state, port,
     invocation⟩, found in a [Value.Imap] and compiled by running the
     interpreted spec once — so the hot path never re-applies spec
     closures. An object is its state number in its step table and a
     classified step its row number there, so no edge, restore or
     classification writes a pointer; every response
     a row hands out is the canonical representative of the intern state in
     the implementation's compiled context, which persists across runs.
     Values are rebuilt from numbers only where they are read: leaves with a
     consumer, glitch responses, stale-read histories, [Bad_step] messages
     and row misses. Programs advance through the context's program table
     (see "the program table"): a process's position is a node id and its
     local a local number, a row per ⟨node id, response cell id⟩ gives the
     next node, and a program closure runs, and the local it returns is
     numbered, at most once per row. Glitched responses are interned the
     same way.

   - There is one mutable configuration instead of a persistent copy-on-write
     fan-out. Each edge saves the handful of slots it is about to clobber in
     locals of the recursive step function, mutates in place, recurses, and
     restores — the OCaml call stack is the undo journal, so an edge
     allocates no configuration at all.

   - Duplicate-state fingerprints are the flat key of [probe] over the
     engine's own ids: per process its local's number, [next_op], the
     pending operation's response chain and the completed-ops id, per
     object ⟨state, history, access count⟩, each summarized by one cached
     term per lane. A process's todo list is its workload position, so no
     todo or invocation id exists (see "interned, incremental
     fingerprints"). An edge updates only what it changed — an access
     replaces its object's term and sets its process's term, over the
     response chain the program table holds for the node it reached; the
     local changes only when an operation returns, to the number its
     program-table row holds, and a crash, wedge or recovery sets only the
     process's term — and saves the old ids, terms and sums next to the
     configuration slots it restores. An edge mixes at most one object term
     and the rest of one process record per lane, and a probe sums cached
     ints, independent of the number of objects and processes and of how
     long the pending operations have run.
     With dedup on, the ids and terms are built at the root and every edge
     keeps them current, so there is no rebuild; probing starts once the
     run has visited [threshold] nodes. The tracker's fingerprint (an int
     the tracker computes) is passed down the recursion and asked for again
     only below an edge that changed the tracker state.

   - Classification. A process's classification (its node, and for an
     access its step row and object) is a function of its node, or of its
     [next_op] and local when it starts a fresh operation, and of its
     object's state. Each process keeps its last one that succeeded in a
     memo keyed on those, so a node whose expansion did not touch them
     looks it up, with POR (the prepass classifies every runnable process)
     and without (each process right before its expansion). Under a
     derailing adversary a classification enters the memo only once its
     [prestep] succeeded too, so a step that wedges is tried again at every
     visit. The memo is emptied at every kernel call: a fresh process's
     ⟨next_op, local⟩ names its top only within one call's workloads.

   - Prefixes and cuts. One call explores the subtree under a
     decision-trace prefix: the root's is empty, a resumed checkpoint's
     are its frontier. Every edge adds exactly one event, so a node's depth
     is [!events], and a node shallower than the prefix is a prefix node:
     [go] expands it as any other, in the same order, but enters only the
     child whose decision is the prefix's at that depth, and counts,
     probes, limit-checks and checkpoints nothing there; a prefix edge
     fires no tracker event. A prefix whose decision names no child of its
     node is not a path of the tree, and the call refuses it. A limit met
     at a node raises [Cut] with the path to it, and the remainder of the
     cut is derived afterwards by a second call in listing mode, with that
     path as its prefix: at each depth at or below [from] the children
     after the path's own child are listed instead of entered, and those
     skipped asleep are counted; at the path's end it stops. The sleep set
     is empty at the segment's first depth ([from] when listing, the prefix
     length when running) and at every prefix node above it, so the sleep
     sets along the path are the ones the cut run had. Nothing is recorded
     per edge for this: a run that is not cut pays a few tests per node. *)

(* Per-depth classification scratch as parallel arrays, pooled so the hot
   path never allocates a classification: [ck] is 0 for a program that
   returns without any base access, 1 for a base access continuing a pending
   operation, 2 for a base access starting a fresh one. *)
type cls = {
  ck : int array;
  cnode : int array;  (* node ids *)
  crow : int array;
      (* a row number in [cobj]'s step table, shifted left by 2, with the
         row's [det] bit at 1 and its [pure_read] bit at 2 *)
  cobj : int array;
}

let fresh_cls n_procs =
  {
    ck = Array.make n_procs 0;
    cnode = Array.make n_procs 0;
    crow = Array.make n_procs 0;
    cobj = Array.make n_procs 0;
  }

(* The kernel's entire mutable configuration as parallel arrays, pooled
   across calls (sizes are fixed per implementation): a call borrows the
   pool, re-initializes it to the root configuration, and returns it when
   it ends, by completion, cut or exception. A reentrant call (a leaf
   callback starting another exploration of the same implementation, or
   the listing call of a periodic save) finds the pool empty and
   allocates fresh.

   Each component is held once, as ints. An object is its state number in
   its step table and, when stale reads look back at it, its history's id
   (an [I.tuple] chain over state numbers, which [cc_hists] gives back). A
   process is its workload position [next_op], its local state as a local
   number and, while [haspend], its pending continuation as a program-table
   node id with its start event: its todo list is the run's workload from
   [next_op], its pending invocation is the workload's entry at [next_op],
   and its step count and response chain are its node's in the program
   table. Beside these sit the key's ids and terms, kept only under dedup,
   and the classification memo. *)
type mut_state = {
  ms_obj : int array;  (* state numbers in each object's step table *)
  ms_acc : int array;
  ms_next_op : int array;
  ms_local : int array;  (* local numbers of the program table *)
  ms_haspend : bool array;
  ms_started : int array;
  ms_node : int array;  (* program-table node ids *)
  ms_ops_ids : int array;
  ms_hist_ids : int array;  (* per object: its stale-read history *)
  ms_ohi : int array;  (* per object: its term in each lane of the key *)
  ms_olo : int array;
  ms_rhi : int array;  (* per process: its awake record's term, per lane *)
  ms_rlo : int array;
  ms_hhi : int array;
      (* per process: its record's head ⟨salt, local⟩, per lane
         ({!Fingerprint.record_head_hi}) *)
  ms_hlo : int array;
  mutable ms_tail_tid : int array;
      (* per depth: the tracker id its tail terms were mixed for *)
  mutable ms_tail_hi : int array;  (* per depth: {!Fingerprint.tail_hi} *)
  mutable ms_tail_lo : int array;
  mutable ms_cls : cls array;
      (* per-depth classification scratch; entries are only ever read for
         processes classified at the current node, so stale slots from a
         previous node at the same depth are never observed *)
  ms_memo : cls;  (* per process: its last classification that succeeded *)
  ms_mkey : int array;
      (* per process: the node id the memo was made at if pending, the
         [next_op] if fresh *)
  ms_mloc : int array;
      (* per process: -1 if the memo was made pending, the local number if
         fresh, -2 for no memo *)
  ms_mstate : int array;  (* per process: the memo's object's state *)
}

(* Per-implementation persistent compilation state: the intern state, the
   transition tables and the program table keyed on it, and the port map all
   survive across runs — a verify invocation that explores many workloads
   of one implementation compiles each row and program node once. Keyed on
   physical identity of the implementation record; a tiny LRU keeps
   unrelated implementations (e.g. property-test streams) from pinning each
   other's tables. The cache is domain-local because [run] may be called
   from any domain. *)
type compiled_ctx = {
  cc_impl : Implementation.t;
  cc_ist : I.state;
  cc_tables : Step_table.t array;  (* per base object, sharing [cc_ist] *)
  cc_ports : int array array;  (* [p].(obj): cached port_map, min_int = unset *)
  cc_prog : Ptable.t;
  cc_roots : int array;  (* the root states of [impl.objects], numbered *)
  cc_hists : (int, int list) Hashtbl.t;
      (* a history's id to its state numbers, newest first *)
  cc_decisions : Faults.decision array array;
      (* [p].(i), i < 8: preallocated step-decision records so trace conses
         don't allocate a fresh record and [Step] block per edge *)
  mutable cc_pool : mut_state option;
}

let compiled_cache : compiled_ctx list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let compiled_ctx_of impl =
  let cache = Domain.DLS.get compiled_cache in
  match List.find_opt (fun cc -> cc.cc_impl == impl) !cache with
  | Some cc -> cc
  | None ->
    let ist = I.create () in
    let n_procs = impl.Implementation.procs in
    let n_objs = Array.length impl.Implementation.objects in
    let tables =
      Array.map
        (fun (spec, _) -> Step_table.create ~ist spec)
        impl.Implementation.objects
    in
    let hists = Hashtbl.create 16 in
    Hashtbl.add hists (I.id (I.unit ist)) [];
    let cc =
      {
        cc_impl = impl;
        cc_ist = ist;
        cc_tables = tables;
        cc_ports = Array.init n_procs (fun _ -> Array.make n_objs min_int);
        cc_prog = Ptable.create ist ~n_procs;
        cc_roots =
          Array.mapi
            (fun o (_, q0) -> Step_table.state tables.(o) (I.intern ist q0))
            impl.Implementation.objects;
        cc_hists = hists;
        cc_decisions =
          Array.init n_procs (fun p ->
              Array.init 8 (fun i -> { Faults.proc = p; kind = Faults.Step i }));
        cc_pool = None;
      }
    in
    cache := cc :: List.filteri (fun i _ -> i < 3) !cache;
    cc

let compiled_rows impl =
  match
    List.find_opt
      (fun cc -> cc.cc_impl == impl)
      !(Domain.DLS.get compiled_cache)
  with
  | None -> (0, 0)
  | Some cc ->
    ( cc.cc_prog.Ptable.n,
      Array.fold_left (fun n t -> n + Step_table.compiled_rows t) 0 cc.cc_tables
    )

let fresh_mut_state ~n_objs ~n_procs =
  {
    ms_obj = Array.make n_objs 0;
    ms_acc = Array.make n_objs 0;
    ms_next_op = Array.make n_procs 0;
    ms_local = Array.make n_procs 0;
    ms_haspend = Array.make n_procs false;
    ms_started = Array.make n_procs 0;
    ms_node = Array.make n_procs 0;
    ms_ops_ids = Array.make n_procs 0;
    ms_hist_ids = Array.make n_objs 0;
    ms_ohi = Array.make n_objs 0;
    ms_olo = Array.make n_objs 0;
    ms_rhi = Array.make n_procs 0;
    ms_rlo = Array.make n_procs 0;
    ms_hhi = Array.make n_procs 0;
    ms_hlo = Array.make n_procs 0;
    ms_tail_tid = [||];
    ms_tail_hi = [||];
    ms_tail_lo = [||];
    ms_cls = [||];
    ms_memo = fresh_cls n_procs;
    ms_mkey = Array.make n_procs 0;
    ms_mloc = Array.make n_procs (-2);
    ms_mstate = Array.make n_procs 0;
  }

(* Make [ms]'s tail tables cover depth [ev]. Every slot holds the terms of
   the tracker id it is tagged with, so a new slot is mixed for id 0. *)
let grow_tails ms ev =
  let len = Array.length ms.ms_tail_tid in
  let len' = max (ev + 1) (max 64 (2 * len)) in
  let extend a f = Array.init len' (fun i -> if i < len then a.(i) else f i) in
  ms.ms_tail_hi <- extend ms.ms_tail_hi (fun i -> Fingerprint.tail_hi i 0);
  ms.ms_tail_lo <- extend ms.ms_tail_lo (fun i -> Fingerprint.tail_lo i 0);
  ms.ms_tail_tid <- extend ms.ms_tail_tid (fun _ -> 0)

(* Copy [p]'s classification from [src] to [dst]. *)
let copy_cls src dst p =
  Array.unsafe_set dst.ck p (Array.unsafe_get src.ck p);
  Array.unsafe_set dst.cnode p (Array.unsafe_get src.cnode p);
  Array.unsafe_set dst.crow p (Array.unsafe_get src.crow p);
  Array.unsafe_set dst.cobj p (Array.unsafe_get src.cobj p)

(* Lazy: [port_map] is only contractually total on the (proc, obj) pairs the
   programs actually reach, so it is consulted exactly where the reference
   semantics consults it. *)
let port_of cc p obj =
  let v = cc.cc_ports.(p).(obj) in
  if v <> min_int then v
  else begin
    let v = cc.cc_impl.Implementation.port_map ~proc:p ~obj in
    cc.cc_ports.(p).(obj) <- v;
    v
  end

(* Listing mode's question and answer: where the listed path's own subtree
   begins, and the siblings found below it. *)
type listing = {
  from : int;  (* depths below this belong to the subtree's own prefix *)
  mutable found : (int * Faults.trace) list;
      (* ⟨depth, path, most recent first⟩ of each sibling, latest first *)
  mutable skipped : int;  (* siblings after the path's own child, asleep *)
}

(* Every index the kernel's hot frames use is established by a loop bound
   ([0 .. n_procs-1]), by the pool-growth check in [cls_at], by the work
   mask (a process with work has [next_op] inside its workload), or by the
   bounds-checked [cc_tables.(obj)] load in [classify_into] (which
   validates a program node's object index before any unchecked use), so
   the kernel reads and writes arrays unchecked. A prefix decision is only
   compared with the children's, never used as an index. *)
let run_compiled impl ~wl ~(opts : options) ~(faults : Faults.t) ~fuel
    ~(dd : dedup_ctx option) ~lim ~t ~user_tracker ~want_leaf c ~emit_leaf
    ~on_node ~prefix ~(listing : listing option) =
  let cc = compiled_ctx_of impl in
  let ist = cc.cc_ist in
  let pt = cc.cc_prog in
  let tables = cc.cc_tables in
  let n_objs = Array.length cc.cc_roots in
  let n_procs = impl.Implementation.procs in
  let unit_id = I.id (I.unit ist) in
  let ms =
    match cc.cc_pool with
    | Some ms ->
      cc.cc_pool <- None;
      ms
    | None -> fresh_mut_state ~n_objs ~n_procs
  in
  let objs = ms.ms_obj
  and acc = ms.ms_acc
  and hist_ids = ms.ms_hist_ids
  and next_op = ms.ms_next_op
  and local = ms.ms_local
  and haspend = ms.ms_haspend
  and p_started = ms.ms_started
  and p_node = ms.ms_node in
  (* The root configuration; a pending slot is meaningful only while
     [haspend] is set, so stale ones may stay. *)
  for o = 0 to n_objs - 1 do
    objs.(o) <- cc.cc_roots.(o);
    acc.(o) <- 0;
    hist_ids.(o) <- unit_id
  done;
  for p = 0 to n_procs - 1 do
    next_op.(p) <- 0;
    local.(p) <- Ptable.local_id pt (impl.Implementation.local_init p);
    haspend.(p) <- false;
    (* a fresh process's ⟨next_op, local⟩ names its top only within this
       call's workloads *)
    ms.ms_mloc.(p) <- -2
  done;
  (* The workload's invocations as cell ids, for the program table's tops. *)
  let wl_ids = Array.map (Array.map (fun v -> I.id (I.intern ist v))) wl in
  (* [p]'s next operation, pending or not: its workload's entry at
     [next_op], which exists whenever [p] has work. *)
  let poised_inv p =
    Array.unsafe_get (Array.unsafe_get wl p) (Array.unsafe_get next_op p)
  in
  (* A pending operation sits at [next_op] too, so this covers it. *)
  let has_work p =
    Array.unsafe_get next_op p < Array.length (Array.unsafe_get wl p)
  in
  let events = ref 0 in
  let ops_rev = ref [] in
  (* Fault state: crashed and wedged processes as pid bitmasks, the
     adversary's remaining budgets, and per object how many overwritten
     states stale reads look back over (0: no history is kept). *)
  let crashed = ref 0 and stuck = ref 0 in
  let crashes_left = ref faults.Faults.max_crashes
  and recoveries_left = ref faults.Faults.max_recoveries
  and glitches_left = ref faults.Faults.max_glitches in
  let hist_depth = Array.init n_objs (Faults.stale_depth faults) in
  let derail = Faults.can_derail faults in
  let faulty = faults.Faults.max_glitches > 0 || faults.Faults.max_crashes > 0 in
  let plen = Array.length prefix in
  let listing_mode = Option.is_some listing in
  (* The segment's first depth: the sleep set is empty there and above. *)
  let seg = match listing with Some l -> l.from | None -> plen in
  (* [o]'s history after an access overwrote state [q]: [q] pushed onto
     the history [h], cut to the object's depth. A history's id is an
     [I.tuple] chain over its state numbers, and [cc_hists] gives the
     numbers back wherever the values are read. *)
  let hist_push o q h =
    let l =
      List.filteri
        (fun i _ -> i < Array.unsafe_get hist_depth o)
        (q :: Hashtbl.find cc.cc_hists h)
    in
    let id = List.fold_right (fun q h -> I.tuple ist q h) l unit_id in
    if not (Hashtbl.mem cc.cc_hists id) then Hashtbl.add cc.cc_hists id l;
    id
  in
  let hist_values o =
    List.map (Step_table.value tables.(o)) (Hashtbl.find cc.cc_hists hist_ids.(o))
  in
  (* Fingerprint ids and terms over the mutable state. With dedup on
     ([keyed]) the per-proc component ids and the key's terms and sums are
     built at the root and every edge keeps them current. *)
  let keyed = Option.is_some dd in
  let ops_ids = ms.ms_ops_ids in
  let ohi = ms.ms_ohi and olo = ms.ms_olo in
  let rhi = ms.ms_rhi and rlo = ms.ms_rlo in
  let hhi = ms.ms_hhi and hlo = ms.ms_hlo in
  let salts = match dd with Some dd -> dd.salts | None -> [||] in
  let sum_hi = ref 0 and sum_lo = ref 0 in
  let proc_hi = ref 0 and proc_lo = ref 0 in
  let cls_at depth =
    let pool = ms.ms_cls in
    if depth < Array.length pool then Array.unsafe_get pool depth
    else begin
      let len = Array.length pool in
      let pool' =
        Array.init
          (max (depth + 1) (max 8 (2 * len)))
          (fun i -> if i < len then pool.(i) else fresh_cls n_procs)
      in
      ms.ms_cls <- pool';
      pool'.(depth)
    end
  in
  let dec p i =
    if i < 8 then Array.unsafe_get (Array.unsafe_get cc.cc_decisions p) i
    else { Faults.proc = p; kind = Faults.Step i }
  in
  (* Make ⟨h, l⟩ [p]'s record term, moving the process sums by the change.
     An edge sets the term of the record it changed and, on backtrack, puts
     back the term it saved. *)
  let put_term p h l =
    proc_hi := !proc_hi - Array.unsafe_get rhi p + h;
    proc_lo := !proc_lo - Array.unsafe_get rlo p + l;
    Array.unsafe_set rhi p h;
    Array.unsafe_set rlo p l
  in
  (* [p]'s record head, mixed again only when its local changed: an edge
     that changes the local sets the head and, on backtrack, puts back the
     head it saved. *)
  let set_head p =
    let salt = Array.unsafe_get salts p and lid = Array.unsafe_get local p in
    Array.unsafe_set hhi p (Fingerprint.record_head_hi salt lid);
    Array.unsafe_set hlo p (Fingerprint.record_head_lo salt lid)
  in
  let set_term p =
    let nop = Array.unsafe_get next_op p
    and chain =
      if Array.unsafe_get haspend p then Ptable.chain pt (Array.unsafe_get p_node p)
      else -1
    and ops = Array.unsafe_get ops_ids p
    and flags = ((!crashed lsr p) land 1) lor (((!stuck lsr p) land 1) lsl 1) in
    put_term p
      (Fingerprint.record_rest_hi (Array.unsafe_get hhi p) nop chain ops flags)
      (Fingerprint.record_rest_lo (Array.unsafe_get hlo p) nop chain ops flags)
  in
  (* The key's ids and terms at the root: every history empty, no access
     made, no operation started. *)
  if keyed then begin
    for o = 0 to n_objs - 1 do
      let q = objs.(o) in
      ohi.(o) <- Fingerprint.component_hi o q unit_id 0;
      olo.(o) <- Fingerprint.component_lo o q unit_id 0;
      sum_hi := !sum_hi + ohi.(o);
      sum_lo := !sum_lo + olo.(o)
    done;
    for p = 0 to n_procs - 1 do
      ops_ids.(p) <- unit_id;
      rhi.(p) <- 0;
      rlo.(p) <- 0;
      set_head p;
      set_term p
    done
  end;
  (* The tracker's fingerprint. [go] carries it down the recursion and an
     edge passes it on whenever the tracker state is physically unchanged,
     so the tracker is asked again only below edges that changed the state;
     [no_tid] marks "not computed yet". Nothing of the tracker's is
     interned here. *)
  let no_tid = min_int in
  (* One integer compare per node stands in for the full dedup-activation
     test: [probe] is only entered once [c.nodes] reaches the floor, and the
     floor tracks activation state (threshold while the context is
     pending, 0 once it exists, max_int when dedup is off). *)
  let probe_floor =
    ref
      (match dd with
      | None -> max_int
      | Some dd -> if Option.is_some dd.table then 0 else dd.threshold)
  in
  (* The budget term of the ⟨crashes, recoveries, glitches⟩ left: mixed at
     the root and on the edges that spend a budget, which put it back on
     backtrack. *)
  let b_hi = ref 0 and b_lo = ref 0 in
  let set_budget () =
    if keyed then begin
      let cr = !crashes_left and re = !recoveries_left and gl = !glitches_left in
      b_hi := Fingerprint.budget_hi cr re gl;
      b_lo := Fingerprint.budget_lo cr re gl
    end
  in
  set_budget ();
  let probe sleep tracker_id =
    match dd with
    | None -> false
    | Some dd ->
      probe_floor := 0;
      let tbl = table_of dd in
      (* the tail terms of this depth, mixed again only for another tracker
         id than the one they were last mixed for *)
      let ev = !events in
      if ev >= Array.length ms.ms_tail_tid then grow_tails ms ev;
      if Array.unsafe_get ms.ms_tail_tid ev <> tracker_id then begin
        Array.unsafe_set ms.ms_tail_tid ev tracker_id;
        Array.unsafe_set ms.ms_tail_hi ev (Fingerprint.tail_hi ev tracker_id);
        Array.unsafe_set ms.ms_tail_lo ev (Fingerprint.tail_lo ev tracker_id)
      end;
      let hi = ref (!sum_hi + !proc_hi + !b_hi)
      and lo = ref (!sum_lo + !proc_lo + !b_lo) in
      if sleep <> 0 then
        for p = 0 to n_procs - 1 do
          if sleep land (1 lsl p) <> 0 then begin
            let h = Array.unsafe_get rhi p and l = Array.unsafe_get rlo p in
            hi := !hi - h + Fingerprint.asleep_hi h;
            lo := !lo - l + Fingerprint.asleep_lo l
          end
        done;
      Fingerprint.Table.mem_or_add tbl
        ~hi:((!hi + Array.unsafe_get ms.ms_tail_hi ev) land max_int)
        ~lo:((!lo + Array.unsafe_get ms.ms_tail_lo ev) land max_int)
  in
  (* The ⟨proc, target-level invocation⟩ of every live pending operation:
     invoked, not yet returned, process neither crashed nor wedged. Only
     these attempts can still complete as-is (a recovery restarts the
     operation with a fresh invocation), which is what a tracker's
     early-linearization reasoning depends on. *)
  let live_pending () =
    let blocked = !crashed lor !stuck in
    let out = ref [] in
    for p = n_procs - 1 downto 0 do
      if haspend.(p) && blocked land (1 lsl p) = 0 then
        out := (p, poised_inv p) :: !out
    done;
    !out
  in
  (* The node id [p] is poised at: its pending continuation, or the top of
     its next operation. *)
  let poised_node p =
    if Array.unsafe_get haspend p then Array.unsafe_get p_node p
    else
      let op = Array.unsafe_get next_op p in
      Ptable.top pt impl p ~inv:(poised_inv p)
        ~inv_id:(Array.unsafe_get (Array.unsafe_get wl_ids p) op)
        ~local:(Array.unsafe_get local p)
  in
  let classify_into cl p =
    let fresh = not (Array.unsafe_get haspend p) in
    let node = poised_node p in
    match Ptable.node pt node with
    | Program.Return _ ->
      Array.unsafe_set cl.ck p 0;
      Array.unsafe_set cl.cnode p node
    | Program.Invoke { obj; _ } ->
      (* bounds-checked on purpose: validates [obj] for the whole frame *)
      let tbl = tables.(obj) in
      let r =
        Step_table.row_id tbl (Array.unsafe_get objs obj)
          ~port:(port_of cc p obj) ~inv:(Ptable.cell pt node)
      in
      let row = Step_table.row tbl r in
      Array.unsafe_set cl.ck p (if fresh then 2 else 1);
      Array.unsafe_set cl.cnode p node;
      Array.unsafe_set cl.crow p
        ((r lsl 2)
        lor Bool.to_int row.Step_table.det
        lor (Bool.to_int row.Step_table.pure_read lsl 1));
      Array.unsafe_set cl.cobj p obj
  in
  (* [p]'s classified row. *)
  let row_of cl p =
    Step_table.row
      (Array.unsafe_get tables (Array.unsafe_get cl.cobj p))
      (Array.unsafe_get cl.crow p lsr 2)
  in
  let disabled p node obj =
    match Ptable.node pt node with
    | Program.Invoke { inv; _ } ->
      let spec, _ = impl.Implementation.objects.(obj) in
      raise
        (Type_spec.Bad_step
           (Fmt.str
              "proc %d: invocation %a disabled on object %d (%s) in state %a" p
              Value.pp inv obj spec.Type_spec.name Value.pp
              (Step_table.value tables.(obj) objs.(obj))))
    | Program.Return _ -> assert false
  in
  (* Run every alternative's continuation of a classified step once before
     the first child is entered, so that a response the program cannot
     decode on any alternative wedges the process instead of being met
     halfway through its children — the order in which {!Exec} evaluates
     them. Each makes its row of the program table, which the children
     reuse. *)
  let prestep cl p =
    if Array.unsafe_get cl.ck p > 0 then begin
      let node = Array.unsafe_get cl.cnode p in
      let row = row_of cl p in
      if row.Step_table.n_alts = 0 then
        disabled p node (Array.unsafe_get cl.cobj p);
      for j = 0 to row.Step_table.n_alts - 1 do
        ignore (Ptable.succ pt node row.Step_table.resps.(j))
      done
    end
  in
  (* Process [p]'s glitched responses at this node, as interned response
     cells (with the poised node, whether it starts a fresh operation, and
     its object): the degraded responses {!Faults.glitch_responses} offers
     for a pure read, minus those the program cannot decode. *)
  let glitch_alts p =
    let fresh = not haspend.(p) in
    let node = poised_node p in
    match Ptable.node pt node with
    | Program.Return _ -> (node, fresh, 0, [])
    | Program.Invoke { obj; inv; _ } -> (
      match Faults.degradation_of faults obj with
      | None -> (node, fresh, obj, [])
      | Some d ->
        let spec, _ = impl.Implementation.objects.(obj) in
        let port = port_of cc p obj in
        let alts_at qs =
          try Type_spec.alternatives spec qs ~port ~inv
          with Type_spec.Bad_step _ -> []
        in
        let q = Step_table.value tables.(obj) objs.(obj) in
        let resps =
          Faults.glitch_responses ~alts:(alts_at q) ~alts_at ~q
            ~hist:(hist_values obj) d
        in
        ( node,
          fresh,
          obj,
          List.filter_map
            (fun r ->
              let rc = I.intern ist r in
              match Ptable.succ pt node rc with
              | _ -> Some rc
              | exception Value.Type_error _ -> None)
            resps ))
  in
  (* Two processes are independent at a node when both next accesses are
     deterministic single-alternative steps and either they target
     different objects, or they target the same object and both leave its
     state unchanged (read-read commutation: the two orders reach literally
     identical configurations, only per-op timestamps differ, and those are
     outside the soundness envelope). Zero-access completions and
     nondeterministic accesses are conservatively dependent with
     everything. *)
  let independent cl p q =
    Array.unsafe_get cl.ck p > 0
    && Array.unsafe_get cl.ck q > 0
    &&
    let both = Array.unsafe_get cl.crow p land Array.unsafe_get cl.crow q in
    both land 1 <> 0
    && (Array.unsafe_get cl.cobj p <> Array.unsafe_get cl.cobj q
       || both land 2 <> 0)
  in
  (* Classify [p] into [cl] through its memo (see "Classification" in the
     kernel's header). *)
  let memo = ms.ms_memo
  and mkey = ms.ms_mkey
  and mloc = ms.ms_mloc
  and mstate = ms.ms_mstate in
  let classify cl p =
    let pend = Array.unsafe_get haspend p in
    let key =
      if pend then Array.unsafe_get p_node p else Array.unsafe_get next_op p
    and loc = if pend then -1 else Array.unsafe_get local p in
    if
      Array.unsafe_get mloc p = loc
      && Array.unsafe_get mkey p = key
      && (Array.unsafe_get memo.ck p = 0
         || Array.unsafe_get objs (Array.unsafe_get memo.cobj p)
            = Array.unsafe_get mstate p)
    then copy_cls memo cl p
    else begin
      classify_into cl p;
      if derail then prestep cl p;
      copy_cls cl memo p;
      Array.unsafe_set mkey p key;
      Array.unsafe_set mloc p loc;
      if Array.unsafe_get cl.ck p > 0 then
        Array.unsafe_set mstate p
          (Array.unsafe_get objs (Array.unsafe_get cl.cobj p))
    end
  in
  (* Without POR a process is classified right before its expansion (the
     callers test [opts.por]); under a derailing adversary a step that
     raises wedges it instead. *)
  let wedges cl p =
    match classify cl p with
    | () -> false
    | exception (Type_spec.Bad_step _ | Value.Type_error _) when derail -> true
  in
  (* A prefix node of depth [ev] has entered its path child once
     [!entered > ev]. Until then [on_path] enters the child equal to the
     prefix's decision there; after it, listing mode records each child at
     depth [from] or below as a sibling, and nothing else is entered. *)
  let entered = ref 0 in
  let on_path ev (d : Faults.decision) trace_rev =
    if !entered > ev then begin
      (match listing with
      | Some l when ev >= l.from -> l.found <- (ev, d :: trace_rev) :: l.found
      | _ -> ());
      false
    end
    else if d = prefix.(ev) then begin
      entered := ev + 1;
      true
    end
    else false
  in
  let rec go sleep trace_rev st tid =
    let ev = !events in
    if listing_mode && ev >= plen then ()
    else begin
      (* A prefix node enters only its path child, and is not counted,
         probed, limit-checked, checkpointed or a leaf. *)
      let counted = ev >= plen in
      let inc = Bool.to_int counted in
      let sleep = if ev > seg then sleep else 0 in
      if counted && c.nodes land 1023 = 0 then on_node trace_rev;
      let work = ref 0 in
      for p = n_procs - 1 downto 0 do
        if has_work p then work := !work lor (1 lsl p)
      done;
      let work = !work in
      let mask = work land lnot (!crashed lor !stuck) in
      let recs =
        if !recoveries_left > 0 then work land !crashed land lnot !stuck else 0
      in
      if counted && lim.active && out_of_limits lim then raise (Cut trace_rev);
      if counted && mask = 0 then begin
        c.leaves <- c.leaves + 1;
        if !events > c.max_events then c.max_events <- !events;
        List.iter
          (fun (o : Exec.op) ->
            if o.steps > c.max_op_steps then c.max_op_steps <- o.steps)
          !ops_rev;
        for o = 0 to n_objs - 1 do
          let a = Array.unsafe_get acc o in
          if a > c.max_accesses.(o) then c.max_accesses.(o) <- a
        done;
        if want_leaf then
          emit_leaf trace_rev
            {
              Exec.objects =
                Array.init n_objs (fun o -> Step_table.value tables.(o) objs.(o));
              locals = Array.map (Ptable.local_value pt) local;
              ops = List.rev !ops_rev;
              events = !events;
              accesses = Array.copy acc;
            }
            st
      end;
      if mask lor recs = 0 then ()
      else if !events >= fuel then begin
        if counted && mask <> 0 then begin
          c.overflows <- c.overflows + 1;
          if c.overflow_trace = None then
            c.overflow_trace <- Some (List.rev trace_rev)
        end
      end
      else
        let probing = counted && c.nodes >= !probe_floor in
        let tid = if probing && tid = no_tid then t.fingerprint st else tid in
        if probing && probe sleep tid then
          c.pruned <- c.pruned + 1
        else begin
          (* Under POR every runnable process is classified up front (the
             independence relation needs all of them); without POR each
             process is classified right before expansion, preserving the
             reference semantics' evaluation order for any exception a spec or
             program may raise. *)
          let cl = cls_at !events in
          if opts.por then
            for p = 0 to n_procs - 1 do
              if mask land (1 lsl p) <> 0 then classify cl p
            done;
          let explored = ref 0 in
          for p = 0 to n_procs - 1 do
            if mask land (1 lsl p) <> 0 then begin
              if sleep land (1 lsl p) <> 0 then begin
                c.sleep_skips <- c.sleep_skips + inc;
                match listing with
                | Some l when !entered > ev -> l.skipped <- l.skipped + 1
                | _ -> ()
              end
              else begin
                let child_sleep =
                  if not opts.por then 0
                  else begin
                    let earlier = sleep lor !explored in
                    let s = ref 0 in
                    for q = 0 to n_procs - 1 do
                      if
                        q <> p
                        && mask land (1 lsl q) <> 0
                        && earlier land (1 lsl q) <> 0
                        && independent cl p q
                      then s := !s lor (1 lsl q)
                    done;
                    !s
                  end
                in
                (if (not opts.por) && wedges cl p then begin
                   let d = { Faults.proc = p; kind = Faults.Wedge } in
                   if counted || on_path ev d trace_rev then begin
                     c.nodes <- c.nodes + inc;
                     halt_child ~crash:false p d 0 trace_rev st tid
                   end
                 end
                 else
                   match Array.unsafe_get cl.ck p with
                   | 0 ->
                     if counted || on_path ev (dec p 0) trace_rev then begin
                       c.nodes <- c.nodes + inc;
                       ret_child p
                         (Array.unsafe_get cl.cnode p)
                         child_sleep trace_rev st tid
                     end
                   | k ->
                     let node = Array.unsafe_get cl.cnode p in
                     let row = row_of cl p in
                     let obj = Array.unsafe_get cl.cobj p in
                     let n_alts = row.Step_table.n_alts in
                     if n_alts = 0 then disabled p node obj;
                     let next = row.Step_table.next
                     and resps = row.Step_table.resps in
                     for j = 0 to n_alts - 1 do
                       let d = dec p j in
                       if counted || on_path ev d trace_rev then begin
                         c.nodes <- c.nodes + inc;
                         acc_child p node (k = 2) obj
                           (Array.unsafe_get next j)
                           (Array.unsafe_get resps j)
                           d child_sleep trace_rev st tid
                       end
                     done);
                if faulty then fault_children ev p trace_rev st tid;
                explored := !explored lor (1 lsl p)
              end
            end
          done;
          if recs <> 0 then
            for p = 0 to n_procs - 1 do
              if recs land (1 lsl p) <> 0 then begin
                let d = { Faults.proc = p; kind = Faults.Recover } in
                if counted || on_path ev d trace_rev then begin
                  c.nodes <- c.nodes + inc;
                  recover_child p d 0 trace_rev st tid
                end
              end
            done
        end
    end
  (* [p]'s glitched reads, then its crash, at the node of depth [ev]. *)
  and fault_children ev p trace_rev st tid =
    let counted = ev >= plen in
    let inc = Bool.to_int counted in
    if !glitches_left > 0 then begin
      let node, fresh, obj, rcs = glitch_alts p in
      List.iteri
        (fun i rc ->
          let d = { Faults.proc = p; kind = Faults.Glitch i } in
          if counted || on_path ev d trace_rev then begin
            c.nodes <- c.nodes + inc;
            glitch_child p node fresh obj rc d 0 trace_rev st tid
          end)
        rcs
    end;
    if !crashes_left > 0 then begin
      let d = { Faults.proc = p; kind = Faults.Crash } in
      if counted || on_path ev d trace_rev then begin
        c.nodes <- c.nodes + inc;
        halt_child ~crash:true p d 0 trace_rev st tid
      end
    end
  (* A fresh operation whose program returns without touching a base object:
     one completion child, no object mutation. *)
  and ret_child p node child_sleep trace_rev st tid =
    let res = Ptable.cell pt node and local' = Ptable.loc pt node in
    let tr = dec p 0 :: trace_rev in
    let s_nextop = Array.unsafe_get next_op p
    and s_local = Array.unsafe_get local p in
    let s_ops = !ops_rev in
    let s_opsc = Array.unsafe_get ops_ids p in
    let s_rhi = Array.unsafe_get rhi p and s_rlo = Array.unsafe_get rlo p in
    let s_hhi = Array.unsafe_get hhi p and s_hlo = Array.unsafe_get hlo p in
    let op =
      {
        Exec.proc = p;
        op_index = s_nextop;
        inv = poised_inv p;
        resp = I.value res;
        start_step = !events;
        end_step = !events;
        steps = 0;
      }
    in
    ops_rev := op :: s_ops;
    Array.unsafe_set next_op p (s_nextop + 1);
    Array.unsafe_set local p local';
    if keyed then begin
      Array.unsafe_set ops_ids p
        (I.tuple ist (I.tuple ist s_nextop (Ptable.chain pt node)) s_opsc);
      set_head p;
      set_term p
    end;
    incr events;
    let st' =
      if user_tracker && !events > plen then
        t.event st ~trace_rev:tr
          (Op_completed { op; pending = live_pending () })
      else st
    in
    go child_sleep tr st' (if st' == st then tid else no_tid);
    decr events;
    ops_rev := s_ops;
    Array.unsafe_set next_op p s_nextop;
    Array.unsafe_set local p s_local;
    if keyed then begin
      Array.unsafe_set ops_ids p s_opsc;
      Array.unsafe_set hhi p s_hhi;
      Array.unsafe_set hlo p s_hlo;
      put_term p s_rhi s_rlo
    end
  (* One base access, honest or glitched: move [obj] to the successor state
     [q] (a glitch passes the current state), hand the program the response
     cell [rc], advance its program through the table's row, recurse,
     restore. An honest access that changes a stale-read object pushes the
     overwritten state onto its history. *)
  and acc_child p node fresh obj q rc d child_sleep trace_rev st tid =
    let tr = d :: trace_rev in
    let s_q = Array.unsafe_get objs obj in
    let s_acc = Array.unsafe_get acc obj in
    let s_hc = Array.unsafe_get hist_ids obj in
    let hpush = q <> s_q && Array.unsafe_get hist_depth obj > 0 in
    let s_nextop = Array.unsafe_get next_op p
    and s_local = Array.unsafe_get local p in
    let s_haspend = Array.unsafe_get haspend p
    and s_started = Array.unsafe_get p_started p in
    let s_node = Array.unsafe_get p_node p in
    let s_ops = !ops_rev in
    let s_opsc = Array.unsafe_get ops_ids p in
    let s_sum_hi = !sum_hi and s_sum_lo = !sum_lo in
    let s_ohi = Array.unsafe_get ohi obj and s_olo = Array.unsafe_get olo obj in
    let s_rhi = Array.unsafe_get rhi p and s_rlo = Array.unsafe_get rlo p in
    let s_hhi = Array.unsafe_get hhi p and s_hlo = Array.unsafe_get hlo p in
    let started = if fresh then !events else s_started in
    Array.unsafe_set objs obj q;
    Array.unsafe_set acc obj (s_acc + 1);
    if hpush then Array.unsafe_set hist_ids obj (hist_push obj s_q s_hc);
    let next = Ptable.succ pt node rc in
    let completed =
      match Ptable.node pt next with
      | Program.Return _ ->
        let res = Ptable.cell pt next and local' = Ptable.loc pt next in
        let op =
          {
            Exec.proc = p;
            op_index = s_nextop;
            inv = poised_inv p;
            resp = I.value res;
            start_step = started;
            end_step = !events;
            steps = Ptable.steps pt next;
          }
        in
        ops_rev := op :: s_ops;
        Array.unsafe_set haspend p false;
        Array.unsafe_set next_op p (s_nextop + 1);
        Array.unsafe_set local p local';
        if keyed then begin
          Array.unsafe_set ops_ids p
            (I.tuple ist (I.tuple ist s_nextop (Ptable.chain pt next)) s_opsc);
          set_head p
        end;
        Some op
      | Program.Invoke _ ->
        Array.unsafe_set haspend p true;
        Array.unsafe_set p_started p started;
        Array.unsafe_set p_node p next;
        None
    in
    if keyed then begin
      let h =
        Fingerprint.component_hi obj q (Array.unsafe_get hist_ids obj)
          (s_acc + 1)
      and l =
        Fingerprint.component_lo obj q (Array.unsafe_get hist_ids obj)
          (s_acc + 1)
      in
      Array.unsafe_set ohi obj h;
      Array.unsafe_set olo obj l;
      sum_hi := s_sum_hi - s_ohi + h;
      sum_lo := s_sum_lo - s_olo + l;
      set_term p
    end;
    incr events;
    let st' =
      match completed with
      | Some op when user_tracker && !events > plen ->
        t.event st ~trace_rev:tr
          (Op_completed { op; pending = live_pending () })
      | _ -> st
    in
    go child_sleep tr st' (if st' == st then tid else no_tid);
    decr events;
    Array.unsafe_set objs obj s_q;
    Array.unsafe_set acc obj s_acc;
    if hpush then Array.unsafe_set hist_ids obj s_hc;
    Array.unsafe_set next_op p s_nextop;
    Array.unsafe_set local p s_local;
    Array.unsafe_set haspend p s_haspend;
    Array.unsafe_set p_started p s_started;
    Array.unsafe_set p_node p s_node;
    ops_rev := s_ops;
    if keyed then begin
      Array.unsafe_set ops_ids p s_opsc;
      Array.unsafe_set hhi p s_hhi;
      Array.unsafe_set hlo p s_hlo;
      Array.unsafe_set ohi obj s_ohi;
      Array.unsafe_set olo obj s_olo;
      sum_hi := s_sum_hi;
      sum_lo := s_sum_lo;
      put_term p s_rhi s_rlo
    end
  (* A glitched read: the object keeps its state, the program sees [rc]. *)
  and glitch_child p node fresh obj rc d child_sleep trace_rev st tid =
    let s_bhi = !b_hi and s_blo = !b_lo in
    decr glitches_left;
    set_budget ();
    acc_child p node fresh obj
      (Array.unsafe_get objs obj)
      rc d child_sleep trace_rev st tid;
    incr glitches_left;
    b_hi := s_bhi;
    b_lo := s_blo
  (* [p] stops for good between accesses: crashed (recoverable, spending the
     crash budget) or wedged. Objects and the pending operation stay as they
     are; only the flag and the budget enter the key. *)
  and halt_child ~crash p d child_sleep trace_rev st tid =
    let tr = d :: trace_rev in
    let bit = 1 lsl p in
    let s_rhi = Array.unsafe_get rhi p and s_rlo = Array.unsafe_get rlo p in
    let s_bhi = !b_hi and s_blo = !b_lo in
    if crash then begin
      crashed := !crashed lor bit;
      decr crashes_left;
      set_budget ()
    end
    else stuck := !stuck lor bit;
    if keyed then set_term p;
    incr events;
    let st' =
      if user_tracker && !events > plen then
        t.event st ~trace_rev:tr
          (if crash then Proc_crashed p else Proc_wedged p)
      else st
    in
    go child_sleep tr st' (if st' == st then tid else no_tid);
    decr events;
    if crash then begin
      crashed := !crashed land lnot bit;
      incr crashes_left;
      b_hi := s_bhi;
      b_lo := s_blo
    end
    else stuck := !stuck land lnot bit;
    if keyed then put_term p s_rhi s_rlo
  (* Restart crashed [p]: its pending operation, still the workload's entry
     at [next_op], becomes its next operation again (local effects rolled
     back — a pending operation has not touched [local] — and shared ones
     kept). *)
  and recover_child p d child_sleep trace_rev st tid =
    let tr = d :: trace_rev in
    let s_haspend = Array.unsafe_get haspend p in
    let s_rhi = Array.unsafe_get rhi p and s_rlo = Array.unsafe_get rlo p in
    let s_bhi = !b_hi and s_blo = !b_lo in
    crashed := !crashed land lnot (1 lsl p);
    decr recoveries_left;
    set_budget ();
    Array.unsafe_set haspend p false;
    if keyed then set_term p;
    incr events;
    go child_sleep tr st tid;
    decr events;
    Array.unsafe_set haspend p s_haspend;
    incr recoveries_left;
    b_hi := s_bhi;
    b_lo := s_blo;
    crashed := !crashed lor (1 lsl p);
    if keyed then put_term p s_rhi s_rlo
  in
  (* Every slot is re-initialized at the next borrow, so the pool is
     returned even when a cut or an exception unwinds the run. *)
  match go 0 [] t.root no_tid with
  | () ->
    cc.cc_pool <- Some ms;
    (* The prefix node of depth [!entered] has no child its decision names. *)
    if !entered < plen then
      invalid_arg
        (Fmt.str "Explore.run: cannot resume: no child %a at event %d"
           Faults.pp_decision prefix.(!entered) !entered)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    cc.cc_pool <- Some ms;
    Printexc.raise_with_backtrace e bt

(* A physically recognizable default: when the caller supplied no leaf
   consumer (and no tracker), the kernel can skip materializing leaf records
   entirely. *)
let no_on_leaf_trace (_ : Faults.trace) (_ : Exec.leaf) = ()

let run impl ~workloads ?(fuel = default_fuel) ?(faults = Faults.none)
    ?budget ?deadline_s ?(options = naive)
    ?(dedup_threshold = default_dedup_threshold) ?tracker
    ?(on_leaf_trace = no_on_leaf_trace)
    ?checkpoint ?resume_from ?interrupt ?mem_budget_mb () =
  if Array.length workloads <> impl.Implementation.procs then
    invalid_arg "Explore: workloads length must equal impl.procs";
  (* The kernel holds sets of processes as pid bitmasks of one int. *)
  if impl.Implementation.procs > Sys.int_size then
    invalid_arg
      (Fmt.str "Explore.run: %d processes do not fit a %d-bit pid mask"
         impl.Implementation.procs Sys.int_size);
  (* An access count or workload position is at most the event count, which
     is at most [fuel]: the key packs them in 31-bit fields. *)
  if fuel >= Fingerprint.field_bound then
    invalid_arg
      (Fmt.str "Explore.run: fuel %d is not below 2^31" fuel);
  let user_tracker = Option.is_some tracker in
  let ckpt_armed = Option.is_some checkpoint || Option.is_some resume_from in
  if user_tracker && ckpt_armed then
    invalid_arg
      "Explore.run: checkpointing does not compose with a user tracker \
       (tracker state cannot be serialized)";
  let (Tracker t) =
    match tracker with Some t -> Tracker t | None -> Tracker null_tracker
  in
  (match resume_from with
  | Some ck -> (
    match
      Checkpoint.describe_mismatch ck ~engine:options ~fuel ~faults ~workloads
    with
    | Some reason -> invalid_arg ("Explore.run: cannot resume: " ^ reason)
    | None -> ())
  | None -> ());
  (* POR is off under any fault adversary. *)
  let opts = { options with por = Checkpoint.por_runs options faults } in
  (* The problem decides how the dedup key names a process: by symmetry
     class when the implementation declares its program process-oblivious
     and every base spec is port-oblivious, by pid otherwise. A user
     tracker keeps pids: tracker state is caller-defined and we cannot
     check it is invariant under pid permutation, so the sound composition
     with trackers is exact pid-ordered keys — every process is its own
     class. *)
  let dd =
    if not opts.dedup then None
    else
      let salts =
        match
          if user_tracker then None else Symmetry.of_impl impl ~workloads
        with
        | Some g -> Symmetry.classes g
        | None -> Array.init impl.Implementation.procs Fun.id
      in
      Some { threshold = dedup_threshold; salts; mem_budget_mb; table = None }
  in
  let lim = make_limiter ?budget ?deadline_s ?interrupt () in
  let c = fresh_counters (Array.length impl.Implementation.objects) in
  let emit_leaf trace_rev leaf st =
    on_leaf_trace (List.rev trace_rev) leaf;
    t.at_leaf st ~trace_rev leaf
  in
  let want_leaf = user_tracker || on_leaf_trace != no_on_leaf_trace in
  let wl = Array.map Array.of_list workloads in
  (* One kernel call: explore the subtree under [prefix], or, with
     [listing], only list the siblings along it (no dedup, no callbacks). *)
  let kernel ?listing ~on_node prefix =
    run_compiled impl ~wl ~opts ~faults ~fuel
      ~dd:(if Option.is_some listing then None else dd)
      ~lim ~t ~user_tracker ~want_leaf c ~emit_leaf ~on_node
      ~prefix:(Array.of_list prefix) ~listing
  in
  (* The subtrees left to explore, as prefixes; [from] is the length of
     the one being explored. *)
  let pending =
    ref (match resume_from with None -> [ [] ] | Some ck -> ck.Checkpoint.frontier)
  in
  let from = ref 0 in
  (* Each frontier prefix must be a path of the tree: materialize it once,
     up front, so a bad checkpoint is refused before anything is
     explored. *)
  (match resume_from with
  | Some ck ->
    List.iter
      (fun prefix ->
        kernel
          ~listing:{ from = List.length prefix; found = []; skipped = 0 }
          ~on_node:ignore prefix)
      !pending;
    add_counts c ck.Checkpoint.counts
  | None -> ());
  let checkpoint_of ?(listed = 0) ?(skipped = 0) frontier =
    let k = counts_of_stats (stats_of c ~lim) in
    Checkpoint.make ~engine:options ~fuel
      ?budget_left:(Option.map (fun b -> max 0 !b) lim.budget)
      ~faults ~workloads
      ~counts:
        {
          k with
          nodes = k.Checkpoint.nodes + listed;
          sleep_skips = k.sleep_skips + skipped;
          evictions = k.evictions + flushes dd;
        }
      ~frontier ()
  in
  (* What a cut at the node [trace_rev] (most recent first) leaves: the
     node itself, then the siblings along its path below [from], deepest
     first — the order the uncut run would have explored them in — then
     the subtrees not yet started. Its counts take in each listed
     sibling's edge, and each sibling skipped asleep, as the uncut run
     would have counted them, so the segments of a cut run sum to the
     uncut counts. *)
  let remainder_at trace_rev =
    let l = { from = !from; found = []; skipped = 0 } in
    kernel ~listing:l ~on_node:ignore (List.rev trace_rev);
    let siblings =
      List.stable_sort (fun (a, _) (b, _) -> compare b a) (List.rev l.found)
    in
    checkpoint_of ~listed:(List.length siblings) ~skipped:l.skipped
      ((List.rev trace_rev :: List.map (fun (_, tr) -> List.rev tr) siblings)
      @ !pending)
  in
  (* Periodic saves, looked at every 1024 nodes: what a cut at this node
     would leave. *)
  let last_save = ref (Monotime.now ()) and saved_any = ref false in
  let save ck =
    Option.iter
      (fun (_, sink) ->
        sink ck;
        saved_any := true;
        last_save := Monotime.now ())
      checkpoint
  in
  let on_node trace_rev =
    match checkpoint with
    | Some (interval, _) when Monotime.now () -. !last_save >= interval ->
      save (remainder_at trace_rev)
    | _ -> ()
  in
  let remainder =
    match
      while !pending <> [] do
        let prefix = List.hd !pending in
        pending := List.tl !pending;
        from := List.length prefix;
        kernel ~on_node prefix
      done
    with
    | () -> None
    | exception Exec.Stop ->
      trip lim Stopped;
      None
    | exception Cut trace_rev ->
      let ck = remainder_at trace_rev in
      c.nodes <- ck.Checkpoint.counts.nodes;
      c.sleep_skips <- ck.counts.sleep_skips;
      Some ck
  in
  (* A cut hands the sink its remainder; a finished run refreshes a copy
     saved earlier to an empty frontier. *)
  (match remainder with
  | Some ck -> save ck
  | None -> if !saved_any && lim.tripped = None then save (checkpoint_of []));
  table_release c dd;
  stats_of ?remainder c ~lim
