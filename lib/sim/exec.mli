(** Asynchronous interleaved execution of implementations.

    Each process is given a {e workload}: the sequence of invocations it
    performs, one after another, on the implemented object. One scheduling
    event executes exactly one atomic base-object invocation of one process
    (or completes a zero-access operation). This is precisely the execution
    model of the paper: configurations are object states plus program
    counters, and a configuration's children are the ≤ n single-step
    successors (Section 4.2).

    {!explore} enumerates {e every} interleaving and every nondeterministic
    base-object alternative, depth-first — the full forest of the paper's
    trees. {!run} follows one schedule picked by callbacks (random,
    round-robin, adversarial: see {!Schedulers}). *)

open Wfc_spec
open Wfc_program

type op = {
  proc : int;
  op_index : int;  (** position within that process's workload *)
  inv : Value.t;
  resp : Value.t;
  start_step : int;  (** event index of the op's first base access *)
  end_step : int;  (** event index of its last base access *)
  steps : int;  (** base accesses executed by this op *)
}
(** A completed high-level operation. For a zero-access operation
    [start_step = end_step] is the event at which it was scheduled. *)

type leaf = {
  objects : Value.t array;  (** final base-object states *)
  locals : Value.t array;  (** final per-process local states *)
  ops : op list;  (** completed operations, in completion order *)
  events : int;  (** scheduling events on this path *)
  accesses : int array;  (** per base object: accesses on this path *)
}

type stats = {
  leaves : int;
  nodes : int;  (** scheduling events summed over the whole tree *)
  max_events : int;  (** longest root-to-leaf path, in events *)
  max_op_steps : int;  (** most base accesses by any single operation *)
  max_accesses : int array;  (** per object: max accesses along any path *)
  overflows : int;  (** paths cut off by [fuel] — non-wait-freedom suspects *)
}

exception Stop
(** Raise from [on_leaf] to abort the exploration early (statistics reflect
    the explored prefix). *)

val completion_events : op list -> (op * (int * op) list) list
(** Replay a history's completions from its timestamps: the operations in
    completion order (sorted by [end_step], ties by [start_step] then
    [proc]), each paired with the ⟨index, op⟩ of every operation still
    pending at that completion — invoked ([start_step ≤] the completer's
    [end_step]) but not yet completed (later in the sorted order). Indices
    refer to positions in the returned completion order, so they are unique
    even for histories with overlapping operations of the same process or
    tied timestamps (hand-written test histories). This is the bridge from a
    timestamped {!leaf} history to the event stream the incremental checker
    ({!Wfc_linearize.Engine}) consumes. *)

exception Stalled
(** Raised by a {!run} scheduler's [pick_proc] to declare that no enabled
    process will ever be picked again (e.g. {!Schedulers.crash} when only
    dead processes remain); {!run} then stops gracefully and returns the
    partial execution as its leaf. *)

val explore :
  Implementation.t ->
  workloads:Value.t list array ->
  ?fuel:int ->
  ?faults:Faults.t ->
  ?on_leaf:(leaf -> unit) ->
  unit ->
  stats
(** Exhaustive DFS. [workloads] must have length [impl.procs]. [fuel]
    (default [10_000]) bounds the events of a single path; exceeding it
    counts an overflow and abandons that path — with a correct wait-free
    implementation and finite workloads this never happens, and the test
    suites assert [overflows = 0].

    [faults] (default {!Faults.none}) is the adversary ({!Faults.t}): the
    tree additionally branches on {e mid-operation crashes} (see
    {!Faults.crashes}), on {e recoveries} (a crashed process restarts its
    pending operation from scratch against the dirty shared state — its
    earlier base accesses are {e not} undone) and on {e read glitches}
    against degraded base objects (safe-register behaviour or bounded-stale
    reads, in the style of {!Wfc_zoo.Weak_register}). Under a derailing
    adversary a process whose next step raises [Type_spec.Bad_step] or
    [Value.Type_error] {e wedges} (drops out of the enabled set forever)
    instead of aborting the exploration. *)

type node_view = {
  depth : int;  (** events so far at this configuration *)
  next_accesses : (int * int * Value.t) list;
      (** for each enabled process: ⟨proc, base object, invocation⟩ of its
          next access ({e not} included for processes whose next operation
          completes without any access) *)
}

val fold_tree :
  Implementation.t ->
  workloads:Value.t list array ->
  ?fuel:int ->
  leaf:(leaf -> 'a) ->
  node:(node_view -> 'a list -> 'a) ->
  unit ->
  'a
(** Bottom-up catamorphism over the execution tree: [leaf] maps complete
    executions, [node] combines a configuration's children (one per enabled
    process per nondeterministic alternative, in process order). This is the
    shape of the paper's Section 4.2 argument itself, and powers the valence
    analysis. @raise Failure on fuel exhaustion (the fold has no partial
    answer for an infinite subtree). *)

type event =
  | Access of { proc : int; obj : int; inv : Value.t; resp : Value.t }
      (** one atomic base invocation; [resp] is the object's {e new state}
          (responses are program-internal — the new state is the externally
          observable effect) *)
  | Completed of { proc : int; op_index : int; inv : Value.t; resp : Value.t }
      (** a high-level operation returned *)
  | Crashed of { proc : int }  (** mid-operation stopping failure *)
  | Recovered of { proc : int }
      (** a crashed process restarts its interrupted operation from scratch *)
  | Glitched of { proc : int; obj : int; inv : Value.t; resp : Value.t }
      (** a degraded read: [resp] is the glitched {e response} handed to the
          program (object state unchanged) *)
  | Wedged of { proc : int }
      (** the process stepped off its specified envelope and is stuck *)

val pp_event : Implementation.t -> Format.formatter -> event -> unit

val replay :
  Implementation.t ->
  workloads:Value.t list array ->
  ?faults:Faults.t ->
  ?on_event:(event -> unit) ->
  Faults.trace ->
  (leaf, string) result
(** Deterministically re-execute one path of {!explore}/{!Explore.run} from
    its decision {!Faults.trace}, streaming [on_event]. A trace that stops
    before quiescence is fine — the leaf then reflects the partial
    execution. [Error] explains the first decision that does not apply
    (wrong process, out-of-range alternative, exhausted fault budget…). *)

val run :
  Implementation.t ->
  workloads:Value.t list array ->
  pick_proc:(enabled:int list -> step:int -> int) ->
  pick_alt:(n:int -> step:int -> int) ->
  ?fuel:int ->
  ?on_event:(event -> unit) ->
  unit ->
  leaf
(** Single guided execution. [pick_proc] chooses among enabled processes,
    [pick_alt] resolves base-object nondeterminism (given the number of
    alternatives); [on_event] streams the execution for tracing.
    @raise Failure when fuel runs out. *)

val sequential_oracle : Implementation.t -> Value.t list -> Value.t list * leaf
(** Convenience: process 0 alone runs the invocations to completion, one
    after another (a purely sequential execution); returns the responses in
    order plus the final leaf. Nondeterministic base alternatives resolve to
    the first one. Useful for smoke-testing an implementation against its
    target spec. *)
