(** True-parallel execution of implementations on OCaml 5 domains.

    The model-checking side of this library interleaves programs one atomic
    base invocation at a time; this runtime executes the {e same}
    {!Wfc_program.Implementation} values on real domains: one domain per
    process, each base object a {!Cells} cell so that one invocation is one
    critical section — or one CAS publication — the atomicity granularity
    the paper's model postulates. Nondeterministic base objects resolve
    alternatives with a per-domain PRNG.

    Operations are stamped with a {!Tick} timestamp before their first base
    access and after their last, so the histories produced here can be fed
    to the very same {!Wfc_linearize.Engine.check} used on
    model-checked histories. The default [Global] scheme stamps with a
    single fetch-and-add counter (maximally precise, but a serialization
    point: two contended atomic writes per operation); [Tick.sharded]
    replaces it with epoch reads whose rare bumps amortize the contention
    away, at the cost of coarser stamps — sound for the checker, which can
    only become {e more} permissive under coarsening (see {!Tick}).

    This is the "repro≤2" substitution of real hardware concurrency: stress
    evidence on top of exhaustive small-scope evidence. For sustained
    throughput measurement — where even building the [ops] list is too much
    allocation — see {!Wfc_serve.Driver}, which drives the same {!Cells}
    without per-operation recording. *)

open Wfc_spec
open Wfc_program

type outcome = {
  ops : Wfc_sim.Exec.op list;  (** completed ops, stamped with ticks *)
  wall_s : float;  (** wall-clock seconds for the whole run *)
  final_objects : Value.t array;
}

type backend = Cells.backend =
  | Mutex_cells  (** each base object is a mutex-guarded cell (default) *)
  | Atomic_cas
      (** each base object is an [Atomic.t] cell driven by a
          compare-and-set retry loop: read the state, compute δ, CAS the new
          state in, retry on interference. This implements {e any} finitely
          branching object lock-free over the hardware CAS — a pleasing
          echo of CAS's place at the top of the consensus hierarchy. (Per
          invocation it is lock-free, not wait-free; the mutex backend is
          the faithful one for wait-freedom claims.) *)

val run :
  ?seed:int ->
  ?backend:backend ->
  ?tick:Tick.scheme ->
  Implementation.t ->
  workloads:Value.t list array ->
  unit ->
  outcome
(** Spawn [impl.procs] domains; each executes its workload to completion.
    If a worker raises (e.g. {!Wfc_spec.Type_spec.Bad_step} from a disabled
    invocation), every other domain is still joined before the exception is
    re-raised on the caller — a failing process never leaves stragglers
    running or a mutex-guarded cell torn. [wall_s] is measured on the
    monotonic clock. [tick] (default [Global]) selects the stamping scheme.
    @raise Invalid_argument when workloads length ≠ procs. *)

val consensus_trials :
  ?seed:int ->
  ?backend:backend ->
  ?tick:Tick.scheme ->
  make:(unit -> Implementation.t) ->
  trials:int ->
  unit ->
  (int, string) result
(** Repeatedly run a fresh consensus implementation with random Boolean
    proposals on all processes in parallel; check agreement and validity of
    every trial. Returns the number of trials on success, a diagnostic on
    the first violation. *)

val linearizable_trials :
  ?seed:int ->
  ?backend:backend ->
  ?tick:Tick.scheme ->
  make:(unit -> Implementation.t) ->
  workloads:Value.t list array ->
  trials:int ->
  unit ->
  (int, string) result
(** Run fresh instances [trials] times and check every produced history
    against the implementation's target specification. *)
