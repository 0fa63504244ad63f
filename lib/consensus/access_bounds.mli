(** Section 4.2 — access bounds in wait-free consensus implementations.

    The paper's argument: view the executions of a consensus implementation
    (each process performing its first invocation) as 2ⁿ trees, one per
    input vector. Determinism bounds the fan-out by n, so König's lemma
    makes an infinite tree yield an infinite execution, contradicting
    wait-freedom; hence every tree is finite, its depth is some d, and with
    D = max over the 2ⁿ trees no object is ever accessed more than D times.

    This module {e computes} those trees by exhaustive exploration, as jobs
    of {!Check}'s run account, and returns the bound D together with
    per-object and per-tree statistics. Non-wait-freedom cannot be proven by
    search, so a fuel bounds each path; exceeding it returns the suspect
    path's description as an error (for a correct implementation this never
    fires, and for the deliberately broken ones in the tests it reliably
    does). *)

open Wfc_program

type tree = {
  inputs : Wfc_spec.Value.t list;
      (** the root's first-invocation vector (one target invocation per
          process) *)
  leaves : int;  (** complete executions the engine visited for this tree *)
  nodes : int;
      (** scheduling events the engine executed over the tree — under the
          default reduced engine this is the {e reduced} count, not the full
          tree's; D and the per-object bounds are unaffected *)
  depth : int;  (** deepest execution, counting base-object accesses *)
}

type report = {
  trees : tree list;  (** 2ⁿ of them, in {!Check.vectors} order *)
  bound_d : int;  (** D = max depth over all trees — the paper's bound *)
  per_object : int array;  (** max accesses of each base object on any path *)
  fan_out : int;  (** n, the paper's König fan-out bound *)
}

val analyze :
  ?fuel:int ->
  ?budget:int ->
  ?require_deterministic:bool ->
  ?engine:Wfc_sim.Explore.options ->
  Implementation.t ->
  (report, string) result
(** Explore the |I|ⁿ first-invocation trees of the implementation (2ⁿ for
    binary consensus, the paper's count). I is the set of values the target
    spec's invocations propose, so multivalued targets work too; a target
    whose invocations are not proposals is refused by name. The trees are
    {!Check.vectors} with every process participating and proposing once,
    in that order (the last process varies fastest), and each is one
    {!Check.run_job} from its root, accounted by a {!Check.book} like
    {!Check.verify}'s vectors.

    §4.2's argument is about {e wait-free consensus implementations}, and
    the bound must not be taken from anything else: every leaf is checked
    for agreement and validity ({!Check.check_leaf}), and a failing leaf is
    an error naming the violation and its decision trace. A path that
    exhausts [fuel] is a suspected non-wait-freedom error (König: an
    infinite tree has an infinite path) with the runaway path's trace.
    Either trace parses back with {!Wfc_sim.Faults.trace_of_string} for
    {!Wfc_sim.Exec.replay}.

    [engine] (default {!Wfc_sim.Explore.fast}) selects the exploration
    engine options; depth, D and the per-object access bounds are
    timing-insensitive maxima over leaves, which the reduced engine
    preserves exactly (pass {!Wfc_sim.Explore.naive} to also get the full
    tree's leaf/node counts in [trees]).

    [budget] (configurations visited) bounds the {e whole} analysis across
    all trees, spent through the book as {!Check.record} charges it; if it
    runs out before the search finishes, an ["analysis incomplete"] error
    is returned — no bound is claimed from a partial search.

    By default the implementation must be deterministic (deterministic base
    objects); a nondeterministic alternative is reported as an error,
    mirroring Section 4.2's hypothesis. Pass [~require_deterministic:false]
    for finitely-branching nondeterministic bases — König's lemma still
    applies, which is what Theorem 5's third case (h_m(T) ≥ 2, T possibly
    nondeterministic) relies on. *)

val pp_report : Format.formatter -> report -> unit
