open Wfc_spec
open Wfc_zoo
open Wfc_program

type tree = { inputs : Value.t list; leaves : int; nodes : int; depth : int }

type report = {
  trees : tree list;
  bound_d : int;
  per_object : int array;
  fan_out : int;
}

let pp_report ppf r =
  Fmt.pf ppf "@[<v>D = %d (fan-out ≤ %d)@," r.bound_d r.fan_out;
  List.iter
    (fun t ->
      Fmt.pf ppf "inputs [%a]: %d leaves, %d nodes, depth %d@,"
        Fmt.(list ~sep:(any ";") Value.pp)
        t.inputs t.leaves t.nodes t.depth)
    r.trees;
  Fmt.pf ppf "per-object access bounds: [%a]@]"
    Fmt.(array ~sep:(any "; ") int)
    r.per_object

let spec_deterministic spec =
  match spec.Type_spec.states with
  | Some _ -> Type_spec.is_deterministic spec
  | None ->
    (* infinite-state spec: check the declared invocations at the initial
       state as a best-effort witness *)
    List.for_all
      (fun inv ->
        List.length
          (spec.Type_spec.transition spec.Type_spec.initial ~port:0 ~inv)
        <= 1)
      spec.Type_spec.invocations

(* §4.2's trees are the runs of one proposal per process, over the values
   the target's invocations propose. *)
let domain_of (target : Type_spec.t) =
  match List.map Ops.propose_arg target.Type_spec.invocations with
  | domain -> Ok domain
  | exception Value.Type_error _ ->
    Error
      (Fmt.str
         "target %s: its invocations are not proposals; Section 4.2 bounds \
          consensus implementations"
         target.Type_spec.name)

let incomplete reason =
  Fmt.str
    "analysis incomplete: %s — no bound established (raise the budget)"
    reason

(* A failed tree: a fuel overflow (the violation with no operations) or a
   leaf that breaks agreement or validity. Neither is a wait-free consensus
   implementation, so neither has a bound D. *)
let refuse inputs (v : Check.violation) =
  let why =
    if v.Check.ops = [] then
      "suspected non-wait-freedom (König: an infinite tree has an infinite \
       path)"
    else "not a consensus implementation, so Section 4.2 bounds nothing"
  in
  Fmt.str "inputs [%a]: %s — %s%a"
    Fmt.(list ~sep:(any ";") Value.pp)
    inputs v.Check.reason why
    Fmt.(
      option (fun ppf (w : Wfc_sim.Witness.t) ->
          pf ppf "; replay trace: %s"
            (Wfc_sim.Faults.trace_to_string w.Wfc_sim.Witness.trace)))
    v.Check.witness

let analyze ?(fuel = Wfc_sim.Explore.default_fuel) ?budget
    ?(require_deterministic = true) ?(engine = Wfc_sim.Explore.fast)
    (impl : Implementation.t) =
  let ( let* ) = Result.bind in
  let nondet =
    if require_deterministic then
      Array.to_list impl.Implementation.objects
      |> List.filter (fun (spec, _) -> not (spec_deterministic spec))
    else []
  in
  let* () =
    match nondet with
    | (spec, _) :: _ ->
      Error
        (Fmt.str
           "base object %s is nondeterministic; Section 4.2's argument \
            assumes deterministic types"
           spec.Type_spec.name)
    | [] -> Ok ()
  in
  let* domain = domain_of impl.Implementation.target in
  let book =
    Check.book ~subsets:false ~repeat:false ~domain ?budget ~engine ~fuel
      ~faults:Wfc_sim.Faults.none impl
  in
  let per_object = Array.make (Array.length impl.Implementation.objects) 0 in
  (* One tree per input vector, each a job from its root. The bound D is the
     max over leaves of the total access count — a timing-insensitive
     observation, so the reduced engine computes the same D (and
     per-object maxima) while visiting far fewer nodes. *)
  let tree ((v : Check.vector), (job : Wfc_sim.Checkpoint.t)) =
    let inputs = Array.to_list (Array.map List.hd v.Check.workloads) in
    let depth = ref 0 in
    let on_leaf (leaf : Wfc_sim.Exec.leaf) =
      depth := max !depth (Array.fold_left ( + ) 0 leaf.accesses)
    in
    let* budget, _ = Result.map_error incomplete (Check.allowance book) in
    match Check.run_job ?budget ~on_leaf impl job with
    | Check.Cut { reason; _ } -> Error (incomplete reason)
    | Check.Violated v -> Error (refuse inputs v)
    | Check.Drained counts ->
      Check.record book v.Check.pos ~from:job
        { job with counts; frontier = [] }
        ~left:0;
      Array.iteri
        (fun i a -> per_object.(i) <- max per_object.(i) a)
        counts.max_accesses;
      Ok { inputs; leaves = counts.leaves; nodes = counts.nodes; depth = !depth }
  in
  let* trees =
    Seq.fold_left
      (fun acc job ->
        let* trees = acc in
        let* t = tree job in
        Ok (t :: trees))
      (Ok []) (Check.jobs book)
  in
  Ok
    {
      trees = List.rev trees;
      bound_d = List.fold_left (fun m t -> max m t.depth) 0 trees;
      per_object;
      fan_out = impl.Implementation.procs;
    }
