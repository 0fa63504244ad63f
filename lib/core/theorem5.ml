open Wfc_spec
open Wfc_zoo
open Wfc_program

type strategy =
  | Oblivious_witness of Type_spec.t * Triviality.witness
  | General_pair of Type_spec.t * Nontrivial_pair.pair
  | Consensus_based of (unit -> Implementation.t)

let strategy_for spec =
  let det =
    match spec.Type_spec.states with
    | Some _ -> Type_spec.is_deterministic spec
    | None -> false
  in
  if not det then
    Error
      (Fmt.str
         "%s: not (provably) deterministic — Theorem 5 still applies if \
          h_m ≥ 2: supply a Consensus_based strategy"
         spec.Type_spec.name)
  else if Type_spec.check_oblivious spec then
    match Triviality.decide spec with
    | Error e -> Error e
    | Ok Triviality.Trivial ->
      Error
        (Fmt.str
           "%s is trivial: it cannot implement one-use bits (and, being \
            locally simulatable, h_m = h_m^r = 1 holds anyway — Theorem 5 \
            case 1)"
           spec.Type_spec.name)
    | Ok (Triviality.Nontrivial w) -> Ok (Oblivious_witness (spec, w))
  else
    match Nontrivial_pair.search spec with
    | Error e -> Error e
    | Ok None ->
      Error (Fmt.str "%s: no non-trivial pair found (trivial?)" spec.Type_spec.name)
    | Ok (Some p) -> Ok (General_pair (spec, p))

type report = {
  compiled : Implementation.t;
  bounds : Wfc_consensus.Access_bounds.report;
  registers_eliminated : int;
  registers_localized : int;
  one_use_bits : int;
  t_objects : int;
}

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>D = %d; %d register(s) → %d one-use bits; %d register(s) \
     localized;@ compiled: %a@]"
    r.bounds.Wfc_consensus.Access_bounds.bound_d r.registers_eliminated
    r.one_use_bits r.registers_localized Implementation.pp_summary r.compiled

let is_register spec = String.equal spec.Type_spec.name "atomic-bit"

let is_register_like spec =
  let name = spec.Type_spec.name in
  let prefix p =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  prefix "atomic-bit" || prefix "atomic-reg" || prefix "safe-" || prefix "regular-"

(* Watch which processes read and write each base object. Records fire as
   program nodes are constructed, which happens exactly when the simulator
   is about to run them (modulo fuel-abandoned paths — an over-approximation
   that can only make the derived roles more conservative). *)
let spy impl =
  let readers = Hashtbl.create 16 and writers = Hashtbl.create 16 in
  let record ~proc ~obj ~inv =
    let tbl =
      match inv with
      | Value.Sym "read" -> readers
      | Value.Pair (Value.Sym "write", _) -> writers
      | _ -> writers
    in
    let set = Option.value ~default:[] (Hashtbl.find_opt tbl obj) in
    if not (List.mem proc set) then Hashtbl.replace tbl obj (proc :: set)
  in
  let spied =
    {
      impl with
      Implementation.program =
        (fun ~proc ~inv local ->
          let rec go p =
            match p with
            | Program.Return _ -> p
            | Program.Invoke { obj; inv = i; k; _ } ->
              record ~proc ~obj ~inv:i;
              Program.Invoke { obj; inv = i; k = (fun r -> go (k r)) }
          in
          go (impl.Implementation.program ~proc ~inv local));
    }
  in
  let roles obj =
    ( Option.value ~default:[] (Hashtbl.find_opt readers obj),
      Option.value ~default:[] (Hashtbl.find_opt writers obj) )
  in
  (spied, roles)

(* A register accessed by a single process lives in that process's local
   state: ⟨register slot index, value⟩ pairs keyed into an association list
   would be overkill — the substitution machinery gives each replacement its
   own threaded local, so a plain value suffices. *)
let local_register ~procs ~init =
  Implementation.make
    ~target:(Register.bit ~ports:procs)
    ~implements:init ~procs ~objects:[]
    ~local_init:(fun _ -> init)
    ~program:(fun ~proc:_ ~inv local ->
      match inv with
      | Value.Sym "read" -> Program.return (local, local)
      | Value.Pair (Value.Sym "write", v) -> Program.return (Ops.ok, v)
      | _ -> raise (Type_spec.Bad_step "local_register: bad invocation"))
    ()

let one_use_replacement strategy ~procs ~writer ~reader () =
  match strategy with
  | Oblivious_witness (spec, w) ->
    Triviality.one_use_bit spec w ~procs ~writer ~reader ()
  | General_pair (spec, p) ->
    Nontrivial_pair.one_use_bit spec p ~procs ~writer ~reader ()
  | Consensus_based f ->
    let consensus = f () in
    if
      Implementation.count_objects_where consensus ~pred:is_register_like > 0
    then
      invalid_arg
        "Theorem5: the Consensus_based factory must be register-free (h_m, \
         not h_m^r)";
    From_consensus.from_consensus_impl ~consensus ~procs ~writer ~reader ()

let eliminate_registers ~strategy ?fuel (impl : Implementation.t) =
  let ( let* ) r f = Result.bind r f in
  let procs = impl.Implementation.procs in
  let bad_registers =
    Array.to_list impl.Implementation.objects
    |> List.filter (fun (s, _) -> is_register_like s && not (is_register s))
  in
  let* () =
    match bad_registers with
    | [] -> Ok ()
    | (s, _) :: _ ->
      Error
        (Fmt.str
           "base object %s is not an atomic bit: reduce it with the §4.1 \
            chain (Wfc_registers.Chain) first"
           s.Type_spec.name)
  in
  let spied, roles = spy impl in
  let require_deterministic =
    match strategy with Consensus_based _ -> false | _ -> true
  in
  let* bounds =
    Wfc_consensus.Access_bounds.analyze ?fuel ~require_deterministic spied
  in
  let eliminated = ref 0 and localized = ref 0 and bits = ref 0 in
  let* compiled =
    Array.to_list impl.Implementation.objects
    |> List.mapi (fun i o -> (i, o))
    |> List.fold_left
         (fun acc (obj, (spec, init)) ->
           let* acc = acc in
           if not (is_register spec) then Ok acc
           else
             let readers, writers = roles obj in
             let bound =
               max 1 bounds.Wfc_consensus.Access_bounds.per_object.(obj)
             in
             match (readers, writers) with
             | [], [] | [ _ ], [] | [], [ _ ] ->
               incr localized;
               Ok
                 (Implementation.substitute ~obj
                    ~replacement:(local_register ~procs ~init)
                    acc)
             | [ r ], [ w ] when r = w ->
               incr localized;
               Ok
                 (Implementation.substitute ~obj
                    ~replacement:(local_register ~procs ~init)
                    acc)
             | [ r ], [ w ] ->
               incr eliminated;
               bits := !bits + Bounded_bit.bit_count ~reads:bound ~writes:bound;
               let bounded =
                 Bounded_bit.from_one_use ~reads:bound ~writes:bound
                   ~init:(Value.as_bool init) ~procs ~writer:w ~reader:r ()
               in
               let bounded_over_t =
                 Implementation.substitute_where bounded
                   ~pred:(fun s -> String.equal s.Type_spec.name "one-use-bit")
                   ~replace:(fun _ _ ->
                     one_use_replacement strategy ~procs ~writer:w ~reader:r ())
               in
               Ok (Implementation.substitute ~obj ~replacement:bounded_over_t acc)
             | _ ->
               Error
                 (Fmt.str
                    "register %d is accessed by several readers (%a) or \
                     writers (%a): reduce with the §4.1 chain first" obj
                    Fmt.(list ~sep:(any ",") int)
                    readers
                    Fmt.(list ~sep:(any ",") int)
                    writers))
         (Ok impl)
  in
  let leftover =
    Implementation.count_objects_where compiled ~pred:is_register_like
  in
  let* () =
    if leftover = 0 then Ok ()
    else Error (Fmt.str "internal: %d register(s) left after compilation" leftover)
  in
  Ok
    {
      compiled;
      bounds;
      registers_eliminated = !eliminated;
      registers_localized = !localized;
      one_use_bits = !bits;
      t_objects = Implementation.base_object_count compiled;
    }
