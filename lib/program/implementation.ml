open Wfc_spec

type body = Value.t -> (Value.t * Value.t) Program.t

type t = {
  target : Type_spec.t;
  implements : Value.t;
  procs : int;
  objects : (Type_spec.t * Value.t) array;
  port_map : proc:int -> obj:int -> int;
  local_init : int -> Value.t;
  program : proc:int -> inv:Value.t -> body;
  symmetric : bool;
}

let make ~target ?implements ~procs ~objects
    ?(port_map = fun ~proc ~obj:_ -> proc) ?(local_init = fun _ -> Value.unit)
    ?(symmetric = false) ~program () =
  {
    target;
    implements = Option.value implements ~default:target.Type_spec.initial;
    procs;
    objects = Array.of_list objects;
    port_map;
    local_init;
    program;
    symmetric;
  }

let identity spec ~procs =
  (* The program ignores [proc] and addresses the single shared object, so
     processes are interchangeable whenever the spec itself is oblivious
     (which the exploration engine re-checks before using the declaration). *)
  make ~target:spec ~procs
    ~objects:[ (spec, spec.Type_spec.initial) ]
    ~symmetric:true
    ~program:(fun ~proc:_ ~inv local ->
      Program.map (fun resp -> (resp, local)) (Program.invoke ~obj:0 inv))
    ()

let validate impl =
  let fail fmt = Fmt.kstr (fun s -> Error s) fmt in
  if impl.procs < 1 then fail "no processes"
  else if impl.procs > impl.target.Type_spec.ports then
    fail "more processes (%d) than target ports (%d)" impl.procs
      impl.target.Type_spec.ports
  else
    let n = Array.length impl.objects in
    let rec check_obj obj =
      if obj = n then Ok ()
      else
        let spec, _ = impl.objects.(obj) in
        let ports =
          List.init impl.procs (fun proc -> impl.port_map ~proc ~obj)
        in
        if List.exists (fun p -> p < 0 || p >= spec.Type_spec.ports) ports
        then
          fail "object %d (%s): port out of range" obj spec.Type_spec.name
        else if
          List.length (List.sort_uniq Int.compare ports) <> List.length ports
        then fail "object %d (%s): two processes share a port" obj
            spec.Type_spec.name
        else check_obj (obj + 1)
    in
    check_obj 0

(* A placeholder spec occupying the slot of a replaced object when the
   replacement has no base objects of its own (e.g. a trivial type
   implemented purely locally). Never invoked. *)
let dummy_spec =
  Type_spec.deterministic_oblivious ~name:"(unused)" ~ports:max_int
    ~initial:Value.unit ~states:[ Value.unit ] ~responses:[ Value.unit ]
    ~invocations:[] (fun q _ -> (q, Value.unit))

let substitute ~obj ?(proc_map = Fun.id) ~replacement impl =
  let n_outer = Array.length impl.objects in
  if obj < 0 || obj >= n_outer then
    invalid_arg "Implementation.substitute: object index out of range";
  let old_spec, old_init = impl.objects.(obj) in
  if not (String.equal old_spec.Type_spec.name replacement.target.Type_spec.name)
  then
    invalid_arg
      (Fmt.str "substitute: object %d is %s but replacement implements %s" obj
         old_spec.Type_spec.name replacement.target.Type_spec.name);
  if not (Value.equal old_init replacement.implements) then
    invalid_arg
      (Fmt.str
         "substitute: object %d starts at %a but replacement implements %a"
         obj Value.pp old_init Value.pp replacement.implements);
  (for p = 0 to impl.procs - 1 do
     if proc_map p < 0 || proc_map p >= replacement.procs then
       invalid_arg
         (Fmt.str "substitute: proc %d maps to role %d outside [0,%d)" p
            (proc_map p) replacement.procs)
   done);
  let n_sub = Array.length replacement.objects in
  let renumber so = if so = 0 then obj else n_outer + so - 1 in
  let objects =
    Array.init
      (n_outer + max 0 (n_sub - 1))
      (fun i ->
        if i = obj then
          if n_sub > 0 then replacement.objects.(0) else (dummy_spec, Value.unit)
        else if i < n_outer then impl.objects.(i)
        else replacement.objects.(i - n_outer + 1))
  in
  let is_sub o = (o = obj && n_sub > 0) || o >= n_outer in
  let unrenumber o = if o = obj then 0 else o - n_outer + 1 in
  let port_map ~proc ~obj:o =
    if is_sub o then replacement.port_map ~proc:(proc_map proc) ~obj:(unrenumber o)
    else impl.port_map ~proc ~obj:o
  in
  let local_init p =
    Value.pair (impl.local_init p) (replacement.local_init (proc_map p))
  in
  let program ~proc ~inv outer_plus_sub =
    let outer_local0, sub_local0 = Value.as_pair outer_plus_sub in
    let rec go sub_local p =
      match p with
      | Program.Return (resp, outer_local') ->
        Program.Return (resp, Value.pair outer_local' sub_local)
      | Program.Invoke { obj = o; inv = i; k; _ } ->
        if o = obj then
          let rec run_sub sp =
            match sp with
            | Program.Return (r, sub_local') -> go sub_local' (k r)
            | Program.Invoke { obj = so; inv = si; k = sk; _ } ->
              Program.Invoke
                { obj = renumber so; inv = si; k = (fun r -> run_sub (sk r)) }
          in
          run_sub (replacement.program ~proc:(proc_map proc) ~inv:i sub_local)
        else
          Program.Invoke { obj = o; inv = i; k = (fun r -> go sub_local (k r)) }
    in
    go sub_local0 (impl.program ~proc ~inv outer_local0)
  in
  {
    target = impl.target;
    implements = impl.implements;
    procs = impl.procs;
    objects;
    port_map;
    local_init;
    program;
    (* Conservative: [proc_map] may assign processes distinct roles in the
       replacement, breaking interchangeability even when both parts are
       individually symmetric. Composites must re-declare explicitly. *)
    symmetric = false;
  }

let substitute_where impl ~pred ~replace =
  let originals = Array.to_list (Array.mapi (fun i o -> (i, o)) impl.objects) in
  List.fold_left
    (fun acc (i, ((spec, _init) as o)) ->
      if pred spec then substitute ~obj:i ~replacement:(replace i o) acc
      else acc)
    impl originals

let base_object_count impl = Array.length impl.objects

let count_objects_where impl ~pred =
  Array.fold_left
    (fun n (spec, _) -> if pred spec then n + 1 else n)
    0 impl.objects

let pp_summary ppf impl =
  let tally = Hashtbl.create 8 in
  Array.iter
    (fun (spec, _) ->
      let name = spec.Type_spec.name in
      Hashtbl.replace tally name (1 + Option.value ~default:0 (Hashtbl.find_opt tally name)))
    impl.objects;
  let parts =
    Hashtbl.fold (fun name n acc -> Fmt.str "%d×%s" n name :: acc) tally []
  in
  Fmt.pf ppf "%s for %d procs from {%s}" impl.target.Type_spec.name impl.procs
    (String.concat ", " (List.sort String.compare parts))
