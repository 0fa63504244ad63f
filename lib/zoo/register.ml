open Wfc_spec

let step q inv =
  match inv with
  | Value.Sym "read" -> (q, q)
  | Value.Pair (Value.Sym "write", v) -> (v, Ops.ok)
  | _ ->
    raise
      (Type_spec.Bad_step (Fmt.str "register: bad invocation %a" Value.pp inv))

let bit ~ports =
  Type_spec.deterministic_oblivious ~name:"atomic-bit" ~ports
    ~initial:Value.falsity
    ~states:[ Value.falsity; Value.truth ]
    ~responses:[ Value.falsity; Value.truth; Ops.ok ]
    ~invocations:[ Ops.read; Ops.write Value.falsity; Ops.write Value.truth ]
    step

let bounded ~ports ~values =
  if values < 2 then invalid_arg "Register.bounded: values < 2";
  let domain = List.init values Value.int in
  Type_spec.deterministic_oblivious
    ~name:(Fmt.str "atomic-reg%d" values)
    ~ports ~initial:(Value.int 0) ~states:domain
    ~responses:(Ops.ok :: domain)
    ~invocations:(Ops.read :: List.map Ops.write domain)
    step

let unbounded ~ports =
  Type_spec.make ~name:"atomic-reg" ~ports ~initial:(Value.int 0)
    ~invocations:[ Ops.read; Ops.write (Value.int 0) ]
    ~oblivious:true
    (fun q ~port:_ ~inv -> [ step q inv ])
