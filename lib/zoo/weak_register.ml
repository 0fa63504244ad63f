open Wfc_spec

let idle = Value.sym "idle"

let initial v = Value.pair v idle

let is_mid_write = function
  | Value.Pair (_, Value.Pair (Value.Sym "writing", _)) -> true
  | _ -> false

let writing v = Value.pair (Value.sym "writing") v

(* [read_alts ~mode domain q] — alternatives for a read in state [q]. *)
let read_alts ~safe domain q =
  match q with
  | Value.Pair (cur, Value.Sym "idle") -> [ (q, cur) ]
  | Value.Pair (cur, Value.Pair (Value.Sym "writing", next)) ->
    if safe then List.map (fun v -> (q, v)) domain
    else
      let alts = [ (q, cur) ] in
      if Value.equal cur next then alts else (q, next) :: alts
  | _ ->
    raise
      (Type_spec.Bad_step (Fmt.str "weak register: bad state %a" Value.pp q))

let step ~safe domain q inv =
  match (q, inv) with
  | _, Value.Sym "read" -> read_alts ~safe domain q
  | Value.Pair (cur, Value.Sym "idle"), Value.Pair (Value.Sym "write-start", v)
    ->
    [ (Value.pair cur (writing v), Ops.ok) ]
  | ( Value.Pair (_, Value.Pair (Value.Sym "writing", next)),
      Value.Sym "write-end" ) ->
    [ (initial next, Ops.ok) ]
  | _ ->
    (* write-start during a write, or write-end while idle: a single-writer
       discipline violation. Disabled rather than garbage, so the simulator
       flags the bug immediately. *)
    []

let make ~safe ~name ~ports domain =
  let states =
    List.concat_map
      (fun cur ->
        initial cur
        :: List.map (fun next -> Value.pair cur (writing next)) domain)
      domain
  in
  let invocations =
    (Ops.read :: List.map Ops.write_start domain) @ [ Ops.write_end ]
  in
  Type_spec.make ~name ~ports
    ~initial:(initial (List.hd domain))
    ~states
    ~responses:(Ops.ok :: domain)
    ~invocations ~oblivious:true
    (fun q ~port:_ ~inv -> step ~safe domain q inv)

let bool_domain = [ Value.falsity; Value.truth ]

let safe_bit ~ports = make ~safe:true ~name:"safe-bit" ~ports bool_domain

let regular_bit ~ports =
  make ~safe:false ~name:"regular-bit" ~ports bool_domain

let safe_values ~ports ~domain =
  if domain = [] then invalid_arg "Weak_register.safe_values: empty domain";
  make ~safe:true ~name:"safe-values" ~ports domain

let regular_unbounded ~ports ~initial:init_v =
  Type_spec.make ~name:"regular-reg" ~ports ~initial:(initial init_v)
    ~invocations:[ Ops.read; Ops.write_start init_v; Ops.write_end ]
    ~oblivious:true
    (fun q ~port:_ ~inv -> step ~safe:false [] q inv)
