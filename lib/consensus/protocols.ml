open Wfc_spec
open Wfc_zoo
open Wfc_program

let none = Value.sym "none"

let with_decision_cache (impl : Implementation.t) =
  {
    impl with
    Implementation.local_init =
      (fun p -> Value.pair (impl.Implementation.local_init p) none);
    program =
      (fun ~proc ~inv local ->
        let inner_local, cache = Value.as_pair local in
        if not (Value.equal cache none) then Program.return (cache, local)
        else
          Program.map
            (fun (resp, inner_local') ->
              (resp, Value.pair inner_local' resp))
            (impl.Implementation.program ~proc ~inv inner_local));
  }

let propose_value inv =
  match inv with
  | Value.Pair (Value.Sym "propose", v) -> v
  | _ ->
    raise
      (Type_spec.Bad_step (Fmt.str "consensus: bad invocation %a" Value.pp inv))

(* Shared two-process shape: write your proposal register, race on a
   decider object, read the other's register if you lost. *)
let two_process ~name:_ ~decider ~decider_init ~race =
  let procs = 2 in
  let reg = Register.bit ~ports:procs in
  let open Program.Syntax in
  let program ~proc ~inv local =
    let v = propose_value inv in
    let* _ = Program.invoke ~obj:(1 + proc) (Ops.write v) in
    let* won = race () in
    if won then Program.return (v, local)
    else
      let+ other = Program.invoke ~obj:(1 + (1 - proc)) Ops.read in
      (other, local)
  in
  with_decision_cache
    (Implementation.make
       ~target:(Consensus_type.binary ~ports:procs)
       ~implements:Consensus_type.bot ~procs
       ~objects:[ (decider, decider_init); (reg, Value.falsity); (reg, Value.falsity) ]
       ~program ())

let from_tas () =
  let open Program.Syntax in
  let decider = Rmw.test_and_set ~ports:2 in
  two_process ~name:"tas" ~decider ~decider_init:decider.Type_spec.initial
    ~race:(fun () ->
      let+ old = Program.invoke ~obj:0 Ops.test_and_set in
      not (Value.as_bool old))

let from_faa () =
  let open Program.Syntax in
  let decider = Rmw.fetch_add_mod ~ports:2 ~modulus:5 in
  two_process ~name:"faa" ~decider ~decider_init:decider.Type_spec.initial
    ~race:(fun () ->
      let+ old = Program.invoke ~obj:0 (Ops.fetch_add 1) in
      Value.as_int old = 0)

let from_swap () =
  let open Program.Syntax in
  let decider = Rmw.swap_bounded ~ports:2 ~values:2 in
  two_process ~name:"swap" ~decider ~decider_init:(Value.int 0)
    ~race:(fun () ->
      let+ old = Program.invoke ~obj:0 (Ops.swap (Value.int 1)) in
      Value.as_int old = 0)

let win = Value.sym "win"

let from_queue () =
  let open Program.Syntax in
  let decider = Collections.queue ~ports:2 ~capacity:1 ~domain:[ win ] in
  two_process ~name:"queue" ~decider
    ~decider_init:(Collections.initial_of_list [ win ])
    ~race:(fun () ->
      let+ front = Program.invoke ~obj:0 Ops.deq in
      Value.equal front win)

let from_cas ~procs () =
  let cas = Rmw.cas_bounded ~ports:procs ~values:2 in
  let open Program.Syntax in
  let to_int v = Value.int (if Value.as_bool v then 1 else 0) in
  let to_bool v = Value.bool (Value.as_int v = 1) in
  let program ~proc:_ ~inv local =
    let v = propose_value inv in
    let* _ =
      Program.invoke ~obj:0 (Ops.cas ~expect:Rmw.bot ~update:(to_int v))
    in
    let+ decided = Program.invoke ~obj:0 Ops.read in
    (to_bool decided, local)
  in
  (* [program] never inspects [proc] and the decider is one shared object,
     so processes are interchangeable up to their inputs; [symmetric] lets
     the exploration engine merge pid-permuted schedules. (The two_process
     protocols above do NOT qualify: they index proposal registers by pid.) *)
  with_decision_cache
    (Implementation.make
       ~target:(Consensus_type.binary ~ports:procs)
       ~implements:Consensus_type.bot ~procs
       ~objects:[ (cas, Rmw.bot) ]
       ~symmetric:true ~program ())

let from_sticky ~procs () =
  let sticky = Sticky.bit ~ports:procs in
  let open Program.Syntax in
  let program ~proc:_ ~inv local =
    let v = propose_value inv in
    let+ decided = Program.invoke ~obj:0 (Ops.stick v) in
    (decided, local)
  in
  with_decision_cache
    (Implementation.make
       ~target:(Consensus_type.binary ~ports:procs)
       ~implements:Consensus_type.bot ~procs
       ~objects:[ (sticky, Sticky.bot) ]
       ~symmetric:true ~program ())

let broken_register_only () =
  let procs = 2 in
  let bot_mark = Value.int 2 in
  let reg = Register.bounded ~ports:procs ~values:3 in
  let open Program.Syntax in
  let to_int v = Value.int (if Value.as_bool v then 1 else 0) in
  let to_bool v = Value.bool (Value.as_int v = 1) in
  let program ~proc ~inv local =
    let v = propose_value inv in
    let* _ = Program.invoke ~obj:proc (Ops.write (to_int v)) in
    let+ other = Program.invoke ~obj:(1 - proc) Ops.read in
    if Value.equal other bot_mark then (v, local) else (to_bool other, local)
  in
  with_decision_cache
    (Implementation.make
       ~target:(Consensus_type.binary ~ports:procs)
       ~implements:Consensus_type.bot ~procs
       ~objects:[ (reg, bot_mark); (reg, bot_mark) ]
       ~program ())

(* n-process consensus where the CAS object stores the WINNER'S IDENTITY and
   proposals travel through per-ordered-pair SRSW bits: reg(p→q) is written
   only by p and read only by q. Unlike {!from_cas} (which decides the value
   directly and needs no registers), this protocol exists to exercise the
   Theorem 5 compiler at n > 2: every register is single-reader
   single-writer, so the compiler accepts it. *)
let from_cas_ids ~procs () =
  if procs < 2 then invalid_arg "from_cas_ids: procs < 2";
  let cas = Rmw.cas_bounded ~ports:procs ~values:procs in
  let reg = Register.bit ~ports:procs in
  (* reg(p→q), p ≠ q, at index 1 + p(procs-1) + (q if q<p else q-1) *)
  let reg_obj ~from_ ~to_ =
    1 + (from_ * (procs - 1)) + if to_ < from_ then to_ else to_ - 1
  in
  let objects =
    (cas, Rmw.bot)
    :: List.init (procs * (procs - 1)) (fun _ -> (reg, Value.falsity))
  in
  let open Program.Syntax in
  let program ~proc ~inv local =
    let v = propose_value inv in
    let* () =
      Program.for_list
        (List.filter (fun q -> q <> proc) (List.init procs Fun.id))
        (fun q ->
          Program.map ignore
            (Program.invoke ~obj:(reg_obj ~from_:proc ~to_:q) (Ops.write v)))
    in
    let* _ =
      Program.invoke ~obj:0 (Ops.cas ~expect:Rmw.bot ~update:(Value.int proc))
    in
    let* winner = Program.invoke ~obj:0 Ops.read in
    let winner = Value.as_int winner in
    if winner = proc then Program.return (v, local)
    else
      let+ decided = Program.invoke ~obj:(reg_obj ~from_:winner ~to_:proc) Ops.read in
      (decided, local)
  in
  with_decision_cache
    (Implementation.make
       ~target:(Consensus_type.binary ~ports:procs)
       ~implements:Consensus_type.bot ~procs ~objects ~program ())

(* --- lookup by name ----------------------------------------------------------

   The single place that maps protocol names to builders: the CLI, the
   fleet workers (which rebuild the implementation from a job's meta
   section) and witness replay must all agree on this table, or a shard
   leased to a worker would silently verify a different protocol. *)

let names =
  [ "tas"; "faa"; "swap"; "queue"; "cas"; "cas-ids"; "sticky"; "broken" ]

(* A builder for [procs] processes, refused below the protocol's minimum. *)
let at_least name ~min ~procs build =
  if procs < min then
    Error (Fmt.str "%s needs at least %d process(es), got %d" name min procs)
  else Ok (build ~procs ())

let of_name ?(procs = 2) = function
  | "tas" -> Ok (from_tas ())
  | "faa" -> Ok (from_faa ())
  | "swap" -> Ok (from_swap ())
  | "queue" -> Ok (from_queue ())
  | "cas" -> at_least "cas" ~min:1 ~procs from_cas
  | "cas-ids" -> at_least "cas-ids" ~min:2 ~procs from_cas_ids
  | "sticky" -> at_least "sticky" ~min:1 ~procs from_sticky
  | "broken" -> Ok (broken_register_only ())
  | p ->
    Error (Fmt.str "unknown protocol %s (try: %s)" p (String.concat ", " names))

(* The [protocol]/[procs] entries that checkpoints, fleet jobs and witnesses
   carry, so whoever loads one can rebuild the implementation. *)
let meta ~name ~procs = [ ("protocol", name); ("procs", string_of_int procs) ]

let of_meta ~procs entries =
  match (List.assoc_opt "protocol" entries, List.assoc_opt "procs" entries) with
  | None, _ -> Error "no protocol meta entry"
  | Some name, None -> Ok (name, procs)
  | Some name, Some s -> (
    match int_of_string_opt s with
    | Some procs -> Ok (name, procs)
    | None -> Error (Fmt.str "malformed procs meta entry %S" s))
