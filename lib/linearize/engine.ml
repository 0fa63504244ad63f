open Wfc_spec
module I = Value.Intern
module Exec = Wfc_sim.Exec
module Explore = Wfc_sim.Explore
module Faults = Wfc_sim.Faults
module Witness = Wfc_sim.Witness
module Ops = Wfc_zoo.Ops

type verdict =
  | Linearizable of Exec.op list
  | Not_linearizable of string

let pp_op ppf (o : Exec.op) =
  Fmt.pf ppf "p%d:%a→%a[%d,%d]" o.proc Value.pp o.inv Value.pp o.resp
    o.start_step o.end_step

let pp_ops ppf ops = Fmt.(list ~sep:(any " ") pp_op) ppf ops

let tick count n =
  match count with Some r -> r := !r + n | None -> ()

(* --- the classic per-leaf check ----------------------------------------------

   Wing–Gould DFS over ⟨linearized-set bitmask, spec state⟩, from scratch for
   one history. Kept verbatim as the oracle the incremental engine is
   property-tested against, and as the [Per_leaf] mode of [verify]. *)

let check_ops ~spec ?init ?(port_of = Fun.id) ?count ?obj (ops : Exec.op list)
    =
  let n = List.length ops in
  if n > 62 then
    invalid_arg
      (match obj with
      | Some obj ->
        Fmt.str
          "Engine.check: the subhistory on object %d has %d \
           operations, above the 62-op limit of the bitmask memoization \
           (done_mask is one OCaml int); split that object's workload into \
           shorter histories"
          obj n
      | None ->
        Fmt.str
          "Engine.check: history against %s has %d operations, \
           above the 62-op limit of the bitmask memoization (done_mask is \
           one OCaml int); split the workload into shorter histories"
          spec.Type_spec.name n);
  let init = Option.value init ~default:spec.Type_spec.initial in
  let arr = Array.of_list ops in
  (* precedes.(i) = bitmask of ops that must be linearized before op i *)
  let precedes =
    Array.init n (fun i ->
        let oi = arr.(i) in
        let mask = ref 0 in
        Array.iteri
          (fun j oj ->
            if j <> i && oj.Exec.end_step < oi.Exec.start_step then
              mask := !mask lor (1 lsl j))
          arr;
        !mask)
  in
  let full = if n = 0 then 0 else (1 lsl n) - 1 in
  let seen : (int * Value.t, unit) Hashtbl.t = Hashtbl.create 512 in
  (* DFS over (set of linearized ops, spec state). *)
  let rec go done_mask state acc =
    if done_mask = full then Some (List.rev acc)
    else
      (* a single find_opt-then-add: never probe the table twice per state *)
      match Hashtbl.find_opt seen (done_mask, state) with
      | Some () -> None
      | None ->
        Hashtbl.add seen (done_mask, state) ();
        let result = ref None in
        let i = ref 0 in
        while !result = None && !i < n do
          let idx = !i in
          incr i;
          if
            done_mask land (1 lsl idx) = 0
            && precedes.(idx) land lnot done_mask = 0
          then begin
            let o = arr.(idx) in
            let alts =
              Type_spec.alternatives spec state ~port:(port_of o.proc)
                ~inv:o.Exec.inv
            in
            tick count (List.length alts);
            List.iter
              (fun (state', resp) ->
                if !result = None && Value.equal resp o.Exec.resp then
                  result := go (done_mask lor (1 lsl idx)) state' (o :: acc))
              alts
          end
        done;
        !result
  in
  match go 0 init [] with
  | Some witness -> Linearizable witness
  | None ->
    Not_linearizable
      (Fmt.str "no linearization of {%a} against %s from %a" pp_ops ops
         spec.Type_spec.name Value.pp init)

(* --- compositional decomposition ---------------------------------------------

   A history over several independent objects (invocations addressed with
   [Ops.at]) is linearizable iff each per-object subhistory is — Herlihy &
   Wing's locality theorem. [partition_by_obj] groups the ops by address,
   pairing each original op with a copy whose invocation is the inner
   (unwrapped) one; unaddressed ops are object 0 and share the original
   record. *)

let partition_by_obj (ops : Exec.op list) =
  let tbl : (int, (Exec.op * Exec.op) list ref) Hashtbl.t = Hashtbl.create 8 in
  let objs = ref [] in
  List.iter
    (fun (o : Exec.op) ->
      let i, inner = Ops.at_target o.inv in
      let entry = if inner == o.inv then (o, o) else ({ o with inv = inner }, o) in
      match Hashtbl.find_opt tbl i with
      | Some l -> l := entry :: !l
      | None ->
        objs := i :: !objs;
        Hashtbl.add tbl i (ref [ entry ]))
    ops;
  List.map
    (fun i -> (i, List.rev !(Hashtbl.find tbl i)))
    (List.sort Int.compare (List.rev !objs))

(* Merge per-object linearizations into one global order: topological sort
   over (a) consecutive pairs of each per-object witness and (b) real-time
   precedence between ops of different objects. Always acyclic for witnesses
   of linearizable subhistories — that is exactly the content of the
   locality theorem. *)
let merge_witnesses (chains : Exec.op list list) =
  match chains with
  | [] -> []
  | [ c ] -> c
  | _ ->
    let arr = Array.of_list (List.concat chains) in
    let n = Array.length arr in
    let index_of =
      let tbl = Hashtbl.create n in
      Array.iteri (fun i o -> Hashtbl.replace tbl (Obj.repr o) i) arr;
      fun o -> Hashtbl.find tbl (Obj.repr o)
    in
    let succs = Array.make n [] in
    let indeg = Array.make n 0 in
    let add_edge u v =
      succs.(u) <- v :: succs.(u);
      indeg.(v) <- indeg.(v) + 1
    in
    List.iter
      (fun chain ->
        let rec link = function
          | a :: (b :: _ as rest) ->
            add_edge (index_of a) (index_of b);
            link rest
          | _ -> ()
        in
        link chain)
      chains;
    (* cross-chain real-time precedence; intra-chain order already implies
       the chain's own precedences *)
    let chain_id = Array.make n 0 in
    List.iteri
      (fun ci chain -> List.iter (fun o -> chain_id.(index_of o) <- ci) chain)
      chains;
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if
          u <> v
          && chain_id.(u) <> chain_id.(v)
          && arr.(u).Exec.end_step < arr.(v).Exec.start_step
        then add_edge u v
      done
    done;
    let out = ref [] in
    let remaining = ref n in
    let ready = ref [] in
    for u = n - 1 downto 0 do
      if indeg.(u) = 0 then ready := u :: !ready
    done;
    while !ready <> [] do
      (* deterministic pick: earliest end_step among the ready ops *)
      let u =
        List.fold_left
          (fun best v ->
            if arr.(v).Exec.end_step < arr.(best).Exec.end_step then v
            else best)
          (List.hd !ready) (List.tl !ready)
      in
      ready := List.filter (fun v -> v <> u) !ready;
      out := arr.(u) :: !out;
      decr remaining;
      List.iter
        (fun v ->
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then ready := v :: !ready)
        succs.(u)
    done;
    if !remaining <> 0 then
      invalid_arg "Engine: internal error: witness merge found a cycle";
    List.rev !out

(* The decomposition both standalone checks share: [solve obj ops] checks
   one subhistory ([obj] is [None] for an unaddressed history, which is
   solved whole) and returns a witness over the ops it was given. *)
let decompose (ops : Exec.op list) ~solve =
  if not (List.exists (fun (o : Exec.op) -> Ops.is_at o.Exec.inv) ops) then
    solve None ops
  else
    let rec go chains = function
      | [] -> Linearizable (merge_witnesses (List.rev chains))
      | (obj, pairs) :: rest -> (
        match solve (Some obj) (List.map fst pairs) with
        | Linearizable w ->
          go (List.map (fun inner -> List.assq inner pairs) w :: chains) rest
        | Not_linearizable _ as v -> v)
    in
    go [] (partition_by_obj ops)

let check ~spec ?init ?port_of ?count ops =
  decompose ops ~solve:(fun obj ops ->
      match (check_ops ~spec ?init ?port_of ?count ?obj ops, obj) with
      | Not_linearizable why, Some obj ->
        Not_linearizable (Fmt.str "object %d: %s" obj why)
      | v, _ -> v)

(* --- the configuration frontier ----------------------------------------------

   Lowe-style just-in-time linearization. A configuration is one way of
   having linearized *every completed operation so far*, possibly
   early-linearizing some still-pending operations with guessed responses:

     { guesses = pending ops linearized early, with the response each was
                 guessed to return (checked when the op really completes);
       state   = the spec state after all of those;
       acc_rev = the linearization order, most recent first (witness
                 decoration only — never part of equality) }

   The frontier is the set of all such configurations. Advancing it at a
   completion is (1) an epsilon-closure — extend each configuration by
   linearizing any sequence of currently-pending operations, guessing their
   responses from the spec alternatives — followed by (2) the completion
   proper: configurations that guessed the completer keep living iff the
   guess matches the actual response (the guess is then discharged);
   configurations that did not linearize it now, at a spec alternative
   matching the actual response. An empty frontier refutes every extension
   of the path at once: deferring a linearization is always possible, so
   every valid linearization of the completed ops is represented. *)

type config = {
  guesses : (int * Value.t) list;  (* sorted by key; ≤ one entry per key *)
  state : Value.t;
  acc_rev : Exec.op list;
}

type pending_op = {
  pkey : int;
  pport : int;
  pinv : Value.t;
  presp : Value.t option;
      (* the response the op is known to eventually return — available when
         checking a complete standalone history, where it prunes guesses
         that could never be discharged; [None] in fused mode *)
  pop : Exec.op option;  (* the completed record, for witness decoration *)
}

module Value_tbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let config_key c =
  Value.pair
    (Value.list
       (List.concat_map (fun (k, v) -> [ Value.int k; v ]) c.guesses))
    c.state

let encode_frontier fr = Value.list (List.map config_key fr)

let rec insert_guess k v = function
  | [] -> [ (k, v) ]
  | (k', v') :: rest ->
    if k < k' then (k, v) :: (k', v') :: rest
    else (k', v') :: insert_guess k v rest

let sort_frontier frontier =
  List.map snd
    (List.sort
       (fun (a, _) (b, _) -> Value.compare a b)
       (List.map (fun c -> (config_key c, c)) frontier))

(* All configurations reachable by early-linearizing any sequence of pending
   operations (worklist closure, deduped on ⟨guesses, state⟩). *)
let closure ~spec ~count frontier ~pending =
  match pending with
  | [] -> frontier
  | _ ->
    let seen = Value_tbl.create 32 in
    let out = ref [] in
    let todo = Queue.create () in
    let push c =
      let k = config_key c in
      if not (Value_tbl.mem seen k) then begin
        Value_tbl.add seen k ();
        out := c :: !out;
        Queue.add c todo
      end
    in
    List.iter push frontier;
    while not (Queue.is_empty todo) do
      let c = Queue.pop todo in
      List.iter
        (fun p ->
          if not (List.mem_assoc p.pkey c.guesses) then begin
            let alts =
              Type_spec.alternatives spec c.state ~port:p.pport ~inv:p.pinv
            in
            tick count (List.length alts);
            List.iter
              (fun (state', resp) ->
                let admissible =
                  match p.presp with
                  | Some r -> Value.equal r resp
                  | None -> true
                in
                if admissible then
                  push
                    {
                      guesses = insert_guess p.pkey resp c.guesses;
                      state = state';
                      acc_rev =
                        (match p.pop with
                        | Some o -> o :: c.acc_rev
                        | None -> c.acc_rev);
                    })
              alts
          end)
        pending
    done;
    !out

(* Advance the frontier over the completion of [op] (whose spec-level
   invocation is [inv] — already unwrapped for addressed histories). *)
let advance ~spec ~count frontier ~(op : Exec.op) ~key ~port ~inv ~pending =
  let cl = closure ~spec ~count frontier ~pending in
  let seen = Value_tbl.create 32 in
  let out = ref [] in
  let push c =
    let k = config_key c in
    if not (Value_tbl.mem seen k) then begin
      Value_tbl.add seen k ();
      out := c :: !out
    end
  in
  List.iter
    (fun c ->
      match List.assoc_opt key c.guesses with
      | Some g ->
        if Value.equal g op.Exec.resp then
          push { c with guesses = List.remove_assoc key c.guesses }
      | None ->
        let alts = Type_spec.alternatives spec c.state ~port ~inv in
        tick count (List.length alts);
        List.iter
          (fun (state', resp) ->
            if Value.equal resp op.Exec.resp then
              push { c with state = state'; acc_rev = op :: c.acc_rev })
          alts)
    cl;
  sort_frontier !out

(* A crashed/wedged process's pending attempt will never complete; a later
   recovery restarts the operation with a fresh (later) invocation time. So
   configurations that early-linearized the attempt can never be discharged
   — drop them. Deferring is always possible, so the configurations that
   did not guess it carry every surviving linearization. *)
let prune_key frontier ~key =
  List.filter (fun c -> not (List.mem_assoc key c.guesses)) frontier

let accepts frontier = List.exists (fun c -> c.guesses = []) frontier

(* --- standalone incremental check -------------------------------------------- *)

let check_subhistory ~spec ~init ~port_of ~count ?obj inner_ops =
  let events = Exec.completion_events inner_ops in
  let root = { guesses = []; state = init; acc_rev = [] } in
  let rec go frontier i = function
    | [] -> (
      match List.find_opt (fun c -> c.guesses = []) frontier with
      | Some c -> Linearizable (List.rev c.acc_rev)
      | None -> assert false (* every op completed: no guess survives *))
    | ((op : Exec.op), pending) :: rest ->
      let pending =
        List.map
          (fun (j, (q : Exec.op)) ->
            {
              pkey = j;
              pport = port_of q.proc;
              pinv = q.inv;
              presp = Some q.resp;
              pop = Some q;
            })
          pending
      in
      let frontier' =
        advance ~spec ~count frontier ~op ~key:i ~port:(port_of op.proc)
          ~inv:op.inv ~pending
      in
      if frontier' = [] then
        Not_linearizable
          (Fmt.str "no linearization of {%a}%s against %s from %a" pp_ops
             inner_ops
             (match obj with
             | Some o -> Fmt.str " (object %d)" o
             | None -> "")
             spec.Type_spec.name Value.pp init)
      else go frontier' (i + 1) rest
  in
  go [ root ] 0 events

let check_history ~spec ?init ?(port_of = Fun.id) ?count ops =
  let init = Option.value init ~default:spec.Type_spec.initial in
  decompose ops ~solve:(fun obj ops ->
      check_subhistory ~spec ~init ~port_of ~count ?obj ops)

(* --- product targets ---------------------------------------------------------- *)

let indexed n spec =
  if n <= 0 then invalid_arg "Engine.indexed: n must be positive";
  let initial =
    Value.list (List.init n (fun _ -> spec.Type_spec.initial))
  in
  Type_spec.make
    ~name:(Fmt.str "%s^%d" spec.Type_spec.name n)
    ~ports:spec.Type_spec.ports ~initial
    ?responses:spec.Type_spec.responses
    ~invocations:
      (List.concat
         (List.init n (fun i ->
              List.map (Ops.at i) spec.Type_spec.invocations)))
    ~oblivious:spec.Type_spec.oblivious
    (fun q ~port ~inv ->
      let i, inner = Ops.at_target inv in
      let comps = Value.as_list q in
      if i < 0 || i >= List.length comps then
        raise
          (Type_spec.Bad_step
             (Fmt.str "%s^%d: address %d out of range" spec.Type_spec.name n i));
      let qi = List.nth comps i in
      List.map
        (fun (qi', resp) ->
          ( Value.list (List.mapi (fun j qj -> if j = i then qi' else qj) comps),
            resp ))
        (Type_spec.alternatives spec qi ~port ~inv:inner))

(* --- fused verification ------------------------------------------------------- *)

type mode = Per_leaf | Incremental of { compositional : bool }

type run_stats = {
  explore : Explore.stats;
  transitions : int;
  memo_hits : int;
  frontier_peak : int;
}

type violation = {
  reason : string;
  prefix : Exec.op list;
  witness : Witness.t option;
}

let pp_violation ppf v =
  Fmt.pf ppf "@[<v>%s" v.reason;
  if v.prefix <> [] then Fmt.pf ppf "@,completed ops: %a" pp_ops v.prefix;
  (match v.witness with
  | Some w ->
    Fmt.pf ppf "@,faults: %a@,witness trace: %a" Faults.pp w.Witness.faults
      Faults.pp_trace w.Witness.trace
  | None -> ());
  Fmt.pf ppf "@]"

(* A frontier with its identity: [fid] is the id of [encode_frontier
   configs] in the run's intern state, [size] its length. Both are computed
   once, when the frontier is made (at a memo miss or a crash prune), so a
   memo hit and a fingerprint read only ints. *)
type frontier = { configs : config list; fid : int; size : int }

type fstate = {
  frontiers : (int * frontier) list;  (* sorted by object id *)
  done_rev : Exec.op list;  (* diagnostics only: never fingerprinted *)
  fp : int;
      (* the state's fingerprint: a tuple chain over ⟨object, frontier id⟩
         in object order, from the id of the empty chain *)
}

let rec set_frontier obj fr = function
  | [] -> [ (obj, fr) ]
  | (o, f) :: rest ->
    if o = obj then (obj, fr) :: rest
    else if o > obj then (obj, fr) :: (o, f) :: rest
    else (o, f) :: set_frontier obj fr rest

let rec frontier_of obj frontiers ~default =
  match frontiers with
  | [] -> default
  | (o, fr) :: rest -> if o = obj then fr else frontier_of obj rest ~default

let guessed fr ~key =
  List.exists (fun c -> List.mem_assoc key c.guesses) fr.configs

let overflow_violation ~workloads ~faults (stats : Explore.stats) =
  {
    reason =
      Fmt.str "%d path(s) exhausted fuel: suspected non-wait-freedom"
        stats.Explore.overflows;
    prefix = [];
    witness =
      Option.map
        (Witness.make ~workloads ~faults)
        stats.Explore.overflow_trace;
  }

let verify impl ~workloads ?fuel ?(faults = Faults.none)
    ?(mode = Incremental { compositional = true }) ?component () =
  let target = impl.Wfc_program.Implementation.target in
  let target_init = impl.Wfc_program.Implementation.implements in
  match mode with
  | Per_leaf ->
    (* The oracle: unreduced exploration (the per-leaf check reads
       timestamps, outside the reductions' soundness envelope), fresh DFS
       per leaf. *)
    let count = ref 0 in
    let viol = ref None in
    let stats =
      Explore.run impl ~workloads ?fuel ~faults
        ~options:Explore.naive
        ~on_leaf_trace:(fun trace (leaf : Exec.leaf) ->
          match
            check_ops ~spec:target ~init:target_init ~count leaf.Exec.ops
          with
          | Linearizable _ -> ()
          | Not_linearizable why ->
            viol :=
              Some
                {
                  reason = why;
                  prefix = leaf.Exec.ops;
                  witness = Some (Witness.make ~workloads ~faults trace);
                };
            raise Exec.Stop)
        ()
    in
    (match !viol with
    | Some v -> Error v
    | None ->
      if stats.Explore.overflows > 0 then
        Error (overflow_violation ~workloads ~faults stats)
      else
        Ok
          {
            explore = stats;
            transitions = !count;
            memo_hits = 0;
            frontier_peak = 0;
          })
  | Incremental { compositional } ->
    let cspec, cinit =
      if compositional then
        match component with
        | Some c -> c
        | None -> (target, target_init)
      else (target, target_init)
    in
    let transitions = ref 0 in
    let memo_hits = ref 0 in
    let peak = ref 0 in
    let viol = ref None in
    (* Everything the tracker names is an id of the run's own intern state:
       frontiers (interned once, when made), invocations, responses, and
       the tuple chains built from them. Advancing a frontier is a pure
       function of ⟨object, frontier, completion, pending set⟩, and distinct
       interleavings hit the same advances constantly, so one memo serves
       the run. Its key is a tuple chain over ⟨object, frontier id, proc,
       invocation id, response id⟩, paired in [memo] with the pending set's
       chain; the map gives an index into [memo_frs]. A hit builds no value
       and allocates nothing but the tracker state. *)
    let ist = I.create () in
    let id v = I.id (I.intern ist v) in
    let nil = I.id (I.unit ist) in
    let make configs =
      let fid = id (encode_frontier configs) in
      { configs; fid; size = List.length configs }
    in
    let root_fr = make [ { guesses = []; state = cinit; acc_rev = [] } ] in
    let memo = Value.Imap.create 1024 in
    let memo_frs = ref (Array.make 256 root_fr) in
    let memo_n = ref 0 in
    let remember fr =
      if !memo_n = Array.length !memo_frs then begin
        let a = Array.make (2 * !memo_n) root_fr in
        Array.blit !memo_frs 0 a 0 !memo_n;
        memo_frs := a
      end;
      !memo_frs.(!memo_n) <- fr;
      incr memo_n;
      !memo_n - 1
    in
    let rec fp_chain acc = function
      | [] -> acc
      | (o, fr) :: rest ->
        fp_chain (I.tuple ist (I.tuple ist acc o) fr.fid) rest
    in
    let state frontiers done_rev =
      { frontiers; done_rev; fp = fp_chain nil frontiers }
    in
    let decode inv = if compositional then Ops.at_target inv else (0, inv) in
    (* The workload's invocations, decoded and interned once. Events carry
       the workload's own values, so [slot] finds one by physical equality
       and a hit interns nothing; any other value is decoded and interned
       where it is met. *)
    let wl = Array.map Array.of_list workloads in
    let wl_obj = Array.map (Array.map (fun inv -> fst (decode inv))) wl in
    let wl_id = Array.map (Array.map (fun inv -> id (snd (decode inv)))) wl in
    let slot p inv =
      let row = if p < Array.length wl then wl.(p) else [||] in
      let i = ref 0 in
      while !i < Array.length row && row.(!i) != inv do
        incr i
      done;
      if !i < Array.length row then !i else -1
    in
    let obj_of p i inv = if i >= 0 then wl_obj.(p).(i) else fst (decode inv) in
    let inv_id p i inv =
      if i >= 0 then wl_id.(p).(i) else id (snd (decode inv))
    in
    (* The pending set's chain: ⟨proc, invocation id⟩ of each operation
       pending on [obj], in order, from the id of the empty chain. *)
    let rec pending_chain obj acc = function
      | [] -> acc
      | (p, pinv) :: rest ->
        let j = slot p pinv in
        if obj_of p j pinv = obj then
          let acc = I.tuple ist (I.tuple ist acc p) (inv_id p j pinv) in
          pending_chain obj acc rest
        else pending_chain obj acc rest
    in
    let record ~trace_rev ~done_rev reason =
      let v =
        {
          reason;
          prefix = List.rev done_rev;
          witness =
            Some (Witness.make ~workloads ~faults (List.rev trace_rev));
        }
      in
      if !viol = None then viol := Some v;
      raise Exec.Stop
    in
    let event st ~trace_rev = function
      | Explore.Op_completed { op; pending } ->
        let proc = op.Exec.proc in
        let i = slot proc op.Exec.inv in
        let obj = obj_of proc i op.Exec.inv in
        let fr = frontier_of obj st.frontiers ~default:root_fr in
        let pend_id = pending_chain obj nil pending in
        let key =
          I.tuple ist
            (I.tuple ist
               (I.tuple ist (I.tuple ist obj fr.fid) proc)
               (inv_id proc i op.Exec.inv))
            (id op.Exec.resp)
        in
        let fr' =
          match Value.Imap.find memo key pend_id with
          | -1 ->
            let pend =
              List.filter_map
                (fun (p, pinv) ->
                  let o', pinner = decode pinv in
                  if o' = obj then
                    Some
                      {
                        pkey = p;
                        pport = p;
                        pinv = pinner;
                        presp = None;
                        pop = None;
                      }
                  else None)
                pending
            in
            let count = ref 0 in
            let fr' =
              make
                (advance ~spec:cspec ~count:(Some count) fr.configs ~op
                   ~key:proc ~port:proc ~inv:(snd (decode op.Exec.inv))
                   ~pending:pend)
            in
            transitions := !transitions + !count;
            Value.Imap.add memo key pend_id (remember fr');
            fr'
          | i ->
            incr memo_hits;
            !memo_frs.(i)
        in
        let done_rev = op :: st.done_rev in
        if fr'.size = 0 then
          record ~trace_rev ~done_rev
            (Fmt.str
               "no linearization of the completed prefix {%a} against %s \
                (object %d): every extension of this schedule is a violation"
               pp_ops (List.rev done_rev) cspec.Type_spec.name obj);
        let frontiers = set_frontier obj fr' st.frontiers in
        peak :=
          max !peak (List.fold_left (fun n (_, f) -> n + f.size) 0 frontiers);
        state frontiers done_rev
      | Explore.Proc_crashed p | Explore.Proc_wedged p ->
        (* Only a frontier that guessed the lost attempt changes; when none
           did, the state comes back physically unchanged and the kernel
           keeps its fingerprint. *)
        if not (List.exists (fun (_, fr) -> guessed fr ~key:p) st.frontiers)
        then st
        else begin
          let frontiers =
            List.map
              (fun (o, fr) ->
                if guessed fr ~key:p then
                  (o, make (prune_key fr.configs ~key:p))
                else (o, fr))
              st.frontiers
          in
          (match List.find_opt (fun (_, fr) -> fr.size = 0) frontiers with
          | Some (obj, _) ->
            record ~trace_rev ~done_rev:st.done_rev
              (Fmt.str
                 "no linearization of the completed prefix {%a} against %s \
                  (object %d) once p%d's pending attempt is lost"
                 pp_ops (List.rev st.done_rev) cspec.Type_spec.name obj p)
          | None -> ());
          state frontiers st.done_rev
        end
    in
    let at_leaf st ~trace_rev (_ : Exec.leaf) =
      match
        List.find_opt (fun (_, fr) -> not (accepts fr.configs)) st.frontiers
      with
      | Some (obj, _) ->
        record ~trace_rev ~done_rev:st.done_rev
          (Fmt.str
             "object %d: undischarged early linearizations at a complete leaf"
             obj)
      | None -> ()
    in
    let tracker =
      {
        Explore.root = state [] [];
        event;
        at_leaf;
        fingerprint = (fun st -> st.fp);
      }
    in
    let stats =
      Explore.run impl ~workloads ?fuel ~faults
        ~options:Explore.fast ~tracker ()
    in
    (match !viol with
    | Some v -> Error v
    | None ->
      if stats.Explore.overflows > 0 then
        Error (overflow_violation ~workloads ~faults stats)
      else
        Ok
          {
            explore = stats;
            transitions = !transitions;
            memo_hits = !memo_hits;
            frontier_peak = !peak;
          })
