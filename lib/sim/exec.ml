open Wfc_spec
open Wfc_program

type op = {
  proc : int;
  op_index : int;
  inv : Value.t;
  resp : Value.t;
  start_step : int;
  end_step : int;
  steps : int;
}

type leaf = {
  objects : Value.t array;
  locals : Value.t array;
  ops : op list;
  events : int;
  accesses : int array;
}

type stats = {
  leaves : int;
  nodes : int;
  max_events : int;
  max_op_steps : int;
  max_accesses : int array;
  overflows : int;
}

exception Stop
exception Stalled

(* Completion order with per-completion pending sets, derived from the
   timestamps alone. Pending keys are positions in the sorted completion
   order rather than proc ids: hand-written histories may have tied
   timestamps or overlapping operations of the same process, and positions
   stay unique regardless. *)
let completion_events ops =
  let arr = Array.of_list ops in
  Array.sort
    (fun a b ->
      compare
        (a.end_step, a.start_step, a.proc)
        (b.end_step, b.start_step, b.proc))
    arr;
  let n = Array.length arr in
  List.init n (fun i ->
      let c = arr.(i) in
      let pending = ref [] in
      for j = n - 1 downto i + 1 do
        if arr.(j).start_step <= c.end_step then
          pending := (j, arr.(j)) :: !pending
      done;
      (c, !pending))

(* Invariant: [node] is an [Invoke] node — [Return]s are retired eagerly
   within the event that produces them. *)
type pend = {
  inv0 : Value.t;
  op_index : int;
  node : (Value.t * Value.t) Program.t;
  steps_done : int;
  started : int;
}

type prec = {
  todo : Value.t list;
  next_op : int;
  pending : pend option;
  local : Value.t;
}

type cfg = {
  objs : Value.t array;
  procs : prec array;
  ops_rev : op list;
  events : int;
  acc : int array;
  crashed : bool array;
  crashes_left : int;
  recoveries_left : int;
  glitches_left : int;
  stuck : bool array;
  hist : Value.t list array;
      (* per object: overwritten past states, most recent first; maintained
         only for objects with a [Stale_reads] degradation *)
  faults : Faults.t;
}

let initial_cfg impl ~workloads =
  if Array.length workloads <> impl.Implementation.procs then
    invalid_arg "Exec: workloads length must equal impl.procs";
  let n_objs = Array.length impl.Implementation.objects in
  {
    objs = Array.map snd impl.Implementation.objects;
    procs =
      Array.mapi
        (fun p todo ->
          {
            todo;
            next_op = 0;
            pending = None;
            local = impl.Implementation.local_init p;
          })
        workloads;
    ops_rev = [];
    events = 0;
    acc = Array.make n_objs 0;
    crashed = Array.make (Array.length workloads) false;
    crashes_left = 0;
    recoveries_left = 0;
    glitches_left = 0;
    stuck = Array.make (Array.length workloads) false;
    hist = Array.make n_objs [];
    faults = Faults.none;
  }

let with_faults cfg (f : Faults.t) =
  {
    cfg with
    faults = f;
    crashes_left = f.Faults.max_crashes;
    recoveries_left = f.Faults.max_recoveries;
    glitches_left = f.Faults.max_glitches;
  }

let enabled cfg =
  let out = ref [] in
  for p = Array.length cfg.procs - 1 downto 0 do
    let pr = cfg.procs.(p) in
    if
      (not cfg.crashed.(p))
      && (not cfg.stuck.(p))
      && (pr.pending <> None || pr.todo <> [])
    then out := p :: !out
  done;
  !out

(* Crashed processes whose interrupted work a recovery could restart. *)
let recoverable cfg =
  if cfg.recoveries_left <= 0 then []
  else begin
    let out = ref [] in
    for p = Array.length cfg.procs - 1 downto 0 do
      let pr = cfg.procs.(p) in
      if
        cfg.crashed.(p)
        && (not cfg.stuck.(p))
        && (pr.pending <> None || pr.todo <> [])
      then out := p :: !out
    done;
    !out
  end

(* Halt process [p] forever: its pending operation (if any) is abandoned
   between base accesses, leaving object states as they are. *)
let crash cfg p =
  let crashed = Array.copy cfg.crashed in
  crashed.(p) <- true;
  { cfg with crashed; crashes_left = cfg.crashes_left - 1; events = cfg.events + 1 }

(* Restart [p] after a crash: its pending operation is re-run from scratch —
   local effects rolled back (the op's program restarts from the local state
   at invocation), shared effects not (object states keep whatever the
   interrupted attempt wrote). [next_op] is untouched because it only
   advances when an operation returns. *)
let recover cfg p =
  let crashed = Array.copy cfg.crashed in
  crashed.(p) <- false;
  let pr = cfg.procs.(p) in
  let pr' =
    match pr.pending with
    | None -> pr
    | Some pd -> { pr with todo = pd.inv0 :: pr.todo; pending = None }
  in
  let procs = Array.copy cfg.procs in
  procs.(p) <- pr';
  {
    cfg with
    crashed;
    procs;
    recoveries_left = cfg.recoveries_left - 1;
    events = cfg.events + 1;
  }

(* [p]'s next step fell off its specified envelope (disabled invocation or
   undecodable response — possible only under a derailing adversary): it is
   stuck forever, like a crash it cannot recover from. *)
let wedge cfg p =
  let stuck = Array.copy cfg.stuck in
  stuck.(p) <- true;
  { cfg with stuck; events = cfg.events + 1 }

let set_proc procs p pr' =
  let procs' = Array.copy procs in
  procs'.(p) <- pr';
  procs'

(* Record the overwritten state [q] of [obj] when the access changed it and
   the adversary tracks staleness for that object. *)
let push_hist cfg obj q' =
  let q = cfg.objs.(obj) in
  if Value.equal q q' || not (Faults.tracks_history cfg.faults obj) then
    cfg.hist
  else begin
    let depth = Faults.stale_depth cfg.faults obj in
    let hist = Array.copy cfg.hist in
    hist.(obj) <- List.filteri (fun i _ -> i < depth) (q :: hist.(obj));
    hist
  end

(* Continue process [p] at program node [node] after an access has updated
   objects/accounting (current-op bookkeeping in the args). *)
let continue cfg p ~objs ~acc ~hist ~glitches_left ~inv0 ~op_index ~started
    ~steps ~todo node =
  match node with
  | Program.Return (resp, local') ->
    let completed =
      {
        proc = p;
        op_index;
        inv = inv0;
        resp;
        start_step = started;
        end_step = cfg.events;
        steps;
      }
    in
    let pr' = { todo; next_op = op_index + 1; pending = None; local = local' } in
    {
      cfg with
      objs;
      procs = set_proc cfg.procs p pr';
      ops_rev = completed :: cfg.ops_rev;
      events = cfg.events + 1;
      acc;
      hist;
      glitches_left;
    }
  | Program.Invoke _ ->
    let pd = { inv0; op_index; node; steps_done = steps; started } in
    let pr' = { cfg.procs.(p) with todo; pending = Some pd } in
    {
      cfg with
      objs;
      procs = set_proc cfg.procs p pr';
      events = cfg.events + 1;
      acc;
      hist;
      glitches_left;
    }

(* The pending-or-next operation of [p]:
   ⟨inv0, op_index, started, steps_done, todo-after, node⟩. *)
let poised impl cfg p =
  let pr = cfg.procs.(p) in
  match pr.pending with
  | Some pd ->
    Some (pd.inv0, pd.op_index, pd.started, pd.steps_done, pr.todo, pd.node)
  | None -> (
    match pr.todo with
    | [] -> None
    | inv :: rest ->
      Some
        ( inv,
          pr.next_op,
          cfg.events,
          0,
          rest,
          impl.Implementation.program ~proc:p ~inv pr.local ))

(* Process [p]'s honest successor configurations for one scheduling event. *)
let step_alternatives impl cfg p =
  match poised impl cfg p with
  | None -> []
  | Some (inv0, op_index, started, steps_done, todo, node) -> (
    match node with
    | Program.Return _ ->
      (* a fresh zero-access operation completes in one event *)
      [
        continue cfg p ~objs:cfg.objs ~acc:cfg.acc ~hist:cfg.hist
          ~glitches_left:cfg.glitches_left ~inv0 ~op_index ~started
          ~steps:steps_done ~todo node;
      ]
    | Program.Invoke { obj; inv; k; _ } ->
      let spec, _ = impl.Implementation.objects.(obj) in
      let port = impl.Implementation.port_map ~proc:p ~obj in
      let alts = Type_spec.alternatives spec cfg.objs.(obj) ~port ~inv in
      if alts = [] then
        raise
          (Type_spec.Bad_step
             (Fmt.str
                "proc %d: invocation %a disabled on object %d (%s) in state %a"
                p Value.pp inv obj spec.Type_spec.name Value.pp
                cfg.objs.(obj)));
      List.map
        (fun (q', resp) ->
          (* pure reads leave the state unchanged: share the parent's array
             instead of copying just to write back the same value. The test
             is physical on purpose — well-behaved specs return the argument
             state itself for reads, and a structural walk over a large
             state would cost more than the copy it saves. *)
          let objs =
            if q' == cfg.objs.(obj) then cfg.objs
            else begin
              let objs = Array.copy cfg.objs in
              objs.(obj) <- q';
              objs
            end
          in
          let acc = Array.copy cfg.acc in
          acc.(obj) <- acc.(obj) + 1;
          let hist = push_hist cfg obj q' in
          continue cfg p ~objs ~acc ~hist ~glitches_left:cfg.glitches_left
            ~inv0 ~op_index ~started ~steps:(steps_done + 1) ~todo (k resp))
        alts)

(* Process [p]'s glitched successor configurations: for a pure read on a
   degraded object, each available degraded response (see
   {!Faults.glitch_responses}) with the object state left unchanged. A
   glitched response the program cannot decode is dropped — that branch is
   behaviourally a crash, which the crash budget already covers. *)
let glitch_alternatives impl cfg p =
  if cfg.glitches_left <= 0 then []
  else
    match poised impl cfg p with
    | None -> []
    | Some (inv0, op_index, started, steps_done, todo, node) -> (
      match node with
      | Program.Return _ -> []
      | Program.Invoke { obj; inv; k; _ } -> (
        match Faults.degradation_of cfg.faults obj with
        | None -> []
        | Some d ->
          let spec, _ = impl.Implementation.objects.(obj) in
          let port = impl.Implementation.port_map ~proc:p ~obj in
          let q = cfg.objs.(obj) in
          let alts_at qs =
            try Type_spec.alternatives spec qs ~port ~inv
            with Type_spec.Bad_step _ -> []
          in
          let resps =
            Faults.glitch_responses ~alts:(alts_at q) ~alts_at ~q
              ~hist:cfg.hist.(obj) d
          in
          List.filter_map
            (fun resp ->
              let acc = Array.copy cfg.acc in
              acc.(obj) <- acc.(obj) + 1;
              match
                continue cfg p ~objs:cfg.objs ~acc ~hist:cfg.hist
                  ~glitches_left:(cfg.glitches_left - 1) ~inv0 ~op_index
                  ~started ~steps:(steps_done + 1) ~todo (k resp)
              with
              | cfg' -> Some ((obj, inv, resp), cfg')
              | exception Value.Type_error _ -> None)
            resps))

let leaf_of_cfg cfg =
  {
    objects = cfg.objs;
    locals = Array.map (fun pr -> pr.local) cfg.procs;
    ops = List.rev cfg.ops_rev;
    events = cfg.events;
    accesses = cfg.acc;
  }

let explore impl ~workloads ?(fuel = 10_000) ?(faults = Faults.none)
    ?(on_leaf = fun _ -> ()) () =
  let derail = Faults.can_derail faults in
  let leaves = ref 0 in
  let nodes = ref 0 in
  let max_events = ref 0 in
  let max_op_steps = ref 0 in
  let n_objs () = Array.length impl.Implementation.objects in
  let max_accesses = Array.make (n_objs ()) 0 in
  let overflows = ref 0 in
  let rec go cfg =
    let procs = enabled cfg in
    let recs = recoverable cfg in
    if procs = [] then begin
      incr leaves;
      if cfg.events > !max_events then max_events := cfg.events;
      List.iter
        (fun o -> if o.steps > !max_op_steps then max_op_steps := o.steps)
        cfg.ops_rev;
      Array.iteri
        (fun i a -> if a > max_accesses.(i) then max_accesses.(i) <- a)
        cfg.acc;
      on_leaf (leaf_of_cfg cfg)
    end;
    if procs <> [] || recs <> [] then begin
      if cfg.events >= fuel then begin
        if procs <> [] then incr overflows
      end
      else begin
        List.iter
          (fun p ->
            (match step_alternatives impl cfg p with
            | alts ->
              List.iter
                (fun cfg' ->
                  incr nodes;
                  go cfg')
                alts
            | exception (Type_spec.Bad_step _ | Value.Type_error _)
              when derail ->
              incr nodes;
              go (wedge cfg p));
            List.iter
              (fun (_, cfg') ->
                incr nodes;
                go cfg')
              (glitch_alternatives impl cfg p);
            if cfg.crashes_left > 0 then begin
              incr nodes;
              go (crash cfg p)
            end)
          procs;
        List.iter
          (fun p ->
            incr nodes;
            go (recover cfg p))
          recs
      end
    end
  in
  (try go (with_faults (initial_cfg impl ~workloads) faults) with Stop -> ());
  {
    leaves = !leaves;
    nodes = !nodes;
    max_events = !max_events;
    max_op_steps = !max_op_steps;
    max_accesses;
    overflows = !overflows;
  }

type event =
  | Access of { proc : int; obj : int; inv : Value.t; resp : Value.t }
  | Completed of { proc : int; op_index : int; inv : Value.t; resp : Value.t }
  | Crashed of { proc : int }
  | Recovered of { proc : int }
  | Glitched of { proc : int; obj : int; inv : Value.t; resp : Value.t }
  | Wedged of { proc : int }

let pp_event impl ppf = function
  | Access { proc; obj; inv; resp } ->
    let spec, _ = impl.Implementation.objects.(obj) in
    Fmt.pf ppf "p%d: %a on object %d (%s) → %a" proc Value.pp inv obj
      spec.Type_spec.name Value.pp resp
  | Completed { proc; op_index; inv; resp } ->
    Fmt.pf ppf "p%d: op #%d %a returns %a" proc op_index Value.pp inv Value.pp
      resp
  | Crashed { proc } -> Fmt.pf ppf "p%d: CRASHES mid-operation" proc
  | Recovered { proc } ->
    Fmt.pf ppf "p%d: RECOVERS — restarts its interrupted operation" proc
  | Glitched { proc; obj; inv; resp } ->
    let spec, _ = impl.Implementation.objects.(obj) in
    Fmt.pf ppf "p%d: %a on object %d (%s) GLITCHES → %a" proc Value.pp inv obj
      spec.Type_spec.name Value.pp resp
  | Wedged { proc } ->
    Fmt.pf ppf "p%d: WEDGES (stepped off its specified envelope)" proc

(* Reconstruct the events of one chosen step from the configuration delta:
   one [Access] when an object access was charged, and a [Completed] when the
   op count grew. Shared by {!run} and {!replay}. *)
let emit_delta impl ~on_event cfg cfg' p =
  let pr = cfg.procs.(p) in
  let completed =
    match cfg'.ops_rev with
    | o :: _ when List.length cfg'.ops_rev > List.length cfg.ops_rev -> Some o
    | _ -> None
  in
  let accessed =
    let changed = ref None in
    Array.iteri (fun i a -> if cfg'.acc.(i) > a then changed := Some i) cfg.acc;
    !changed
  in
  (match accessed with
  | Some obj ->
    let inv =
      match pr.pending with
      | Some pd -> (
        match pd.node with
        | Program.Invoke { inv; _ } -> inv
        | Program.Return _ -> Value.unit)
      | None -> (
        match pr.todo with
        | inv0 :: _ -> (
          match impl.Implementation.program ~proc:p ~inv:inv0 pr.local with
          | Program.Invoke { inv; _ } -> inv
          | Program.Return _ -> Value.unit)
        | [] -> Value.unit)
    in
    on_event (Access { proc = p; obj; inv; resp = cfg'.objs.(obj) })
  | None -> ());
  match completed with
  | Some o ->
    on_event
      (Completed
         { proc = o.proc; op_index = o.op_index; inv = o.inv; resp = o.resp })
  | None -> ()

let replay impl ~workloads ?faults ?(on_event = fun (_ : event) -> ()) trace =
  let faults =
    match faults with Some f -> f | None -> Faults.none
  in
  let err fmt = Fmt.kstr Result.error fmt in
  let rec go cfg = function
    | [] -> Ok (leaf_of_cfg cfg)
    | { Faults.proc = p; kind } :: rest ->
      if p < 0 || p >= Array.length cfg.procs then
        err "replay: no process %d" p
      else begin
        match kind with
        | Faults.Step i ->
          if not (List.mem p (enabled cfg)) then
            err "replay: process %d not enabled at event %d" p cfg.events
          else begin
            match step_alternatives impl cfg p with
            | alts -> (
              match List.nth_opt alts i with
              | Some cfg' ->
                emit_delta impl ~on_event cfg cfg' p;
                go cfg' rest
              | None ->
                err "replay: p%d has %d alternative(s) at event %d, not %d" p
                  (List.length alts) cfg.events (i + 1))
            | exception (Type_spec.Bad_step _ | Value.Type_error _)
              when Faults.can_derail cfg.faults ->
              err "replay: p%d wedges at event %d (expected p%d.x)" p
                cfg.events p
          end
        | Faults.Glitch i ->
          if not (List.mem p (enabled cfg)) then
            err "replay: process %d not enabled at event %d" p cfg.events
          else (
            match List.nth_opt (glitch_alternatives impl cfg p) i with
            | Some ((obj, inv, resp), cfg') ->
              on_event (Glitched { proc = p; obj; inv; resp });
              (match cfg'.ops_rev with
              | o :: _ when List.length cfg'.ops_rev > List.length cfg.ops_rev
                ->
                on_event
                  (Completed
                     {
                       proc = o.proc;
                       op_index = o.op_index;
                       inv = o.inv;
                       resp = o.resp;
                     })
              | _ -> ());
              go cfg' rest
            | None ->
              err "replay: no glitch alternative %d for p%d at event %d" i p
                cfg.events)
        | Faults.Crash ->
          if cfg.crashes_left <= 0 then
            err "replay: crash budget exhausted at event %d" cfg.events
          else if not (List.mem p (enabled cfg)) then
            err "replay: cannot crash p%d at event %d (not enabled)" p
              cfg.events
          else begin
            on_event (Crashed { proc = p });
            go (crash cfg p) rest
          end
        | Faults.Recover ->
          if not (List.mem p (recoverable cfg)) then
            err "replay: cannot recover p%d at event %d" p cfg.events
          else begin
            on_event (Recovered { proc = p });
            go (recover cfg p) rest
          end
        | Faults.Wedge -> (
          if not (List.mem p (enabled cfg)) then
            err "replay: process %d not enabled at event %d" p cfg.events
          else
            match step_alternatives impl cfg p with
            | exception (Type_spec.Bad_step _ | Value.Type_error _) ->
              on_event (Wedged { proc = p });
              go (wedge cfg p) rest
            | _ -> err "replay: p%d does not wedge at event %d" p cfg.events)
      end
  in
  go (with_faults (initial_cfg impl ~workloads) faults) trace

type node_view = {
  depth : int;
  next_accesses : (int * int * Value.t) list;
}

(* Peek at process [p]'s next base access without stepping it. *)
let peek_access impl cfg p =
  let pr = cfg.procs.(p) in
  let of_node = function
    | Program.Invoke { obj; inv; _ } -> Some (p, obj, inv)
    | Program.Return _ -> None
  in
  match pr.pending with
  | Some pd -> of_node pd.node
  | None -> (
    match pr.todo with
    | [] -> None
    | inv :: _ -> of_node (impl.Implementation.program ~proc:p ~inv pr.local))

let fold_tree impl ~workloads ?(fuel = 10_000) ~leaf ~node () =
  let rec go cfg =
    match enabled cfg with
    | [] -> leaf (leaf_of_cfg cfg)
    | procs ->
      if cfg.events >= fuel then
        failwith "Exec.fold_tree: fuel exhausted (infinite subtree?)"
      else
        let view =
          {
            depth = cfg.events;
            next_accesses = List.filter_map (peek_access impl cfg) procs;
          }
        in
        let children =
          List.concat_map
            (fun p -> List.map go (step_alternatives impl cfg p))
            procs
        in
        node view children
  in
  go (initial_cfg impl ~workloads)

let run impl ~workloads ~pick_proc ~pick_alt ?(fuel = 100_000)
    ?(on_event = fun (_ : event) -> ()) () =
  let rec go cfg =
    match enabled cfg with
    | [] -> leaf_of_cfg cfg
    | procs ->
      if cfg.events >= fuel then
        failwith
          (Fmt.str "Exec.run: fuel exhausted after %d events (livelock?)"
             cfg.events)
      else begin
        match pick_proc ~enabled:procs ~step:cfg.events with
        | exception Stalled ->
          (* the scheduler declares no runnable process will ever be picked
             again (e.g. {!Schedulers.crash} with only dead processes
             enabled): stop gracefully with the partial execution *)
          leaf_of_cfg cfg
        | p ->
          if not (List.mem p procs) then
            invalid_arg "Exec.run: scheduler picked a non-enabled process";
          let alts = step_alternatives impl cfg p in
          let i = pick_alt ~n:(List.length alts) ~step:cfg.events in
          let cfg' = List.nth alts i in
          emit_delta impl ~on_event cfg cfg' p;
          go cfg'
      end
  in
  go (initial_cfg impl ~workloads)

let sequential_oracle impl invs =
  let workloads =
    Array.init impl.Implementation.procs (fun p -> if p = 0 then invs else [])
  in
  let leaf =
    run impl ~workloads
      ~pick_proc:(fun ~enabled ~step:_ -> List.hd enabled)
      ~pick_alt:(fun ~n:_ ~step:_ -> 0)
      ()
  in
  (List.map (fun o -> o.resp) leaf.ops, leaf)
