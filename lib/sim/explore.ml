open Wfc_spec
open Wfc_program

type dedup = Checkpoint.dedup = Off | Exact | Symmetric

type options = { dedup : dedup; por : bool; domains : int; compile : bool }

let naive = { dedup = Off; por = false; domains = 1; compile = false }
let fast = { dedup = Symmetric; por = true; domains = 1; compile = true }

let parallel ?domains () =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> max 2 (Domain.recommended_domain_count () - 1)
  in
  { fast with domains }

type partial_reason =
  | Budget_exhausted
  | Deadline_exceeded
  | Stopped
  | Interrupted
  | Probabilistic

type completeness = Exhaustive | Partial of partial_reason

let pp_partial_reason ppf = function
  | Budget_exhausted -> Fmt.string ppf "node budget exhausted"
  | Deadline_exceeded -> Fmt.string ppf "deadline exceeded"
  | Stopped -> Fmt.string ppf "stopped by on_leaf"
  | Interrupted -> Fmt.string ppf "interrupted"
  | Probabilistic ->
    Fmt.string ppf "probabilistic dedup (memory budget forced the Bloom tier)"

let pp_completeness ppf = function
  | Exhaustive -> Fmt.string ppf "exhaustive"
  | Partial r -> Fmt.pf ppf "partial (%a)" pp_partial_reason r

type stats = {
  leaves : int;
  nodes : int;
  max_events : int;
  max_op_steps : int;
  max_accesses : int array;
  overflows : int;
  pruned : int;
  sleep_skips : int;
  domains_used : int;
  degraded : int;
  evictions : int;
  spilled : int;
  completeness : completeness;
  overflow_trace : Faults.trace option;
}

let default_fuel = 10_000

let to_exec_stats s =
  {
    Exec.leaves = s.leaves;
    nodes = s.nodes;
    max_events = s.max_events;
    max_op_steps = s.max_op_steps;
    max_accesses = s.max_accesses;
    overflows = s.overflows;
  }

(* --- path trackers ----------------------------------------------------------

   A tracker threads caller state down the tree, advanced at every edge that
   completes an operation or crashes/wedges a process. The state is
   persistent, so sibling subtrees share the value computed along their
   common prefix — this is what the incremental linearizability engine fuses
   into. Trackers observe completion order and pending sets, never raw
   timestamps; see the .mli for why that makes POR sound here. *)

type path_event =
  | Op_completed of { op : Exec.op; pending : (int * Value.t) list }
  | Proc_crashed of int
  | Proc_wedged of int

type 'a tracker = {
  root : 'a;
  event : 'a -> trace_rev:Faults.trace -> path_event -> 'a;
  at_leaf : 'a -> trace_rev:Faults.trace -> Exec.leaf -> unit;
  fingerprint : ('a -> Value.t) option;
}

(* run is monomorphic in its result, so the caller's state type is hidden
   behind an existential and the engine below is written once, generically. *)
type etracker = Tracker : 'a tracker -> etracker

let null_tracker =
  {
    root = ();
    event = (fun () ~trace_rev:_ _ -> ());
    at_leaf = (fun () ~trace_rev:_ _ -> ());
    fingerprint = Some (fun () -> Value.unit);
  }

(* --- configurations ---------------------------------------------------------

   Same persistent representation as [Exec], with one addition: a pending
   operation remembers the base responses it has received so far
   ([resps_rev]). Programs are deterministic functions of (proc, invocation,
   local-at-invocation), so ⟨inv0, resps_rev⟩ pins the continuation [node]
   exactly — which is what lets a configuration be fingerprinted even though
   [node] contains closures. (A glitched response enters [resps_rev] like an
   honest one: the continuation depends on what the program saw, not on
   whether the object really said it.) *)

type pend = {
  inv0 : Value.t;
  op_index : int;
  node : (Value.t * Value.t) Program.t;
  steps_done : int;
  started : int;
  resps_rev : Value.t list;
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
  ops_rev : Exec.op list;
  events : int;
  acc : int array;
  crashed : bool array;
  crashes_left : int;
  recoveries_left : int;
  glitches_left : int;
  stuck : bool array;
  hist : Value.t list array;
  faults : Faults.t;
}

let initial_cfg impl ~workloads =
  if Array.length workloads <> impl.Implementation.procs then
    invalid_arg "Explore: workloads length must equal impl.procs";
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

let crash cfg p =
  let crashed = Array.copy cfg.crashed in
  crashed.(p) <- true;
  { cfg with crashed; crashes_left = cfg.crashes_left - 1; events = cfg.events + 1 }

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

let wedge cfg p =
  let stuck = Array.copy cfg.stuck in
  stuck.(p) <- true;
  { cfg with stuck; events = cfg.events + 1 }

let set_proc procs p pr' =
  let procs' = Array.copy procs in
  procs'.(p) <- pr';
  procs'

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

let continue cfg p ~objs ~acc ~hist ~glitches_left ~inv0 ~op_index ~started
    ~steps ~resps_rev ~todo node =
  match node with
  | Program.Return (resp, local') ->
    let completed =
      {
        Exec.proc = p;
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
    let pd = { inv0; op_index; node; steps_done = steps; started; resps_rev } in
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

let poised impl cfg p =
  let pr = cfg.procs.(p) in
  match pr.pending with
  | Some pd ->
    Some
      ( pd.inv0,
        pd.op_index,
        pd.started,
        pd.steps_done,
        pd.resps_rev,
        pr.todo,
        pd.node )
  | None -> (
    match pr.todo with
    | [] -> None
    | inv :: rest ->
      Some
        ( inv,
          pr.next_op,
          cfg.events,
          0,
          [],
          rest,
          impl.Implementation.program ~proc:p ~inv pr.local ))

let bad_step impl cfg p obj inv =
  let spec, _ = impl.Implementation.objects.(obj) in
  raise
    (Type_spec.Bad_step
       (Fmt.str "proc %d: invocation %a disabled on object %d (%s) in state %a"
          p Value.pp inv obj spec.Type_spec.name Value.pp cfg.objs.(obj)))

let invoke_children cfg p ~inv0 ~op_index ~started ~steps_done ~resps_rev
    ~todo ~obj k alts =
  List.map
    (fun (q', resp) ->
      (* pure reads leave the state unchanged: share the parent's array
         instead of copying just to write back the same value (the
         incremental fingerprint diff then sees no change either). The test
         is physical on purpose — well-behaved specs return the argument
         state itself for reads, and a structural walk over a large state
         would cost more than the copy it saves. *)
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
      continue cfg p ~objs ~acc ~hist ~glitches_left:cfg.glitches_left ~inv0
        ~op_index ~started ~steps:(steps_done + 1)
        ~resps_rev:(resp :: resps_rev) ~todo (k resp))
    alts

let step_alternatives impl cfg p =
  match poised impl cfg p with
  | None -> []
  | Some (inv0, op_index, started, steps_done, resps_rev, todo, node) -> (
    match node with
    | Program.Return _ ->
      [
        continue cfg p ~objs:cfg.objs ~acc:cfg.acc ~hist:cfg.hist
          ~glitches_left:cfg.glitches_left ~inv0 ~op_index ~started
          ~steps:steps_done ~resps_rev ~todo node;
      ]
    | Program.Invoke { obj; inv; k; _ } ->
      let spec, _ = impl.Implementation.objects.(obj) in
      let port = impl.Implementation.port_map ~proc:p ~obj in
      let alts = Type_spec.alternatives spec cfg.objs.(obj) ~port ~inv in
      if alts = [] then bad_step impl cfg p obj inv;
      invoke_children cfg p ~inv0 ~op_index ~started ~steps_done ~resps_rev
        ~todo ~obj k alts)

let glitch_alternatives impl cfg p =
  if cfg.glitches_left <= 0 then []
  else
    match poised impl cfg p with
    | None -> []
    | Some (inv0, op_index, started, steps_done, resps_rev, todo, node) -> (
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
                  ~started ~steps:(steps_done + 1)
                  ~resps_rev:(resp :: resps_rev) ~todo (k resp)
              with
              | cfg' -> Some ((obj, inv, resp), cfg')
              | exception Value.Type_error _ -> None)
            resps))

let leaf_of_cfg cfg =
  {
    Exec.objects = cfg.objs;
    locals = Array.map (fun pr -> pr.local) cfg.procs;
    ops = List.rev cfg.ops_rev;
    events = cfg.events;
    accesses = cfg.acc;
  }

(* --- process-symmetry reduction ---------------------------------------------

   Two configurations that differ only by a permutation π of interchangeable
   processes have π-isomorphic subtrees: every schedule of one is a schedule
   of the other with pids renamed, and every verdict predicate we run
   (agreement, validity, wait-freedom fuel, per-object access bounds) is
   invariant under renaming processes *within a class of equal inputs*. So
   instead of exploring both, we canonicalize the dedup KEY — never the
   configuration itself — by sorting the per-process fingerprint components
   within each class under a fixed total order. Exploration always proceeds
   on real configurations, so traces, witnesses and leaves are reported in
   un-permuted pids; symmetry only makes the dedup table coarser, which
   composes with sleep sets exactly like plain dedup does (the sleep bits
   are canonicalized along with the process components).

   Interchangeability is DECLARED ([Implementation.symmetric] promises the
   program text never inspects [proc]) and then narrowed here: every base
   spec must be port-oblivious, and only processes with equal workloads and
   equal initial local states fall in one class. Trackers thread caller
   state whose pid-equivariance we cannot see, so a user tracker disables
   the reduction (the engine falls back to exact, pid-ordered keys). *)

module Symmetry = struct
  (* [classes.(p)] is the smallest pid interchangeable with [p]; a process
     in no nontrivial class is its own representative. *)
  type t = { classes : int array }

  let classes g = g.classes

  let group_order g =
    let n = Array.length g.classes in
    let size = Array.make n 0 in
    Array.iter (fun r -> size.(r) <- size.(r) + 1) g.classes;
    let fact k =
      let rec go acc i = if i <= 1 then acc else go (acc * i) (i - 1) in
      go 1 k
    in
    Array.fold_left (fun acc s -> if s > 1 then acc * fact s else acc) 1 size

  let of_impl (impl : Implementation.t) ~(workloads : Value.t list array) =
    if not impl.Implementation.symmetric then None
    else if
      Array.exists
        (fun (spec, _) -> not spec.Type_spec.oblivious)
        impl.Implementation.objects
    then None
    else begin
      let n = Array.length workloads in
      let classes = Array.init n Fun.id in
      for p = 1 to n - 1 do
        let rec find q =
          if q >= p then p
          else if
            classes.(q) = q
            && List.equal Value.equal workloads.(q) workloads.(p)
            && Value.equal
                 (impl.Implementation.local_init q)
                 (impl.Implementation.local_init p)
          then q
          else find (q + 1)
        in
        classes.(p) <- find 0
      done;
      let nontrivial = ref false in
      Array.iteri (fun p r -> if r <> p then nontrivial := true) classes;
      if !nontrivial then Some { classes } else None
    end
end

(* --- interned, incremental fingerprints --------------------------------------

   Every component of the dedup key is a [Value.Intern.cell] (or, for the
   base objects, an additive hash over cell ids), so the key is a handful of
   integers (see "flat fingerprint encoding" below) instead of a deep
   [Value.t] walked by [Value.hash]/[Value.equal].

   The cells are maintained *incrementally* along tree edges, and each edge
   pays for what it changed, not for the size of what it touched:

   - A process cell is built from cached component cells — the todo list,
     ⟨next_op, local⟩, the pending operation's head ⟨inv0, op_index⟩ and its
     response chain (responses so far, newest first, as a cons-chain). An
     access extends the chain by one [I.pair] and re-pairs the pending and
     process cells; the todo and local cells change only when an operation
     starts or returns. No edge re-interns a whole response list.

   - The object segment is summarized by two additive hashes (see
     {!Fingerprint.component_hi}): one position-salted term per object over
     ⟨object cell, history cell, access count⟩, so an access replaces one
     term instead of re-hashing every object.

   This is the one key definition. The interpreted flat path keeps it in an
   immutable [fpc] per node: configurations are persistent — every
   transition [Array.copy]s the touched array and shares all other elements
   — so a physical diff of child against parent pinpoints the components
   that changed, and backtracking is free because the parent's [fpc] is
   untouched. The compiled kernel keeps the same cells in mutable arrays and
   restores them on backtrack.

   Per-process components deliberately exclude the pid itself (the position
   in the key carries it; under symmetry, the canonical position), and a
   process's completed operations form a cons-chain extended by one cell
   when an edge retires an operation — completion order across processes
   never enters the key. *)

module I = Value.Intern

(* Process components. The todo cell changes only when an operation
   starts, the local cell ⟨next_op, local⟩ only when one returns. An idle
   process's pending cell is [I.unit]; a pending one's is ⟨head, chain⟩,
   and the chain of no responses is [I.unit] too, so every component stays
   injective. *)
let todo_cell ist todo = I.list ist (List.map (I.intern ist) todo)

let local_cell ist ~next_op local =
  I.pair ist (I.int ist next_op) (I.intern ist local)

let head_cell ist ~inv0 ~op_index =
  I.pair ist (I.intern ist inv0) (I.int ist op_index)

let chain_cell ist resps_rev =
  List.fold_right
    (fun r chain -> I.pair ist (I.intern ist r) chain)
    resps_rev (I.unit ist)

let ctl_cell ist ~todo_c ~local_c = I.pair ist todo_c local_c
let pend_cell ist ~head_c ~chain_c = I.pair ist head_c chain_c
let proc_cell ist ~ctl_c ~pend_c = I.pair ist ctl_c pend_c

(* One object's terms in the two additive lanes. *)
let obj_term_hi o oc hc a = Fingerprint.component_hi o (I.id oc) (I.id hc) a
let obj_term_lo o oc hc a = Fingerprint.component_lo o (I.id oc) (I.id hc) a

type pcells = {
  todo_c : I.cell;
  local_c : I.cell;
  head_c : I.cell;  (* meaningful only while an operation is pending *)
  chain_c : I.cell;
  cell : I.cell;  (* the process cell itself *)
}

type fpc = {
  src : cfg;  (* the configuration these cells fingerprint *)
  obj_cells : I.cell array;
  hist_cells : I.cell array;
  sum_hi : int;  (* additive hash of the object segment, two lanes *)
  sum_lo : int;
  pparts : pcells array;
  proc_cells : I.cell array;  (* [pparts.(p).cell], as the encoder wants *)
  ops_cells : I.cell array;  (* per proc: cons-chain of completed-op cells *)
}

let fp_op_cell ist (o : Exec.op) =
  I.list ist
    [ I.int ist o.op_index; I.intern ist o.inv; I.intern ist o.resp;
      I.int ist o.steps ]

let fp_hist_cell ist h = I.list ist (List.map (I.intern ist) h)

let resps_of pr = match pr.pending with None -> [] | Some pd -> pd.resps_rev

let assemble_pcells ist ~todo_c ~local_c ~head_c ~chain_c pending =
  let pend_c =
    if pending then pend_cell ist ~head_c ~chain_c else I.unit ist
  in
  {
    todo_c;
    local_c;
    head_c;
    chain_c;
    cell = proc_cell ist ~ctl_c:(ctl_cell ist ~todo_c ~local_c) ~pend_c;
  }

let pcells_of ist pr =
  let head_c =
    match pr.pending with
    | None -> I.unit ist
    | Some pd -> head_cell ist ~inv0:pd.inv0 ~op_index:pd.op_index
  in
  assemble_pcells ist
    ~todo_c:(todo_cell ist pr.todo)
    ~local_c:(local_cell ist ~next_op:pr.next_op pr.local)
    ~head_c
    ~chain_c:(chain_cell ist (resps_of pr))
    (Option.is_some pr.pending)

(* [old] fingerprints [pr]; reuse every component [pr'] shares physically
   with it. A response chain that grew by one response costs one pair. *)
let pcells_advance ist old pr pr' =
  let todo_c =
    if pr'.todo == pr.todo then old.todo_c else todo_cell ist pr'.todo
  in
  let local_c =
    if pr'.local == pr.local && pr'.next_op = pr.next_op then old.local_c
    else local_cell ist ~next_op:pr'.next_op pr'.local
  in
  let head_c =
    match (pr.pending, pr'.pending) with
    | _, None -> old.head_c
    | Some pd, Some pd' when pd'.inv0 == pd.inv0 && pd'.op_index = pd.op_index
      ->
      old.head_c
    | _, Some pd' -> head_cell ist ~inv0:pd'.inv0 ~op_index:pd'.op_index
  in
  let rs = resps_of pr and rs' = resps_of pr' in
  let chain_c =
    if rs' == rs then old.chain_c
    else
      match rs' with
      | r :: tl when tl == rs -> I.pair ist (I.intern ist r) old.chain_c
      | _ -> chain_cell ist rs'
  in
  assemble_pcells ist ~todo_c ~local_c ~head_c ~chain_c
    (Option.is_some pr'.pending)

(* Build from scratch — the root of an exploration (or of a worker's
   subtree: intern states are per-domain, so cells never cross domains). *)
let fpc_of_cfg ist cfg =
  let ops_cells = Array.make (Array.length cfg.procs) (I.unit ist) in
  List.iter
    (fun (o : Exec.op) ->
      ops_cells.(o.proc) <- I.pair ist (fp_op_cell ist o) ops_cells.(o.proc))
    (List.rev cfg.ops_rev);
  let obj_cells = Array.map (I.intern ist) cfg.objs in
  let hist_cells = Array.map (fp_hist_cell ist) cfg.hist in
  let sum_hi = ref 0 and sum_lo = ref 0 in
  Array.iteri
    (fun o oc ->
      sum_hi := !sum_hi + obj_term_hi o oc hist_cells.(o) cfg.acc.(o);
      sum_lo := !sum_lo + obj_term_lo o oc hist_cells.(o) cfg.acc.(o))
    obj_cells;
  let pparts = Array.map (pcells_of ist) cfg.procs in
  {
    src = cfg;
    obj_cells;
    hist_cells;
    sum_hi = !sum_hi;
    sum_lo = !sum_lo;
    pparts;
    proc_cells = Array.map (fun pc -> pc.cell) pparts;
    ops_cells;
  }

(* Copy-on-write store: [a] is [orig] until the first write. *)
let cow_set a orig i x =
  if !a == orig then a := Array.copy orig;
  Array.unsafe_set !a i x

(* Only indices whose child element is not physically the parent's are
   re-interned. Immediate values (e.g. [Value.Unit]) compare by value under
   [!=], and a false "changed" on a block merely re-interns to the same
   cell — the diff is conservative, never wrong. *)
let fpc_advance ist fpc cfg' =
  if fpc.src == cfg' then fpc
  else begin
    let src = fpc.src in
    let ops_cells =
      (* Same physical completion detector as [step_state]: an edge retires
         at most one operation. *)
      match cfg'.ops_rev with
      | o :: rest when rest == src.ops_rev ->
        let a = Array.copy fpc.ops_cells in
        a.(o.proc) <- I.pair ist (fp_op_cell ist o) a.(o.proc);
        a
      | _ -> fpc.ops_cells
    in
    let obj_cells = ref fpc.obj_cells and hist_cells = ref fpc.hist_cells in
    let sum_hi = ref fpc.sum_hi and sum_lo = ref fpc.sum_lo in
    if cfg'.objs != src.objs || cfg'.hist != src.hist || cfg'.acc != src.acc
    then
      for o = 0 to Array.length cfg'.objs - 1 do
        let oc = fpc.obj_cells.(o) and hc = fpc.hist_cells.(o) in
        let a = src.acc.(o) and a' = cfg'.acc.(o) in
        let oc' =
          if cfg'.objs.(o) != src.objs.(o) then I.intern ist cfg'.objs.(o)
          else oc
        in
        let hc' =
          if cfg'.hist.(o) != src.hist.(o) then fp_hist_cell ist cfg'.hist.(o)
          else hc
        in
        if oc' != oc || hc' != hc || a' <> a then begin
          if oc' != oc then cow_set obj_cells fpc.obj_cells o oc';
          if hc' != hc then cow_set hist_cells fpc.hist_cells o hc';
          sum_hi := !sum_hi - obj_term_hi o oc hc a + obj_term_hi o oc' hc' a';
          sum_lo := !sum_lo - obj_term_lo o oc hc a + obj_term_lo o oc' hc' a'
        end
      done;
    let pparts = ref fpc.pparts and proc_cells = ref fpc.proc_cells in
    if cfg'.procs != src.procs then
      Array.iteri
        (fun p pr' ->
          let pr = src.procs.(p) in
          if pr' != pr then begin
            let pc = pcells_advance ist fpc.pparts.(p) pr pr' in
            cow_set pparts fpc.pparts p pc;
            cow_set proc_cells fpc.proc_cells p pc.cell
          end)
        cfg'.procs;
    {
      src = cfg';
      obj_cells = !obj_cells;
      hist_cells = !hist_cells;
      sum_hi = !sum_hi;
      sum_lo = !sum_lo;
      pparts = !pparts;
      proc_cells = !proc_cells;
      ops_cells;
    }
  end

(* --- partial-order reduction (source-set style) ------------------------------

   Each node classifies every runnable process's next transition ONCE into a
   [pstep]: the POR kind plus everything needed to generate its children —
   the base-object alternatives are computed here and reused for generation,
   never recomputed. The branch set at a node is the source set: enabled
   processes minus the sleep set; members of the sleep set have their
   subtrees excluded before any child configuration is constructed.

   Two processes are independent at a configuration when both next accesses
   are deterministic single-alternative steps and either (a) they target
   different objects, or (b) they target the same object and both leave its
   state unchanged (read-read commutation: the two orders reach literally
   identical configurations — same object states, same responses, same
   access counts and histories — only per-op timestamps differ, and those
   are outside the soundness envelope). Zero-access completions and
   nondeterministic accesses are conservatively dependent with
   everything. *)

type acc_kind = { obj : int; det : bool; pure_read : bool }
type next_kind = Pure | Acc of acc_kind

type pstep = {
  kind : next_kind;
  inv0 : Value.t;
  op_index : int;
  started : int;
  steps_done : int;
  resps_rev : Value.t list;
  todo : Value.t list;
  node : (Value.t * Value.t) Program.t;
  alts : (Value.t * Value.t) list;  (* cached; [] for [Pure] *)
}

let pstep_of impl cfg p =
  match poised impl cfg p with
  | None -> None
  | Some (inv0, op_index, started, steps_done, resps_rev, todo, node) ->
    let kind, alts =
      match node with
      | Program.Return _ -> (Pure, [])
      | Program.Invoke { obj; inv; _ } ->
        let spec, _ = impl.Implementation.objects.(obj) in
        let port = impl.Implementation.port_map ~proc:p ~obj in
        let alts = Type_spec.alternatives spec cfg.objs.(obj) ~port ~inv in
        let det, pure_read =
          match alts with
          | [ (q', _) ] ->
            (true, q' == cfg.objs.(obj) || Value.equal q' cfg.objs.(obj))
          | _ -> (false, false)
        in
        (Acc { obj; det; pure_read }, alts)
    in
    Some
      { kind; inv0; op_index; started; steps_done; resps_rev; todo; node; alts }

(* Children of a classified step — reuses the alternatives [pstep_of]
   already computed instead of walking the spec again. *)
let children_of_pstep impl cfg p ps =
  match ps.node with
  | Program.Return _ ->
    [
      continue cfg p ~objs:cfg.objs ~acc:cfg.acc ~hist:cfg.hist
        ~glitches_left:cfg.glitches_left ~inv0:ps.inv0 ~op_index:ps.op_index
        ~started:ps.started ~steps:ps.steps_done ~resps_rev:ps.resps_rev
        ~todo:ps.todo ps.node;
    ]
  | Program.Invoke { obj; inv; k; _ } ->
    if ps.alts = [] then bad_step impl cfg p obj inv;
    invoke_children cfg p ~inv0:ps.inv0 ~op_index:ps.op_index
      ~started:ps.started ~steps_done:ps.steps_done ~resps_rev:ps.resps_rev
      ~todo:ps.todo ~obj k ps.alts

let independent (nexts : pstep option array) p q =
  match (nexts.(p), nexts.(q)) with
  | Some { kind = Acc a; _ }, Some { kind = Acc b; _ } ->
    a.det && b.det && (a.obj <> b.obj || (a.pure_read && b.pure_read))
  | _ -> false

(* --- graceful degradation ----------------------------------------------------

   [budget] (configurations visited, across all domains) and [deadline]
   (absolute wall clock) cut the whole exploration rather than a single
   path: an exceeded limit raises [Cut], records why, and the final stats
   carry [completeness = Partial _] — "not falsified within budget" instead
   of a verdict. *)

exception Cut

type limiter = {
  budget : int Atomic.t option;  (* remaining visits *)
  deadline : float option;  (* absolute, Monotime scale *)
  interrupt : bool Atomic.t option;  (* e.g. set by a SIGINT handler *)
  tripped : partial_reason option Atomic.t;
  active : bool;
}

let make_limiter ?budget ?deadline_s ?interrupt () =
  let budget = Option.map Atomic.make budget in
  let deadline = Option.map (fun s -> Monotime.now () +. s) deadline_s in
  {
    budget;
    deadline;
    interrupt;
    tripped = Atomic.make None;
    active =
      Option.is_some budget || Option.is_some deadline
      || Option.is_some interrupt;
  }

let trip lim reason =
  ignore (Atomic.compare_and_set lim.tripped None (Some reason))

let check_limits lim =
  (match lim.interrupt with
  | Some flag when Atomic.get flag ->
    trip lim Interrupted;
    raise Cut
  | _ -> ());
  (match lim.deadline with
  | Some t when Monotime.now () > t ->
    trip lim Deadline_exceeded;
    raise Cut
  | _ -> ());
  match lim.budget with
  | Some b ->
    if Atomic.fetch_and_add b (-1) <= 0 then begin
      trip lim Budget_exhausted;
      raise Cut
    end
  | None -> ()

(* --- the engine -------------------------------------------------------------- *)

type counters = {
  mutable leaves : int;
  mutable nodes : int;
  mutable max_events : int;
  mutable max_op_steps : int;
  max_accesses : int array;
  mutable overflows : int;
  mutable pruned : int;
  mutable sleep_skips : int;
  mutable degraded : int;
  mutable evictions : int;
  mutable spilled : int;
  mutable probabilistic : bool;
  mutable overflow_trace : Faults.trace option;
}

let fresh_counters n_objs =
  {
    leaves = 0;
    nodes = 0;
    max_events = 0;
    max_op_steps = 0;
    max_accesses = Array.make n_objs 0;
    overflows = 0;
    pruned = 0;
    sleep_skips = 0;
    degraded = 0;
    evictions = 0;
    spilled = 0;
    probabilistic = false;
    overflow_trace = None;
  }

let merge_counters a b =
  a.leaves <- a.leaves + b.leaves;
  a.nodes <- a.nodes + b.nodes;
  if b.max_events > a.max_events then a.max_events <- b.max_events;
  if b.max_op_steps > a.max_op_steps then a.max_op_steps <- b.max_op_steps;
  Array.iteri
    (fun i v -> if v > a.max_accesses.(i) then a.max_accesses.(i) <- v)
    b.max_accesses;
  a.overflows <- a.overflows + b.overflows;
  a.pruned <- a.pruned + b.pruned;
  a.sleep_skips <- a.sleep_skips + b.sleep_skips;
  a.degraded <- a.degraded + b.degraded;
  a.evictions <- a.evictions + b.evictions;
  a.spilled <- a.spilled + b.spilled;
  a.probabilistic <- a.probabilistic || b.probabilistic;
  if a.overflow_trace = None then a.overflow_trace <- b.overflow_trace

(* Stitch in the accumulated counts of previously checkpointed segments, so
   the stats (and completeness) a resumed run reports cover the whole search,
   not just the last segment. *)
let add_counts (a : counters) (k : Checkpoint.counts) =
  a.leaves <- a.leaves + k.Checkpoint.leaves;
  a.nodes <- a.nodes + k.nodes;
  if k.max_events > a.max_events then a.max_events <- k.max_events;
  if k.max_op_steps > a.max_op_steps then a.max_op_steps <- k.max_op_steps;
  Array.iteri
    (fun i v ->
      if i < Array.length a.max_accesses && v > a.max_accesses.(i) then
        a.max_accesses.(i) <- v)
    k.max_accesses;
  a.overflows <- a.overflows + k.overflows;
  a.pruned <- a.pruned + k.pruned;
  a.sleep_skips <- a.sleep_skips + k.sleep_skips;
  a.degraded <- a.degraded + k.degraded;
  a.evictions <- a.evictions + k.evictions;
  a.spilled <- a.spilled + k.spilled;
  a.probabilistic <- a.probabilistic || k.probabilistic

let counts_of_counters (c : counters) =
  {
    Checkpoint.leaves = c.leaves;
    nodes = c.nodes;
    max_events = c.max_events;
    max_op_steps = c.max_op_steps;
    max_accesses = Array.copy c.max_accesses;
    overflows = c.overflows;
    pruned = c.pruned;
    sleep_skips = c.sleep_skips;
    degraded = c.degraded;
    evictions = c.evictions;
    spilled = c.spilled;
    probabilistic = c.probabilistic;
  }

let engine_of_options (o : options) =
  { Checkpoint.dedup = o.dedup; por = o.por; domains = o.domains }

(* [compile] is not serialized: the compiled kernel changes how the tree is
   walked, never which tree is walked, so resuming a checkpoint under either
   setting is sound. Resumed runs default it on. *)
let options_of_engine (e : Checkpoint.engine) =
  {
    dedup = e.Checkpoint.dedup;
    por = e.Checkpoint.por;
    domains = e.Checkpoint.domains;
    compile = true;
  }

(* The ⟨proc, target-level invocation⟩ of every live pending operation:
   invoked, not yet returned, process neither crashed nor stuck. Only these
   attempts can still complete as-is (a recovery restarts the operation with
   a fresh invocation), which is what a tracker's early-linearization
   reasoning depends on. *)
let live_pending cfg =
  let out = ref [] in
  for p = Array.length cfg.procs - 1 downto 0 do
    if (not cfg.crashed.(p)) && not cfg.stuck.(p) then
      match cfg.procs.(p).pending with
      | Some pd -> out := (p, pd.inv0) :: !out
      | None -> ()
  done;
  !out

(* Tracker state across a step/glitch edge: an [Op_completed] event exactly
   when the edge retired an operation. [continue] either prepends to
   [ops_rev] or leaves it physically untouched, so the physical comparison
   is an exact completion detector. *)
let step_state (t : _ tracker) st ~trace_rev cfg cfg' =
  match cfg'.ops_rev with
  | o :: rest when rest == cfg.ops_rev ->
    t.event st ~trace_rev (Op_completed { op = o; pending = live_pending cfg' })
  | _ -> st

(* --- flat fingerprint encoding -----------------------------------------------

   The dedup key deliberately drops the timing fields ([started],
   [start_step]/[end_step]) so that interleavings converging to the same
   configuration merge; it keeps everything a timing-insensitive leaf
   predicate can observe: object states, per-process control (todo suffix,
   pending continuation identified by ⟨inv0, responses so far⟩, local state),
   completed operations' values and step counts, the fault bookkeeping
   (crashed/stuck flags, remaining budgets, staleness histories), and the
   event/access totals (which also makes fuel and max-accesses accounting
   exact — states at different depths never merge). The active sleep set is
   part of the key: combining sleep sets with state caching is only sound
   when a cached state was explored under the same (or smaller) sleep set,
   and keying on the exact set is the simple sound choice. Completed
   operations enter per process, in ⟨proc, op_index⟩ order, not completion
   order: schedules that completed the same operations with the same values
   merge even when they retired them in a different order — completion
   order is already outside the engine's soundness envelope.

   The key is a fixed-size scratch [int array] of interned-cell ids,
   additive segment hashes and raw scalars, hashed into a ⟨hi, lo⟩ 124-bit
   {!Wfc_spec.Fingerprint} and probed in an open-addressing table — no boxed
   key is allocated, no hashtable bucket or list cell is built, no
   structural equality is ever walked, and nothing is added to the intern
   state per probe.

   Layout — one layout, filled by the interpreted path from an [fpc] and by
   the compiled kernel from its own mutable cells:

     objects      : [sum_hi; sum_lo]                              (2)
     per process  : [proc_cell; ops_cell; crashed; stuck; sleep]  (5·n_procs)
     scalars      : [events; crashes_left; recoveries_left; glitches_left]
     tracker      : [tracker cell id, or -1]

   The object segment is not spelled out: [sum_hi]/[sum_lo] are the sums,
   modulo 2^63, of one position-salted 62-bit mix per object of
   ⟨object cell id, history cell id, access count⟩, one sum per mixer lane
   ({!Fingerprint.component_hi}/[component_lo]). An access subtracts its
   object's old term and adds the new one, so a probe hashes
   2 + 5·n_procs + 5 ints whatever the number of objects. The process cell
   is ⟨⟨todo, ⟨next_op, local⟩⟩, pending⟩ with pending = ⟨⟨inv0, op_index⟩,
   response chain⟩ or unit, all from cached component cells (see
   [pcells]), so keeping it current costs O(1) cell lookups per access.

   Every per-process component has a FIXED width of five ints, so symmetry
   canonicalization is an in-place insertion sort of five-int records within
   each class segment — no allocation there either. Cell ids are unique
   within the owning intern state, so two configurations agree on the
   per-process and scalar parts iff their components are equal values. The
   object sums are Zobrist-style hashes: two configurations whose object
   segments differ agree on both sums only by a collision of two
   independent 63-bit lanes, and the whole buffer is then folded into 124
   bits. Both steps are hash compaction, treated as negligible (≈2^-64
   collision risk at 10^9 states). *)

type flat_ctx = {
  ist : I.state;
  buf : int array;  (* the scratch encoding; length fixed per run *)
  tmp : int array;  (* one 5-int record, for the insertion sort *)
  mutable table : Fingerprint.Table.t option;  (* exact tier *)
  mutable bloom : Fingerprint.Bloom.t option;  (* probabilistic tier *)
}

let flat_create ?ist ~n_procs ~tier2 ~bloom_bits_log2 () =
  {
    ist = (match ist with Some s -> s | None -> I.create ());
    buf = Array.make (2 + (5 * n_procs) + 5) 0;
    tmp = Array.make 5 0;
    table = (if tier2 then None else Some (Fingerprint.Table.create ()));
    bloom =
      (if tier2 then Some (Fingerprint.Bloom.create ~bits_log2:bloom_bits_log2 ())
       else None);
  }

(* Probe the exact tier, or the Bloom tier once the watchdog demoted this
   context. *)
let flat_mem_or_add fx ~hi ~lo =
  match (fx.table, fx.bloom) with
  | Some tbl, _ -> Fingerprint.Table.mem_or_add tbl ~hi ~lo
  | None, Some bl -> Fingerprint.Bloom.mem_or_add bl ~hi ~lo
  | None, None -> false

(* Sort the five-int records in [buf.(base + 5*lo) .. buf.(base + 5*hi - 1)]
   lexicographically, in place. Class segments are tiny (≤ n_procs), so
   insertion sort wins. *)
let sort_records buf tmp ~base ~lo ~hi =
  let copy_rec j i = Array.blit buf (base + (5 * j)) buf (base + (5 * i)) 5 in
  (* is the record in [tmp] < the record at slot [j]? *)
  let tmp_lt j =
    let rec go k =
      if k = 5 then false
      else
        let c = compare tmp.(k) buf.(base + (5 * j) + k) in
        if c < 0 then true else if c > 0 then false else go (k + 1)
    in
    go 0
  in
  for i = lo + 1 to hi - 1 do
    Array.blit buf (base + (5 * i)) tmp 0 5;
    let j = ref (i - 1) in
    while !j >= lo && tmp_lt !j do
      copy_rec !j (!j + 1);
      decr j
    done;
    Array.blit tmp 0 buf (base + (5 * (!j + 1))) 5
  done

(* Fill the scratch buffer from the key's components and hash it. Zero
   allocation. Shared verbatim by the interpreted path (components come from
   an [fpc] cache over persistent configurations) and the compiled kernel
   (components are the engine's own mutable arrays): both feed the same
   per-ist cell ids and the same additive sums, so they key identically. *)
let encode_flat_parts fx ~sum_hi ~sum_lo ~proc_cells ~ops_cells ~crashed
    ~stuck ~events ~crashes_left ~recoveries_left ~glitches_left ~sleep
    ~classes ~tracker_id =
  let buf = fx.buf in
  let nprocs = Array.length proc_cells in
  buf.(0) <- sum_hi;
  buf.(1) <- sum_lo;
  let base = 2 in
  let put slot p =
    let k = base + (5 * slot) in
    buf.(k) <- I.id proc_cells.(p);
    buf.(k + 1) <- I.id ops_cells.(p);
    buf.(k + 2) <- Bool.to_int crashed.(p);
    buf.(k + 3) <- Bool.to_int stuck.(p);
    buf.(k + 4) <- (sleep lsr p) land 1
  in
  (match classes with
  | None ->
    for p = 0 to nprocs - 1 do
      put p p
    done
  | Some rep ->
    (* Emit each class's members contiguously at the representative's
       position and canonicalize by sorting the segment — any fixed total
       order on the record multiset yields one canonical sequence. Class
       sizes are fixed for the whole run, so positions still determine which
       class a record belongs to. *)
    let slot = ref 0 in
    for p = 0 to nprocs - 1 do
      if rep.(p) = p then begin
        let seg = !slot in
        for q = p to nprocs - 1 do
          if rep.(q) = p then begin
            put !slot q;
            incr slot
          end
        done;
        if !slot - seg > 1 then
          sort_records buf fx.tmp ~base ~lo:seg ~hi:!slot
      end
    done);
  let j = base + (5 * nprocs) in
  buf.(j) <- events;
  buf.(j + 1) <- crashes_left;
  buf.(j + 2) <- recoveries_left;
  buf.(j + 3) <- glitches_left;
  buf.(j + 4) <- tracker_id;
  Fingerprint.hash_array buf ~len:(j + 5)

let encode_flat fx fpc cfg ~sleep ~classes ~tracker_id =
  encode_flat_parts fx ~sum_hi:fpc.sum_hi ~sum_lo:fpc.sum_lo
    ~proc_cells:fpc.proc_cells ~ops_cells:fpc.ops_cells ~crashed:cfg.crashed
    ~stuck:cfg.stuck ~events:cfg.events ~crashes_left:cfg.crashes_left
    ~recoveries_left:cfg.recoveries_left ~glitches_left:cfg.glitches_left
    ~sleep ~classes ~tracker_id

(* Per-domain duplicate-state machinery. The flat context (and the intern
   state whose cells key it) is allocated lazily, only once the domain has
   visited [threshold] nodes: on trees smaller than that the table can never
   pay for its own allocation, let alone the per-node fingerprinting — that
   was the E3-sticky3-tree regression, where a 4096-bucket table plus deep
   fingerprints served a 15-node tree. States visited before activation are
   simply never cached, which is sound (pruning only ever happens on a
   hit). *)
type dedup_ctx = {
  threshold : int;
  bloom_bits_log2 : int;
  classes : int array option;  (* symmetry classes, if active *)
  mutable flat : flat_ctx option;
  mutable tier2 : bool;
      (* the watchdog demoted this domain to the Bloom tier — dedup answers
         become probabilistic instead of vanishing *)
}

(* The domain's flat context, created on first use. *)
let flat_of ?ist dd ~n_procs =
  match dd.flat with
  | Some fx -> fx
  | None ->
    let fx =
      flat_create ?ist ~n_procs ~tier2:dd.tier2
        ~bloom_bits_log2:dd.bloom_bits_log2 ()
    in
    dd.flat <- Some fx;
    fx

(* Probe (and record) the current state. Returns ⟨already seen?, advanced
   fingerprint cache for the children⟩. Below the activation threshold this
   is a no-op — no table, no intern state, no fingerprint is ever built. *)
let probe_dedup dd ~t ~nodes cfg sleep st fpcur =
  if Option.is_none dd.flat && nodes < dd.threshold then (false, None)
  else begin
    let fx = flat_of dd ~n_procs:(Array.length cfg.procs) in
    let fpc =
      match fpcur with
      | Some f -> fpc_advance fx.ist f cfg
      | None -> fpc_of_cfg fx.ist cfg
    in
    let tracker_id =
      match t.fingerprint with
      | Some fp -> I.id (I.intern fx.ist (fp st))
      | None -> -1
    in
    let hi, lo = encode_flat fx fpc cfg ~sleep ~classes:dd.classes ~tracker_id in
    (flat_mem_or_add fx ~hi ~lo, Some fpc)
  end

(* One node of the search: handle leaf/limits/fuel/dedup bookkeeping in [c],
   then hand each child configuration (with its sleep set, extended decision
   trace and advanced tracker state) to [recurse]. Both the sequential DFS
   and the frontier expansion are instances of this. *)
let visit impl opts ~fuel ~dd ~lim ~t c on_leaf ~recurse cfg sleep
    trace_rev st fpcur =
  let procs = enabled cfg in
  let recs = recoverable cfg in
  if lim.active then check_limits lim;
  if procs = [] then begin
    c.leaves <- c.leaves + 1;
    if cfg.events > c.max_events then c.max_events <- cfg.events;
    List.iter
      (fun (o : Exec.op) ->
        if o.steps > c.max_op_steps then c.max_op_steps <- o.steps)
      cfg.ops_rev;
    Array.iteri
      (fun i a -> if a > c.max_accesses.(i) then c.max_accesses.(i) <- a)
      cfg.acc;
    on_leaf trace_rev (leaf_of_cfg cfg) st
  end;
  if procs <> [] || recs <> [] then begin
    if cfg.events >= fuel then begin
      if procs <> [] then begin
        c.overflows <- c.overflows + 1;
        if c.overflow_trace = None then
          c.overflow_trace <- Some (List.rev trace_rev)
      end
    end
    else
      let revisited, fpc_next =
        match dd with
        | None -> (false, None)
        | Some dd -> probe_dedup dd ~t ~nodes:c.nodes cfg sleep st fpcur
      in
      if revisited then c.pruned <- c.pruned + 1
      else begin
        (* Classify each runnable process's next transition once: the POR
           kind for independence queries AND the cached alternatives for
           child generation below. *)
        let nexts =
          if opts.por then
            Array.init (Array.length cfg.procs) (fun p ->
                if cfg.crashed.(p) || cfg.stuck.(p) then None
                else pstep_of impl cfg p)
          else [||]
        in
        let explored = ref 0 in
        let derail = Faults.can_derail cfg.faults in
        List.iter
          (fun p ->
            if sleep land (1 lsl p) <> 0 then
              c.sleep_skips <- c.sleep_skips + 1
            else begin
              let child_sleep =
                if not opts.por then 0
                else begin
                  let earlier = sleep lor !explored in
                  let s = ref 0 in
                  List.iter
                    (fun q ->
                      if
                        q <> p
                        && earlier land (1 lsl q) <> 0
                        && independent nexts p q
                      then s := !s lor (1 lsl q))
                    procs;
                  !s
                end
              in
              let children () =
                if opts.por then
                  match nexts.(p) with
                  | Some ps -> children_of_pstep impl cfg p ps
                  | None -> []
                else step_alternatives impl cfg p
              in
              (match children () with
              | alts ->
                List.iteri
                  (fun i cfg' ->
                    c.nodes <- c.nodes + 1;
                    let tr =
                      { Faults.proc = p; kind = Faults.Step i } :: trace_rev
                    in
                    recurse cfg' child_sleep tr
                      (step_state t st ~trace_rev:tr cfg cfg')
                      fpc_next)
                  alts
              | exception (Type_spec.Bad_step _ | Value.Type_error _)
                when derail ->
                c.nodes <- c.nodes + 1;
                let tr =
                  { Faults.proc = p; kind = Faults.Wedge } :: trace_rev
                in
                recurse (wedge cfg p) 0 tr
                  (t.event st ~trace_rev:tr (Proc_wedged p))
                  fpc_next);
              List.iteri
                (fun i ((_ : int * Value.t * Value.t), cfg') ->
                  c.nodes <- c.nodes + 1;
                  let tr =
                    { Faults.proc = p; kind = Faults.Glitch i } :: trace_rev
                  in
                  recurse cfg' 0 tr
                    (step_state t st ~trace_rev:tr cfg cfg')
                    fpc_next)
                (glitch_alternatives impl cfg p);
              if cfg.crashes_left > 0 then begin
                c.nodes <- c.nodes + 1;
                let tr =
                  { Faults.proc = p; kind = Faults.Crash } :: trace_rev
                in
                recurse (crash cfg p) 0 tr
                  (t.event st ~trace_rev:tr (Proc_crashed p))
                  fpc_next
              end;
              explored := !explored lor (1 lsl p)
            end)
          procs;
        List.iter
          (fun p ->
            c.nodes <- c.nodes + 1;
            recurse (recover cfg p) 0
              ({ Faults.proc = p; kind = Faults.Recover } :: trace_rev)
              st fpc_next)
          recs
      end
  end

let stats_of c ~domains_used ~lim =
  {
    leaves = c.leaves;
    nodes = c.nodes;
    max_events = c.max_events;
    max_op_steps = c.max_op_steps;
    max_accesses = c.max_accesses;
    overflows = c.overflows;
    pruned = c.pruned;
    sleep_skips = c.sleep_skips;
    domains_used;
    degraded = c.degraded;
    evictions = c.evictions;
    spilled = c.spilled;
    completeness =
      (* An explicit cut (budget, deadline, interrupt, stop) takes priority:
         those runs can be resumed. A run that merely passed through the
         Bloom tier finished — but its clean sweep is only probabilistic. *)
      (match Atomic.get lim.tripped with
      | Some reason -> Partial reason
      | None -> if c.probabilistic then Partial Probabilistic else Exhaustive);
    overflow_trace = c.overflow_trace;
  }

(* --- prefix replay -----------------------------------------------------------

   Re-materialize the configuration a decision-trace prefix reaches, using
   the same transition functions the search used to produce it. This is what
   turns a checkpoint's frontier — trace prefixes — back into live subtree
   roots on resume. *)
let replay_prefix impl root trace =
  let fail fmt = Fmt.kstr (fun s -> Error s) fmt in
  let rec go cfg trace_rev = function
    | [] -> Ok (cfg, trace_rev)
    | ({ Faults.proc = p; kind } as d) :: rest ->
      if p < 0 || p >= Array.length cfg.procs then
        fail "replay: no process p%d" p
      else
        let next =
          match kind with
          | Faults.Step i -> (
            match step_alternatives impl cfg p with
            | alts -> (
              match List.nth_opt alts i with
              | Some cfg' -> Ok cfg'
              | None -> fail "replay: p%d has no step alternative %d" p i)
            | exception (Type_spec.Bad_step _ | Value.Type_error _) ->
              fail "replay: p%d cannot step" p)
          | Faults.Glitch i -> (
            match List.nth_opt (glitch_alternatives impl cfg p) i with
            | Some (_, cfg') -> Ok cfg'
            | None -> fail "replay: p%d has no glitch alternative %d" p i)
          | Faults.Crash ->
            if cfg.crashes_left > 0 && List.mem p (enabled cfg) then
              Ok (crash cfg p)
            else fail "replay: p%d cannot crash here" p
          | Faults.Recover ->
            if List.mem p (recoverable cfg) then Ok (recover cfg p)
            else fail "replay: p%d cannot recover here" p
          | Faults.Wedge -> Ok (wedge cfg p)
        in
        (match next with
        | Ok cfg' -> go cfg' (d :: trace_rev) rest
        | Error _ as e -> e)
  in
  go root [] trace

(* --- memory watchdog ---------------------------------------------------------

   Long exhaustive runs die of dedup tables, not of the DFS stack: the
   tables grow with the number of distinct states. When the major heap
   crosses the budget, domains demote their exact table to the
   constant-memory Bloom tier oldest-first (domain 0 — the
   coordinating/expansion domain, whose table has been filling the longest —
   before any worker) instead of OOMing. [evict_upto] only ever grows; each
   domain polls it and demotes itself when its id falls below the mark.
   Bumps are rate-limited so the GC can actually reclaim one table before
   the next is demoted. *)

type memwatch = {
  budget_words : int;
  evict_upto : int Atomic.t;
  last_bump : float Atomic.t;
}

let mem_sample mw ~domain_id c (dd : dedup_ctx option) =
  if (Gc.quick_stat ()).Gc.heap_words > mw.budget_words then begin
    let now = Monotime.now () in
    let last = Atomic.get mw.last_bump in
    if now -. last > 0.25 && Atomic.compare_and_set mw.last_bump last now then
      Atomic.incr mw.evict_upto
  end;
  (* checked after the bump so the demoted domain reacts on the very sample
     that detected the pressure, not one sample period later *)
  match dd with
  | Some dd when (not dd.tier2) && Atomic.get mw.evict_upto > domain_id -> (
    (* Migrate the exact table's fingerprints into a constant-memory Bloom
       filter and free the table. Dedup answers become probabilistic from
       here on — the run's completeness is downgraded, never its
       falsifications. Idempotent: once on tier 2 there is nothing left to
       shed (the Bloom is constant-size), so repeated pressure moves on to
       other domains. *)
    dd.tier2 <- true;
    c.evictions <- c.evictions + 1;
    c.probabilistic <- true;
    match dd.flat with
    | Some fx when fx.bloom = None ->
      let bl = Fingerprint.Bloom.create ~bits_log2:dd.bloom_bits_log2 () in
      (match fx.table with
      | Some tbl ->
        Fingerprint.Table.iter
          (fun ~hi ~lo -> ignore (Fingerprint.Bloom.mem_or_add bl ~hi ~lo))
          tbl
      | None -> ());
      fx.table <- None;
      fx.bloom <- Some bl
    | _ -> ()
    (* context not yet allocated: it will start on the Bloom tier *))
  | _ -> ()

let resolve_faults ?faults ~max_crashes () =
  match faults with
  | Some f -> { f with Faults.max_crashes = max f.Faults.max_crashes max_crashes }
  | None -> Faults.crashes max_crashes

(* Calibrated from BENCH_explore.json: a domain spawn costs milliseconds
   (fast-par was 30x slower than fast on the ~36-node E10-universal-faa
   tree) while the sequential engine explores on the order of a node per
   microsecond, so fan-out only pays for itself north of a few thousand
   nodes. *)
let default_par_threshold = 4096

(* Calibrated from the same BENCH_explore.json family: the sequential engine
   visits a node in ~1 µs without dedup, while allocating a dedup table plus
   fingerprinting every node costs tens of µs up front — on the 15-node
   E3-sticky3-tree that overhead was 40x the naive walk. Well under 64 nodes
   a table can never win; well over, a single pruned subtree pays for it. *)
let default_dedup_threshold = 64

(* --- the compiled kernel -----------------------------------------------------

   A second sequential DFS over the *same* tree, specialised for the common
   case: one domain, no fault adversary, no checkpointing. Three things
   change relative to [visit], none of them which tree is walked:

   - Transitions come from [Step_table] rows — per (interned state, port,
     invocation) lists compiled by running the interpreted spec once — so the
     hot path never re-applies spec closures, and every successor state and
     response it hands out is the canonical representative of a per-domain
     intern state that persists across runs. Program continuations advance
     through [Program.step]'s per-node memo keyed on those (physically
     stable) canonical responses, so a program closure also runs at most once
     per (node, response).

   - There is one mutable configuration instead of a persistent copy-on-write
     fan-out. Each edge saves the handful of slots it is about to clobber in
     locals of the recursive step function, mutates in place, recurses, and
     restores — the OCaml call stack is the undo journal, so an edge
     allocates no configuration at all.

   - Duplicate-state fingerprints are the flat key of [encode_flat_parts]
     over the engine's own cells: per process the component cells of
     [pcells] (todo, ⟨next_op, local⟩, pending head, response chain) and
     the process and completed-ops cells built from them, plus the two
     additive object sums. An edge updates only what it changed — an access
     extends its process's response chain by the row's interned response
     cell, re-pairs the pending and process cells, and swaps one object's
     term in each sum; the todo and local cells are rebuilt only when an
     operation starts or returns — and saves the old cells and sums next to
     the configuration slots it restores. A probe therefore costs
     O(n_procs), independent of the number of objects and of how long the
     pending operations have run. The tracker's fingerprint cell is passed
     down the recursion and re-interned only below an edge that changed the
     tracker state. Below the activation threshold no cell is ever built
     (mirroring the interpreted path's lazy [fpc]); at activation the cells are
     rebuilt from scratch and maintained incrementally from there on. A
     frame that entered before activation has no cell saves, so when it
     backtracks it marks the cache invalid and the next probe rebuilds — a
     bounded number of O(state) rebuilds, paid only around the activation
     frontier.

   Everything observable is replicated exactly: visit order, counter
   bookkeeping, sleep-set and dedup decisions, limiter/memcheck cadence,
   tracker events, leaf snapshots, and the error messages of disabled
   steps. *)

(* Per-depth classification scratch as parallel arrays, pooled so the hot
   path never allocates a classification: [ck] is 0 for a program that
   returns without any base access, 1 for a base access continuing a pending
   operation, 2 for a base access starting a fresh one. *)
type cls = {
  ck : int array;
  cnode : (Value.t * Value.t) Program.t array;
  crow : Step_table.row array;
  cobj : int array;
}

let dummy_node : (Value.t * Value.t) Program.t =
  Program.Return (Value.unit, Value.unit)

let dummy_row : Step_table.row =
  {
    Step_table.alts = [];
    cells = [||];
    packed = [||];
    n_alts = 0;
    det = false;
    pure_read = false;
  }

let fresh_cls n_procs =
  {
    ck = Array.make n_procs 0;
    cnode = Array.make n_procs dummy_node;
    crow = Array.make n_procs dummy_row;
    cobj = Array.make n_procs 0;
  }

(* Per-domain, per-implementation persistent compilation state: the intern
   state, the transition tables keyed on it, the port map, and the program
   memos all survive across runs — a verify invocation that explores many
   workloads of one implementation compiles each row and program node once.
   Keyed on physical identity of the implementation record; a tiny LRU keeps
   unrelated implementations (e.g. property-test streams) from pinning each
   other's tables. *)
(* The kernel's entire mutable configuration as parallel arrays, pooled
   across runs (sizes are fixed per implementation): a run borrows the pool,
   re-initializes the few slots the root defines, and returns it on normal
   completion. Reentrancy (a leaf callback starting another exploration of
   the same implementation) and abandoned runs (an exception unwinding past
   the borrow) simply find the pool empty and allocate fresh. *)
type mut_state = {
  ms_objs : Value.t array;
  ms_obj_cells : I.cell array;
  ms_acc : int array;
  ms_todo : Value.t list array;
  ms_next_op : int array;
  ms_local : Value.t array;
  ms_haspend : bool array;
  ms_inv0 : Value.t array;
  ms_opidx : int array;
  ms_started : int array;
  ms_steps : int array;
  ms_resps : Value.t list array;
  ms_node : (Value.t * Value.t) Program.t array;
  ms_todo_cells : I.cell array;
  ms_local_cells : I.cell array;
  ms_ctl_cells : I.cell array;
  ms_head_cells : I.cell array;
  ms_chain_cells : I.cell array;
  ms_proc_cells : I.cell array;
  ms_ops_cells : I.cell array;
  ms_hist_cells : I.cell array;
  ms_no_flags : bool array;
  mutable ms_cls : cls array;
      (* per-depth classification scratch; entries are only ever read for
         processes classified at the current node, so stale slots from a
         previous node at the same depth are never observed *)
}

type compiled_ctx = {
  cc_impl : Implementation.t;
  cc_ist : I.state;
  cc_tables : Step_table.t array;  (* per base object, sharing [cc_ist] *)
  cc_ports : int array array;  (* [p].(obj): cached port_map, min_int = unset *)
  cc_topmemo : (Value.t * Value.t * (Value.t * Value.t) Program.t) list array;
      (* per proc: (inv, local at invocation) → program top node. Programs
         are deterministic functions of exactly that triple — the same
         contract the fingerprint already leans on — so memoizing is
         invisible. *)
  cc_rootvals : Value.t array;  (* snd impl.objects — the usual root states *)
  cc_rootcells : I.cell array;
  cc_decisions : Faults.decision array array;
      (* [p].(i), i < 8: preallocated step-decision records so trace conses
         don't allocate a fresh record and [Step] block per edge *)
  mutable cc_pool : mut_state option;
}

let compiled_cache : compiled_ctx list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let compiled_ctx_of impl =
  let cache = Domain.DLS.get compiled_cache in
  match List.find_opt (fun cc -> cc.cc_impl == impl) !cache with
  | Some cc -> cc
  | None ->
    let ist = I.create () in
    let n_procs = impl.Implementation.procs in
    let n_objs = Array.length impl.Implementation.objects in
    let rootvals = Array.map snd impl.Implementation.objects in
    let cc =
      {
        cc_impl = impl;
        cc_ist = ist;
        cc_tables =
          Array.map
            (fun (spec, _) -> Step_table.create ~ist spec)
            impl.Implementation.objects;
        cc_ports = Array.init n_procs (fun _ -> Array.make n_objs min_int);
        cc_topmemo = Array.make n_procs [];
        cc_rootvals = rootvals;
        cc_rootcells = Array.map (I.intern ist) rootvals;
        cc_decisions =
          Array.init n_procs (fun p ->
              Array.init 8 (fun i -> { Faults.proc = p; kind = Faults.Step i }));
        cc_pool = None;
      }
    in
    cache := cc :: List.filteri (fun i _ -> i < 3) !cache;
    cc

let fresh_mut_state ~n_objs ~n_procs ~unit_cell ~empty_hist =
  {
    ms_objs = Array.make n_objs Value.unit;
    ms_obj_cells = Array.make n_objs unit_cell;
    ms_acc = Array.make n_objs 0;
    ms_todo = Array.make n_procs [];
    ms_next_op = Array.make n_procs 0;
    ms_local = Array.make n_procs Value.unit;
    ms_haspend = Array.make n_procs false;
    ms_inv0 = Array.make n_procs Value.unit;
    ms_opidx = Array.make n_procs 0;
    ms_started = Array.make n_procs 0;
    ms_steps = Array.make n_procs 0;
    ms_resps = Array.make n_procs [];
    ms_node = Array.make n_procs (Program.Return (Value.unit, Value.unit));
    ms_todo_cells = Array.make n_procs unit_cell;
    ms_local_cells = Array.make n_procs unit_cell;
    ms_ctl_cells = Array.make n_procs unit_cell;
    ms_head_cells = Array.make n_procs unit_cell;
    ms_chain_cells = Array.make n_procs unit_cell;
    ms_proc_cells = Array.make n_procs unit_cell;
    ms_ops_cells = Array.make n_procs unit_cell;
    ms_hist_cells = Array.make n_objs empty_hist;
    ms_no_flags = Array.make n_procs false;
    ms_cls = [||];
  }

(* Lazy: [port_map] is only contractually total on the (proc, obj) pairs the
   programs actually reach, so it is consulted exactly where the boxed path
   would have consulted it. *)
let port_of cc p obj =
  let v = cc.cc_ports.(p).(obj) in
  if v <> min_int then v
  else begin
    let v = cc.cc_impl.Implementation.port_map ~proc:p ~obj in
    cc.cc_ports.(p).(obj) <- v;
    v
  end

let top_node cc p ~inv ~local =
  let rec find = function
    | [] ->
      let n = cc.cc_impl.Implementation.program ~proc:p ~inv local in
      cc.cc_topmemo.(p) <- (inv, local, n) :: cc.cc_topmemo.(p);
      n
    | (i, l, n) :: rest ->
      if
        (i == inv || Value.equal i inv) && (l == local || Value.equal l local)
      then n
      else find rest
  in
  find cc.cc_topmemo.(p)

(* Every index the kernel's hot frames use is established by a loop bound
   ([0 .. n_procs-1]), by the pool-growth check in [nexts_at], or by the
   bounds-checked [cc_tables.(obj)] load in [classify] (which validates a
   program node's object index before any unchecked use), so the kernel
   reads and writes arrays unchecked. *)
let run_compiled impl ~(opts : options) ~fuel ~(dd : dedup_ctx option) ~lim ~t
    ~user_tracker ~want_leaf c ~emit_leaf ~memcheck root =
  let cc = compiled_ctx_of impl in
  let ist = cc.cc_ist in
  let n_objs = Array.length root.objs in
  let n_procs = Array.length root.procs in
  let unit_cell = I.unit ist in
  let empty_hist = fp_hist_cell ist [] in
  (* The single mutable configuration, as parallel arrays borrowed from the
     per-implementation pool (the root never has a pending operation, so the
     p_* pending slots may keep stale dummies). *)
  let ms =
    match cc.cc_pool with
    | Some ms ->
      cc.cc_pool <- None;
      ms
    | None -> fresh_mut_state ~n_objs ~n_procs ~unit_cell ~empty_hist
  in
  let objs = ms.ms_objs
  and obj_cells = ms.ms_obj_cells
  and acc = ms.ms_acc
  and todo = ms.ms_todo
  and next_op = ms.ms_next_op
  and local = ms.ms_local
  and haspend = ms.ms_haspend
  and p_inv0 = ms.ms_inv0
  and p_opidx = ms.ms_opidx
  and p_started = ms.ms_started
  and p_steps = ms.ms_steps
  and p_resps = ms.ms_resps
  and p_node = ms.ms_node in
  for o = 0 to n_objs - 1 do
    let q0 = root.objs.(o) in
    let qc =
      if q0 == cc.cc_rootvals.(o) then cc.cc_rootcells.(o) else I.intern ist q0
    in
    obj_cells.(o) <- qc;
    objs.(o) <- I.value qc;
    acc.(o) <- 0
  done;
  for p = 0 to n_procs - 1 do
    let pr = root.procs.(p) in
    todo.(p) <- pr.todo;
    next_op.(p) <- pr.next_op;
    local.(p) <- pr.local;
    haspend.(p) <- false
  done;
  let events = ref 0 in
  let ops_rev = ref [] in
  (* Fingerprint cells over the mutable state. [obj_cells] is maintained
     unconditionally — successor cells come for free out of the transition
     rows and double as the table keys. The per-proc component cells and the
     object sums only exist once the dedup tables activate ([cells_valid]);
     a frame decides at entry whether it maintains them ([track] below) and
     a non-tracking backtrack invalidates the cache for the next probe to
     rebuild. *)
  let hist_cells = ms.ms_hist_cells in
  let todo_cells = ms.ms_todo_cells
  and local_cells = ms.ms_local_cells
  and ctl_cells = ms.ms_ctl_cells
  and head_cells = ms.ms_head_cells
  and chain_cells = ms.ms_chain_cells
  and proc_cells = ms.ms_proc_cells
  and ops_cells = ms.ms_ops_cells in
  let sum_hi = ref 0 and sum_lo = ref 0 in
  let no_flags = ms.ms_no_flags in
  let cells_valid = ref false in
  let cls_at depth =
    let pool = ms.ms_cls in
    if depth < Array.length pool then (Array.unsafe_get pool (depth))
    else begin
      let len = Array.length pool in
      let pool' =
        Array.init
          (max (depth + 1) (max 8 (2 * len)))
          (fun i -> if i < len then pool.(i) else fresh_cls n_procs)
      in
      ms.ms_cls <- pool';
      pool'.(depth)
    end
  in
  let dec p i =
    if i < 8 then Array.unsafe_get (Array.unsafe_get cc.cc_decisions p) i
    else { Faults.proc = p; kind = Faults.Step i }
  in
  (* Re-derive [p]'s process cell from its component cells. *)
  let set_proc_cell p =
    Array.unsafe_set proc_cells p
      (proc_cell ist
         ~ctl_c:(Array.unsafe_get ctl_cells p)
         ~pend_c:
           (if Array.unsafe_get haspend p then
              pend_cell ist
                ~head_c:(Array.unsafe_get head_cells p)
                ~chain_c:(Array.unsafe_get chain_cells p)
            else unit_cell))
  in
  let set_ctl_cell p =
    Array.unsafe_set ctl_cells p
      (ctl_cell ist
         ~todo_c:(Array.unsafe_get todo_cells p)
         ~local_c:(Array.unsafe_get local_cells p))
  in
  let rebuild_cells () =
    sum_hi := 0;
    sum_lo := 0;
    for o = 0 to n_objs - 1 do
      sum_hi := !sum_hi + obj_term_hi o obj_cells.(o) hist_cells.(o) acc.(o);
      sum_lo := !sum_lo + obj_term_lo o obj_cells.(o) hist_cells.(o) acc.(o)
    done;
    for p = 0 to n_procs - 1 do
      todo_cells.(p) <- todo_cell ist todo.(p);
      local_cells.(p) <- local_cell ist ~next_op:next_op.(p) local.(p);
      set_ctl_cell p;
      if haspend.(p) then begin
        head_cells.(p) <-
          head_cell ist ~inv0:p_inv0.(p) ~op_index:p_opidx.(p);
        chain_cells.(p) <- chain_cell ist p_resps.(p)
      end;
      set_proc_cell p;
      ops_cells.(p) <- unit_cell
    done;
    List.iter
      (fun (o : Exec.op) ->
        ops_cells.(o.proc) <- I.pair ist (fp_op_cell ist o) ops_cells.(o.proc))
      (List.rev !ops_rev);
    cells_valid := true
  in
  (* The tracker's fingerprint cell id. [go] carries it down the recursion
     and an edge passes it on whenever the tracker state is physically
     unchanged, so it is re-interned only below edges that changed the
     state; [no_tid] marks "not computed yet". *)
  let no_tid = min_int in
  let tracker_id st =
    match t.fingerprint with
    | Some fp -> I.id (I.intern ist (fp st))
    | None -> -1
  in
  (* One integer compare per node stands in for the full dedup-activation
     test: [probe] is only entered once [c.nodes] reaches the floor, and the
     floor tracks activation state (threshold while the context is
     pending, 0 once it exists, max_int when dedup is off). *)
  let probe_floor =
    ref
      (match dd with
      | None -> max_int
      | Some dd -> if Option.is_some dd.flat then 0 else dd.threshold)
  in
  let probe sleep tracker_id =
    match dd with
    | None -> false
    | Some dd ->
      probe_floor := 0;
      let fx = flat_of ~ist dd ~n_procs in
      if not !cells_valid then rebuild_cells ();
      let hi, lo =
        encode_flat_parts fx ~sum_hi:!sum_hi ~sum_lo:!sum_lo ~proc_cells
          ~ops_cells ~crashed:no_flags ~stuck:no_flags ~events:!events
          ~crashes_left:0 ~recoveries_left:0 ~glitches_left:0 ~sleep
          ~classes:dd.classes ~tracker_id
      in
      flat_mem_or_add fx ~hi ~lo
  in
  let live_pending_mut () =
    let out = ref [] in
    for p = n_procs - 1 downto 0 do
      if haspend.(p) then out := (p, p_inv0.(p)) :: !out
    done;
    !out
  in
  let classify_into cl p =
    let fresh = not (Array.unsafe_get haspend (p)) in
    let node =
      if fresh then
        match (Array.unsafe_get todo (p)) with
        | [] -> assert false
        | inv :: _ -> top_node cc p ~inv ~local:(Array.unsafe_get local (p))
      else (Array.unsafe_get p_node (p))
    in
    match node with
    | Program.Return _ ->
      Array.unsafe_set cl.ck p 0;
      Array.unsafe_set cl.cnode p node
    | Program.Invoke { obj; inv; _ } ->
      (* bounds-checked on purpose: validates [obj] for the whole frame *)
      let row =
        Step_table.row_cells cc.cc_tables.(obj) (Array.unsafe_get obj_cells (obj))
          ~port:(port_of cc p obj) ~inv
      in
      Array.unsafe_set cl.ck p (if fresh then 2 else 1);
      Array.unsafe_set cl.cnode p node;
      Array.unsafe_set cl.crow p row;
      Array.unsafe_set cl.cobj p obj
  in
  let independent_m cl p q =
    Array.unsafe_get cl.ck p > 0
    && Array.unsafe_get cl.ck q > 0
    &&
    let rp = Array.unsafe_get cl.crow p and rq = Array.unsafe_get cl.crow q in
    rp.Step_table.det && rq.Step_table.det
    && (Array.unsafe_get cl.cobj p <> Array.unsafe_get cl.cobj q
       || (rp.Step_table.pure_read && rq.Step_table.pure_read))
  in
  (* [cl_par]/[dirty]: the parent frame's classifications and a bitmask of
     processes whose classification may have changed across the parent's
     step. A step by [p] invalidates [p] itself plus (for a base access on
     [obj]) every process whose classified access targets [obj] — all other
     classifications depend only on untouched per-process state and
     untouched objects, so the POR prepass copies them instead of
     re-resolving rows. Root and non-POR frames pass [-1] (all dirty). *)
  let rec go cl_par dirty sleep trace_rev st tid =
    memcheck ();
    let mask = ref 0 in
    for p = n_procs - 1 downto 0 do
      if
        (Array.unsafe_get haspend (p))
        || (match (Array.unsafe_get todo (p)) with [] -> false | _ :: _ -> true)
      then mask := !mask lor (1 lsl p)
    done;
    let mask = !mask in
    if lim.active then check_limits lim;
    if mask = 0 then begin
      c.leaves <- c.leaves + 1;
      if !events > c.max_events then c.max_events <- !events;
      List.iter
        (fun (o : Exec.op) ->
          if o.steps > c.max_op_steps then c.max_op_steps <- o.steps)
        !ops_rev;
      Array.iteri
        (fun i a -> if a > c.max_accesses.(i) then c.max_accesses.(i) <- a)
        acc;
      if want_leaf then
        emit_leaf trace_rev
          {
            Exec.objects = Array.copy objs;
            locals = Array.copy local;
            ops = List.rev !ops_rev;
            events = !events;
            accesses = Array.copy acc;
          }
          st
    end
    else if !events >= fuel then begin
      c.overflows <- c.overflows + 1;
      if c.overflow_trace = None then
        c.overflow_trace <- Some (List.rev trace_rev)
    end
    else
      let tid =
        if tid = no_tid && c.nodes >= !probe_floor then tracker_id st else tid
      in
      if c.nodes >= !probe_floor && probe sleep tid then
        c.pruned <- c.pruned + 1
      else begin
      (* Under POR every runnable process is classified up front (the
         independence relation needs all of them); without POR each process
         is classified right before expansion, preserving the boxed path's
         evaluation order for any exception a spec may raise. *)
      let cl = cls_at !events in
      if opts.por then
        for p = 0 to n_procs - 1 do
          if mask land (1 lsl p) <> 0 then
            if dirty land (1 lsl p) <> 0 then classify_into cl p
            else begin
              Array.unsafe_set cl.ck p (Array.unsafe_get cl_par.ck p);
              Array.unsafe_set cl.cnode p (Array.unsafe_get cl_par.cnode p);
              Array.unsafe_set cl.crow p (Array.unsafe_get cl_par.crow p);
              Array.unsafe_set cl.cobj p (Array.unsafe_get cl_par.cobj p)
            end
        done;
      let explored = ref 0 in
      for p = 0 to n_procs - 1 do
        if mask land (1 lsl p) <> 0 then begin
          if sleep land (1 lsl p) <> 0 then
            c.sleep_skips <- c.sleep_skips + 1
          else begin
            let child_sleep =
              if not opts.por then 0
              else begin
                let earlier = sleep lor !explored in
                let s = ref 0 in
                for q = 0 to n_procs - 1 do
                  if
                    q <> p
                    && mask land (1 lsl q) <> 0
                    && earlier land (1 lsl q) <> 0
                    && independent_m cl p q
                  then s := !s lor (1 lsl q)
                done;
                !s
              end
            in
            if not opts.por then classify_into cl p;
            (match Array.unsafe_get cl.ck p with
            | 0 ->
              ret_child p cl
                (if opts.por then 1 lsl p else -1)
                (Array.unsafe_get cl.cnode p)
                child_sleep trace_rev st tid
            | k ->
              let node = Array.unsafe_get cl.cnode p in
              let row = Array.unsafe_get cl.crow p in
              let obj = Array.unsafe_get cl.cobj p in
              let fresh = k = 2 in
              let child_dirty =
                if not opts.por then -1
                else begin
                  let d = ref (1 lsl p) in
                  for q = 0 to n_procs - 1 do
                    if
                      mask land (1 lsl q) <> 0
                      && Array.unsafe_get cl.ck q > 0
                      && Array.unsafe_get cl.cobj q = obj
                    then d := !d lor (1 lsl q)
                  done;
                  !d
                end
              in
              let n_alts = row.Step_table.n_alts in
              if n_alts = 0 then begin
                match node with
                | Program.Invoke { inv; _ } ->
                  let spec, _ = impl.Implementation.objects.(obj) in
                  raise
                    (Type_spec.Bad_step
                       (Fmt.str
                          "proc %d: invocation %a disabled on object %d (%s) \
                           in state %a"
                          p Value.pp inv obj spec.Type_spec.name Value.pp
                          objs.(obj)))
                | Program.Return _ -> assert false
              end;
              let cells = row.Step_table.cells in
              for j = 0 to n_alts - 1 do
                acc_child p cl child_dirty node fresh obj
                  (Array.unsafe_get cells (2 * j))
                  (Array.unsafe_get cells ((2 * j) + 1))
                  j child_sleep trace_rev st tid
              done);
            explored := !explored lor (1 lsl p)
          end
        end
      done
    end
  (* A fresh operation whose program returns without touching a base object:
     one completion child, no object mutation. *)
  and ret_child p cl child_dirty node child_sleep trace_rev st tid =
    match node with
    | Program.Invoke _ -> assert false
    | Program.Return (resp, local') ->
      c.nodes <- c.nodes + 1;
      let tr = dec p 0 :: trace_rev in
      let s_todo = (Array.unsafe_get todo (p)) in
      let s_nextop = (Array.unsafe_get next_op (p)) and s_local = (Array.unsafe_get local (p)) in
      let s_ops = !ops_rev in
      let s_opsc = (Array.unsafe_get ops_cells (p)) and s_pc = (Array.unsafe_get proc_cells (p)) in
      let s_todoc = Array.unsafe_get todo_cells p
      and s_localc = Array.unsafe_get local_cells p
      and s_ctlc = Array.unsafe_get ctl_cells p in
      let track = !cells_valid in
      let inv0, todo' =
        match s_todo with inv :: tl -> (inv, tl) | [] -> assert false
      in
      let op =
        {
          Exec.proc = p;
          op_index = s_nextop;
          inv = inv0;
          resp;
          start_step = !events;
          end_step = !events;
          steps = 0;
        }
      in
      ops_rev := op :: s_ops;
      Array.unsafe_set todo (p) (todo');
      Array.unsafe_set next_op (p) (s_nextop + 1);
      Array.unsafe_set local (p) (local');
      if track then begin
        ops_cells.(p) <- I.pair ist (fp_op_cell ist op) s_opsc;
        Array.unsafe_set todo_cells p (todo_cell ist todo');
        Array.unsafe_set local_cells p
          (local_cell ist ~next_op:(s_nextop + 1) local');
        set_ctl_cell p;
        set_proc_cell p
      end;
      incr events;
      let st' =
        if user_tracker then
          t.event st ~trace_rev:tr
            (Op_completed { op; pending = live_pending_mut () })
        else st
      in
      go cl child_dirty child_sleep tr st' (if st' == st then tid else no_tid);
      decr events;
      ops_rev := s_ops;
      Array.unsafe_set todo (p) (s_todo);
      Array.unsafe_set next_op (p) (s_nextop);
      Array.unsafe_set local (p) (s_local);
      if track then begin
        Array.unsafe_set ops_cells (p) (s_opsc);
        Array.unsafe_set proc_cells (p) (s_pc);
        Array.unsafe_set todo_cells p s_todoc;
        Array.unsafe_set local_cells p s_localc;
        Array.unsafe_set ctl_cells p s_ctlc
      end
      else cells_valid := false
  (* One base access: apply the row's alternative [j] (successor cell [qc],
     response cell [rc]) in place, advance the program through the response
     memo, recurse, restore. *)
  and acc_child p cl child_dirty node fresh obj qc rc j child_sleep trace_rev
      st tid =
    c.nodes <- c.nodes + 1;
    let tr = dec p j :: trace_rev in
    let q' = I.value qc and resp = I.value rc in
    let s_q = (Array.unsafe_get objs (obj)) and s_qc = (Array.unsafe_get obj_cells (obj)) in
    let s_acc = Array.unsafe_get acc obj in
    let s_todo = (Array.unsafe_get todo (p)) in
    let s_nextop = (Array.unsafe_get next_op (p)) and s_local = (Array.unsafe_get local (p)) in
    let s_haspend = (Array.unsafe_get haspend (p)) and s_inv0 = (Array.unsafe_get p_inv0 (p)) in
    let s_opidx = (Array.unsafe_get p_opidx (p)) and s_started = (Array.unsafe_get p_started (p)) in
    let s_steps = (Array.unsafe_get p_steps (p)) and s_resps = (Array.unsafe_get p_resps (p)) in
    let s_node = (Array.unsafe_get p_node (p)) in
    let s_ops = !ops_rev in
    let s_opsc = (Array.unsafe_get ops_cells (p)) and s_pc = (Array.unsafe_get proc_cells (p)) in
    let s_todoc = Array.unsafe_get todo_cells p
    and s_localc = Array.unsafe_get local_cells p
    and s_ctlc = Array.unsafe_get ctl_cells p
    and s_headc = Array.unsafe_get head_cells p
    and s_chainc = Array.unsafe_get chain_cells p in
    let s_sum_hi = !sum_hi and s_sum_lo = !sum_lo in
    let track = !cells_valid in
    let inv0, op_index, started, steps_done, resps_rev =
      if fresh then
        ((match s_todo with inv :: _ -> inv | [] -> assert false),
         s_nextop, !events, 0, [])
      else (s_inv0, s_opidx, s_started, s_steps, s_resps)
    in
    Array.unsafe_set objs (obj) (q');
    Array.unsafe_set obj_cells (obj) (qc);
    Array.unsafe_set acc (obj) (s_acc + 1);
    if fresh then
      Array.unsafe_set todo (p) ((match s_todo with _ :: tl -> tl | [] -> assert false));
    let next = Program.step node resp in
    let completed =
      match next with
      | Program.Return (res, local') ->
        let op =
          {
            Exec.proc = p;
            op_index;
            inv = inv0;
            resp = res;
            start_step = started;
            end_step = !events;
            steps = steps_done + 1;
          }
        in
        ops_rev := op :: s_ops;
        Array.unsafe_set haspend (p) (false);
        Array.unsafe_set next_op (p) (op_index + 1);
        Array.unsafe_set local (p) (local');
        if track then begin
          Array.unsafe_set ops_cells (p) (I.pair ist (fp_op_cell ist op) s_opsc);
          if fresh then
            Array.unsafe_set todo_cells p
              (todo_cell ist (Array.unsafe_get todo p));
          Array.unsafe_set local_cells p
            (local_cell ist ~next_op:(op_index + 1) local');
          set_ctl_cell p
        end;
        Some op
      | Program.Invoke _ ->
        Array.unsafe_set haspend (p) (true);
        Array.unsafe_set p_inv0 (p) (inv0);
        Array.unsafe_set p_opidx (p) (op_index);
        Array.unsafe_set p_started (p) (started);
        Array.unsafe_set p_steps (p) (steps_done + 1);
        Array.unsafe_set p_resps (p) (resp :: resps_rev);
        Array.unsafe_set p_node (p) (next);
        if track then
          if fresh then begin
            Array.unsafe_set todo_cells p
              (todo_cell ist (Array.unsafe_get todo p));
            set_ctl_cell p;
            Array.unsafe_set head_cells p (head_cell ist ~inv0 ~op_index);
            Array.unsafe_set chain_cells p (I.pair ist rc unit_cell)
          end
          else Array.unsafe_set chain_cells p (I.pair ist rc s_chainc);
        None
    in
    if track then begin
      let hc = Array.unsafe_get hist_cells obj in
      sum_hi :=
        s_sum_hi - obj_term_hi obj s_qc hc s_acc
        + obj_term_hi obj qc hc (s_acc + 1);
      sum_lo :=
        s_sum_lo - obj_term_lo obj s_qc hc s_acc
        + obj_term_lo obj qc hc (s_acc + 1);
      set_proc_cell p
    end;
    incr events;
    let st' =
      match completed with
      | Some op when user_tracker ->
        t.event st ~trace_rev:tr
          (Op_completed { op; pending = live_pending_mut () })
      | _ -> st
    in
    go cl child_dirty child_sleep tr st' (if st' == st then tid else no_tid);
    decr events;
    Array.unsafe_set objs (obj) (s_q);
    Array.unsafe_set obj_cells (obj) (s_qc);
    Array.unsafe_set acc (obj) (s_acc);
    Array.unsafe_set todo (p) (s_todo);
    Array.unsafe_set next_op (p) (s_nextop);
    Array.unsafe_set local (p) (s_local);
    Array.unsafe_set haspend (p) (s_haspend);
    Array.unsafe_set p_inv0 (p) (s_inv0);
    Array.unsafe_set p_opidx (p) (s_opidx);
    Array.unsafe_set p_started (p) (s_started);
    Array.unsafe_set p_steps (p) (s_steps);
    Array.unsafe_set p_resps (p) (s_resps);
    Array.unsafe_set p_node (p) (s_node);
    ops_rev := s_ops;
    if track then begin
      Array.unsafe_set ops_cells (p) (s_opsc);
      Array.unsafe_set proc_cells (p) (s_pc);
      Array.unsafe_set todo_cells p s_todoc;
      Array.unsafe_set local_cells p s_localc;
      Array.unsafe_set ctl_cells p s_ctlc;
      Array.unsafe_set head_cells p s_headc;
      Array.unsafe_set chain_cells p s_chainc;
      sum_hi := s_sum_hi;
      sum_lo := s_sum_lo
    end
    else cells_valid := false
  in
  go (cls_at 0) (-1) 0 [] t.root no_tid;
  cc.cc_pool <- Some ms

(* Worker-failure taxonomy for the supervised pool: [User_error] tags an
   exception escaping a user leaf callback (it must surface on the caller —
   that is how checkers report violations), [Abandoned] is raised by a worker
   that discovers the coordinator gave its subtree away after a stall. Any
   other exception in a worker is an infrastructure failure: the subtree is
   requeued and the pool degrades to fewer domains. *)
exception User_error of exn
exception Abandoned

(* Physically recognizable defaults: when the caller supplied no leaf
   consumer (and no tracker), the compiled kernel can skip materializing
   leaf records entirely. *)
let no_on_leaf (_ : Exec.leaf) = ()
let no_on_leaf_trace (_ : Faults.trace) (_ : Exec.leaf) = ()

let run impl ~workloads ?(fuel = default_fuel) ?(max_crashes = 0) ?faults
    ?budget ?deadline_s ?(options = naive)
    ?(par_threshold = default_par_threshold)
    ?(dedup_threshold = default_dedup_threshold)
    ?(bloom_bits_log2 = Fingerprint.Bloom.default_bits_log2) ?tracker
    ?(on_leaf = no_on_leaf) ?(on_leaf_trace = no_on_leaf_trace)
    ?checkpoint ?(checkpoint_meta = []) ?resume_from ?interrupt ?mem_budget_mb
    ?stall_timeout_s ?chaos () =
  let user_tracker = Option.is_some tracker in
  let ckpt_armed = Option.is_some checkpoint || Option.is_some resume_from in
  if user_tracker && ckpt_armed then
    invalid_arg
      "Explore.run: checkpointing does not compose with a user tracker \
       (tracker state cannot be serialized)";
  let (Tracker t) =
    match tracker with Some t -> Tracker t | None -> Tracker null_tracker
  in
  let faults = resolve_faults ?faults ~max_crashes () in
  (match resume_from with
  | Some ck -> (
    match
      Checkpoint.describe_mismatch ck ~engine:(engine_of_options options)
        ~fuel ~faults ~workloads
    with
    | Some reason -> invalid_arg ("Explore.run: cannot resume: " ^ reason)
    | None -> ())
  | None -> ());
  (* Sleep sets reason about base accesses only; crashes, recoveries and
     glitches are distinct transitions of the same process that they would
     wrongly put to sleep, so POR is disabled whenever fault branching is
     on. Duplicate-state pruning is sound under a tracker only when the
     tracker state is part of the key, so dedup requires a fingerprint. *)
  let opts =
    {
      options with
      por = options.por && Faults.is_none faults;
      dedup = (if Option.is_some t.fingerprint then options.dedup else Off);
    }
  in
  (* Symmetry narrows further: the implementation must declare its program
     process-oblivious, every base spec must be port-oblivious, and a user
     tracker disables the reduction outright — tracker state is caller
     -defined and we cannot check it is invariant under pid permutation, so
     the sound composition with trackers is exact pid-ordered keys. *)
  let classes =
    if opts.dedup = Symmetric && not user_tracker then
      Option.map Symmetry.classes (Symmetry.of_impl impl ~workloads)
    else None
  in
  let mk_dd () =
    if opts.dedup = Off then None
    else
      Some
        {
          threshold = dedup_threshold;
          bloom_bits_log2;
          classes;
          flat = None;
          tier2 = false;
        }
  in
  let lim = make_limiter ?budget ?deadline_s ?interrupt () in
  let memwatch =
    Option.map
      (fun mb ->
        {
          budget_words = mb * 1024 * 1024 / (Sys.word_size / 8);
          evict_upto = Atomic.make 0;
          last_bump = Atomic.make 0.0;
        })
      mem_budget_mb
  in
  (* Cheap per-node hook: a real sample only every 1024 nodes. *)
  let memcheck ~domain_id c dd =
    match memwatch with
    | Some mw when c.nodes land 1023 = 0 -> mem_sample mw ~domain_id c dd
    | _ -> ()
  in
  let emit_leaf trace_rev leaf st =
    on_leaf leaf;
    on_leaf_trace (List.rev trace_rev) leaf;
    t.at_leaf st ~trace_rev leaf
  in
  let n_objs = Array.length impl.Implementation.objects in
  let root = with_faults (initial_cfg impl ~workloads) faults in
  let n_domains = max 1 opts.domains in
  if n_domains = 1 && not ckpt_armed then begin
    let c = fresh_counters n_objs in
    let dd = mk_dd () in
    if opts.compile && Faults.is_none faults then begin
      (* The compiled kernel walks the same tree with the same counters and
         dedup decisions; it is engaged only where that parity holds by
         construction — see the kernel's header comment. *)
      let want_leaf =
        user_tracker || on_leaf != no_on_leaf
        || on_leaf_trace != no_on_leaf_trace
      in
      (try
         run_compiled impl ~opts ~fuel ~dd ~lim ~t ~user_tracker ~want_leaf c
           ~emit_leaf
           ~memcheck:(fun () -> memcheck ~domain_id:0 c dd)
           root
       with
      | Exec.Stop -> trip lim Stopped
      | Cut -> ());
      stats_of c ~domains_used:1 ~lim
    end
    else begin
      let rec go cfg sleep trace_rev st fpcur =
        memcheck ~domain_id:0 c dd;
        visit impl opts ~fuel ~dd ~lim ~t c emit_leaf ~recurse:go cfg sleep
          trace_rev st fpcur
      in
      (try go root 0 [] t.root None with
      | Exec.Stop -> trip lim Stopped
      | Cut -> ());
      stats_of c ~domains_used:1 ~lim
    end
  end
  else begin
    (* Frontier mode — the multicore fan-out, and any checkpointed or
       resumed run (a checkpoint needs an explicit frontier of pending
       subtrees to serialize; a resume starts from one). Expand the top of
       the tree breadth-first until the frontier is wide enough, then drain
       frontier subtrees — sequentially first, then on a supervised worker
       pool. Leaves met during expansion are processed inline. *)
    let c0 = fresh_counters n_objs in
    (match resume_from with
    | Some ck -> add_counts c0 ck.Checkpoint.counts
    | None -> ());
    let expansion_dd = mk_dd () in
    let sink = checkpoint in
    let last_save = ref (Monotime.now ()) in
    let saved_any = ref false in
    let save_ck remaining =
      match sink with
      | None -> ()
      | Some (path, _) ->
        let ck =
          Checkpoint.make ~meta:checkpoint_meta
            ~engine:(engine_of_options options) ~fuel
            ?budget_left:(Option.map (fun b -> max 0 (Atomic.get b)) lim.budget)
            ~faults ~workloads ~counts:(counts_of_counters c0)
            ~frontier:remaining ()
        in
        Checkpoint.save ck ~path;
        saved_any := true;
        last_save := Monotime.now ()
    in
    let maybe_save remaining =
      match sink with
      | Some (_, interval) when Monotime.now () -. !last_save >= interval ->
        save_ck (remaining ())
      | _ -> ()
    in
    let trace_of_item (_, _, tr, _, _) = List.rev tr in
    let roots =
      match resume_from with
      | None -> [ (root, 0, [], t.root, None) ]
      | Some ck ->
        (* Re-materialize each frontier root by replaying its decision-trace
           prefix. Sleep sets are not serialized; resumed roots restart with
           an empty one, which is sound (sleep only ever skips). *)
        List.map
          (fun trace ->
            match replay_prefix impl root trace with
            | Ok (cfg, trace_rev) -> (cfg, 0, trace_rev, t.root, None)
            | Error e -> invalid_arg ("Explore.run: cannot resume: " ^ e))
          ck.Checkpoint.frontier
    in
    (* When checkpointing, expand wider even on one domain: the frontier is
       the unit of checkpoint progress, so finer granularity means a resumed
       segment can finish items (and shrink the checkpoint) sooner. When a
       memory budget is armed, expand wider still: everything beyond a small
       in-RAM window is spilled to disk below, so a wide frontier costs a
       few text lines in a temp file, not heap — and gives the watchdogged
       run fine-grained work units. *)
    let spill_armed = Option.is_some memwatch && not user_tracker in
    let target =
      let base = max (n_domains * 4) (if ckpt_armed then 16 else 0) in
      if spill_armed then max base 256 else base
    in
    let cut = ref false in
    let pending_expansion = ref None in
    let frontier = ref roots in
    (try
       let level = ref 0 in
       while !level < 8 && List.length !frontier < target && !frontier <> [] do
         incr level;
         let next = ref [] in
         let rest = ref !frontier in
         while !rest <> [] do
           let ((cfg, sleep, trace_rev, st, fpcur) as item) = List.hd !rest in
           rest := List.tl !rest;
           let before = !next in
           (try
              visit impl opts ~fuel ~dd:expansion_dd ~lim ~t c0 emit_leaf
                ~recurse:(fun cfg' sleep' trace_rev' st' fpcur' ->
                  next := (cfg', sleep', trace_rev', st', fpcur') :: !next)
                cfg sleep trace_rev st fpcur
            with e ->
              (* Keep the in-flight item whole in the checkpoint and drop its
                 partial children — they would otherwise be explored twice on
                 resume. Children of items already finished this level stay. *)
              let rec strip l = if l == before then l else strip (List.tl l) in
              pending_expansion := Some ((item :: !rest) @ strip !next);
              raise e);
           memcheck ~domain_id:0 c0 expansion_dd
         done;
         frontier := List.rev !next
       done
     with
    | Exec.Stop ->
      trip lim Stopped;
      cut := true
    | Cut -> cut := true);
    if !cut then begin
      (match !pending_expansion with
      | Some items -> save_ck (List.map trace_of_item items)
      | None -> save_ck (List.map trace_of_item !frontier));
      stats_of c0 ~domains_used:1 ~lim
    end
    else begin
      let work = Array.of_list !frontier in
      let n_items = Array.length work in
      (* Two-tier frontier: items beyond a small in-RAM window are demoted
         to their decision-trace prefix — one line in a disk spill file,
         exactly the representation checkpoints use — and their materialized
         configuration, tracker state, sleep set and fingerprint cache are
         dropped. Taking a demoted item re-reads the line and replays the
         prefix (the resume path); sleep sets restart empty, which is sound.
         Only armed together with the memory watchdog, and never under a
         user tracker (tracker state cannot be re-derived from a trace
         without replaying events the engine does not retain). *)
      let spill_window = max 16 (4 * n_domains) in
      let spill =
        if spill_armed && n_items > spill_window then Some (Frontier.create ())
        else None
      in
      let spill_handle = Array.make (max 1 n_items) None in
      (match spill with
      | Some sp ->
        let dummy = (root, 0, [], t.root, None) in
        for i = spill_window to n_items - 1 do
          spill_handle.(i) <- Some (Frontier.append sp (trace_of_item work.(i)));
          work.(i) <- dummy
        done;
        c0.spilled <- c0.spilled + Frontier.spilled sp
      | None -> ());
      let item_trace i =
        match spill_handle.(i) with
        | None -> trace_of_item work.(i)
        | Some (off, len) -> (
          match Frontier.read (Option.get spill) ~off ~len with
          | Ok trace -> trace
          | Error e -> failwith ("Explore: frontier spill: " ^ e))
      in
      let item i =
        match spill_handle.(i) with
        | None -> work.(i)
        | Some (off, len) -> (
          match Frontier.read (Option.get spill) ~off ~len with
          | Error e -> failwith ("Explore: frontier spill: " ^ e)
          | Ok trace -> (
            match replay_prefix impl root trace with
            | Ok (cfg, trace_rev) -> (cfg, 0, trace_rev, t.root, None)
            | Error e -> failwith ("Explore: frontier spill: " ^ e)))
      in
      let close_spill () = Option.iter Frontier.close spill in
      (* Written by whichever domain finishes the item, read by the
         coordinator for checkpoints. A stale [false] merely re-includes a
         finished item in a checkpoint — re-exploring it on resume is sound. *)
      let completed = Array.make n_items false in
      let remaining_traces () =
        let out = ref [] in
        for i = n_items - 1 downto 0 do
          if not completed.(i) then out := item_trace i :: !out
        done;
        !out
      in
      (* Sequential drain: explore frontier subtrees inline (reusing the
         expansion dedup table and counters) until the tree has shown
         [par_threshold] nodes — only what is left after that goes to the
         pool. With one domain this drains everything. *)
      let drained = ref 0 in
      (try
         let rec go cfg sleep trace_rev st fpcur =
           memcheck ~domain_id:0 c0 expansion_dd;
           visit impl opts ~fuel ~dd:expansion_dd ~lim ~t c0 emit_leaf
             ~recurse:go cfg sleep trace_rev st fpcur
         in
         while
           !drained < n_items && (n_domains = 1 || c0.nodes < par_threshold)
         do
           let i = !drained in
           let cfg, sleep, trace_rev, st, fpcur = item i in
           go cfg sleep trace_rev st fpcur;
           completed.(i) <- true;
           incr drained;
           maybe_save remaining_traces
         done
       with
      | Exec.Stop ->
        trip lim Stopped;
        cut := true
      | Cut -> cut := true);
      if !cut then begin
        save_ck (remaining_traces ());
        close_spill ();
        stats_of c0 ~domains_used:1 ~lim
      end
      else if !drained >= n_items then begin
        (* Fully explored. No checkpoint is needed for a completed run; only
           refresh the file (to an empty frontier) if interval saves already
           wrote a now-stale one. *)
        if !saved_any then save_ck [];
        close_spill ();
        stats_of c0 ~domains_used:1 ~lim
      end
      else begin
        let next_item = Atomic.make !drained in
        let stop = Atomic.make false in
        let first_error : exn option Atomic.t = Atomic.make None in
        let leaf_mutex = Mutex.create () in
        let emit_leaf_sync trace_rev leaf st =
          Mutex.lock leaf_mutex;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock leaf_mutex)
            (fun () -> emit_leaf trace_rev leaf st)
        in
        (* A user leaf callback raising (that is how checkers report
           violations) must surface on the caller, not count as an
           infrastructure failure of the worker running it. *)
        let emit_leaf_worker trace_rev leaf st =
          try emit_leaf_sync trace_rev leaf st with
          | Exec.Stop as e -> raise e
          | e -> raise (User_error e)
        in
        let n_workers = min n_domains (n_items - !drained) in
        let track_hb =
          Option.is_some stall_timeout_s || Option.is_some chaos
        in
        let supervise =
          Option.is_some sink || Option.is_some stall_timeout_s
        in
        let hb = Array.init n_workers (fun _ -> Atomic.make 0) in
        let cur = Array.init n_workers (fun _ -> Atomic.make (-1)) in
        let wdone = Array.init n_workers (fun _ -> Atomic.make false) in
        let abandoned = Array.init n_workers (fun _ -> Atomic.make false) in
        let requeue = ref [] in
        let requeue_mutex = Mutex.create () in
        let attempts = Array.make n_items 0 in
        let take () =
          Mutex.lock requeue_mutex;
          let from_requeue =
            match !requeue with
            | [] -> None
            | i :: rest ->
              requeue := rest;
              Some i
          in
          Mutex.unlock requeue_mutex;
          match from_requeue with
          | Some _ as r -> r
          | None ->
            let i = Atomic.fetch_and_add next_item 1 in
            if i < n_items then Some i else None
        in
        let requeue_item i =
          Mutex.lock requeue_mutex;
          requeue := i :: !requeue;
          Mutex.unlock requeue_mutex
        in
        let worker w () =
          let c = fresh_counters n_objs in
          (* Fresh per-domain dedup context: its (lazily created) intern
             state never sees another domain's cells. The fingerprint caches
             stored in [work] belong to the expansion domain's intern state,
             so each subtree restarts from [None] and re-roots with
             [fpc_of_cfg]. *)
          let dd = mk_dd () in
          let rec go cfg sleep trace_rev st fpcur =
            if Atomic.get stop then raise Exec.Stop;
            if track_hb then begin
              if Atomic.get abandoned.(w) then raise Abandoned;
              Atomic.incr hb.(w);
              match chaos with
              | Some f -> f ~worker:w ~nodes:(Atomic.get hb.(w))
              | None -> ()
            end;
            memcheck ~domain_id:(w + 1) c dd;
            visit impl opts ~fuel ~dd ~lim ~t c emit_leaf_worker ~recurse:go
              cfg sleep trace_rev st fpcur
          in
          (try
             let continue = ref true in
             while !continue do
               if Atomic.get stop then continue := false
               else
                 match take () with
                 | None -> continue := false
                 | Some i ->
                   Atomic.set cur.(w) i;
                   let cfg, sleep, trace_rev, st, _fpc0 = item i in
                   go cfg sleep trace_rev st None;
                   completed.(i) <- true;
                   Atomic.set cur.(w) (-1)
             done
           with
          | Exec.Stop ->
            trip lim Stopped;
            Atomic.set stop true
          | Cut -> Atomic.set stop true
          | Abandoned ->
            (* the coordinator already requeued our subtree and counted the
               degradation *)
            ()
          | User_error _ as e ->
            ignore (Atomic.compare_and_set first_error None (Some e));
            Atomic.set stop true
          | e ->
            (* Infrastructure failure: hand the subtree back and retire this
               worker — the pool degrades to fewer domains instead of
               poisoning the join. An item that already failed on another
               worker is deterministic: surface it instead of cycling. *)
            c.degraded <- c.degraded + 1;
            let i = Atomic.get cur.(w) in
            if i >= 0 && not completed.(i) then begin
              if attempts.(i) >= 1 then begin
                ignore (Atomic.compare_and_set first_error None (Some e));
                Atomic.set stop true
              end
              else begin
                attempts.(i) <- attempts.(i) + 1;
                requeue_item i
              end
            end);
          Atomic.set cur.(w) (-1);
          Atomic.set wdone.(w) true;
          c
        in
        let handles = Array.init n_workers (fun w -> Domain.spawn (worker w)) in
        (* Supervision: the coordinator polls worker heartbeats (nodes
           visited) instead of blocking in join, writes interval checkpoints,
           and — when a stall timeout is armed — abandons a worker that has
           stopped making progress, requeueing its subtree onto the
           survivors. Without a sink or stall timeout the poll loop is
           skipped and the join below blocks as before. *)
        if supervise then begin
          let last_hb = Array.make n_workers (-1) in
          let last_progress = Array.make n_workers (Monotime.now ()) in
          let live w =
            not (Atomic.get wdone.(w) || Atomic.get abandoned.(w))
          in
          let any_live () =
            let l = ref false in
            for w = 0 to n_workers - 1 do
              if live w then l := true
            done;
            !l
          in
          while any_live () do
            Unix.sleepf 0.002;
            maybe_save remaining_traces;
            match stall_timeout_s with
            | None -> ()
            | Some timeout ->
              let now = Monotime.now () in
              for w = 0 to n_workers - 1 do
                if live w then begin
                  let h = Atomic.get hb.(w) in
                  if h <> last_hb.(w) then begin
                    last_hb.(w) <- h;
                    last_progress.(w) <- now
                  end
                  else if now -. last_progress.(w) > timeout then begin
                    let i = Atomic.get cur.(w) in
                    if i >= 0 then begin
                      (* mark first, so the worker cannot finish the item
                         after we hand it away *)
                      Atomic.set abandoned.(w) true;
                      c0.degraded <- c0.degraded + 1;
                      if not completed.(i) && attempts.(i) < 1 then begin
                        attempts.(i) <- attempts.(i) + 1;
                        requeue_item i
                      end
                    end
                  end
                end
              done
          done
        end;
        Array.iter (fun h -> merge_counters c0 (Domain.join h)) handles;
        (* Items left behind — requeued after the survivors already exited,
           or never taken because every worker died — are drained inline on
           the coordinator: degraded, not dead. A deterministic failure
           re-raises here and reaches the caller. *)
        if Atomic.get first_error = None && Atomic.get lim.tripped = None
        then begin
          try
            let rec go cfg sleep trace_rev st fpcur =
              memcheck ~domain_id:0 c0 expansion_dd;
              visit impl opts ~fuel ~dd:expansion_dd ~lim ~t c0 emit_leaf
                ~recurse:go cfg sleep trace_rev st fpcur
            in
            let continue = ref true in
            while !continue do
              match take () with
              | None -> continue := false
              | Some i ->
                if not completed.(i) then begin
                  let cfg, sleep, trace_rev, st, _ = item i in
                  go cfg sleep trace_rev st None;
                  completed.(i) <- true
                end;
                maybe_save remaining_traces
            done
          with
          | Exec.Stop -> trip lim Stopped
          | Cut -> ()
        end;
        (match Atomic.get first_error with
        | Some (User_error e) -> raise e
        | Some e -> raise e
        | None -> ());
        if Atomic.get lim.tripped <> None then save_ck (remaining_traces ())
        else if !saved_any then save_ck [];
        close_spill ();
        stats_of c0 ~domains_used:n_workers ~lim
      end
    end
  end
