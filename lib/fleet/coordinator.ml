open Wfc_program
open Wfc_sim
module Check = Wfc_consensus.Check

type config = {
  addr : Transport.addr;
  lease_s : float;
  quantum : int;
  local_grace_s : float;
  hello_grace_s : float;
  max_conns : int;
  io_deadline_s : float;
  log : string -> unit;
}

let config ?(lease_s = 10.) ?(quantum = 20_000) ?(local_grace_s = 1.)
    ?(hello_grace_s = 5.) ?(max_conns = 64) ?(io_deadline_s = 5.)
    ?(log = ignore) addr =
  let addr =
    match Transport.parse addr with
    | Ok a -> a
    | Error e -> invalid_arg (Fmt.str "Fleet: %s" e)
  in
  {
    addr;
    lease_s;
    quantum;
    local_grace_s;
    hello_grace_s;
    max_conns;
    io_deadline_s;
    log;
  }

type fleet_stats = {
  workers_seen : int;
  lease_misses : int;
  reattaches : int;
  steals : int;
  splits : int;
  shards_run : int;
  local_shards : int;
}

(* ---------- internal state ---------- *)

type shard = {
  sid : int;
  vec : int;  (* 1-based position in the Check.vectors enumeration *)
  job : Checkpoint.t;
  mutable requeues : int;
}

type running = { shard : shard; mutable expires : float }

type conn = {
  fd : Unix.file_descr;
  frames : Codec.Frames.t;
  opened : float;
  mutable hello : bool;
  mutable token : string;
  mutable running : running option;
  mutable stolen : bool;
  mutable alive : bool;
}

exception Found_v of Check.violation
exception Cut of string

let retry_eintr f =
  let rec go () =
    try f () with Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let serve ?subsets ?repeat ?domain ?(faults = Faults.none) ?fuel ?budget
    ?deadline_s ?(shrink = true) ?(engine = Explore.fast) ?checkpoint ?resume
    ?interrupt ?(meta = []) ~config:(cfg : config) (impl : Implementation.t) =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fuel = Option.value fuel ~default:Explore.default_fuel in
  (* The run's account: a checkpoint that is not this run's is refused
     here, before the socket is bound. *)
  let book =
    Check.book ?subsets ?repeat ?domain ?budget ?deadline_s ?interrupt
      ?resume ~engine ~fuel ~faults impl
  in
  let workers_seen = ref 0 in
  let lease_misses = ref 0 in
  let reattaches = ref 0 in
  let steals = ref 0 in
  let splits = ref 0 in
  let shards_run = ref 0 in
  let local_shards = ref 0 in
  let fleet_stats () =
    {
      workers_seen = !workers_seen;
      lease_misses = !lease_misses;
      reattaches = !reattaches;
      steals = !steals;
      splits = !splits;
      shards_run = !shards_run;
      local_shards = !local_shards;
    }
  in
  (* [enqueue] deals what is left of vector [vec] into at most [into]
     shards: plain verification checkpoints with zeroed counts (a vector's
     counts stay in the account, which records every result once). *)
  let queue : shard Queue.t = Queue.create () in
  let sid = ref 0 in
  let enqueue vec ck ~into =
    let parts = Checkpoint.split ck ~into in
    List.iter
      (fun job ->
        incr sid;
        Queue.push { sid = !sid; vec; job; requeues = 0 } queue)
      parts;
    List.length parts
  in
  Seq.iter
    (fun ((v : Check.vector), job) ->
      ignore (enqueue v.Check.pos (Checkpoint.with_meta job meta) ~into:1))
    (Check.jobs book);
  (* ---------- socket plumbing ---------- *)
  let listener = Transport.listen ~backlog:64 cfg.addr in
  let conns = ref [] in
  (* Leases whose connection dropped but whose worker session may come
     back: keyed by Hello token, still expiring on the same heartbeat
     clock. A re-attach adopts the lease; expiry requeues it. *)
  let orphans : (string * running) list ref = ref [] in
  let live () = List.filter (fun c -> c.alive) !conns in
  let idle_ready () =
    List.filter (fun c -> c.alive && c.hello && c.running = None) (live ())
  in
  let requeue_shard why (s : shard) =
    incr lease_misses;
    Check.degrade book;
    s.requeues <- s.requeues + 1;
    cfg.log
      (Fmt.str "shard %d (vector %d) lost (%s), requeue #%d" s.sid s.vec why
         s.requeues);
    Queue.push s queue
  in
  (* [orphan]: a connection-level loss (peer closed, read/write error or
     timeout, wire garbage) parks the lease for the token to reclaim —
     transient blips must not cost the shard. Protocol violations and
     expiries still requeue immediately. *)
  let drop ?(requeue = true) ?(orphan = false) why c =
    if c.alive then begin
      c.alive <- false;
      close_noerr c.fd;
      match c.running with
      | Some r ->
        c.running <- None;
        if orphan && c.token <> "" then begin
          cfg.log
            (Fmt.str "shard %d parked (%s), waiting for token %s to re-attach"
               r.shard.sid why c.token);
          orphans := (c.token, r) :: !orphans
        end
        else if requeue then requeue_shard why r.shard
      | None -> ()
    end
  in
  let cleanup ~reason () =
    List.iter
      (fun c ->
        (try Codec.write ~deadline_s:1.0 c.fd (Codec.Shutdown { reason })
         with Unix.Unix_error _ | Transport.Timeout _ -> ());
        close_noerr c.fd;
        c.alive <- false)
      (live ());
    close_noerr listener;
    Transport.unlink_noerr cfg.addr
  in
  let writer =
    Option.map
      (fun (path, interval_s) -> Checkpoint.writer ~path ~interval_s)
      checkpoint
  in
  let finish ~cut = Option.bind writer (Checkpoint.finish ~cut) in
  (* A cut between results leaves a single-process-compatible checkpoint,
     cut where the account cuts it: its frontier is the union of the
     prefixes still pending for that vector, queued, leased or parked. *)
  let flush_checkpoint w =
    let pending (v : Check.vector) =
      List.of_seq (Queue.to_seq queue)
      @ List.filter_map
          (fun c -> Option.map (fun r -> r.shard) c.running)
          (live ())
      @ List.map (fun (_, (r : running)) -> r.shard) !orphans
      |> List.fold_left
           (fun acc (s : shard) ->
             if s.vec = v.Check.pos then
               List.rev_append s.job.Checkpoint.frontier acc
             else acc)
           []
    in
    Option.iter
      (fun (ck : Checkpoint.t) ->
        cfg.log
          (Fmt.str "saving checkpoint (%d pending prefixes)"
             (List.length ck.frontier));
        Checkpoint.write w ck)
      (Check.checkpoint ~meta book ~frontier:pending)
  in
  (* ---------- result handling ---------- *)
  let rec settle (s : shard) (outcome : Codec.outcome) =
    incr shards_run;
    match outcome with
    | Codec.Done ck ->
      if ck.Checkpoint.counts.Checkpoint.overflows > 0 then
        (* exec_shard reports overflows as Violation; a Done carrying them
           breaks the contract — distrust the result, redo the work *)
        requeue_shard "overflowing Done result" s
      else begin
        (* The remainder of the lease's DFS stack: disjoint from what the
           lease explored, so recording its counts counts nothing twice.
           Spread it over the idle capacity. *)
        let idle = List.length (idle_ready ()) in
        let k = max 1 (min (List.length ck.frontier) (1 + idle)) in
        let left = enqueue s.vec ck ~into:k in
        if left > 1 then incr splits;
        Check.record book s.vec ~from:s.job ck ~left
      end
    | Codec.Violation { reason; witness } -> (
      match Check.replay_violation impl ~fuel ~reason witness with
      | Ok v -> raise (Found_v v)
      | Error why ->
        cfg.log (Fmt.str "shard %d: rejected violation claim: %s" s.sid why);
        requeue_shard "unvalidated violation claim" s)
    | Codec.Refused why ->
      cfg.log (Fmt.str "shard %d refused: %s" s.sid why);
      requeue_shard "refused" s
  and run_local ~quantum (s : shard) =
    incr local_shards;
    cfg.log (Fmt.str "running shard %d (vector %d) locally" s.sid s.vec);
    let outcome = Worker.exec_shard impl ~job:s.job ~quantum ?interrupt () in
    settle s outcome
  in
  (* ---------- the select loop ---------- *)
  let handle_msg c msg =
    match msg with
    | Codec.Hello { pid; name; token } ->
      if not c.hello then begin
        c.hello <- true;
        c.token <- token;
        incr workers_seen;
        (* A half-open older connection with the same token is superseded:
           the worker session has moved on. Park its lease (if any) so the
           adoption below finds it. *)
        List.iter
          (fun c' ->
            if c' != c && c'.alive && c'.token = token then begin
              (match c'.running with
              | Some r ->
                c'.running <- None;
                orphans := (token, r) :: !orphans
              | None -> ());
              drop ~requeue:false "superseded by reconnect" c'
            end)
          (live ());
        match List.assoc_opt token !orphans with
        | Some r ->
          orphans := List.remove_assoc token !orphans;
          r.expires <- Monotime.now () +. cfg.lease_s;
          c.running <- Some r;
          c.stolen <- false;
          incr reattaches;
          cfg.log
            (Fmt.str "worker %s (pid %d) re-attached to shard %d" name pid
               r.shard.sid)
        | None -> cfg.log (Fmt.str "worker %s (pid %d) joined" name pid)
      end
    | Codec.Heartbeat { shard } -> (
      match c.running with
      | Some r when r.shard.sid = shard ->
        r.expires <- Monotime.now () +. cfg.lease_s
      | _ -> ())
    | Codec.Result { shard; outcome } -> (
      match c.running with
      | Some r when r.shard.sid = shard ->
        c.running <- None;
        c.stolen <- false;
        settle r.shard outcome
      | _ ->
        (* a delayed ack for a lease we already expired: the shard was
           requeued, this result would double-count — drop it *)
        cfg.log (Fmt.str "discarding stale result for shard %d" shard))
    | Codec.Lease _ | Codec.Steal _ | Codec.Shutdown _ ->
      drop "protocol violation" c
  in
  let pump c =
    match retry_eintr (fun () -> Codec.Frames.read_from c.frames c.fd) with
    | 0 -> drop ~orphan:true "closed" c
    | exception Unix.Unix_error _ -> drop ~orphan:true "read error" c
    | _ ->
      let rec go () =
        if c.alive then
          match Codec.Frames.pop c.frames with
          | Ok None -> ()
          | Ok (Some msg) ->
            handle_msg c msg;
            go ()
          | Error e ->
            drop ~orphan:true (Fmt.str "garbage on the wire: %s" e) c
      in
      go ()
  in
  let dispatch () =
    List.iter
      (fun c ->
        (* each lease's quantum is capped at what is left of the budget *)
        match Check.allowance ~quantum:cfg.quantum book with
        | Ok (Some quantum, _) when not (Queue.is_empty queue) -> (
          let s = Queue.pop queue in
          if s.requeues > 1 then
            (* lost twice already: stop trusting the fleet with it *)
            run_local ~quantum s
          else
            match
              Codec.write ~deadline_s:cfg.io_deadline_s c.fd
                (Codec.Lease
                   {
                     shard = s.sid;
                     lease_s = cfg.lease_s;
                     quantum;
                     job = s.job;
                   })
            with
            | () ->
              c.running <-
                Some { shard = s; expires = Monotime.now () +. cfg.lease_s };
              c.stolen <- false
            | exception (Unix.Unix_error _ | Transport.Timeout _) ->
              (* never actually leased: no penalty, next worker gets it *)
              Queue.push s queue;
              drop ~requeue:false "write error" c)
        | _ -> ())
      (idle_ready ())
  in
  let steal_if_starved () =
    match idle_ready () with
    | [] -> ()
    | _ :: _ when Queue.is_empty queue -> (
      let victim =
        List.find_opt
          (fun c -> c.alive && c.running <> None && not c.stolen)
          (live ())
      in
      match victim with
      | Some c -> (
        match c.running with
        | Some r -> (
          match
            Codec.write ~deadline_s:cfg.io_deadline_s c.fd
              (Codec.Steal { shard = r.shard.sid })
          with
          | () ->
            c.stolen <- true;
            incr steals;
            cfg.log (Fmt.str "stealing shard %d back" r.shard.sid)
          | exception (Unix.Unix_error _ | Transport.Timeout _) ->
            drop ~orphan:true "write error" c)
        | None -> ())
      | None -> ())
    | _ -> ()
  in
  let accept_all () =
    let rec go () =
      match Transport.accept listener with
      | None -> ()
      | Some cfd ->
        if List.length (live ()) >= cfg.max_conns then begin
          (* cap reached: shed load at the door rather than let a connect
             storm grow the select set without bound *)
          cfg.log "connection refused: at max-conns";
          close_noerr cfd
        end
        else
          conns :=
            {
              fd = cfd;
              frames = Codec.Frames.create ();
              opened = Monotime.now ();
              hello = false;
              token = "";
              running = None;
              stolen = false;
              alive = true;
            }
            :: !conns;
        go ()
    in
    go ()
  in
  let started = Monotime.now () in
  let result =
    try
      while not (Check.finished book) do
        Result.iter_error
          (fun reason -> raise (Cut reason))
          (Check.allowance book);
        (* expired leases: crash, stall or partition — requeue; and drop
           clients that never said Hello within the grace period, so a
           half-open connection can't sit in the select set forever *)
        let now = Monotime.now () in
        List.iter
          (fun c ->
            match c.running with
            | Some r when now > r.expires -> drop "lease expired" c
            | _ ->
              if (not c.hello) && now -. c.opened > cfg.hello_grace_s then
                drop ~requeue:false "no hello within grace" c)
          (live ());
        orphans :=
          List.filter
            (fun (_, (r : running)) ->
              if now > r.expires then begin
                requeue_shard "orphan lease expired" r.shard;
                false
              end
              else true)
            !orphans;
        (* periodic flush: a SIGKILL'd coordinator restarts from a recent
           cut instead of the beginning (the journal of `wfc queue` points
           its retry at this file) *)
        (match writer with
        | Some w when Checkpoint.due w -> flush_checkpoint w
        | _ -> ());
        dispatch ();
        steal_if_starved ();
        let no_workers = List.for_all (fun c -> not c.hello) (live ()) in
        let fds = listener :: List.map (fun c -> c.fd) (live ()) in
        let timeout =
          if
            no_workers
            && (not (Queue.is_empty queue))
            && now -. started >= cfg.local_grace_s
          then 0.
          else 0.05
        in
        let readable, _, _ =
          retry_eintr (fun () -> Unix.select fds [] [] timeout)
        in
        List.iter
          (fun fd ->
            if fd = listener then accept_all ()
            else
              match List.find_opt (fun c -> c.alive && c.fd = fd) !conns with
              | Some c -> pump c
              | None -> ())
          readable;
        conns := live ();
        (* nobody to delegate to: make progress ourselves, one quantum at a
           time, so late-joining workers still find work *)
        if
          List.for_all (fun c -> not c.hello) (live ())
          && (not (Queue.is_empty queue))
          && Monotime.now () -. started >= cfg.local_grace_s
        then
          match Check.allowance ~quantum:cfg.quantum book with
          | Ok (Some quantum, _) -> run_local ~quantum (Queue.pop queue)
          | _ -> ()
      done;
      ignore (finish ~cut:false);
      cleanup ~reason:"run complete" ();
      Check.verdict book
    with
    | Found_v v ->
      ignore (finish ~cut:false);
      cleanup ~reason:"violation found" ();
      Check.Falsified (if shrink then Check.shrink_violation impl v else v)
    | Cut reason ->
      Option.iter flush_checkpoint writer;
      let unsaved = finish ~cut:true in
      cleanup ~reason ();
      Check.verdict ~cut:reason ?unsaved book
    | e ->
      cleanup ~reason:"coordinator error" ();
      raise e
  in
  (result, fleet_stats ())
