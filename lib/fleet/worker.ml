open Wfc_sim

type config = {
  addr : Transport.addr;
  name : string;
  token : string;
  chaos : Chaos.plan;
  seed : int;
  connect_attempts : int;
  hb_interval_s : float;
  io_deadline_s : float;
  persist : bool;
  log : string -> unit;
}

(* Unique enough across a fleet: pid disambiguates processes on one host,
   the clock's low microseconds disambiguate pid reuse across restarts. *)
let fresh_token () =
  Fmt.str "w%d.%06x" (Unix.getpid ())
    (int_of_float (Unix.gettimeofday () *. 1e6) land 0xffffff)

let config ?(name = Fmt.str "worker-%d" (Unix.getpid ())) ?token
    ?(chaos = Chaos.none) ?(seed = 0) ?(connect_attempts = 60)
    ?(hb_interval_s = 0.5) ?(io_deadline_s = 5.) ?(persist = false)
    ?(log = ignore) addr =
  let addr =
    match Transport.parse addr with
    | Ok a -> a
    | Error e -> invalid_arg (Fmt.str "Worker: %s" e)
  in
  let token = match token with Some t -> t | None -> fresh_token () in
  {
    addr;
    name;
    token;
    chaos;
    seed;
    connect_attempts;
    hb_interval_s;
    io_deadline_s;
    persist;
    log;
  }

(* ---------- shard execution ---------- *)

let counts_of_stats ~probabilistic (s : Explore.stats) =
  {
    Checkpoint.leaves = s.Explore.leaves;
    nodes = s.Explore.nodes;
    max_events = s.Explore.max_events;
    max_op_steps = s.Explore.max_op_steps;
    max_accesses = s.Explore.max_accesses;
    overflows = s.Explore.overflows;
    pruned = s.Explore.pruned;
    sleep_skips = s.Explore.sleep_skips;
    evictions = s.Explore.evictions;
    spilled = s.Explore.spilled;
    probabilistic;
  }

(* Local control flow: a leaf failed agreement/validity. *)
exception Bad of string * Witness.t

let exec_shard impl ~(job : Checkpoint.t) ?quantum ?interrupt
    ?(on_leaf = fun ~leaves:_ -> ()) () =
  let workloads = job.Checkpoint.workloads in
  let faults = job.Checkpoint.faults in
  let inputs = Wfc_consensus.Check.inputs_of_workloads workloads in
  let tmp = Filename.temp_file "wfc-shard" ".ck" in
  let remove_tmp () = try Sys.remove tmp with Sys_error _ -> () in
  Fun.protect ~finally:remove_tmp @@ fun () ->
  let leaves = ref 0 in
  match
    Explore.run impl ~workloads ~fuel:job.Checkpoint.fuel ~faults
      ?budget:quantum
      ~options:job.Checkpoint.engine
      ~on_leaf_trace:(fun trace leaf ->
        incr leaves;
        (match Wfc_consensus.Check.check_leaf ~inputs leaf with
        | Ok () -> ()
        | Error reason ->
          raise (Bad (reason, Witness.make ~workloads ~faults trace)));
        on_leaf ~leaves:!leaves)
      ~checkpoint:(tmp, 1e9) ~checkpoint_meta:job.Checkpoint.meta
      ~resume_from:job ?interrupt ()
  with
  | exception Bad (reason, witness) -> Codec.Violation { reason; witness }
  | exception Invalid_argument msg -> Codec.Refused msg
  | stats ->
    if stats.Explore.overflows > 0 then
      match stats.Explore.overflow_trace with
      | Some trace ->
        Codec.Violation
          {
            reason =
              Fmt.str "%d path(s) exhausted fuel: not wait-free"
                stats.Explore.overflows;
            witness = Witness.make ~workloads ~faults trace;
          }
      | None -> Codec.Refused "fuel overflow without a replayable trace"
    else (
      match stats.Explore.completeness with
      | Explore.Exhaustive ->
        Codec.Done
          {
            job with
            Checkpoint.counts = counts_of_stats ~probabilistic:false stats;
            frontier = [];
            budget_left = None;
          }
      | Explore.Partial Explore.Probabilistic ->
        Codec.Done
          {
            job with
            Checkpoint.counts = counts_of_stats ~probabilistic:true stats;
            frontier = [];
            budget_left = None;
          }
      | Explore.Partial
          ( Explore.Budget_exhausted | Explore.Deadline_exceeded
          | Explore.Interrupted ) -> (
        (* The engine flushed the remainder to the checkpoint sink on its
           way out; that file is the Result payload. *)
        match Checkpoint.load tmp with
        | Ok ck -> Codec.Done ck
        | Error e -> Codec.Refused (Fmt.str "cut shard lost its flush: %s" e))
      | Explore.Partial Explore.Stopped ->
        (* on_leaf_trace above never raises Exec.Stop *)
        assert false)

let impl_of_job (job : Checkpoint.t) =
  match Checkpoint.meta_find job "protocol" with
  | None -> Error "job carries no protocol meta entry"
  | Some name ->
    let procs =
      match Checkpoint.meta_find job "procs" with
      | Some s -> int_of_string_opt s
      | None -> Some (Array.length job.Checkpoint.workloads)
    in
    (match procs with
    | None -> Error "job carries a malformed procs meta entry"
    | Some procs -> Wfc_consensus.Protocols.of_name ~procs name)

(* ---------- the link ---------- *)

(* The connection is {e state}, not control flow: losing it never unwinds
   a running shard. The link reconnects (opportunistically mid-shard,
   blocking between leases) and says Hello with the session token, so the
   coordinator re-attaches the live lease instead of requeueing it. *)
type link = {
  cfg : config;
  bo : Backoff.t;
  mutable fd : Unix.file_descr option;
  mutable frames : Codec.Frames.t;
  mutable retry_at : float;  (* earliest next opportunistic connect *)
}

exception Quit

let retry_eintr f =
  let rec go () =
    try f () with Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let garbage_bytes = Bytes.of_string "\xff\xff\xff\xffGARBAGE-NOT-A-FRAME"

let close_quietly link =
  match link.fd with
  | None -> ()
  | Some fd ->
    Transport.close_noerr fd;
    link.fd <- None;
    link.frames <- Codec.Frames.create ()

let disconnect link reason =
  match link.fd with
  | None -> ()
  | Some _ ->
    close_quietly link;
    link.cfg.log (Fmt.str "connection lost (%s), will reconnect" reason)

let try_connect link =
  match Transport.connect ~deadline_s:link.cfg.io_deadline_s link.cfg.addr with
  | exception (Unix.Unix_error _ | Transport.Timeout _) -> false
  | fd -> (
    match
      Codec.write ~deadline_s:link.cfg.io_deadline_s fd
        (Codec.Hello
           { pid = Unix.getpid (); name = link.cfg.name; token = link.cfg.token })
    with
    | () ->
      link.fd <- Some fd;
      link.frames <- Codec.Frames.create ();
      Backoff.reset link.bo;
      link.cfg.log (Fmt.str "connected to %a" Transport.pp link.cfg.addr);
      true
    | exception (Unix.Unix_error _ | Transport.Timeout _) ->
      Transport.close_noerr fd;
      false)

(* Opportunistic reconnect from inside a running shard: one attempt, then
   wait out the backoff {e without sleeping} — the exploration is the
   priority and the lease clock is ticking. *)
let ensure link =
  match link.fd with
  | Some _ -> true
  | None ->
    if Monotime.now () < link.retry_at then false
    else if try_connect link then true
    else begin
      link.retry_at <- Monotime.now () +. Backoff.next link.bo;
      false
    end

(* Blocking reconnect between leases: nothing better to do than sleep. *)
let await link =
  let rec go () =
    match link.fd with
    | Some fd -> fd
    | None ->
      if try_connect link then go ()
      else if Backoff.attempt link.bo >= link.cfg.connect_attempts then
        failwith
          (Fmt.str "could not reach coordinator at %s after %d attempts"
             (Transport.to_string link.cfg.addr)
             link.cfg.connect_attempts)
      else begin
        Unix.sleepf (Backoff.next link.bo);
        go ()
      end
  in
  go ()

let send link msg =
  match link.fd with
  | None -> false
  | Some fd -> (
    match Codec.write ~deadline_s:link.cfg.io_deadline_s fd msg with
    | () -> true
    | exception Unix.Unix_error (e, _, _) ->
      disconnect link (Unix.error_message e);
      false
    | exception Transport.Timeout op ->
      disconnect link (op ^ " deadline expired");
      false)

(* Drain whatever complete messages are buffered, dispatching through
   [handle]. Framing violations and EOF drop the connection (the link
   reconnects); [handle] may raise [Quit]. *)
let drain link handle =
  let rec go () =
    match link.fd with
    | None -> ()
    | Some _ -> (
      match Codec.Frames.pop link.frames with
      | Ok None -> ()
      | Ok (Some msg) ->
        handle msg;
        go ()
      | Error e -> disconnect link (Fmt.str "garbage on the wire: %s" e))
  in
  go ()

let read_and_drain link handle =
  match link.fd with
  | None -> ()
  | Some fd -> (
    match retry_eintr (fun () -> Codec.Frames.read_from link.frames fd) with
    | 0 -> disconnect link "coordinator closed the connection"
    | exception Unix.Unix_error (e, _, _) -> disconnect link (Unix.error_message e)
    | _ -> drain link handle)

(* ---------- leases ---------- *)

let run_lease link ~shard ~lease_s ~quantum ~job =
  let cfg = link.cfg in
  cfg.log
    (Fmt.str "lease %d: frontier=%d quantum=%d" shard
       (List.length job.Checkpoint.frontier)
       quantum);
  match impl_of_job job with
  | Error e ->
    ignore (send link (Codec.Result { shard; outcome = Codec.Refused e }))
  | Ok impl ->
    let interrupt = Atomic.make false in
    let quit = ref false in
    let garbage_sent = ref false in
    let last_hb = ref (Monotime.now ()) in
    let on_leaf ~leaves =
      (match cfg.chaos.Chaos.kill_after with
      | Some k when leaves >= k ->
        cfg.log (Fmt.str "chaos: dying at %d leaves" leaves);
        Unix._exit 17
      | _ -> ());
      (match cfg.chaos.Chaos.stall_after with
      | Some k when leaves >= k ->
        (* A wedged process: hold the lease, send nothing, never return.
           The coordinator's lease expiry is the only way out. *)
        cfg.log (Fmt.str "chaos: stalling at %d leaves" leaves);
        Unix.sleepf 3600.;
        Unix._exit 0
      | _ -> ());
      if leaves land 63 = 0 then begin
        let now = Monotime.now () in
        if now -. !last_hb >= cfg.hb_interval_s then begin
          (* A dropped connection does not abandon the shard: keep
             exploring, keep trying to re-attach, heartbeat as soon as the
             new connection is up (the coordinator parks the lease under
             our token until it expires). *)
          if ensure link then begin
            match cfg.chaos.Chaos.garbage_after with
            | Some k when leaves >= k && not !garbage_sent ->
              garbage_sent := true;
              cfg.log "chaos: writing garbage";
              (match link.fd with
              | Some fd -> (
                try
                  Codec.write_all ~deadline_s:cfg.io_deadline_s fd
                    garbage_bytes 0
                    (Bytes.length garbage_bytes)
                with Unix.Unix_error _ | Transport.Timeout _ ->
                  disconnect link "write error")
              | None -> ())
            | _ -> ignore (send link (Codec.Heartbeat { shard; nodes = leaves }))
          end;
          last_hb := now
        end;
        (* Non-blocking poll for Steal/Shutdown while the shard runs. *)
        match link.fd with
        | None -> ()
        | Some fd -> (
          match retry_eintr (fun () -> Unix.select [ fd ] [] [] 0.) with
          | [], _, _ -> ()
          | _ ->
            read_and_drain link (function
              | Codec.Steal { shard = s } when s = shard ->
                Atomic.set interrupt true
              | Codec.Shutdown _ ->
                quit := true;
                Atomic.set interrupt true
              | _ -> ()))
      end
    in
    let outcome =
      exec_shard impl ~job ~quantum:(max 1 quantum) ~interrupt ~on_leaf ()
    in
    Option.iter
      (fun s ->
        cfg.log (Fmt.str "chaos: delaying result by %gs" s);
        Unix.sleepf s)
      cfg.chaos.Chaos.delay_result_s;
    (* Deliver the result, reconnecting if needed — but only while the
       lease can still be live. Past one full lease of silence the
       coordinator has requeued the shard and would discard this result as
       stale anyway, so drop it rather than spin. *)
    let give_up = Monotime.now () +. lease_s in
    let rec deliver () =
      if ensure link && send link (Codec.Result { shard; outcome }) then ()
      else if Monotime.now () > give_up then
        cfg.log
          (Fmt.str "shard %d: result undeliverable within the lease, dropped"
             shard)
      else begin
        Unix.sleepf 0.05;
        deliver ()
      end
    in
    deliver ();
    if !quit then raise Quit

(* ---------- the worker loop ---------- *)

let run cfg =
  (match Sys.os_type with
  | "Unix" -> (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())
  | _ -> ());
  let link =
    {
      cfg;
      bo = Backoff.create ~seed:cfg.seed ();
      fd = None;
      frames = Codec.Frames.create ();
      retry_at = 0.;
    }
  in
  let handle = function
    | Codec.Lease { shard; lease_s; quantum; job } ->
      run_lease link ~shard ~lease_s ~quantum ~job
    | Codec.Shutdown { reason } ->
      cfg.log (Fmt.str "shutdown: %s" reason);
      if cfg.persist then begin
        (* a standing worker outlives individual runs: drop this
           connection and wait for the next coordinator to appear *)
        close_quietly link;
        Backoff.reset link.bo
      end
      else raise Quit
    | _ -> ()
  in
  let rec loop () =
    let fd = await link in
    (match retry_eintr (fun () -> Unix.select [ fd ] [] [] cfg.hb_interval_s) with
    | [], _, _ -> ignore (send link (Codec.Heartbeat { shard = -1; nodes = 0 }))
    | _ -> read_and_drain link handle);
    loop ()
  in
  match loop () with
  | () -> Ok ()
  | exception Quit ->
    close_quietly link;
    Ok ()
  | exception Failure msg ->
    close_quietly link;
    Error msg
