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

let exec_shard impl ~(job : Checkpoint.t) ?quantum ?interrupt ?on_leaf () =
  match
    Wfc_consensus.Check.run_job ?budget:quantum ?interrupt ?on_leaf impl job
  with
  | exception Invalid_argument msg -> Codec.Refused msg
  | Wfc_consensus.Check.Drained counts ->
    Codec.Done
      { job with Checkpoint.counts; frontier = []; budget_left = None }
  | Wfc_consensus.Check.Cut { remainder; _ } ->
    Codec.Done (Checkpoint.with_meta remainder job.Checkpoint.meta)
  | Wfc_consensus.Check.Violated { reason; witness = Some witness; _ } ->
    Codec.Violation { reason; witness }
  | Wfc_consensus.Check.Violated { witness = None; _ } ->
    Codec.Refused "fuel overflow without a replayable trace"

let impl_of_job (job : Checkpoint.t) =
  Result.bind
    (Wfc_consensus.Protocols.of_meta
       ~procs:(Array.length job.Checkpoint.workloads)
       job.Checkpoint.meta)
    (fun (name, procs) -> Wfc_consensus.Protocols.of_name ~procs name)

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
  mutable garbage_sent : bool;  (* the chaos plan's garbage went out *)
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
    let last_hb = ref (Monotime.now ()) in
    let passed = ref 0 in
    let on_leaf _ =
      incr passed;
      let leaves = !passed in
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
      (* Garbage goes out once per process, at the first leaf from the
         threshold on where the link is up, whatever the heartbeat clock
         says. *)
      (match (cfg.chaos.Chaos.garbage_after, link.fd) with
      | Some k, Some fd when leaves >= k && not link.garbage_sent -> (
        link.garbage_sent <- true;
        cfg.log "chaos: writing garbage";
        try
          Codec.write_all ~deadline_s:cfg.io_deadline_s fd garbage_bytes 0
            (Bytes.length garbage_bytes)
        with Unix.Unix_error _ | Transport.Timeout _ ->
          disconnect link "write error")
      | _ -> ());
      if leaves land 63 = 0 then begin
        let now = Monotime.now () in
        if now -. !last_hb >= cfg.hb_interval_s then begin
          (* A dropped connection does not abandon the shard: keep
             exploring, keep trying to re-attach, heartbeat as soon as the
             new connection is up (the coordinator parks the lease under
             our token until it expires). *)
          if ensure link then
            ignore (send link (Codec.Heartbeat { shard; nodes = leaves }));
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
      garbage_sent = false;
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
