open Wfc_sim

type action =
  | Forward of { data : string; delay_s : float }
  | Reset

module Stream = struct
  type t = {
    plan : Chaos.plan;
    st : Random.State.t;
    mutable chunks : int;  (* chunks fed so far *)
    mutable dead : bool;
    mutable log : string list;  (* newest first *)
  }

  let create (plan : Chaos.plan) =
    {
      plan;
      st = Random.State.make [| 0x57e6; plan.jitter |];
      chunks = 0;
      dead = false;
      log = [];
    }

  let fault t msg = t.log <- msg :: t.log
  let faults t = List.rev t.log

  let feed t data =
    if t.dead || data = "" then []
    else begin
      t.chunks <- t.chunks + 1;
      let n = t.chunks in
      match t.plan.reset with
      | Some k when n > k ->
        t.dead <- true;
        fault t (Fmt.str "reset @chunk %d" n);
        [ Reset ]
      | _ ->
        let data =
          match t.plan.corrupt with
          | Some k when n = k ->
            let b = Bytes.of_string data in
            let i = Random.State.int t.st (Bytes.length b) in
            let bit = Random.State.int t.st 8 in
            Bytes.set b i
              (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
            fault t (Fmt.str "corrupt byte %d bit %d @chunk %d" i bit n);
            Bytes.to_string b
          | _ -> data
        in
        let delay =
          match t.plan.latency with
          | Some (lo, hi) ->
            let d = lo +. Random.State.float t.st (max 1e-9 (hi -. lo)) in
            fault t (Fmt.str "latency %.6fs @chunk %d" d n);
            d
          | None -> 0.
        in
        let delay =
          match t.plan.partition with
          | Some (k, s) when n = k + 1 ->
            fault t (Fmt.str "partition %gs @chunk %d" s n);
            delay +. s
          | _ -> delay
        in
        if t.plan.fragment then
          (* the whole chunk's delay rides on the first byte; the rest
             follow back-to-back, one frame-shattering byte each *)
          List.init (String.length data) (fun i ->
              Forward
                {
                  data = String.sub data i 1;
                  delay_s = (if i = 0 then delay else 0.);
                })
        else [ Forward { data; delay_s = delay } ]
    end
end

(* ---------- the proxy ---------- *)

(* One proxied connection: client fd, upstream fd, and per-direction
   fault schedule + timer queue of not-yet-due writes. *)
type dir = {
  stream : Stream.t;
  mutable pending : (float * string) list;  (* due-time ordered, oldest first *)
  mutable due : float;  (* monotonic watermark for new actions *)
}

type pair = {
  client : Unix.file_descr;
  up : Unix.file_descr;
  c2u : dir;
  u2c : dir;
  mutable open_ : bool;
}

let make_dir plan = { stream = Stream.create plan; pending = []; due = 0. }

let close_pair log p =
  if p.open_ then begin
    p.open_ <- false;
    Transport.close_noerr p.client;
    Transport.close_noerr p.up;
    log "connection closed"
  end

let schedule d actions ~now =
  let adds =
    List.filter_map
      (function
        | Forward { data; delay_s } ->
          d.due <- max d.due now +. delay_s;
          Some (d.due, data)
        | Reset -> None)
      actions
  in
  d.pending <- d.pending @ adds

let has_reset = List.exists (function Reset -> true | _ -> false)

let run ?(log = ignore) ?stop ~listen ~upstream plan =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listener = Transport.listen listen in
  let pairs = ref [] in
  let stopped () = match stop with Some f -> Atomic.get f | None -> false in
  let buf = Bytes.create 65536 in
  (* Shuttle one readable side: read a chunk, run it through the fault
     schedule, queue the survivors. *)
  let pump p ~src ~dir =
    match Unix.read src buf 0 (Bytes.length buf) with
    | 0 -> close_pair log p
    | n ->
      let before = List.length (Stream.faults dir.stream) in
      let actions = Stream.feed dir.stream (Bytes.sub_string buf 0 n) in
      List.iteri
        (fun i f -> if i >= before then log (Fmt.str "inject: %s" f))
        (Stream.faults dir.stream);
      if has_reset actions then close_pair log p
      else schedule dir actions ~now:(Monotime.now ())
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ -> close_pair log p
  in
  (* Flush every due write; drop the pair on a dead sink. *)
  let flush p ~now =
    let rec one dst d =
      match d.pending with
      | (due, data) :: rest when due <= now && p.open_ -> (
        match
          Transport.write_all ~deadline_s:5. dst (Bytes.of_string data) 0
            (String.length data)
        with
        | () ->
          d.pending <- rest;
          one dst d
        | exception (Unix.Unix_error _ | Transport.Timeout _) ->
          close_pair log p)
      | _ -> ()
    in
    if p.open_ then begin
      one p.up p.c2u;
      if p.open_ then one p.client p.u2c
    end
  in
  (* [pending] is due-ordered (monotone watermark), so heads suffice. *)
  let next_due () =
    let hd = function (due, _) :: _ -> due | [] -> infinity in
    List.fold_left
      (fun acc p ->
        if not p.open_ then acc
        else min acc (min (hd p.c2u.pending) (hd p.u2c.pending)))
      infinity !pairs
  in
  while not (stopped ()) do
    let now = Monotime.now () in
    List.iter (fun p -> flush p ~now) !pairs;
    pairs := List.filter (fun p -> p.open_) !pairs;
    let fds =
      listener
      :: List.concat_map (fun p -> [ p.client; p.up ]) !pairs
    in
    let timeout =
      let due = next_due () in
      if due = infinity then 0.1 else max 0.001 (min 0.1 (due -. now))
    in
    let readable, _, _ =
      try Unix.select fds [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd = listener then (
          match Transport.accept listener with
          | None -> ()
          | Some client -> (
            match Transport.connect ~deadline_s:5. upstream with
            | up ->
              log "proxied connection open";
              pairs :=
                {
                  client;
                  up;
                  c2u = make_dir plan;
                  u2c = make_dir plan;
                  open_ = true;
                }
                :: !pairs
            | exception (Unix.Unix_error _ | Transport.Timeout _) ->
              (* upstream down: the client's own backoff handles it *)
              Transport.close_noerr client))
        else
          List.iter
            (fun p ->
              if p.open_ && fd = p.client then pump p ~src:p.client ~dir:p.c2u
              else if p.open_ && fd = p.up then pump p ~src:p.up ~dir:p.u2c)
            !pairs)
      readable
  done;
  List.iter (fun p -> close_pair log p) !pairs;
  Transport.close_noerr listener;
  Transport.unlink_noerr listen

let spawn ?log ~listen ~upstream plan =
  match Unix.fork () with
  | 0 ->
    (match run ?log ~listen ~upstream plan with
    | () -> Unix._exit 0
    | exception _ -> Unix._exit 5)
  | pid -> pid
