type job = { id : string; protocol : string; procs : int; crashes : int }
type verdict = Verified | Falsified | Unknown of string

type status =
  | Pending of int
  | Done of verdict
  | Quarantined of string

type entry = { job : job; status : status }

type report = {
  entries : entry list;
  completed : int;
  quarantined : int;
  retried : int;
}

let protocol_header = "wfc-queue/1"

(* One line per word: ids and protocol names carry no whitespace, free
   text (reasons) goes last on its line and swallows the rest. *)
let clean s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let matrix ~protocols ~crashes =
  List.concat_map
    (fun (protocol, procs) ->
      List.map
        (fun c ->
          {
            id = Fmt.str "%s%d.c%d" protocol procs c;
            protocol;
            procs;
            crashes = c;
          })
        crashes)
    protocols

let verdict_to_line = function
  | Verified -> "verified"
  | Falsified -> "falsified"
  | Unknown reason -> "unknown " ^ clean reason

let verdict_of_words = function
  | [ "verified" ] -> Ok Verified
  | [ "falsified" ] -> Ok Falsified
  | "unknown" :: rest -> Ok (Unknown (String.concat " " rest))
  | w -> Error (Fmt.str "bad verdict %S" (String.concat " " w))

let pp_verdict ppf = function
  | Verified -> Fmt.string ppf "verified"
  | Falsified -> Fmt.string ppf "falsified"
  | Unknown r -> Fmt.pf ppf "unknown (%s)" r

let pp_status ppf = function
  | Pending 0 -> Fmt.string ppf "pending"
  | Pending n -> Fmt.pf ppf "pending (%d failed attempt(s))" n
  | Done v -> pp_verdict ppf v
  | Quarantined why -> Fmt.pf ppf "quarantined: %s" why

(* ---------- journal replay ---------- *)

(* Fold the journal into per-job state. [start] lines carry no state we
   keep (a start without a matching verdict just means the crash happened
   mid-job: the job is still Pending and will re-run from its
   checkpoint); [fail] lines count attempts. *)
let replay_lines lines =
  let order = ref [] in
  let tbl : (string, entry) Hashtbl.t = Hashtbl.create 16 in
  let update id f =
    match Hashtbl.find_opt tbl id with
    | None -> Error (Fmt.str "record for unknown job %S" id)
    | Some e ->
      Hashtbl.replace tbl id { e with status = f e.status };
      Ok ()
  in
  let ( let* ) = Result.bind in
  let step acc line =
    let* () = acc in
    match String.split_on_char ' ' line with
    | [ "job"; id; protocol; procs; crashes ] -> (
      match (int_of_string_opt procs, int_of_string_opt crashes) with
      | Some procs, Some crashes ->
        if not (Hashtbl.mem tbl id) then begin
          order := id :: !order;
          Hashtbl.replace tbl id
            { job = { id; protocol; procs; crashes }; status = Pending 0 }
        end;
        Ok ()
      | _ -> Error (Fmt.str "bad job record %S" line))
    | "start" :: id :: _ ->
      let* () = update id (fun s -> s) in
      Ok ()
    | "ok" :: id :: rest ->
      let* v = verdict_of_words rest in
      update id (fun _ -> Done v)
    | "fail" :: id :: _attempt :: _rest ->
      update id (function
        | Pending n -> Pending (n + 1)
        | s -> s)
    | "quarantine" :: id :: rest ->
      update id (fun _ -> Quarantined (String.concat " " rest))
    | _ -> Error (Fmt.str "unrecognized record %S" line)
  in
  let* () = List.fold_left step (Ok ()) lines in
  Ok (List.rev_map (fun id -> Hashtbl.find tbl id) !order)

(* The journal's bytes up to its last newline, and its entries. A crash
   mid-append leaves one unterminated last line: it is dropped (the action
   it would have recorded was not taken durably). A missing journal is
   empty. *)
let read_journal path =
  let ( let* ) = Result.bind in
  let* raw =
    match In_channel.with_open_bin path In_channel.input_all with
    | raw -> Ok raw
    | exception Sys_error _ when not (Sys.file_exists path) -> Ok ""
    | exception Sys_error e ->
      Error (Fmt.str "journal %s: cannot read: %s" path e)
  in
  let durable =
    match String.rindex_opt raw '\n' with Some i -> i + 1 | None -> 0
  in
  let* entries =
    if durable = 0 then Ok []
    else
      match String.split_on_char '\n' (String.sub raw 0 (durable - 1)) with
      | header :: lines when header = protocol_header -> (
        match replay_lines lines with
        | Ok entries -> Ok entries
        | Error e -> Error (Fmt.str "journal %s: corrupt: %s" path e))
      | header :: _ -> Error (Fmt.str "journal %s: bad header %S" path header)
      | [] -> Ok []
  in
  Ok (durable, entries)

let load path = Result.map snd (read_journal path)

(* ---------- appending ---------- *)

(* Same durability discipline as Checkpoint.save, adapted to a log: the
   record and then its file are fsync'd before the caller acts on it, and
   the directory is fsync'd once at journal creation so the file's very
   existence survives a host crash. *)
let fsync_noerr fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> fsync_noerr fd)

type sink = { path : string; oc : out_channel }

(* A failed write (a full disk, a file size limit) is the run's error, never
   an exception. *)
let writing path f =
  try Ok (f ()) with
  | Sys_error e -> Error (Fmt.str "journal %s: cannot write: %s" path e)
  | Unix.Unix_error (e, _, _) ->
    Error (Fmt.str "journal %s: cannot write: %s" path (Unix.error_message e))

(* Open for appending after the journal's [durable] bytes, those up to its
   last newline: a torn tail, which {!load} dropped, is cut off so the next
   record starts a line of its own, and a journal with no complete line
   (missing, empty, or torn inside its header) is started afresh with the
   header. *)
let open_sink path ~durable =
  writing path @@ fun () ->
  if durable = 0 then begin
    let oc =
      open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644
        path
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (protocol_header ^ "\n");
        flush oc;
        fsync_noerr (Unix.descr_of_out_channel oc));
    fsync_dir path
  end
  else if (Unix.stat path).Unix.st_size > durable then
    Unix.truncate path durable;
  { path; oc = open_out_gen [ Open_append; Open_binary ] 0o644 path }

let append sink line =
  writing sink.path @@ fun () ->
  output_string sink.oc line;
  output_char sink.oc '\n';
  flush sink.oc;
  fsync_noerr (Unix.descr_of_out_channel sink.oc)

let rec iter_result f = function
  | [] -> Ok ()
  | x :: rest -> Result.bind (f x) (fun () -> iter_result f rest)

(* ---------- the drain loop ---------- *)

let report_of entries =
  let completed =
    List.length
      (List.filter (fun e -> match e.status with Done _ -> true | _ -> false)
         entries)
  in
  let quarantined =
    List.length
      (List.filter
         (fun e -> match e.status with Quarantined _ -> true | _ -> false)
         entries)
  in
  { entries; completed; quarantined; retried = 0 }

let run ~journal ~state_dir ?(max_retries = 3) ?interrupt ?(log = ignore)
    ~exec jobs =
  let ( let* ) = Result.bind in
  let* durable, prior = read_journal journal in
  (* The journal is the authority for jobs it has seen (a restarted queue
     must not re-interpret history); new matrix entries are appended. *)
  let known = List.map (fun e -> e.job.id) prior in
  let fresh =
    List.filter (fun (j : job) -> not (List.mem j.id known)) jobs
  in
  let* () =
    match Sys.is_directory state_dir with
    | true -> Ok ()
    | false | (exception Sys_error _) -> (
      try Ok (Unix.mkdir state_dir 0o755)
      with Unix.Unix_error (e, _, _) ->
        Error
          (Fmt.str "state directory %s: cannot create: %s" state_dir
             (Unix.error_message e)))
  in
  let* sink = open_sink journal ~durable in
  Fun.protect ~finally:(fun () -> close_out_noerr sink.oc) @@ fun () ->
  let* () =
    iter_result
      (fun (j : job) ->
        append sink
          (Fmt.str "job %s %s %d %d" j.id j.protocol j.procs j.crashes))
      fresh
  in
  let entries =
    ref (prior @ List.map (fun job -> { job; status = Pending 0 }) fresh)
  in
  if prior <> [] then
    log
      (Fmt.str "journal %s: resuming %d job(s), %d already done" journal
         (List.length prior)
         (report_of prior).completed);
  let set_status id status =
    entries :=
      List.map
        (fun e -> if e.job.id = id then { e with status } else e)
        !entries
  in
  let interrupted () =
    match interrupt with Some f -> Atomic.get f | None -> false
  in
  let retried =
    ref
      (List.fold_left
         (fun n e -> match e.status with Pending k -> n + k | _ -> n)
         0 prior)
  in
  let rec drive e =
    match e.status with
    | Done _ | Quarantined _ -> Ok ()
    | Pending _ when interrupted () -> Ok ()
    | Pending failed -> (
      let j = e.job in
      let attempt = failed + 1 in
      let checkpoint = Filename.concat state_dir (j.id ^ ".ck") in
      let resume =
        if Sys.file_exists checkpoint then (
          match Wfc_sim.Checkpoint.load checkpoint with
          | Ok ck ->
            log (Fmt.str "job %s: resuming from %s" j.id checkpoint);
            Some ck
          | Error why ->
            (* an unreadable flush is re-derivable state, not progress:
               start the job over *)
            log (Fmt.str "job %s: ignoring bad checkpoint (%s)" j.id why);
            None)
        else None
      in
      let* () = append sink (Fmt.str "start %s %d" j.id attempt) in
      log (Fmt.str "job %s: attempt %d" j.id attempt);
      match exec j ~checkpoint ~resume with
      | Ok v ->
        let* () = append sink (Fmt.str "ok %s %s" j.id (verdict_to_line v)) in
        (try Sys.remove checkpoint with Sys_error _ -> ());
        set_status j.id (Done v);
        log (Fmt.str "job %s: %s" j.id (verdict_to_line v));
        Ok ()
      | Error why ->
        let why = clean why in
        incr retried;
        let* () = append sink (Fmt.str "fail %s %d %s" j.id attempt why) in
        if attempt >= max_retries then begin
          let* () = append sink (Fmt.str "quarantine %s %s" j.id why) in
          set_status j.id (Quarantined why);
          log (Fmt.str "job %s: quarantined after %d attempt(s): %s" j.id
                 attempt why);
          Ok ()
        end
        else begin
          set_status j.id (Pending attempt);
          log (Fmt.str "job %s: attempt %d failed (%s), retrying" j.id
                 attempt why);
          drive { e with status = Pending attempt }
        end)
  in
  let* () = iter_result drive !entries in
  Ok { (report_of !entries) with retried = !retried }
