open Wfc_sim

let protocol = "wfc-fleet/3"

(* A garbage length prefix must not make the reader allocate gigabytes:
   anything claiming to be larger than this is a framing violation and the
   connection is dropped. Checkpoints of realistic frontiers are well under
   a mebibyte. *)
let max_frame = 16 * 1024 * 1024

type outcome =
  | Done of Checkpoint.t
  | Violation of { reason : string; witness : Witness.t }
  | Refused of string

type msg =
  | Hello of { pid : int; name : string; token : string }
  | Lease of { shard : int; lease_s : float; quantum : int; job : Checkpoint.t }
  | Heartbeat of { shard : int }
  | Result of { shard : int; outcome : outcome }
  | Steal of { shard : int }
  | Shutdown of { reason : string }

(* ---------- encoding ---------- *)

(* Values live on one line each; newlines would desynchronize the
   line-oriented payload, so they are flattened. Keys are literals. *)
let clean s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let encode msg =
  let b = Buffer.create 256 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let blob s =
    Buffer.add_string b "--\n";
    Buffer.add_string b s
  in
  (match msg with
  | Hello { pid; name; token } ->
    line "%s hello" protocol;
    line "pid %d" pid;
    line "name %s" (clean name);
    line "token %s" (clean token)
  | Lease { shard; lease_s; quantum; job } ->
    line "%s lease" protocol;
    line "shard %d" shard;
    line "lease_s %.6g" lease_s;
    line "quantum %d" quantum;
    blob (Checkpoint.to_string job)
  | Heartbeat { shard } ->
    line "%s heartbeat" protocol;
    line "shard %d" shard
  | Result { shard; outcome } -> (
    line "%s result" protocol;
    line "shard %d" shard;
    match outcome with
    | Done ck ->
      line "outcome done";
      blob (Checkpoint.to_string ck)
    | Violation { reason; witness } ->
      line "outcome violation";
      line "reason %s" (clean reason);
      blob (Witness.to_string witness)
    | Refused reason ->
      line "outcome refused";
      line "reason %s" (clean reason))
  | Steal { shard } ->
    line "%s steal" protocol;
    line "shard %d" shard
  | Shutdown { reason } ->
    line "%s shutdown" protocol;
    line "reason %s" (clean reason));
  Buffer.contents b

(* ---------- decoding (total) ---------- *)

let ( let* ) = Result.bind

let split_blob payload =
  (* The head section never contains a bare "--" line (keys are known
     literals), so the first one separates head from blob. *)
  let sep = "\n--\n" in
  let slen = String.length sep in
  let n = String.length payload in
  let rec find i =
    if i + slen > n then None
    else if String.sub payload i slen = sep then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i ->
    ( String.sub payload 0 i,
      Some (String.sub payload (i + slen) (n - i - slen)) )
  | None -> (payload, None)

let parse_kvs lines =
  List.filter_map
    (fun l ->
      if l = "" then None
      else
        match String.index_opt l ' ' with
        | None -> Some (l, "")
        | Some i ->
          Some
            ( String.sub l 0 i,
              String.sub l (i + 1) (String.length l - i - 1) ))
    lines

let field kvs k =
  match List.assoc_opt k kvs with
  | Some v -> Ok v
  | None -> Error (Fmt.str "%s: missing %s field" protocol k)

let int_field kvs k =
  let* v = field kvs k in
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Fmt.str "%s: bad %s field %S" protocol k v)

let float_field kvs k =
  let* v = field kvs k in
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Fmt.str "%s: bad %s field %S" protocol k v)

let checkpoint_blob blob =
  match blob with
  | None -> Error (Fmt.str "%s: missing checkpoint blob" protocol)
  | Some s -> (
    match Checkpoint.of_string s with
    | Ok ck -> Ok ck
    | Error e -> Error (Fmt.str "%s: bad checkpoint blob: %s" protocol e))

let witness_blob blob =
  match blob with
  | None -> Error (Fmt.str "%s: missing witness blob" protocol)
  | Some s -> (
    match Witness.of_string s with
    | Ok w -> Ok w
    | Error e -> Error (Fmt.str "%s: bad witness blob: %s" protocol e))

let decode payload =
  let head, blob = split_blob payload in
  match String.split_on_char '\n' head with
  | [] -> Error (Fmt.str "%s: empty payload" protocol)
  | header :: rest -> (
    let kvs = parse_kvs rest in
    let* kind =
      match String.split_on_char ' ' header with
      | [ p; kind ] when p = protocol -> Ok kind
      | _ -> Error (Fmt.str "%s: bad header %S" protocol header)
    in
    match kind with
    | "hello" ->
      let* pid = int_field kvs "pid" in
      let* name = field kvs "name" in
      let* token = field kvs "token" in
      Ok (Hello { pid; name; token })
    | "lease" ->
      let* shard = int_field kvs "shard" in
      let* lease_s = float_field kvs "lease_s" in
      let* quantum = int_field kvs "quantum" in
      let* job = checkpoint_blob blob in
      Ok (Lease { shard; lease_s; quantum; job })
    | "heartbeat" ->
      let* shard = int_field kvs "shard" in
      Ok (Heartbeat { shard })
    | "result" -> (
      let* shard = int_field kvs "shard" in
      let* outcome = field kvs "outcome" in
      match outcome with
      | "done" ->
        let* ck = checkpoint_blob blob in
        Ok (Result { shard; outcome = Done ck })
      | "violation" ->
        let* reason = field kvs "reason" in
        let* witness = witness_blob blob in
        Ok (Result { shard; outcome = Violation { reason; witness } })
      | "refused" ->
        let* reason = field kvs "reason" in
        Ok (Result { shard; outcome = Refused reason })
      | o -> Error (Fmt.str "%s: unknown outcome %S" protocol o))
    | "steal" ->
      let* shard = int_field kvs "shard" in
      Ok (Steal { shard })
    | "shutdown" ->
      let* reason = field kvs "reason" in
      Ok (Shutdown { reason })
    | k -> Error (Fmt.str "%s: unknown message type %S" protocol k))

(* ---------- framing ---------- *)

let frame msg =
  let payload = encode msg in
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  b

(* All fleet fds are nonblocking (Transport hands them out that way), so a
   full socket buffer surfaces as EAGAIN and the poll loop below bounds the
   wait: a wedged peer costs [deadline_s], never an indefinite hang. *)
let write_all ?deadline_s fd b off len =
  Transport.write_all ?deadline_s fd b off len

let write ?deadline_s fd msg =
  let b = frame msg in
  write_all ?deadline_s fd b 0 (Bytes.length b)

module Frames = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 4096; len = 0 }

  let feed t src n =
    let need = t.len + n in
    if need > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while !cap < need do
        cap := !cap * 2
      done;
      let buf = Bytes.create !cap in
      Bytes.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end;
    Bytes.blit src 0 t.buf t.len n;
    t.len <- need

  let read_from t fd =
    let chunk = Bytes.create 65536 in
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | n ->
      if n > 0 then feed t chunk n;
      n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* nonblocking fd with nothing buffered (spurious select wakeup):
         not EOF, not an error *)
      -1

  let pop t =
    if t.len < 4 then Ok None
    else
      let flen = Int32.to_int (Bytes.get_int32_be t.buf 0) in
      if flen < 0 || flen > max_frame then
        Error (Fmt.str "%s: bad frame length %d" protocol flen)
      else if t.len < 4 + flen then Ok None
      else begin
        let payload = Bytes.sub_string t.buf 4 flen in
        let rest = t.len - 4 - flen in
        Bytes.blit t.buf (4 + flen) t.buf 0 rest;
        t.len <- rest;
        match decode payload with
        | Ok msg -> Ok (Some msg)
        | Error e -> Error e
      end
end

let pp_msg ppf = function
  | Hello { pid; name; token } ->
    Fmt.pf ppf "hello pid=%d name=%s token=%s" pid name token
  | Lease { shard; lease_s; quantum; job } ->
    Fmt.pf ppf "lease shard=%d lease_s=%g quantum=%d frontier=%d" shard
      lease_s quantum
      (List.length job.Checkpoint.frontier)
  | Heartbeat { shard } -> Fmt.pf ppf "heartbeat shard=%d" shard
  | Result { shard; outcome = Done ck } ->
    Fmt.pf ppf "result shard=%d done frontier=%d" shard
      (List.length ck.Checkpoint.frontier)
  | Result { shard; outcome = Violation { reason; _ } } ->
    Fmt.pf ppf "result shard=%d violation %s" shard reason
  | Result { shard; outcome = Refused reason } ->
    Fmt.pf ppf "result shard=%d refused %s" shard reason
  | Steal { shard } -> Fmt.pf ppf "steal shard=%d" shard
  | Shutdown { reason } -> Fmt.pf ppf "shutdown %s" reason
