type side = Process | Wire

type plan = {
  kill_after : int option;
  stall_after : int option;
  garbage_after : int option;
  delay_result_s : float option;
  latency : (float * float) option;
  partition : (int * float) option;
  reset : int option;
  fragment : bool;
  corrupt : int option;
  jitter : int;
}

let none =
  {
    kill_after = None;
    stall_after = None;
    garbage_after = None;
    delay_result_s = None;
    latency = None;
    partition = None;
    reset = None;
    fragment = false;
    corrupt = None;
    jitter = 0;
  }

let is_none p = p = none

(* Exactly one fault per plan keeps replayed runs interpretable; which
   fault (or none) depends only on ⟨seed, index⟩. Each side keeps its own
   RNG salt and draws, and on the wire the jitter seed pins the
   latency/corruption draws. *)
let seeded side ~seed ~index =
  match side with
  | Process -> (
    let st = Random.State.make [| 0x5eed; seed; index |] in
    let threshold () = 50 + Random.State.int st 2000 in
    match Random.State.int st 5 with
    | 0 -> { none with kill_after = Some (threshold ()) }
    | 1 -> { none with stall_after = Some (threshold ()) }
    | 2 -> { none with garbage_after = Some (threshold ()) }
    | 3 -> { none with delay_result_s = Some (0.1 +. Random.State.float st 2.) }
    | _ -> none)
  | Wire -> (
    let st = Random.State.make [| 0xca0c; seed; index |] in
    let threshold () = 1 + Random.State.int st 40 in
    let jitter = Random.State.int st 0x3fffffff in
    match Random.State.int st 6 with
    | 0 ->
      let lo = 0.001 +. Random.State.float st 0.01 in
      { none with latency = Some (lo, lo +. Random.State.float st 0.05); jitter }
    | 1 ->
      {
        none with
        partition = Some (threshold (), 0.2 +. Random.State.float st 1.5);
        jitter;
      }
    | 2 -> { none with reset = Some (threshold ()); jitter }
    | 3 -> { none with fragment = true; jitter }
    | 4 -> { none with corrupt = Some (threshold ()); jitter }
    | _ -> { none with jitter })

let to_spec p =
  let opt f = function Some x -> [ f x ] | None -> [] in
  if is_none p then "none"
  else
    String.concat ","
      (List.concat
         [
           opt (Fmt.str "kill:%d") p.kill_after;
           opt (Fmt.str "stall:%d") p.stall_after;
           opt (Fmt.str "garbage:%d") p.garbage_after;
           opt (Fmt.str "delay:%g") p.delay_result_s;
           opt (fun (lo, hi) -> Fmt.str "latency:%g-%g" lo hi) p.latency;
           opt (fun (n, s) -> Fmt.str "partition:%d:%g" n s) p.partition;
           opt (Fmt.str "reset:%d") p.reset;
           (if p.fragment then [ "fragment" ] else []);
           opt (Fmt.str "corrupt:%d") p.corrupt;
           (if p.jitter <> 0 then [ Fmt.str "jitter:%d" p.jitter ] else []);
         ])

let side_of_kind = function
  | "kill" | "stall" | "garbage" | "delay" -> Some Process
  | "latency" | "partition" | "reset" | "fragment" | "corrupt" | "jitter" ->
    Some Wire
  | _ -> None

let of_spec side s =
  let ( let* ) = Result.bind in
  let int ?(min = min_int) what n =
    match int_of_string_opt n with
    | Some n when n >= min -> Ok n
    | _ -> Error (Fmt.str "chaos: bad %s %S" what n)
  in
  let entry acc e =
    let* acc = acc in
    match String.split_on_char ':' e with
    | [ "none" ] -> Ok acc
    | kind :: _ when not (List.mem (side_of_kind kind) [ None; Some side ]) ->
      Error
        (match side with
        | Process ->
          Fmt.str
            "chaos: %s is a wire fault, which a worker cannot inject (give it \
             to wfc netchaos --plan)"
            kind
        | Wire ->
          Fmt.str
            "chaos: %s is a process fault, which the wire proxy cannot inject \
             (give it to wfc worker --chaos)"
            kind)
    | [ "kill"; n ] ->
      let* n = int "kill threshold" n in
      Ok { acc with kill_after = Some n }
    | [ "stall"; n ] ->
      let* n = int "stall threshold" n in
      Ok { acc with stall_after = Some n }
    | [ "garbage"; n ] ->
      let* n = int "garbage threshold" n in
      Ok { acc with garbage_after = Some n }
    | [ "delay"; f ] -> (
      match float_of_string_opt f with
      | Some f -> Ok { acc with delay_result_s = Some f }
      | None -> Error (Fmt.str "chaos: bad delay %S" f))
    | [ "latency"; range ] -> (
      match String.split_on_char '-' range with
      | [ lo; hi ] -> (
        match (float_of_string_opt lo, float_of_string_opt hi) with
        | Some lo, Some hi when 0. <= lo && lo <= hi ->
          Ok { acc with latency = Some (lo, hi) }
        | _ -> Error (Fmt.str "chaos: bad latency range %S" range))
      | _ -> Error (Fmt.str "chaos: latency wants LO-HI, got %S" range))
    | [ "partition"; n; s ] -> (
      match (int_of_string_opt n, float_of_string_opt s) with
      | Some n, Some s when n >= 0 && s >= 0. ->
        Ok { acc with partition = Some (n, s) }
      | _ -> Error (Fmt.str "chaos: bad partition spec %S" e))
    | [ "reset"; n ] ->
      let* n = int ~min:0 "reset threshold" n in
      Ok { acc with reset = Some n }
    | [ "fragment" ] -> Ok { acc with fragment = true }
    | [ "corrupt"; n ] ->
      let* n = int ~min:1 "corrupt chunk index" n in
      Ok { acc with corrupt = Some n }
    | [ "jitter"; j ] ->
      let* j = int "jitter seed" j in
      Ok { acc with jitter = j }
    | [ "seed"; seed; index ] -> (
      match (int_of_string_opt seed, int_of_string_opt index) with
      | Some seed, Some index -> Ok (seeded side ~seed ~index)
      | _ -> Error (Fmt.str "chaos: bad seed spec %S" e))
    | _ -> Error (Fmt.str "chaos: unknown entry %S" e)
  in
  List.fold_left entry (Ok none) (String.split_on_char ',' s)

let pp ppf p = Fmt.string ppf (to_spec p)
