open Wfc_spec

(* Defined here and re-exported by Explore: Checkpoint sits below Explore
   (Witness depends on Explore, Explore depends on Checkpoint), so the
   engine options, which a checkpoint stores whole, are defined first. *)
type engine = { dedup : bool; por : bool }

let por_runs engine faults = engine.por && Faults.is_none faults

type counts = {
  leaves : int;
  nodes : int;
  max_events : int;
  max_op_steps : int;
  max_accesses : int array;
  overflows : int;
  pruned : int;
  sleep_skips : int;
  evictions : int;
}

let zero_counts ~n_objs =
  {
    leaves = 0;
    nodes = 0;
    max_events = 0;
    max_op_steps = 0;
    max_accesses = Array.make n_objs 0;
    overflows = 0;
    pruned = 0;
    sleep_skips = 0;
    evictions = 0;
  }

type t = {
  meta : (string * string) list;
  engine : engine;
  fuel : int;
  budget_left : int option;
  faults : Faults.t;
  workloads : Value.t list array;
  counts : counts;
  frontier : Faults.trace list;
}

let add_counts a b =
  let max_accesses =
    let n = max (Array.length a.max_accesses) (Array.length b.max_accesses) in
    Array.init n (fun i ->
        let get c = if i < Array.length c.max_accesses then c.max_accesses.(i) else 0 in
        max (get a) (get b))
  in
  {
    leaves = a.leaves + b.leaves;
    nodes = a.nodes + b.nodes;
    max_events = max a.max_events b.max_events;
    max_op_steps = max a.max_op_steps b.max_op_steps;
    max_accesses;
    overflows = a.overflows + b.overflows;
    pruned = a.pruned + b.pruned;
    sleep_skips = a.sleep_skips + b.sleep_skips;
    evictions = a.evictions + b.evictions;
  }

let with_meta t meta =
  List.iter
    (fun (k, v) ->
      if
        k = ""
        || String.exists (fun c -> c = ' ' || c = '\n') k
        || String.contains v '\n'
      then invalid_arg "Checkpoint: meta keys/values must be line-safe")
    meta;
  { t with meta }

let engine_summary t =
  Fmt.str "dedup=%s por=%s"
    (if t.engine.dedup then "on" else "off")
    (if not t.engine.por then "off"
     else if por_runs t.engine t.faults then "on"
     else "off (fault adversary)")

let make ?(meta = []) ~engine ~fuel ?budget_left ~faults ~workloads ~counts
    ~frontier () =
  with_meta
    { meta; engine; fuel; budget_left; faults; workloads; counts; frontier }
    meta

(* --- serialization -----------------------------------------------------------

   Line-oriented text in the wfc-witness/1 style, reusing the Faults line
   codec for the adversary and workloads. The digest line carries
   [Fingerprint.hash_string] of the canonical body (everything after it):
   [of_string] re-serializes what it parsed and compares, so any corruption
   that changes the meaning of the file — even one surviving the parser — is
   refused. Files of earlier formats are refused by name: /1 to /3, whose
   engine lines described since-deleted engine options, /4, whose
   counts line carried the spill count of the deleted breadth-first
   frontier, /5, whose counts line carried the flag of the deleted
   second, inexact dedup tier, and /6, whose engine line named one of
   three dedup modes where there is now one switch. *)

let header = "wfc-checkpoint/7"

let body_lines t =
  let b = Buffer.create 512 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  List.iter (fun (k, v) -> line "meta %s %s" k v) t.meta;
  line "engine dedup=%d por=%d"
    (Bool.to_int t.engine.dedup)
    (Bool.to_int t.engine.por);
  line "fuel %d" t.fuel;
  (match t.budget_left with Some n -> line "budget %d" n | None -> ());
  let c = t.counts in
  line
    "counts leaves=%d nodes=%d max_events=%d max_op_steps=%d overflows=%d \
     pruned=%d sleep_skips=%d evictions=%d"
    c.leaves c.nodes c.max_events c.max_op_steps c.overflows c.pruned
    c.sleep_skips c.evictions;
  line "max_accesses %s"
    (String.concat "|" (Array.to_list (Array.map string_of_int c.max_accesses)));
  line "%s" (Faults.budgets_line t.faults);
  List.iter (fun d -> line "%s" (Faults.degrade_line d)) t.faults.degraded;
  Array.iteri
    (fun p wl -> line "workload %d %s" p (Faults.field_of_values wl))
    t.workloads;
  List.iter
    (fun trace -> line "frontier %s" (Faults.trace_to_string trace))
    t.frontier;
  Buffer.contents b

let to_string t =
  let body = body_lines t in
  Fmt.str "%s\ndigest %016x\n%s" header (Fingerprint.hash_string body) body

let ( let* ) = Result.bind

(* The [key=value] field [k] of a line body, converted by [parse]. *)
let field body k parse =
  let fields =
    String.split_on_char ' ' body
    |> List.filter_map (fun w ->
           match String.split_on_char '=' w with
           | [ k; v ] -> Some (k, v)
           | _ -> None)
  in
  match Option.bind (List.assoc_opt k fields) parse with
  | Some v -> Ok v
  | None -> Error (Fmt.str "missing field %s in %S" k body)

let parse_kv_ints body keys =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | k :: rest ->
      let* n = field body k int_of_string_opt in
      go (n :: acc) rest
  in
  go [] keys

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let* () =
    match lines with
    | h :: _ when h = header -> Ok ()
    | h :: _ when String.starts_with ~prefix:"wfc-checkpoint/" h ->
      Error
        (Fmt.str "unsupported checkpoint format %s (this build reads %s)" h
           header)
    | _ -> Error (Fmt.str "expected %s header" header)
  in
  let lines = List.tl lines in
  let* digest, lines =
    match lines with
    | l :: rest when String.length l > 7 && String.sub l 0 7 = "digest " ->
      Ok (String.sub l 7 (String.length l - 7), rest)
    | _ -> Error "expected digest line"
  in
  let meta = ref [] in
  let engine = ref None in
  let fuel = ref None in
  let budget_left = ref None in
  let counts = ref None in
  let max_accesses = ref None in
  let budgets = ref None in
  let degraded = ref [] in
  let workloads = ref [] in
  let frontier = ref [] in
  let parse_line l =
    let keyword, body =
      match String.index_opt l ' ' with
      | Some i ->
        (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
      | None -> (l, "")
    in
    match keyword with
    | "meta" -> (
      match String.index_opt body ' ' with
      | Some i ->
        meta :=
          (String.sub body 0 i, String.sub body (i + 1) (String.length body - i - 1))
          :: !meta;
        Ok ()
      | None -> Error (Fmt.str "bad meta line %S" l))
    | "engine" ->
      let* dedup = field body "dedup" int_of_string_opt in
      let* por = field body "por" int_of_string_opt in
      engine := Some { dedup = dedup <> 0; por = por <> 0 };
      Ok ()
    | "fuel" -> (
      match int_of_string_opt body with
      | Some n ->
        fuel := Some n;
        Ok ()
      | None -> Error (Fmt.str "bad fuel line %S" l))
    | "budget" -> (
      match int_of_string_opt body with
      | Some n ->
        budget_left := Some n;
        Ok ()
      | None -> Error (Fmt.str "bad budget line %S" l))
    | "counts" ->
      let* fields =
        parse_kv_ints body
          [
            "leaves"; "nodes"; "max_events"; "max_op_steps"; "overflows";
            "pruned"; "sleep_skips"; "evictions";
          ]
      in
      (match fields with
      | [
       leaves; nodes; max_events; max_op_steps; overflows; pruned; sleep_skips;
       evictions;
      ] ->
        counts :=
          Some
            {
              leaves; nodes; max_events; max_op_steps;
              max_accesses = [||];
              overflows; pruned; sleep_skips; evictions;
            }
      | _ -> assert false);
      Ok ()
    | "max_accesses" ->
      let parts =
        if String.trim body = "" then []
        else String.split_on_char '|' body |> List.map String.trim
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
          match int_of_string_opt p with
          | Some n -> go (n :: acc) rest
          | None -> Error (Fmt.str "bad max_accesses line %S" l))
      in
      let* ns = go [] parts in
      max_accesses := Some (Array.of_list ns);
      Ok ()
    | "faults" ->
      let* c, r, g = Faults.parse_budgets body in
      budgets := Some (c, r, g);
      Ok ()
    | "degrade" ->
      let* d = Faults.parse_degrade body in
      degraded := d :: !degraded;
      Ok ()
    | "workload" -> (
      match String.index_opt body ' ' with
      | None -> (
        (* a bare "workload N" line: empty workload *)
        match int_of_string_opt body with
        | Some p ->
          workloads := (p, []) :: !workloads;
          Ok ()
        | None -> Error (Fmt.str "bad workload line %S" l))
      | Some i -> (
        match int_of_string_opt (String.sub body 0 i) with
        | None -> Error (Fmt.str "bad workload line %S" l)
        | Some p ->
          let* vs =
            Faults.values_of_field
              (String.sub body (i + 1) (String.length body - i - 1))
          in
          workloads := (p, vs) :: !workloads;
          Ok ()))
    | "frontier" ->
      let* trace = Faults.trace_of_string body in
      frontier := trace :: !frontier;
      Ok ()
    | _ -> Error (Fmt.str "unknown checkpoint line %S" l)
  in
  let rec all = function
    | [] -> Ok ()
    | l :: rest ->
      let* () = parse_line l in
      all rest
  in
  let* () = all lines in
  let* engine =
    match !engine with Some e -> Ok e | None -> Error "missing engine line"
  in
  let* fuel =
    match !fuel with Some f -> Ok f | None -> Error "missing fuel line"
  in
  let* counts =
    match (!counts, !max_accesses) with
    | Some c, Some a -> Ok { c with max_accesses = a }
    | Some _, None -> Error "missing max_accesses line"
    | None, _ -> Error "missing counts line"
  in
  let* c, r, g =
    match !budgets with Some b -> Ok b | None -> Error "missing faults line"
  in
  let faults =
    {
      Faults.max_crashes = c;
      max_recoveries = r;
      max_glitches = g;
      degraded = List.rev !degraded;
    }
  in
  let wls = List.rev !workloads in
  let n = List.length wls in
  let* workloads =
    if n = 0 then Error "missing workload lines"
    else if
      List.for_all (fun (p, _) -> p >= 0 && p < n) wls
      && List.sort_uniq compare (List.map fst wls) = List.init n Fun.id
    then (
      let arr = Array.make n [] in
      List.iter (fun (p, wl) -> arr.(p) <- wl) wls;
      Ok arr)
    else Error "workload lines must cover processes 0..n-1 exactly once"
  in
  let t =
    {
      meta = List.rev !meta;
      engine;
      fuel;
      budget_left = !budget_left;
      faults;
      workloads;
      counts;
      frontier = List.rev !frontier;
    }
  in
  let given = String.lowercase_ascii (String.trim digest) in
  match int_of_string_opt ("0x" ^ given) with
  | Some d when d = Fingerprint.hash_string (body_lines t) -> Ok t
  | _ ->
    Error
      (Fmt.str "checkpoint digest mismatch (%s file corrupted or edited)"
         header)

(* --- file I/O ---------------------------------------------------------------- *)

(* Durability is best-effort (an unsyncable filesystem must not make
   checkpointing raise), but the order is load-bearing: data is synced
   {e before} the rename, and the directory after it, so a host crash can
   never leave a renamed-but-truncated checkpoint at the final name. *)
let fsync_noerr fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> fsync_noerr fd)

let save_string s ~path =
  let tmp = path ^ ".tmp" in
  match open_out_bin tmp with
  | exception Sys_error e -> Error e
  | oc -> (
    try
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc s;
          flush oc;
          fsync_noerr (Unix.descr_of_out_channel oc));
      (* rename within a directory is atomic: a reader (or a resume after a
         crash mid-save) sees either the old checkpoint or the new one. *)
      Sys.rename tmp path;
      fsync_dir path;
      Ok ()
    with Sys_error e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error e)

let save t ~path = save_string (to_string t) ~path

let check_path path =
  let dir = Filename.dirname path in
  if Sys.file_exists dir && Sys.is_directory dir then Ok ()
  else Error (Fmt.str "directory %s does not exist" dir)

(* --- the run's checkpoint file ------------------------------------------------ *)

type writer = {
  path : string;
  interval_s : float;
  mutable last : float;
  mutable failed : string option;  (* why the last save failed *)
  mutable reported : bool;
}

let writer ~path ~interval_s =
  { path; interval_s; last = Monotime.now (); failed = None; reported = false }

let due w = Monotime.now () -. w.last >= w.interval_s

(* A failed save is reported once, when the run is seen to go on past it. *)
let report w =
  match w.failed with
  | Some e when not w.reported ->
    w.reported <- true;
    Fmt.epr "wfc: checkpoint not written to %s: %s; the run goes on@." w.path e
  | _ -> ()

let write w t =
  report w;
  (w.failed <-
     match save t ~path:w.path with Ok () -> None | Error e -> Some e);
  w.last <- Monotime.now ()

let finish w ~cut =
  if cut then w.failed
  else begin
    report w;
    (try Sys.remove w.path with Sys_error _ -> ());
    None
  end

let load path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    let s =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    of_string s

(* --- resume validation ------------------------------------------------------- *)

let workloads_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (List.equal Value.equal) a b

let describe_mismatch t ~engine ~fuel ~faults ~workloads =
  if t.engine <> engine then
    Some "engine options differ from the checkpointed run"
  else if t.fuel <> fuel then
    Some (Fmt.str "fuel differs (checkpoint %d, run %d)" t.fuel fuel)
  else if not (Faults.equal t.faults faults) then
    Some "fault adversary differs from the checkpointed run"
  else if not (workloads_equal t.workloads workloads) then
    Some "workloads differ from the checkpointed run"
  else None

(* --- frontier sharding -------------------------------------------------------

   A checkpoint's frontier is a bag of independent pending subtrees: any
   partition of the prefixes is a valid partition of the remaining work.
   Shards carry zeroed counts — the parent's accumulated counts belong to
   whichever ledger stitches the shard results back together, and must not
   be multiplied by the fan-out. *)

let split t ~into =
  if into < 1 then invalid_arg "Checkpoint.split: into must be >= 1";
  match t.frontier with
  | [] -> []
  | frontier ->
    let k = min into (List.length frontier) in
    let buckets = Array.make k [] in
    List.iteri
      (fun i trace -> buckets.(i mod k) <- trace :: buckets.(i mod k))
      frontier;
    Array.to_list buckets
    |> List.map (fun traces ->
           {
             t with
             counts =
               zero_counts ~n_objs:(Array.length t.counts.max_accesses);
             frontier = List.rev traces;
           })

let meta_find t k = List.assoc_opt k t.meta
