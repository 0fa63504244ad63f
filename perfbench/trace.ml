(* Span recording for the benchmark's traced runs.

   A span is one call into a library module, timed by the benchmark's own
   code around that call: name, start, end, the span that caused it and the
   job (trace id) it belongs to, plus the counts the call returned. Spans
   stay in memory until the run ends and are then written as JSON lines. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a job's root span *)
  trace_id : int;
  name : string;
  start_ns : int;
  end_ns : int;
  start_words : float;  (** minor-heap words allocated so far, at start *)
  end_words : float;
  counts : (string * int) list;
}

type t = { mutable spans : span list; mutable next_id : int }

let create () = { spans = []; next_id = 0 }
let spans t = List.rev t.spans

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Record a span whose interval the caller measured itself, for a call
   timed inside code the benchmark shares with its untraced run. *)
let add t ?id ~trace_id ~parent ?(words = (0., 0.)) ?(counts = []) name
    ~start_ns ~end_ns =
  let id = match id with Some id -> id | None -> fresh_id t in
  let start_words, end_words = words in
  t.spans <-
    { id; parent; trace_id; name; start_ns; end_ns; start_words; end_words; counts }
    :: t.spans

(* [span t ~trace_id ~parent name f] runs [f id] inside a new span [id]. The
   span is recorded even when [f] raises, so a search stopped by a
   counterexample still shows up with its true duration. *)
let span t ~trace_id ~parent ?(counts = fun _ -> []) name f =
  let id = fresh_id t in
  let start_words = Gc.minor_words () in
  let start_ns = Wfc_sim.Monotime.now_ns () in
  let record counts =
    let end_ns = Wfc_sim.Monotime.now_ns () in
    add t ~id ~trace_id ~parent ~counts name ~start_ns ~end_ns
      ~words:(start_words, Gc.minor_words ())
  in
  match f id with
  | r ->
    record (counts r);
    r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    record [];
    Printexc.raise_with_backtrace e bt

let duration_ns s = s.end_ns - s.start_ns

(* Length of [lo, hi) not covered by any of [children] (intervals as
   (start, end) pairs). Children may nest, overlap each other or stick out
   of the parent: only their union clipped to the parent is subtracted. *)
let self_ns ~lo ~hi children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if a < b then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (covered, (cur_a, cur_b)) (a, b) ->
        if a > cur_b then (covered + (cur_b - cur_a), (a, b))
        else (covered, (cur_a, max cur_b b)))
      (0, (lo, lo))
      clipped
  in
  let covered = covered + (snd last - fst last) in
  hi - lo - covered

(* Children of every span, by parent id. *)
let children_index spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace tbl s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.parent)))
    spans;
  fun id -> Option.value ~default:[] (Hashtbl.find_opt tbl id)

let self_time_ns ~children s =
  self_ns ~lo:s.start_ns ~hi:s.end_ns
    (List.map (fun c -> (c.start_ns, c.end_ns)) (children s.id))

(* Minor words allocated by the span itself, not by its children. Children
   of one span run sequentially, so their allocations simply add up. *)
let self_words ~children s =
  List.fold_left
    (fun acc c -> acc -. (c.end_words -. c.start_words))
    (s.end_words -. s.start_words)
    (children s.id)

let count s key = Option.value ~default:0 (List.assoc_opt key s.counts)

(* Nearest-rank percentile of a non-empty list; 0 for an empty one. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    List.nth sorted (max 0 (min (n - 1) (rank - 1)))

(* --- JSON output --------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let json_object fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
  ^ "}"

let span_json s =
  json_object
    [
      ("id", string_of_int s.id);
      ("parent", string_of_int s.parent);
      ("trace", string_of_int s.trace_id);
      ("name", json_string s.name);
      ("start_ns", string_of_int s.start_ns);
      ("end_ns", string_of_int s.end_ns);
      ( "counts",
        json_object (List.map (fun (k, v) -> (k, string_of_int v)) s.counts) );
    ]

(* One JSON line of [header] fields, then one line per span. *)
let write_jsonl ~path ~header t =
  let oc = open_out path in
  output_string oc (json_object header);
  output_char oc '\n';
  List.iter
    (fun s ->
      output_string oc (span_json s);
      output_char oc '\n')
    (spans t);
  close_out oc
