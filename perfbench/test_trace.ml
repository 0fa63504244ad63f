(* Checks for the benchmark's own arithmetic: span self time against nested,
   overlapping and protruding children, percentiles, and the metric names
   BENCHMARK.json declares. Run by [dune runtest]. *)

let failures = ref 0

let check name expected actual =
  if expected <> actual then begin
    incr failures;
    Printf.printf "FAIL %s: expected %d, got %d\n" name expected actual
  end

let checkf name expected actual =
  if Float.abs (expected -. actual) > 1e-12 then begin
    incr failures;
    Printf.printf "FAIL %s: expected %g, got %g\n" name expected actual
  end

let self = Trace.self_ns ~lo:0 ~hi:100

let test_self_time () =
  check "no children" 100 (self []);
  check "disjoint children" 70 (self [ (10, 20); (50, 70) ]);
  check "nested children count once" 80 (self [ (10, 30); (15, 20) ]);
  check "overlapping children" 60 (self [ (10, 30); (20, 50) ]);
  check "touching children" 60 (self [ (10, 30); (30, 50) ]);
  check "unsorted children" 60 (self [ (20, 50); (10, 30) ]);
  check "children sticking out are clipped" 70 (self [ (-20, 10); (80, 200) ]);
  check "children outside the span" 100 (self [ (-50, -10); (100, 150) ]);
  check "a child covering everything" 0 (self [ (0, 100) ]);
  check "empty child" 100 (self [ (40, 40) ])

(* The same arithmetic through recorded spans and their parent links. *)
let test_spans () =
  let mk id parent start_ns end_ns =
    {
      Trace.id;
      parent;
      trace_id = 0;
      name = "s";
      start_ns;
      end_ns;
      start_words = float_of_int start_ns;
      end_words = float_of_int end_ns;
      counts = [];
    }
  in
  let spans =
    [ mk 0 (-1) 0 100; mk 1 0 10 40; mk 2 1 20 30; mk 3 0 35 60; mk 4 (-1) 0 5 ]
  in
  let children = Trace.children_index spans in
  let by_id i = List.find (fun s -> s.Trace.id = i) spans in
  check "root self time" 50 (Trace.self_time_ns ~children (by_id 0));
  check "inner self time" 20 (Trace.self_time_ns ~children (by_id 1));
  check "leaf self time" 10 (Trace.self_time_ns ~children (by_id 2));
  checkf "self words subtract direct children" 45.
    (Trace.self_words ~children (by_id 0))

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  checkf "p50" 50. (Trace.percentile 0.5 xs);
  checkf "p99" 99. (Trace.percentile 0.99 xs);
  checkf "p99 of one" 7. (Trace.percentile 0.99 [ 7. ]);
  checkf "empty" 0. (Trace.percentile 0.5 [])

let find_from text key from =
  let n = String.length text and k = String.length key in
  let rec go i =
    if i + k > n then None
    else if String.sub text i k = key then Some i
    else go (i + 1)
  in
  go from

(* Every "name" in BENCHMARK.json must match [A-Za-z0-9_.-]+. *)
let test_metric_names () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let key = "\"name\"" in
  let valid c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let rec scan from found =
    match find_from text key from with
    | None -> found
    | Some i ->
      let open_quote = String.index_from text (i + String.length key) '"' in
      let close_quote = String.index_from text (open_quote + 1) '"' in
      let name = String.sub text (open_quote + 1) (close_quote - open_quote - 1) in
      if name = "" || not (String.for_all valid name) then begin
        incr failures;
        Printf.printf "FAIL metric name %S\n" name
      end;
      scan (close_quote + 1) (found + 1)
  in
  if scan 0 0 = 0 then begin
    incr failures;
    print_endline "FAIL no names found in BENCHMARK.json"
  end

let () =
  test_self_time ();
  test_spans ();
  test_percentile ();
  test_metric_names ();
  if !failures > 0 then exit 1
