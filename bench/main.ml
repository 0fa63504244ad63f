(* SV — hardware serving report (lib/serve).

   Drives the paper's constructions as services over real Atomic.t/Domain
   primitives, dumped as BENCH_serve.json. Each row is one Driver.run — a
   ⟨construction, cell backend, workload mix⟩ triple — reporting sustained
   ops/sec and HDR-bucketed latency percentiles, with every k-th session
   spot-checked by the linearizability engine against the construction's
   target spec. Three guard families:

   - verdicts: every row must serve with zero failures and every sampled
     window linearizable; mutex and CAS backends must agree per scenario;
   - ticks: Runtime.run (which stamps every op) is timed under the global
     fetch-and-add scheme vs the sharded epoch scheme. The "sharded beats
     global" guard needs real parallelism to mean anything — the global
     counter only serializes when domains actually contend — so below 4
     cores it is recorded as skipped, not silently passed;
   - regression (--check): the register-chain/cas/equal row's ops/sec is
     compared against the committed baseline, enforced only when the host
     has >= 3 cores AND matches the baseline's recorded core count (an
     ops/sec comparison across different hardware is noise).

   Every verdict, count and exploration figure of the experiments is
   asserted by `dune runtest`, and the engine's timing lives in
   perfbench/; this report is the only measure of lib/serve.

   $ dune exec bench/main.exe              # rewrites BENCH_serve.json
   $ dune exec bench/main.exe -- --check   # compares against it instead *)

open Wfc_spec
open Wfc_zoo

(* Substring / field scraping over our own line-oriented JSON (one row per
   line), so the regression check needs no JSON dependency. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let float_field line key =
  let pat = Fmt.str "%S: " key in
  let n = String.length line and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.equal (String.sub line i m) pat then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < n
      && (match line.[!stop] with
         | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.sub line start (!stop - start))

(* Host facts recorded in the BENCH_serve.json header: the visible core
   count and the (possibly empty) list of guards skipped because of it, so
   a committed baseline is honest about the hardware it was produced on. *)
let host_cores () = Domain.recommended_domain_count ()

let host_header ~skipped =
  Fmt.str "  \"cores\": %d,\n  \"skipped\": [%s],"
    (host_cores ())
    (String.concat ", " (List.map (fun s -> Fmt.str "%S" s) skipped))

let is_baseline_row l =
  contains l {|"construction": "register-chain"|}
  && contains l {|"backend": "cas"|}
  && contains l {|"mix": "equal"|}

let baseline_serve_row path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let cores = ref None and nps = ref None in
    (try
       while true do
         let l = input_line ic in
         (match float_field l "cores" with
         | Some c when !cores = None -> cores := Some (int_of_float c)
         | _ -> ());
         if is_baseline_row l then
           match float_field l "ops_per_sec" with
           | Some v -> nps := Some v
           | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    match (!cores, !nps) with Some c, Some v -> Some (c, v) | _ -> None

let serve_report ~check =
  let module Driver = Wfc_serve.Driver in
  let module Workload = Wfc_serve.Workload in
  let module H = Wfc_serve.Histogram in
  let cores = host_cores () in
  let guard_failures = ref [] in
  let fail fmt =
    Fmt.kstr (fun s -> guard_failures := !guard_failures @ [ s ]) fmt
  in
  let skipped = ref [] in
  let skip fmt = Fmt.kstr (fun s -> skipped := !skipped @ [ s ]) fmt in
  Fmt.pr "==== SV: hardware serving, %s (%d core(s) visible) ====@."
    (if check then "regression check" else "full")
    cores;
  let domains = 2 and sessions = 48 and check_every = 8 in
  let scenarios = Workload.all ~domains in
  let backends =
    [ (Wfc_multicore.Cells.Mutex_cells, "mutex"); (Wfc_multicore.Cells.Atomic_cas, "cas") ]
  in
  let verdicts = Hashtbl.create 16 in
  let json_rows =
    List.concat_map
      (fun (w : Workload.t) ->
        List.concat_map
          (fun (backend, bname) ->
            List.map
              (fun (mix, workloads) ->
                let o =
                  Driver.run ~backend ~sessions ~check_every
                    ~check:(w.Workload.check_spec, w.Workload.check_init)
                    ?port_of:w.Workload.port_of w.Workload.impl ~workloads ()
                in
                let p50 = H.percentile o.Driver.hist 0.50
                and p99 = H.percentile o.Driver.hist 0.99
                and p999 = H.percentile o.Driver.hist 0.999 in
                let verdict =
                  match o.Driver.failure with
                  | None
                    when o.Driver.windows_checked > 0
                         && o.Driver.windows_ok = o.Driver.windows_checked ->
                    "OK"
                  | None -> "NO-WINDOWS"
                  | Some m -> Fmt.str "FAIL: %s" m
                in
                if verdict <> "OK" then
                  fail "%s/%s/%s served un-OK: %s" w.Workload.name bname mix
                    verdict;
                Hashtbl.replace verdicts (w.Workload.name, mix, bname) verdict;
                Fmt.pr
                  "  %-14s %-6s %-6s %9.0f ops/s  p50 %6d ns  p99 %7d ns  \
                   p999 %8d ns  windows %d/%d %s@."
                  w.Workload.name bname mix o.Driver.ops_per_sec p50 p99 p999
                  o.Driver.windows_ok o.Driver.windows_checked verdict;
                Fmt.str
                  {|    {"construction": %S, "backend": %S, "mix": %S, "domains": %d, "sessions": %d, "total_ops": %d, "wall_s": %.6f, "ops_per_sec": %.0f, "mean_ns": %.0f, "p50_ns": %d, "p99_ns": %d, "p999_ns": %d, "windows_checked": %d, "windows_ok": %d, "verdict": %S}|}
                  w.Workload.name bname mix o.Driver.domains o.Driver.sessions
                  o.Driver.total_ops o.Driver.wall_s o.Driver.ops_per_sec
                  (H.mean_ns o.Driver.hist)
                  p50 p99 p999 o.Driver.windows_checked o.Driver.windows_ok
                  verdict)
              [ ("equal", w.Workload.equal); ("skewed", w.Workload.skewed) ])
          backends)
      scenarios
  in
  (* verdict parity: the lock-free CAS backend must be as linearizable as
     the mutex one on every scenario — a CAS-retry-loop bug shows up here
     as asymmetric verdicts before it shows up as a throughput anomaly *)
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun mix ->
          let v b = Hashtbl.find_opt verdicts (w.Workload.name, mix, b) in
          if v "mutex" <> v "cas" then
            fail "verdict parity broken on %s/%s: mutex %s, cas %s"
              w.Workload.name mix
              (Option.value (v "mutex") ~default:"-")
              (Option.value (v "cas") ~default:"-"))
        [ "equal"; "skewed" ])
    scenarios;
  (* tick schemes, timed where stamping actually happens: Runtime.run
     stamps every operation, so the global counter is two contended
     fetch-and-adds per op there; Driver's hot path never stamps *)
  let tick_impl () =
    Wfc_registers.Multi_writer.atomic_mrmw ~writers:domains ~extra_readers:0
      ~init:(Value.int 0) ()
  in
  let tick_ops = 2000 in
  let tick_workloads =
    Array.init domains (fun p ->
        List.init tick_ops (fun i ->
            if (i + p) mod 2 = 0 then Ops.write (Value.int i) else Ops.read))
  in
  let tick_nps scheme =
    let best = ref 0.0 in
    for seed = 0 to 2 do
      let o =
        Wfc_multicore.Runtime.run ~seed ~backend:Wfc_multicore.Cells.Atomic_cas
          ~tick:scheme (tick_impl ()) ~workloads:tick_workloads ()
      in
      let nps =
        if o.Wfc_multicore.Runtime.wall_s > 0.0 then
          float_of_int (domains * tick_ops) /. o.Wfc_multicore.Runtime.wall_s
        else 0.0
      in
      if nps > !best then best := nps
    done;
    !best
  in
  let global_nps = tick_nps Wfc_multicore.Tick.Global in
  let sharded_nps = tick_nps (Wfc_multicore.Tick.sharded ()) in
  let tick_ratio = if global_nps > 0.0 then sharded_nps /. global_nps else 1.0 in
  let tick_enforced = cores >= 4 in
  Fmt.pr
    "  tick stamping (Runtime.run, %d ops x %d domains): global %9.0f \
     ops/s, sharded %9.0f ops/s (x%.2f)@."
    tick_ops domains global_nps sharded_nps tick_ratio;
  if tick_enforced then begin
    if tick_ratio < 1.0 then
      fail
        "sharded tick (%.0f ops/s) does not beat the global counter (%.0f \
         ops/s) on %d cores"
        sharded_nps global_nps cores
  end
  else
    skip
      "sharded-vs-global tick guard: %d core(s) - the global counter only \
       serializes under real parallelism"
      cores;
  (* contention sweep: register-chain scaling across domain counts (the
     shape of the curve is the datum; no guard — on few cores it measures
     the scheduler, recorded as such above) *)
  let sweep_domains = List.filter (fun d -> d <= 4 || d <= cores) [ 1; 2; 4 ] in
  let json_sweep =
    List.map
      (fun d ->
        let w = Workload.register_chain ~domains:d ~ops_per_proc:32 in
        let o =
          Driver.run ~backend:Wfc_multicore.Cells.Atomic_cas ~sessions
            ~check_every
            ~check:(w.Workload.check_spec, w.Workload.check_init)
            w.Workload.impl ~workloads:w.Workload.equal ()
        in
        (match o.Driver.failure with
        | None -> ()
        | Some m -> fail "scaling sweep at %d domains failed: %s" d m);
        Fmt.pr "  scaling: %d domain(s) %9.0f ops/s (p99 %d ns)@." d
          o.Driver.ops_per_sec
          (H.percentile o.Driver.hist 0.99);
        Fmt.str
          {|    {"domains": %d, "ops_per_sec": %.0f, "p99_ns": %d, "windows_checked": %d, "windows_ok": %d}|}
          d o.Driver.ops_per_sec
          (H.percentile o.Driver.hist 0.99)
          o.Driver.windows_checked o.Driver.windows_ok)
      sweep_domains
  in
  if check then begin
    (match baseline_serve_row "BENCH_serve.json" with
    | None ->
      Fmt.pr
        "  (no register-chain/cas/equal baseline in BENCH_serve.json — \
         skipping the throughput ratio check)@."
    | Some (base_cores, base_nps) ->
      let current =
        List.find_map
          (fun l -> if is_baseline_row l then float_field l "ops_per_sec" else None)
          json_rows
      in
      match current with
      | None -> fail "--check produced no register-chain/cas/equal row"
      | Some now ->
        let ratio = now /. base_nps in
        Fmt.pr
          "  register-chain/cas/equal vs committed baseline: %.0f / %.0f \
           ops/s (x%.2f)@."
          now base_nps ratio;
        if cores < 3 then
          skip
            "sv throughput gate: %d core(s) - serving throughput on a \
             time-sliced host is scheduler noise"
            cores
        else if base_cores <> cores then
          skip
            "sv throughput gate: baseline recorded on %d core(s), host has \
             %d - cross-hardware ops/sec is not comparable"
            base_cores cores
        else if ratio < 0.5 then
          fail "serving throughput regressed >50%%: %.0f ops/s vs baseline %.0f"
            now base_nps);
    List.iter (fun s -> Fmt.pr "  (skipped: %s)@." s) !skipped
  end
  else begin
    let json =
      Fmt.str
        "{\n\
        \  \"schema\": \"wfc-bench-serve/1\",\n\
         %s\n\
        \  \"domains\": %d,\n\
        \  \"sessions\": %d,\n\
        \  \"rows\": [\n\
         %s\n\
        \  ],\n\
        \  \"tick\": {\"ops_per_proc\": %d, \"global_ops_per_sec\": %.0f, \
         \"sharded_ops_per_sec\": %.0f, \"ratio\": %.3f, \"guard_enforced\": \
         %b},\n\
        \  \"scaling\": [\n\
         %s\n\
        \  ],\n\
        \  \"guards_passed\": %b\n\
         }\n"
        (host_header ~skipped:!skipped)
        domains sessions
        (String.concat ",\n" json_rows)
        tick_ops global_nps sharded_nps tick_ratio tick_enforced
        (String.concat ",\n" json_sweep)
        (!guard_failures = [])
    in
    let oc = open_out "BENCH_serve.json" in
    output_string oc json;
    close_out oc;
    Fmt.pr "wrote BENCH_serve.json@."
  end;
  List.iter (fun s -> Fmt.pr "GUARD FAILED: %s@." s) !guard_failures;
  !guard_failures = []

let () =
  (* an unrecognized argument is a usage error, exit 2, so a workflow typo
     can never silently rewrite the committed baseline instead *)
  let check =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> false
    | [ "--check" ] -> true
    | args ->
      Fmt.epr "main.exe: unknown argument(s) %s@." (String.concat " " args);
      Fmt.epr
        "usage: main.exe [--check]@.\
         \  (no argument)  serve every construction and rewrite \
         BENCH_serve.json@.\
         \  --check        compare against the committed BENCH_serve.json \
         instead of rewriting it@.";
      exit 2
  in
  exit (if serve_report ~check then 0 else 1)
