(* One repetition of one benchmark workload, in a fresh process.

     job.exe --workload NAME [--seed N] [--workers K] [--trace]
             [--setup-only] [--spans FILE]

   Builds the workload's implementations (set-up), runs its jobs one after
   another through the library's public API, and prints one JSON line: the
   monotonic time at which set-up ended, wall and CPU time of the jobs, peak
   RSS, and every job's verdict and exact counts. The driver (run.py)
   spawns this repeatedly and checks the counts.

   With [--trace] the same searches are driven through the public building
   blocks (Check.vectors, Explore.run, Check.check_leaf, Check.
   shrink_violation, Witness.replay, ...) with a span around every call, and
   the line also carries the per-layer metrics computed from those spans and
   from GC counters taken around each job; [verify] then serves its cas job
   to [--workers] forked workers (the fleet probe). [--spans FILE] writes
   the spans as JSON lines when the run ends. [--setup-only] stops where the
   first job would start. *)

open Wfc_spec
open Wfc_zoo
open Wfc_program
open Wfc_consensus
module Explore = Wfc_sim.Explore
module Faults = Wfc_sim.Faults
module Witness = Wfc_sim.Witness
module Coordinator = Wfc_fleet.Coordinator
module Codec = Wfc_fleet.Codec

(* the fleet's Unix socket lives here, relative to the checkout root *)
let scratch = ".perfbench"

let now_ns = Wfc_sim.Monotime.now_ns
let secs ns = float_of_int ns /. 1e9

let protocol ?procs name =
  match Protocols.of_name ?procs name with
  | Ok impl -> impl
  | Error e -> failwith e

(* --- workloads ------------------------------------------------------------ *)

type job =
  | Verify of { label : string; impl : Implementation.t; faults : Faults.t option }
      (** [Check.verify]; [None] is the default, fault-free call *)
  | Compile of { label : string; impl : Implementation.t; tname : string }
      (** Theorem 5 over the catalog type [tname], then [Check.verify
          ~repeat:false] of the register-free result: its decision cache
          answers a second proposal locally, so repeating adds interleavings
          but no object accesses *)
  | Linearize of {
      label : string;
      impl : Implementation.t;
      workloads : Value.t list array;
    }

let label = function
  | Verify { label; _ } | Compile { label; _ } | Linearize { label; _ } -> label

let verify ?faults name procs =
  let impl = protocol ~procs name in
  let faults = Option.map (fun f -> f impl) faults in
  let adversary =
    match faults with None -> "" | Some f -> " " ^ Faults.budgets_line f
  in
  Verify { label = Fmt.str "%s n=%d%s" name procs adversary; impl; faults }

let crash_recovery ~crashes ~recoveries _impl =
  Faults.crash_recovery ~crashes ~recoveries

(* Herlihy's universal construction over fetch-and-add mod 5: [procs]
   processes each running [ops] fetch-adds whose addends the seed picks. *)
let universal_faa ~rng ~procs ~ops =
  let target = Rmw.fetch_add_mod ~ports:procs ~modulus:5 in
  let addends =
    Array.init procs (fun _ -> List.init ops (fun _ -> 1 + Random.State.int rng 4))
  in
  let label =
    Fmt.str "universal faa %dx%d [%s]" procs ops
      (String.concat " "
         (Array.to_list
            (Array.map
               (fun l -> String.concat "," (List.map string_of_int l))
               addends)))
  in
  Linearize
    {
      label;
      impl = Universal.construct ~target ~procs ~cells:((2 * procs * ops) + procs) ();
      workloads = Array.map (List.map Ops.fetch_add) addends;
    }

let jobs_of_workload ~seed = function
  | "verify" -> [ verify "cas" 5; verify "sticky" 6 ]
  | "faults" ->
    [
      verify ~faults:(crash_recovery ~crashes:1 ~recoveries:1) "cas" 4;
      verify ~faults:(crash_recovery ~crashes:1 ~recoveries:1) "sticky" 5;
      verify ~faults:(crash_recovery ~crashes:1 ~recoveries:1) "cas-ids" 3;
      (* negative controls: both must be falsified *)
      verify "broken" 2;
      verify
        ~faults:(fun impl -> Faults.degrade_all impl ~glitches:2 (`Stale 2))
        "tas" 2;
    ]
  | "theorem5" ->
    [
      Compile
        {
          label = "cas-ids n=4 over test-and-set";
          impl = protocol ~procs:4 "cas-ids";
          tname = "test-and-set";
        };
    ]
  | "linearize" ->
    let rng = Random.State.make [| seed |] in
    [ universal_faa ~rng ~procs:3 ~ops:2; universal_faa ~rng ~procs:2 ~ops:6 ]
  | w -> Fmt.failwith "unknown workload %S" w

(* --- results -------------------------------------------------------------- *)

type result = {
  job : string;
  verdict : string;
  counts : (string * int) list;
  witness : string;  (** the shrunk counterexample trace; "" when none *)
}

let result_json r =
  Trace.json_object
    [
      ("job", Trace.json_string r.job);
      ("verdict", Trace.json_string r.verdict);
      ( "counts",
        Trace.json_object (List.map (fun (k, v) -> (k, string_of_int v)) r.counts)
      );
      ("witness", Trace.json_string r.witness);
    ]

(* A negative control's witness must replay to a leaf that still fails the
   agreement/validity predicate. *)
let reproduces impl (w : Witness.t) =
  match Witness.replay impl w with
  | Ok leaf ->
    Result.is_error
      (Check.check_leaf ~inputs:(Check.inputs_of_workloads w.Witness.workloads) leaf)
  | Error _ -> false

let of_verdict ~job impl = function
  | Check.Verified r ->
    {
      job;
      verdict = "verified";
      counts = [ ("vectors", r.Check.vectors); ("executions", r.Check.executions) ];
      witness = "";
    }
  | Check.Falsified v ->
    let len, replays, text =
      match v.Check.witness with
      | Some w ->
        ( List.length w.Witness.trace,
          Bool.to_int (reproduces impl w),
          Faults.trace_to_string w.Witness.trace )
      | None -> (0, 0, "")
    in
    {
      job;
      verdict = "falsified";
      counts = [ ("witness_len", len); ("witness_replays", replays) ];
      witness = text;
    }
  | Check.Unknown { reason; _ } ->
    { job; verdict = "unknown: " ^ reason; counts = []; witness = "" }

let of_engine ~job = function
  | Ok (st : Wfc_linearize.Engine.run_stats) ->
    {
      job;
      verdict = "linearizable";
      counts =
        [
          ("nodes", st.explore.Explore.nodes);
          ("leaves", st.explore.Explore.leaves);
          ("transitions", st.transitions);
          ("memo_hits", st.memo_hits);
          ("frontier_peak", st.frontier_peak);
        ];
      witness = "";
    }
  | Error (v : Wfc_linearize.Engine.violation) ->
    {
      job;
      verdict = "not linearizable: " ^ v.Wfc_linearize.Engine.reason;
      counts = [];
      witness = "";
    }

let compile_result ~job (r : Wfc_core.Theorem5.report) =
  {
    job = job ^ ": compile";
    verdict = "compiled";
    counts =
      [
        ("bound_d", r.bounds.Access_bounds.bound_d);
        ("one_use_bits", r.one_use_bits);
        ("t_objects", r.t_objects);
        ("registers_eliminated", r.registers_eliminated);
      ];
    witness = "";
  }

let strategy_for tname =
  match Wfc_core.Theorem5.strategy_for (Catalog.find ~ports:2 tname).Catalog.spec with
  | Ok s -> s
  | Error e -> failwith e

(* --- the untraced jobs: exactly the calls a user makes --------------------- *)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

type fleet_run = {
  verdict : Check.verdict;
  stats : Coordinator.fleet_stats;
  spawn_ns : int;
  joined_ns : int option;
  serve_ns : int * int;
  coord_cpu_s : float;
  worker_cpu_s : float;
}

(* Fork [workers] local workers, serve the whole verification to them and
   reap them; the coordinator's log tells when all have joined. *)
let run_fleet ~workers ~seed ~meta impl =
  let socket = Filename.concat scratch (Fmt.str "fleet-%d.sock" (Unix.getpid ())) in
  (try Sys.remove socket with Sys_error _ -> ());
  let joins = ref 0 and joined_ns = ref None in
  let log msg =
    if String.ends_with ~suffix:" joined" msg then begin
      incr joins;
      if !joins = workers then joined_ns := Some (now_ns ())
    end
  in
  let spawn_ns = now_ns () in
  let pids = Wfc_fleet.Local.spawn ~seed ~addr:socket workers in
  let config = Coordinator.config ~quantum:100_000 ~log socket in
  let t0 = Unix.times () and serve_start = now_ns () in
  let verdict, stats = Coordinator.serve ~meta ~config impl in
  let serve_end = now_ns () in
  let t1 = Unix.times () in
  Wfc_fleet.Local.shutdown pids;
  let t2 = Unix.times () in
  (try Sys.remove socket with Sys_error _ -> ());
  {
    verdict;
    stats;
    spawn_ns;
    joined_ns = !joined_ns;
    serve_ns = (serve_start, serve_end);
    coord_cpu_s =
      t1.Unix.tms_utime +. t1.Unix.tms_stime -. t0.Unix.tms_utime -. t0.Unix.tms_stime;
    worker_cpu_s =
      t2.Unix.tms_cutime +. t2.Unix.tms_cstime -. t0.Unix.tms_cutime
      -. t0.Unix.tms_cstime;
  }

let run_untraced = function
  | Verify { label; impl; faults } ->
    [ of_verdict ~job:label impl (Check.verify ?faults impl) ]
  | Compile { label; impl; tname } -> (
    match Wfc_core.Theorem5.eliminate_registers ~strategy:(strategy_for tname) impl with
    | Error e -> [ { job = label; verdict = "error: " ^ e; counts = []; witness = "" } ]
    | Ok r ->
      let compiled = r.Wfc_core.Theorem5.compiled in
      [
        compile_result ~job:label r;
        of_verdict ~job:(label ^ ": re-verify") compiled
          (Check.verify ~repeat:false compiled);
      ])
  | Linearize { label; impl; workloads } ->
    [
      of_engine ~job:label
        (Wfc_linearize.Engine.verify impl ~workloads
           ~mode:(Wfc_linearize.Engine.Incremental { compositional = true })
           ());
    ]

(* --- the traced jobs: the same searches, decomposed and spanned ------------ *)

exception Bad of Check.violation

let explore_counts (st : Explore.stats) =
  [
    ("nodes", st.nodes);
    ("leaves", st.leaves);
    ("pruned", st.pruned);
    ("sleep_skips", st.sleep_skips);
  ]

(* [Check.verify ?repeat ?faults impl], otherwise with default options,
   rebuilt from its public building blocks in the order check.ml calls
   them. *)
let traced_verify tr ~trace_id ~root ~job ?repeat ?faults impl =
  let span ~parent ?counts name f = Trace.span tr ~trace_id ~parent ?counts name f in
  let faults = match faults with Some f -> f | None -> Faults.crashes 0 in
  let vectors =
    span ~parent:root "check.vectors"
      ~counts:(fun vs -> [ ("vectors", List.length vs) ])
      (fun _ -> Check.vectors ?repeat impl)
  in
  let executions = ref 0 and nodes = ref 0 in
  let search () =
    List.iter
      (fun (v : Check.vector) ->
        let workloads = v.Check.workloads in
        let bad reason ops witness =
          Bad
            {
              Check.participants = v.Check.participants;
              inputs = v.Check.inputs;
              reason;
              ops;
              witness;
            }
        in
        let st =
          span ~parent:root "explore.run" ~counts:explore_counts (fun id ->
              Explore.run impl ~workloads ~faults ~options:Explore.fast
                ~on_leaf_trace:(fun trace leaf ->
                  incr executions;
                  match
                    span ~parent:id "check.check_leaf" (fun _ ->
                        Check.check_leaf ~inputs:v.Check.inputs leaf)
                  with
                  | Ok () -> ()
                  | Error reason ->
                    raise
                      (bad reason leaf.Wfc_sim.Exec.ops
                         (Some (Witness.make ~workloads ~faults trace))))
                ())
        in
        nodes := !nodes + st.Explore.nodes;
        (match st.Explore.completeness with
        | Explore.Exhaustive -> ()
        | c -> Fmt.failwith "search cut: %a" Explore.pp_completeness c);
        if st.Explore.overflows > 0 then
          raise
            (bad
               (Fmt.str "%d path(s) exhausted fuel: not wait-free" st.Explore.overflows)
               []
               (Option.map (Witness.make ~workloads ~faults) st.Explore.overflow_trace)))
      vectors
  in
  match search () with
  | () ->
    {
      job;
      verdict = "verified";
      counts =
        [
          ("vectors", List.length vectors);
          ("executions", !executions);
          ("nodes", !nodes);
        ];
      witness = "";
    }
  | exception Bad v ->
    let len (v : Check.violation) =
      Option.fold ~none:0 ~some:(fun w -> List.length w.Witness.trace) v.witness
    in
    let shrunk =
      span ~parent:root "witness.shrink"
        ~counts:(fun v' -> [ ("len_raw", len v); ("len_shrunk", len v') ])
        (fun _ -> Check.shrink_violation impl v)
    in
    (* [of_verdict] replays the shrunk witness *)
    span ~parent:root "witness.replay" (fun _ ->
        of_verdict ~job impl (Check.Falsified shrunk))

(* Encode one Lease frame per root job of the fleet run, exactly as the
   coordinator builds them, and decode it back through the frame reader. *)
let codec_probe tr ~trace_id ~root ~meta impl =
  let n_objs = Array.length impl.Implementation.objects in
  let engine = Explore.engine_of_options Explore.fast in
  List.iter
    (fun (v : Check.vector) ->
      let job =
        Wfc_sim.Checkpoint.make
          ~meta:(meta @ [ ("check.vector", string_of_int v.Check.pos) ])
          ~engine ~fuel:Explore.default_fuel ~faults:(Faults.crashes 0)
          ~workloads:v.Check.workloads
          ~counts:(Wfc_sim.Checkpoint.zero_counts ~n_objs)
          ~frontier:[ [] ] ()
      in
      let msg =
        Codec.Lease { shard = v.Check.pos; lease_s = 10.; quantum = 100_000; job }
      in
      let back, _bytes =
        Trace.span tr ~trace_id ~parent:root "codec.roundtrip"
          ~counts:(fun (_, bytes) -> [ ("bytes", bytes) ])
          (fun _ ->
            let frame = Codec.frame msg in
            let frames = Codec.Frames.create () in
            Codec.Frames.feed frames frame (Bytes.length frame);
            (Codec.Frames.pop frames, Bytes.length frame))
      in
      match back with
      | Ok (Some (Codec.Lease { job = job'; _ }))
        when String.equal
               (Wfc_sim.Checkpoint.to_string job')
               (Wfc_sim.Checkpoint.to_string job) ->
        ()
      | _ -> Fmt.failwith "codec round trip changed the job for vector %d" v.Check.pos)
    (Check.vectors impl)

let run_traced tr ~trace_id ~root job =
  let span ~parent ?counts name f = Trace.span tr ~trace_id ~parent ?counts name f in
  match job with
  | Verify { label; impl; faults } ->
    [ traced_verify tr ~trace_id ~root ~job:label ?faults impl ]
  | Compile { label; impl; tname } -> (
    let strategy = strategy_for tname in
    let analyzed =
      span ~parent:root "access_bounds.analyze"
        ~counts:(function
          | Ok (b : Access_bounds.report) -> [ ("bound_d", b.bound_d) ] | Error _ -> [])
        (fun _ -> Access_bounds.analyze impl)
    in
    match
      span ~parent:root "theorem5.eliminate_registers"
        ~counts:(function
          | Ok (r : Wfc_core.Theorem5.report) ->
            [
              ("bound_d", r.bounds.Access_bounds.bound_d);
              ("one_use_bits", r.one_use_bits);
              ("t_objects", r.t_objects);
            ]
          | Error _ -> [])
        (fun _ -> Wfc_core.Theorem5.eliminate_registers ~strategy impl)
    with
    | Error e -> [ { job = label; verdict = "error: " ^ e; counts = []; witness = "" } ]
    | Ok r ->
      (match analyzed with
      | Ok b when b.Access_bounds.bound_d = r.bounds.Access_bounds.bound_d -> ()
      | _ -> failwith "standalone §4.2 analysis disagrees with Theorem 5's");
      [
        compile_result ~job:label r;
        traced_verify tr ~trace_id ~root ~job:(label ^ ": re-verify") ~repeat:false
          r.Wfc_core.Theorem5.compiled;
      ])
  | Linearize { label; impl; workloads } ->
    [
      of_engine ~job:label
        (span ~parent:root "engine.verify"
           ~counts:(function
             | Ok (st : Wfc_linearize.Engine.run_stats) ->
               explore_counts st.explore
               @ [
                   ("transitions", st.transitions);
                   ("memo_hits", st.memo_hits);
                   ("frontier_peak", st.frontier_peak);
                 ]
             | Error _ -> [])
           (fun _ ->
             Wfc_linearize.Engine.verify impl ~workloads
               ~mode:(Wfc_linearize.Engine.Incremental { compositional = true })
               ()));
    ]

(* The fleet layer, measured in [verify]'s traced run once its jobs are
   timed: the cas job is served again to [workers] forked workers, which
   must reach the single process's verdict and vector count, and one Lease
   frame per root job goes through the codec. (As a workload of its own the
   fleet's wall time spread by 20% across seeds on two cores.) *)
let fleet_probe tr ~trace_id ~workers ~seed results =
  let name, procs = ("cas", 5) in
  let impl = protocol ~procs name in
  let meta = [ ("protocol", name); ("procs", string_of_int procs) ] in
  let single = List.find (fun r -> r.job = Fmt.str "%s n=%d" name procs) results in
  Trace.span tr ~trace_id ~parent:(-1) "fleet.probe" (fun root ->
      let f = run_fleet ~workers ~seed ~meta impl in
      let s = f.stats in
      let start_ns, end_ns = f.serve_ns in
      let us x = int_of_float (x *. 1e6) in
      Option.iter
        (fun joined_ns ->
          Trace.add tr ~trace_id ~parent:root "fleet.join" ~start_ns:f.spawn_ns
            ~end_ns:joined_ns)
        f.joined_ns;
      Trace.add tr ~trace_id ~parent:root "fleet.serve" ~start_ns ~end_ns
        ~counts:
          [
            ("shards_run", s.Coordinator.shards_run);
            ("steals", s.steals);
            ("splits", s.splits);
            ("lease_misses", s.lease_misses);
            ("reattaches", s.reattaches);
            ("local_shards", s.local_shards);
            ("coord_cpu_us", us f.coord_cpu_s);
            ("worker_cpu_us", us f.worker_cpu_s);
          ];
      let vectors r = List.assoc_opt "vectors" r.counts in
      let fleet = of_verdict ~job:"fleet" impl f.verdict in
      if
        f.joined_ns = None || fleet.verdict <> single.verdict
        || vectors fleet <> vectors single
      then failwith "the fleet's verdict differs from the single process's";
      codec_probe tr ~trace_id ~root ~meta impl)

(* --- per-layer metrics from the spans --------------------------------------- *)

let layer_metrics ~spans:all ~gc =
  let open Trace in
  let spans = all in
  let children = children_index spans in
  let named n = List.filter (fun s -> s.name = n) spans in
  let total_s l = List.fold_left (fun a s -> a +. secs (duration_ns s)) 0. l in
  let sum key l = List.fold_left (fun a s -> a + count s key) 0 l in
  let f = float_of_int in
  let explore = named "explore.run" in
  (* the spans whose calls report search statistics: Explore.run itself and
     the linearizability engine, which runs it internally *)
  let searches = explore @ named "engine.verify" in
  let nodes = sum "nodes" searches in
  let per_node x = if nodes = 0 then 0. else x /. f nodes in
  let search_s = total_s searches in
  let durations = List.map (fun s -> secs (duration_ns s)) explore in
  let shrink = named "witness.shrink" in
  let compiled = named "theorem5.eliminate_registers" in
  let engine = named "engine.verify" in
  let serve = named "fleet.serve" in
  let codec = named "codec.roundtrip" in
  let major, minor, top_heap_mb = gc in
  [
    ( "explore.self_s",
      List.fold_left (fun a s -> a +. secs (self_time_ns ~children s)) 0. explore );
    ("explore.calls", f (List.length explore));
    ("explore.call_p50_s", percentile 0.50 durations);
    ("explore.call_p99_s", percentile 0.99 durations);
    ("explore.nodes", f nodes);
    ("explore.leaves", f (sum "leaves" searches));
    ("explore.pruned", f (sum "pruned" searches));
    ("explore.sleep_skips", f (sum "sleep_skips" searches));
    ("explore.pruned_ratio", per_node (f (sum "pruned" searches)));
    ("explore.nodes_per_s", if search_s > 0. then f nodes /. search_s else 0.);
    ( "explore.minor_words_per_node",
      per_node (List.fold_left (fun a s -> a +. self_words ~children s) 0. searches) );
    ("check.vectors", f (sum "vectors" (named "check.vectors")));
    ( "check.executions",
      f (sum "leaves" explore) );
    ("check.leaf_calls", f (List.length (named "check.check_leaf")));
    ("check.leaf_s", total_s (named "check.check_leaf"));
    ("check.enum_s", total_s (named "check.vectors"));
    ("witness.shrink_s", total_s shrink);
    ("witness.replay_s", total_s (named "witness.replay"));
    ("witness.len_raw", f (sum "len_raw" shrink));
    ("witness.len_shrunk", f (sum "len_shrunk" shrink));
    ("theorem5.analyze_s", total_s (named "access_bounds.analyze"));
    ("theorem5.compile_s", total_s compiled);
    ("theorem5.bound_d", f (sum "bound_d" compiled));
    ("theorem5.one_use_bits", f (sum "one_use_bits" compiled));
    ("theorem5.t_objects", f (sum "t_objects" compiled));
    ("engine.verify_s", total_s engine);
    ("engine.transitions", f (sum "transitions" engine));
    ("engine.memo_hits", f (sum "memo_hits" engine));
    ( "engine.frontier_peak",
      f (List.fold_left (fun a s -> max a (count s "frontier_peak")) 0 engine) );
    ("fleet.join_s", total_s (named "fleet.join"));
    ("fleet.serve_s", total_s serve);
    ("fleet.coord_cpu_s", f (sum "coord_cpu_us" serve) /. 1e6);
    ("fleet.worker_cpu_s", f (sum "worker_cpu_us" serve) /. 1e6);
    ("fleet.shards_run", f (sum "shards_run" serve));
    ("fleet.steals", f (sum "steals" serve));
    ("fleet.splits", f (sum "splits" serve));
    ("fleet.lease_misses", f (sum "lease_misses" serve));
    ("fleet.reattaches", f (sum "reattaches" serve));
    ("fleet.local_shards", f (sum "local_shards" serve));
    ("codec.roundtrip_s", total_s codec);
    ("codec.bytes", f (sum "bytes" codec));
    ("gc.major_collections", f major);
    ("gc.minor_words", minor);
    ("gc.top_heap_mb", top_heap_mb);
  ]

(* --- main --------------------------------------------------------------------- *)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> scan ())
    in
    let mb = scan () in
    close_in ic;
    mb

let () =
  let workload = ref "" and seed = ref 1 and workers = ref 2 in
  let traced = ref false and setup_only = ref false in
  let spans_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--workers", Arg.Set_int workers, "K fleet workers (default 2)");
      ("--trace", Arg.Set traced, " drive the decomposed, spanned search");
      ("--setup-only", Arg.Set setup_only, " stop where the first job would start");
      ("--spans", Arg.Set_string spans_file, "FILE write spans as JSON lines");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "job.exe --workload NAME [options]";
  if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o755;
  let jobs = jobs_of_workload ~seed:!seed !workload in
  let workers = !workers and seed = !seed in
  let setup_end_ns = now_ns () and cpu0 = cpu_now () in
  if !setup_only then begin
    print_endline (Trace.json_object [ ("setup_end_ns", string_of_int setup_end_ns) ]);
    exit 0
  end;
  let tr = Trace.create () in
  let major = ref 0 and minor = ref 0. in
  let results =
    List.concat
      (List.mapi
         (fun trace_id job ->
           let g0 = Gc.quick_stat () in
           let r =
             if !traced then
               Trace.span tr ~trace_id ~parent:(-1) ("job " ^ label job)
                 (fun root -> run_traced tr ~trace_id ~root job)
             else run_untraced job
           in
           let g1 = Gc.quick_stat () in
           major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
           minor := !minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
           r)
         jobs)
  in
  let end_ns = now_ns () in
  let cpu1 = cpu_now () in
  let layers =
    if !traced then begin
      if !workload = "verify" then
        fleet_probe tr ~trace_id:(List.length jobs) ~workers ~seed results;
      let top_heap_mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.
      in
      layer_metrics ~spans:(Trace.spans tr) ~gc:(!major, !minor, top_heap_mb)
    end
    else []
  in
  let provenance =
    [
      ("workload", Trace.json_string !workload);
      ("seed", string_of_int seed);
      ("workers", string_of_int workers);
      ("ocaml", Trace.json_string Sys.ocaml_version);
      ("pid", string_of_int (Unix.getpid ()));
    ]
  in
  if !traced && !spans_file <> "" then
    Trace.write_jsonl ~path:!spans_file ~header:provenance tr;
  print_endline
    (Trace.json_object
       (provenance
       @ [
           ("traced", string_of_bool !traced);
           ("setup_end_ns", string_of_int setup_end_ns);
           ("wall_s", Trace.json_float (secs (end_ns - setup_end_ns)));
           ("cpu_s", Trace.json_float (cpu1 -. cpu0));
           ("peak_rss_mb", Trace.json_float (peak_rss_mb ()));
           ("results", "[" ^ String.concat "," (List.map result_json results) ^ "]");
           ( "layers",
             Trace.json_object (List.map (fun (k, v) -> (k, Trace.json_float v)) layers) );
         ]))
