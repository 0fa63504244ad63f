(* Benchmark harness — one bechamel test (or group) per experiment table
   E1..E12 of DESIGN.md / EXPERIMENTS.md, all in one executable.

   The paper is theory and publishes no numbers; what these benches
   regenerate are (a) the SHAPE facts each experiment certifies (object
   counts, the §4.2 bound D, blowup factors — printed first, deterministic)
   and (b) the cost of every construction in this library, so the "price"
   columns of EXPERIMENTS.md can be reproduced:

   $ dune exec bench/main.exe *)

open Bechamel
open Toolkit
open Wfc_spec
open Wfc_zoo
open Wfc_program
open Wfc_consensus
open Wfc_core

(* --- tiny driver ------------------------------------------------------------ *)

let run_test test =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ ns ] ->
        if ns > 1_000_000.0 then
          Fmt.pr "  %-52s %10.3f ms/run@." name (ns /. 1_000_000.0)
        else if ns > 1_000.0 then
          Fmt.pr "  %-52s %10.3f us/run@." name (ns /. 1_000.0)
        else Fmt.pr "  %-52s %10.1f ns/run@." name ns
      | _ -> Fmt.pr "  %-52s (no estimate)@." name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

let staged f = Staged.stage f

let rr = Wfc_sim.Schedulers.round_robin

let run_ops impl workloads () =
  ignore
    (Wfc_sim.Exec.run impl ~workloads
       ~pick_proc:rr.Wfc_sim.Schedulers.pick_proc
       ~pick_alt:rr.Wfc_sim.Schedulers.pick_alt ())

(* --- shape facts (deterministic, printed once) -------------------------------- *)

let shape_facts () =
  Fmt.pr "==== shape facts (deterministic) ====@.";
  let d_of impl =
    match Access_bounds.analyze impl with
    | Ok r -> r.Access_bounds.bound_d
    | Error e -> Fmt.failwith "%s" e
  in
  Fmt.pr "E3  D: tas=%d faa=%d swap=%d queue=%d cas2=%d cas3=%d sticky3=%d@."
    (d_of (Protocols.from_tas ()))
    (d_of (Protocols.from_faa ()))
    (d_of (Protocols.from_swap ()))
    (d_of (Protocols.from_queue ()))
    (d_of (Protocols.from_cas ~procs:2 ()))
    (d_of (Protocols.from_cas ~procs:3 ()))
    (d_of (Protocols.from_sticky ~procs:3 ()));
  Fmt.pr "E4  one-use bits per bounded bit: r2w1=%d r4w3=%d r8w7=%d@."
    (Bounded_bit.bit_count ~reads:2 ~writes:1)
    (Bounded_bit.bit_count ~reads:4 ~writes:3)
    (Bounded_bit.bit_count ~reads:8 ~writes:7);
  Fmt.pr
    "E2  chain footprints: regular3(2rdrs)=%d safe bits; atomicMRSW(2rdrs)=%d \
     regs; atomicMRMW(2wr)=%d regs@."
    (Wfc_registers.Chain.srsw_bit_count
       (Wfc_registers.Chain.regular_bounded_from_safe_bits ~readers:2 ~values:3
          ~init:0 ()))
    (Wfc_registers.Chain.srsw_bit_count
       (Wfc_registers.Chain.atomic_mrsw_from_regular_srsw ~readers:2
          ~init:(Value.int 0) ()))
    (Wfc_registers.Chain.srsw_bit_count
       (Wfc_registers.Chain.atomic_mrmw_from_regular_srsw ~writers:2
          ~extra_readers:0 ~init:(Value.int 0) ()));
  let strat name =
    match Theorem5.strategy_for (Catalog.find ~ports:2 name).Catalog.spec with
    | Ok s -> s
    | Error e -> Fmt.failwith "%s" e
  in
  (match
     Theorem5.eliminate_registers ~strategy:(strat "test-and-set")
       (Protocols.from_tas ())
   with
  | Ok r ->
    Fmt.pr
      "E8  tas→tas: D=%d, %d regs → %d one-use bits → %d base objects@."
      r.Theorem5.bounds.Access_bounds.bound_d r.Theorem5.registers_eliminated
      r.Theorem5.one_use_bits r.Theorem5.t_objects
  | Error e -> Fmt.pr "E8  compile error: %s@." e);
  let target = Rmw.fetch_add_mod ~ports:2 ~modulus:5 in
  let universal = Universal.construct ~target ~procs:2 ~cells:8 () in
  let stats =
    Wfc_sim.Exec.explore universal
      ~workloads:[| [ Ops.fetch_add 1 ]; [ Ops.fetch_add 2 ] |]
      ()
  in
  Fmt.pr "E10 universal faa: max %d steps/op (direct: 1)@."
    stats.Wfc_sim.Exec.max_op_steps;
  Fmt.pr "@."

(* --- E1: one-use bit micro ------------------------------------------------------ *)

let e1 =
  let spec = One_use.spec in
  Test.make_grouped ~name:"E1 one-use bit spec"
    [
      Test.make ~name:"transition table walk"
        (staged (fun () ->
             List.iter
               (fun q ->
                 List.iter
                   (fun inv ->
                     ignore (Type_spec.alternatives spec q ~port:0 ~inv))
                   spec.Type_spec.invocations)
               (Option.get spec.Type_spec.states)));
      Test.make ~name:"identity impl: write;read"
        (staged
           (run_ops (One_use_bit.identity ~procs:2)
              [| [ One_use.write ]; [ One_use.read ] |]));
    ]

(* --- E2: register chain --------------------------------------------------------- *)

let e2 =
  let w1r = [| [ Ops.write (Value.int 1) ]; [ Ops.read ] |] in
  let native =
    Implementation.identity (Register.bounded ~ports:2 ~values:3) ~procs:2
  in
  let stacked_regular =
    Wfc_registers.Chain.regular_bounded_from_safe_bits ~readers:1 ~values:3
      ~init:0 ()
  in
  let stacked_mrsw =
    Wfc_registers.Chain.atomic_mrsw_from_regular_srsw ~readers:1
      ~init:(Value.int 0) ()
  in
  let mrmw =
    Wfc_registers.Multi_writer.atomic_mrmw ~writers:2 ~extra_readers:0
      ~init:(Value.int 0) ()
  in
  Test.make_grouped ~name:"E2 register chain (write;read through the stack)"
    [
      Test.make ~name:"native register" (staged (run_ops native w1r));
      Test.make ~name:"regular from safe bits (C3.C2.C1)"
        (staged (run_ops stacked_regular w1r));
      Test.make ~name:"atomic MRSW from regular SRSW (C5.C4)"
        (staged (run_ops stacked_mrsw w1r));
      Test.make ~name:"atomic MRMW (C6)" (staged (run_ops mrmw w1r));
      Test.make ~name:"Simpson four-slot (E14)"
        (staged
           (run_ops
              (Wfc_registers.Simpson.atomic_srsw
                 ~domain:[ Value.int 0; Value.int 1; Value.int 2 ]
                 ~init:(Value.int 0) ())
              w1r));
      Test.make ~name:"snapshot update;scan (E16)"
        (staged
           (run_ops
              (Wfc_registers.Snapshot.single_writer ~procs:2
                 ~domain:[ Value.int 0; Value.int 1 ]
                 ())
              [| [ Snapshot_type.update (Value.int 1) ]; [ Snapshot_type.scan ] |]));
    ]

(* --- E3: access-bound analysis ---------------------------------------------------- *)

let e3 =
  Test.make_grouped ~name:"E3 section-4.2 tree exploration"
    [
      Test.make ~name:"analyze tas (n=2)"
        (staged (fun () ->
             ignore (Access_bounds.analyze (Protocols.from_tas ()))));
      Test.make ~name:"analyze cas (n=2)"
        (staged (fun () ->
             ignore (Access_bounds.analyze (Protocols.from_cas ~procs:2 ()))));
      Test.make ~name:"analyze cas (n=3)"
        (staged (fun () ->
             ignore (Access_bounds.analyze (Protocols.from_cas ~procs:3 ()))));
      Test.make ~name:"analyze sticky (n=3)"
        (staged (fun () ->
             ignore (Access_bounds.analyze (Protocols.from_sticky ~procs:3 ()))));
    ]

(* --- E4: bounded bit sweep ---------------------------------------------------------- *)

let e4 =
  let bench ~reads ~writes =
    let impl = Bounded_bit.from_one_use ~reads ~writes ~init:false () in
    let writes_list =
      List.init writes (fun i -> Ops.write (Value.bool (i mod 2 = 0)))
    in
    let reads_list = List.init reads (fun _ -> Ops.read) in
    Test.make
      ~name:
        (Fmt.str "r=%d w=%d (%d bits)" reads writes
           (Bounded_bit.bit_count ~reads ~writes))
      (staged (run_ops impl [| writes_list; reads_list |]))
  in
  Test.make_grouped ~name:"E4 section-4.3 bounded bit (full budget of ops)"
    [
      bench ~reads:2 ~writes:1;
      bench ~reads:4 ~writes:3;
      bench ~reads:8 ~writes:7;
      bench ~reads:16 ~writes:15;
    ]

(* --- E5/E6: decision procedures ------------------------------------------------------ *)

let e5 =
  Test.make_grouped ~name:"E5/E6 section-5 decision procedures"
    [
      Test.make ~name:"5.1 triviality over the whole catalog"
        (staged (fun () ->
             List.iter
               (fun (e : Catalog.entry) ->
                 ignore (Triviality.decide e.Catalog.spec))
               (Catalog.all ~ports:2)));
      Test.make ~name:"5.2 pair search (test-and-set)"
        (staged (fun () ->
             ignore
               (Nontrivial_pair.search
                  (Catalog.find ~ports:2 "test-and-set").Catalog.spec)));
      Test.make ~name:"5.2 general minimal-pair search (flag, L=5)"
        (staged (fun () ->
             ignore
               (Nontrivial_pair.search_general ~max_len:5
                  (Catalog.find ~ports:2 "non-oblivious-flag").Catalog.spec)));
    ]

(* --- E7: one-use bit op costs --------------------------------------------------------- *)

let e7 =
  let wl = [| [ One_use.write ]; [ One_use.read ] |] in
  let of_tas =
    match Theorem5.strategy_for (Rmw.test_and_set ~ports:2) with
    | Ok (Theorem5.Oblivious_witness (spec, w)) ->
      Triviality.one_use_bit spec w ()
    | _ -> assert false
  in
  let of_flag =
    let spec = (Catalog.find ~ports:2 "non-oblivious-flag").Catalog.spec in
    match Nontrivial_pair.search spec with
    | Ok (Some p) -> Nontrivial_pair.one_use_bit spec p ()
    | _ -> assert false
  in
  let of_cons =
    From_consensus.from_consensus_impl
      ~consensus:(Protocols.from_cas ~procs:2 ())
      ()
  in
  Test.make_grouped ~name:"E7 one-use bit write;read via section-5"
    [
      Test.make ~name:"5.1 over test-and-set" (staged (run_ops of_tas wl));
      Test.make ~name:"5.2 over non-oblivious flag" (staged (run_ops of_flag wl));
      Test.make ~name:"5.3 over CAS consensus" (staged (run_ops of_cons wl));
    ]

(* --- E8: Theorem 5 --------------------------------------------------------------------- *)

let e8 =
  let strat =
    match Theorem5.strategy_for (Rmw.test_and_set ~ports:2) with
    | Ok s -> s
    | Error e -> Fmt.failwith "%s" e
  in
  let compiled =
    match
      Theorem5.eliminate_registers ~strategy:strat (Protocols.from_tas ())
    with
    | Ok r -> r.Theorem5.compiled
    | Error e -> Fmt.failwith "%s" e
  in
  let wl = [| [ Ops.propose Value.truth ]; [ Ops.propose Value.falsity ] |] in
  Test.make_grouped ~name:"E8 Theorem 5"
    [
      Test.make ~name:"compile tas over tas"
        (staged (fun () ->
             ignore
               (Theorem5.eliminate_registers ~strategy:strat
                  (Protocols.from_tas ()))));
      Test.make ~name:"decide: original (with registers)"
        (staged (run_ops (Protocols.from_tas ()) wl));
      Test.make ~name:"decide: compiled (register-free)"
        (staged (run_ops compiled wl));
    ]

(* --- E9/E11: counterexample finders ------------------------------------------------------ *)

let e9_e11 =
  let flaky_bit_impl =
    let open Program.Syntax in
    let spec = Nondet.flaky_bit ~ports:2 in
    Implementation.make
      ~target:(One_use.spec_n ~ports:2)
      ~implements:One_use.unset ~procs:2
      ~objects:[ (spec, spec.Type_spec.initial) ]
      ~program:(fun ~proc:_ ~inv local ->
        match inv with
        | Value.Sym "read" ->
          let+ resp = Program.invoke ~obj:0 Ops.read in
          ( (if Value.equal resp Value.falsity then Value.falsity
             else Value.truth),
            local )
        | _ ->
          let+ _ = Program.invoke ~obj:0 (Value.sym "write") in
          (Ops.ok, local))
      ()
  in
  Test.make_grouped ~name:"E9/E11 counterexample finders"
    [
      Test.make ~name:"E9: refute 5.1-on-flaky-bit"
        (staged (fun () -> ignore (One_use_bit.check_impl flaky_bit_impl)));
      Test.make ~name:"E11: refute register-only consensus"
        (staged (fun () ->
             ignore (Check.verify (Protocols.broken_register_only ()))));
    ]

(* --- E10: universal construction ----------------------------------------------------------- *)

let e10 =
  let target = Rmw.fetch_add_mod ~ports:2 ~modulus:5 in
  let universal = Universal.construct ~target ~procs:2 ~cells:8 () in
  let direct = Implementation.identity target ~procs:2 in
  let wl = [| [ Ops.fetch_add 1 ]; [ Ops.fetch_add 2 ] |] in
  Test.make_grouped ~name:"E10 universal construction (two concurrent faa)"
    [
      Test.make ~name:"direct fetch-and-add" (staged (run_ops direct wl));
      Test.make ~name:"universal fetch-and-add" (staged (run_ops universal wl));
    ]

(* --- E13: multivalued consensus ------------------------------------------------------------- *)

let e13 =
  let wl = [| [ Ops.propose (Value.int 2) ]; [ Ops.propose (Value.int 1) ] |] in
  let primitive = Multivalued.from_binary ~procs:2 ~values:3 () in
  let over_tas =
    List.fold_left
      (fun acc obj ->
        Implementation.substitute ~obj ~replacement:(Protocols.from_tas ()) acc)
      (Multivalued.from_binary ~procs:2 ~values:3 ())
      (Multivalued.consensus_object_indices ~procs:2 ~values:3
         ~announce_bits:false)
  in
  Test.make_grouped ~name:"E13 multivalued consensus (3 values, 2 procs)"
    [
      Test.make ~name:"over primitive binary consensus"
        (staged (run_ops primitive wl));
      Test.make ~name:"over the TAS protocol" (staged (run_ops over_tas wl));
    ]

(* --- E15: valence ----------------------------------------------------------------------------- *)

let e15 =
  Test.make_grouped ~name:"E15 valence analysis"
    [
      Test.make ~name:"analyze tas tree"
        (staged (fun () ->
             ignore
               (Valence.analyze (Protocols.from_tas ())
                  ~inputs:[ false; true ] ())));
      Test.make ~name:"analyze cas n=3 tree"
        (staged (fun () ->
             ignore
               (Valence.analyze
                  (Protocols.from_cas ~procs:3 ())
                  ~inputs:[ false; true; false ] ())));
    ]

(* --- EX: exploration engine (naive vs pruned vs POR vs parallel) ----------------------------- *)

module Explore = Wfc_sim.Explore
module Faults = Wfc_sim.Faults

let explore_workloads () =
  [
    ( "E3-tas2-tree",
      Protocols.from_tas (),
      [| [ Ops.propose Value.truth ]; [ Ops.propose Value.falsity ] |] );
    ( "E3-cas3-tree",
      Protocols.from_cas ~procs:3 (),
      [|
        [ Ops.propose Value.truth ];
        [ Ops.propose Value.falsity ];
        [ Ops.propose Value.truth ];
      |] );
    ( "E3-sticky3-tree",
      Protocols.from_sticky ~procs:3 (),
      [|
        [ Ops.propose Value.truth ];
        [ Ops.propose Value.falsity ];
        [ Ops.propose Value.truth ];
      |] );
    ( "E10-universal-faa",
      Universal.construct ~target:(Rmw.fetch_add_mod ~ports:2 ~modulus:5)
        ~procs:2 ~cells:8 (),
      [| [ Ops.fetch_add 1 ]; [ Ops.fetch_add 2 ] |] );
  ]

let engine_variants () =
  [
    ("naive", Explore.naive);
    ("dedup", { Explore.naive with Explore.dedup = Exact });
    ("por", { Explore.naive with Explore.por = true });
    ("fast", Explore.fast);
  ]

(* Warm, repeat-averaged timing: one warmup run, then repeat until 20 ms of
   accumulated wall clock (or 200 runs). [wall_s] reports the best single
   run — the steady-state cost, free of cold-start table allocation — and
   [nodes_per_sec] the aggregate throughput, which is the engine's figure
   of merit now that single runs on these trees sit in the microseconds.
   [minor_words_per_node] is the minor-heap allocation of the timed runs
   divided by the nodes they visited — the hot path's allocation footprint
   (the few boxed floats of the timing harness itself are in the noise). *)
let timed_explore f =
  ignore (f ());
  let total = ref 0.0 and runs = ref 0 and best = ref infinity in
  let last = ref None in
  let g0 = Gc.minor_words () in
  while !total < 0.02 && !runs < 200 do
    let t0 = Wfc_sim.Monotime.now () in
    let s = f () in
    let w = Wfc_sim.Monotime.now () -. t0 in
    total := !total +. w;
    incr runs;
    if w < !best then best := w;
    last := Some s
  done;
  let g1 = Gc.minor_words () in
  let s = Option.get !last in
  let nps =
    if !total > 0.0 then float_of_int (!runs * s.Explore.nodes) /. !total
    else 0.0
  in
  let mwpn =
    if !runs > 0 && s.Explore.nodes > 0 then
      (g1 -. g0) /. float_of_int (!runs * s.Explore.nodes)
    else 0.0
  in
  (s, !best, nps, mwpn)

(* Substring / field scraping over our own line-oriented JSON (one engine
   row per line), so the regression check needs no JSON dependency. *)
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

(* A numeric [key] off the committed baseline's E10-universal-faa
   fast-engine row (None when the file is missing or predates the schema
   that introduced the field). *)
let baseline_e10_fast key path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let in_e10 = ref false and result = ref None in
    (try
       while true do
         let l = input_line ic in
         if contains l {|"name"|} then
           in_e10 := contains l {|"E10-universal-faa"|};
         if !in_e10 && contains l {|"engine": "fast"|} then
           match float_field l key with
           | Some v -> result := Some v
           | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    !result

(* Host facts recorded in every BENCH_*.json header: the visible core count
   and the (possibly empty) list of guards skipped because of it, so a
   committed baseline is honest about the hardware it was produced on. *)
let host_cores () = Domain.recommended_domain_count ()

let host_header ~skipped =
  Fmt.str "  \"cores\": %d,\n  \"skipped\": [%s],"
    (host_cores ())
    (String.concat ", " (List.map (fun s -> Fmt.str "%S" s) skipped))

(* Warm repeat-averaged runs per ⟨workload, engine⟩, printed as a table and
   dumped as machine-readable JSON (BENCH_explore.json, schema /4:
   [nodes_per_sec] and [minor_words_per_node] per row, no [domains] column) so the throughput
   and allocation trajectories of the engine are tracked across PRs.
   Guards: the fast engine may never lose to naive on wall time (25% +
   100 µs tolerance); in [--check] mode the E10-universal-faa fast
   throughput may not drop more than 30% below the committed baseline and
   its allocation may not grow more than 50% above it (both checks skip
   gracefully when the baseline predates the field). [--check] does not
   rewrite the baseline file. *)
let explore_engine_report ~check () =
  Fmt.pr "==== EX exploration engine (warm repeat-averaged runs) ====@.";
  let guard_failures = ref [] in
  let fail fmt =
    Fmt.kstr (fun s -> guard_failures := s :: !guard_failures) fmt
  in
  let e10_fast_nps = ref 0.0 and e10_fast_mwpn = ref 0.0 in
  let json_workloads =
    List.map
      (fun (name, impl, workloads) ->
        Fmt.pr "%s:@." name;
        let naive_nodes = ref 0 and naive_wall = ref 0.0 in
        let rows =
          List.map
            (fun (ename, options) ->
              let s, wall, nps, mwpn =
                timed_explore (fun () ->
                    Explore.run impl ~workloads ~options ())
              in
              if String.equal ename "naive" then begin
                naive_nodes := s.Explore.nodes;
                naive_wall := wall
              end;
              if String.equal ename "fast" then begin
                if wall > (!naive_wall *. 1.25) +. 0.0001 then
                  fail "%s: fast wall %.1f us > naive %.1f us" name
                    (wall *. 1e6) (!naive_wall *. 1e6);
                if String.equal name "E10-universal-faa" then begin
                  e10_fast_nps := nps;
                  e10_fast_mwpn := mwpn
                end
              end;
              let node_speedup =
                if s.Explore.nodes = 0 then 1.0
                else float_of_int !naive_nodes /. float_of_int s.Explore.nodes
              in
              let wall_speedup =
                if wall > 0.0 then !naive_wall /. wall else 1.0
              in
              Fmt.pr
                "  %-10s %9d nodes %8d leaves %8d pruned %8d sleeps %9.3f ms \
                 %12.0f nodes/s %7.1f mw/node (nodes x%.1f, time x%.1f)@."
                ename s.Explore.nodes s.Explore.leaves s.Explore.pruned
                s.Explore.sleep_skips (wall *. 1e3) nps mwpn node_speedup
                wall_speedup;
              Fmt.str
                {|        {"engine": %S, "nodes": %d, "leaves": %d, "pruned": %d, "sleep_skips": %d, "max_events": %d, "wall_s": %.6f, "nodes_per_sec": %.0f, "minor_words_per_node": %.1f}|}
                ename s.Explore.nodes s.Explore.leaves
                s.Explore.pruned s.Explore.sleep_skips s.Explore.max_events
                wall nps mwpn)
            (engine_variants ())
        in
        Fmt.str "    {\"name\": %S, \"engines\": [\n%s\n    ]}" name
          (String.concat ",\n" rows))
      (explore_workloads ())
  in
  if check then begin
    (match baseline_e10_fast "nodes_per_sec" "BENCH_explore.json" with
    | Some base ->
      let ratio = !e10_fast_nps /. base in
      Fmt.pr
        "  E10 fast throughput vs committed baseline: %.0f / %.0f nodes/s \
         (x%.2f)@."
        !e10_fast_nps base ratio;
      if ratio < 0.7 then
        fail
          "E10-universal-faa fast throughput regressed >30%%: %.0f nodes/s \
           vs baseline %.0f"
          !e10_fast_nps base
    | None ->
      Fmt.pr
        "  (no schema-/2 baseline in BENCH_explore.json — skipping the \
         throughput ratio check)@.");
    match baseline_e10_fast "minor_words_per_node" "BENCH_explore.json" with
    | Some base when base > 0.0 ->
      Fmt.pr
        "  E10 fast allocation vs committed baseline: %.1f / %.1f \
         minor words/node@."
        !e10_fast_mwpn base;
      (* 50% headroom plus two absolute words: allocation per node is
         deterministic modulo GC bookkeeping, so this only trips on a real
         hot-path regression *)
      if !e10_fast_mwpn > (base *. 1.5) +. 2.0 then
        fail
          "E10-universal-faa fast allocation regressed >50%%: %.1f minor \
           words/node vs baseline %.1f"
          !e10_fast_mwpn base
    | _ ->
      Fmt.pr
        "  (no minor_words_per_node in the committed baseline — skipping \
         the allocation check)@."
  end
  else begin
    let json =
      Fmt.str
        "{\n\
        \  \"schema\": \"wfc-bench-explore/4\",\n\
         %s\n\
        \  \"workloads\": [\n\
         %s\n\
        \  ]\n\
         }\n"
        (host_header ~skipped:[])
        (String.concat ",\n" json_workloads)
    in
    let oc = open_out "BENCH_explore.json" in
    output_string oc json;
    close_out oc;
    Fmt.pr "wrote BENCH_explore.json@."
  end;
  List.iter (fun s -> Fmt.pr "GUARD FAILED: %s@." s) !guard_failures;
  Fmt.pr "@.";
  !guard_failures = []

(* --- FI: fault-injection overhead -------------------------------------------------------------

   Exploration cost of each fault adversary relative to the clean tree, per
   workload, dumped as BENCH_faults.json. Faults branch the tree at every
   injection point, so the node blow-up factor is the honest price of the
   robustness guarantee; tracking it across PRs keeps the adversary layer
   from quietly regressing. Run only this group with `bench/main.exe fi`. *)

let fault_adversaries impl =
  [
    ("clean", Faults.none);
    ("crash-1", Faults.crashes 1);
    ("crash-recovery-1-1", Faults.crash_recovery ~crashes:1 ~recoveries:1);
    ("stale-1-glitch-1", Faults.degrade_all impl ~glitches:1 (`Stale 1));
    ("stale-1-glitch-2", Faults.degrade_all impl ~glitches:2 (`Stale 1));
  ]

let fi_workloads () =
  [
    ( "E3-tas-consensus",
      Protocols.from_tas (),
      [| [ Ops.propose Value.truth ]; [ Ops.propose Value.falsity ] |] );
    ( "E3-cas3-consensus",
      Protocols.from_cas ~procs:3 (),
      [|
        [ Ops.propose Value.truth ];
        [ Ops.propose Value.falsity ];
        [ Ops.propose Value.truth ];
      |] );
  ]

let fault_injection_report () =
  Fmt.pr "==== FI fault-injection overhead (single timed runs) ====@.";
  let json_workloads =
    List.map
      (fun (name, impl, workloads) ->
        Fmt.pr "%s:@." name;
        let clean_nodes = ref 0 and clean_wall = ref 0.0 in
        let rows =
          List.map
            (fun (aname, faults) ->
              let t0 = Unix.gettimeofday () in
              (* faults switch POR off internally; dedup-only keeps the
                 comparison on the engine callers actually use *)
              let s =
                Explore.run impl ~workloads ~faults
                  ~options:Explore.fast ()
              in
              let wall = Unix.gettimeofday () -. t0 in
              if String.equal aname "clean" then begin
                clean_nodes := s.Explore.nodes;
                clean_wall := wall
              end;
              let node_blowup =
                if !clean_nodes = 0 then 1.0
                else float_of_int s.Explore.nodes /. float_of_int !clean_nodes
              in
              Fmt.pr
                "  %-20s %9d nodes %8d leaves %9.3f ms (nodes x%.1f vs clean)@."
                aname s.Explore.nodes s.Explore.leaves (wall *. 1e3)
                node_blowup;
              Fmt.str
                {|        {"adversary": %S, "nodes": %d, "leaves": %d, "max_events": %d, "node_blowup": %.3f, "wall_s": %.6f}|}
                aname s.Explore.nodes s.Explore.leaves s.Explore.max_events
                node_blowup wall)
            (fault_adversaries impl)
        in
        Fmt.str "    {\"name\": %S, \"adversaries\": [\n%s\n    ]}" name
          (String.concat ",\n" rows))
      (fi_workloads ())
  in
  let json =
    Fmt.str
      "{\n  \"schema\": \"wfc-bench-faults/1\",\n%s\n  \"workloads\": [\n%s\n  ]\n}\n"
      (host_header ~skipped:[])
      (String.concat ",\n" json_workloads)
  in
  let oc = open_out "BENCH_faults.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote BENCH_faults.json@.@."

(* --- LZ: linearizability engines (per-leaf vs incremental vs compositional) ---

   One timed Engine.verify per ⟨workload, checking mode⟩, dumped as
   BENCH_linearize.json. The metric that matters is [transitions] — spec
   alternatives enumerated — which the fused incremental engine is built to
   cut by sharing frontier work across sibling leaves. The report doubles as
   a guard: verdicts must agree across all three modes on every workload, and
   the incremental modes may never enumerate MORE transitions than per-leaf;
   any breach makes the runner exit nonzero (the CI step runs
   `bench/main.exe lz`). *)

module Engine = Wfc_linearize.Engine

let lz_bit_from_two_bits ~procs =
  let b = Register.bit ~ports:procs in
  Implementation.make ~target:b ~procs
    ~objects:[ (b, Value.falsity); (b, Value.falsity) ]
    ~program:(fun ~proc:_ ~inv local ->
      let open Program.Syntax in
      match inv with
      | Value.Sym "read" ->
        let+ v = Program.invoke ~obj:1 Ops.read in
        (v, local)
      | Value.Pair (Value.Sym "write", v) ->
        let* _ = Program.invoke ~obj:0 (Ops.write v) in
        let+ _ = Program.invoke ~obj:1 (Ops.write v) in
        (Ops.ok, local)
      | _ -> assert false)
    ()

(* Non-linearizable on purpose (torn write: v+1 then v into a 3-valued
   register) — exercises the violation path of all three modes. *)
let lz_torn_write_reg ~procs =
  let reg = Register.bounded ~ports:procs ~values:3 in
  Implementation.make ~target:reg ~procs
    ~objects:[ (reg, Value.int 0) ]
    ~program:(fun ~proc:_ ~inv local ->
      let open Program.Syntax in
      match inv with
      | Value.Sym "read" ->
        let+ v = Program.invoke ~obj:0 Ops.read in
        (v, local)
      | Value.Pair (Value.Sym "write", Value.Int v) ->
        let* _ = Program.invoke ~obj:0 (Ops.write (Value.int ((v + 1) mod 3))) in
        let+ _ = Program.invoke ~obj:0 (Ops.write (Value.int v)) in
        (Ops.ok, local)
      | _ -> assert false)
    ()

(* Two independent registers under one product target: the compositional
   mode keeps one frontier per register instead of searching the product
   state space. *)
let lz_two_registers ~procs =
  let reg = Register.bit ~ports:procs in
  Implementation.make ~target:(Engine.indexed 2 reg) ~procs
    ~objects:[ (reg, Value.falsity); (reg, Value.falsity) ]
    ~program:(fun ~proc:_ ~inv local ->
      let open Program.Syntax in
      let i, inner = Ops.at_target inv in
      let+ v = Program.invoke ~obj:i inner in
      (v, local))
    ()

let lz_workloads () =
  let bit = lz_bit_from_two_bits ~procs:2 in
  let bit_wl =
    [|
      [ Ops.write Value.truth; Ops.read ];
      [ Ops.read; Ops.write Value.falsity ];
    |]
  in
  let reg = Register.bit ~ports:2 in
  [
    ("LZ-bit-from-two-bits", bit, bit_wl, Faults.none, None);
    ("LZ-bit-crash-1", bit, bit_wl, Faults.crashes 1, None);
    ( "LZ-torn-write",
      lz_torn_write_reg ~procs:2,
      [| [ Ops.write (Value.int 1) ]; [ Ops.read ] |],
      Faults.none,
      None );
    ( "LZ-universal-faa",
      Universal.construct ~target:(Rmw.fetch_add_mod ~ports:2 ~modulus:5)
        ~procs:2 ~cells:8 (),
      [| [ Ops.fetch_add 1 ]; [ Ops.fetch_add 2 ] |],
      Faults.none,
      None );
    ( "LZ-two-registers",
      lz_two_registers ~procs:2,
      [|
        [ Ops.at 0 (Ops.write Value.truth); Ops.at 1 Ops.read ];
        [ Ops.at 1 (Ops.write Value.truth); Ops.at 0 Ops.read ];
      |],
      Faults.none,
      Some (reg, Value.falsity) );
  ]

let lz_modes =
  [
    ("per-leaf", Engine.Per_leaf);
    ("incremental", Engine.Incremental { compositional = false });
    ("incremental+comp", Engine.Incremental { compositional = true });
  ]

let linearize_engine_report () =
  Fmt.pr "==== LZ linearizability engines (single timed runs) ====@.";
  let guard_failures = ref [] in
  let fail fmt = Fmt.kstr (fun s -> guard_failures := s :: !guard_failures) fmt in
  (* per-engine totals for the closing one-line summary table *)
  let totals = Hashtbl.create 8 in
  let add_total ename nodes transitions wall =
    let n0, t0, w0 =
      Option.value (Hashtbl.find_opt totals ename) ~default:(0, 0, 0.0)
    in
    Hashtbl.replace totals ename (n0 + nodes, t0 + transitions, w0 +. wall)
  in
  let json_workloads =
    List.map
      (fun (name, impl, workloads, faults, component) ->
        Fmt.pr "%s:@." name;
        let rows =
          List.map
            (fun (ename, mode) ->
              let t0 = Unix.gettimeofday () in
              let res =
                Engine.verify impl ~workloads ~faults ~mode ?component ()
              in
              let wall = Unix.gettimeofday () -. t0 in
              let verdict, nodes, leaves, transitions, memo_hits, peak =
                match res with
                | Ok s ->
                  ( "ok",
                    s.Engine.explore.Explore.nodes,
                    s.Engine.explore.Explore.leaves,
                    s.Engine.transitions,
                    s.Engine.memo_hits,
                    s.Engine.frontier_peak )
                | Error _ -> ("violation", 0, 0, 0, 0, 0)
              in
              Fmt.pr
                "  %-16s %9d nodes %8d leaves %9d transitions %7d memo \
                 %9.3f ms  %s@."
                ename nodes leaves transitions memo_hits (wall *. 1e3) verdict;
              add_total ename nodes transitions wall;
              ( (ename, verdict, transitions),
                Fmt.str
                  {|        {"engine": %S, "verdict": %S, "nodes": %d, "leaves": %d, "transitions": %d, "memo_hits": %d, "frontier_peak": %d, "wall_s": %.6f}|}
                  ename verdict nodes leaves transitions memo_hits peak wall ))
            lz_modes
        in
        (* guards: verdict parity across modes; incremental transitions never
           above per-leaf *)
        (match List.map (fun ((_, v, _), _) -> v) rows with
        | v0 :: vs when List.exists (fun v -> not (String.equal v v0)) vs ->
          fail "%s: verdicts disagree across engines" name
        | _ -> ());
        (match rows with
        | (("per-leaf", "ok", base), _) :: incr ->
          List.iter
            (fun ((ename, verdict, t), _) ->
              if String.equal verdict "ok" && t > base then
                fail "%s: %s enumerated %d transitions > per-leaf's %d" name
                  ename t base)
            incr
        | _ -> ());
        Fmt.str "    {\"name\": %S, \"engines\": [\n%s\n    ]}" name
          (String.concat ",\n" (List.map snd rows)))
      (lz_workloads ())
  in
  let json =
    Fmt.str
      "{\n\
      \  \"schema\": \"wfc-bench-linearize/1\",\n\
       %s\n\
      \  \"workloads\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      (host_header ~skipped:[])
      (String.concat ",\n" json_workloads)
  in
  let oc = open_out "BENCH_linearize.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "summary (all LZ workloads):@.";
  List.iter
    (fun (ename, _) ->
      match Hashtbl.find_opt totals ename with
      | Some (nodes, transitions, wall) ->
        Fmt.pr "  %-16s %9d nodes %9d transitions %9.3f ms@." ename nodes
          transitions (wall *. 1e3)
      | None -> ())
    lz_modes;
  Fmt.pr "wrote BENCH_linearize.json@.";
  List.iter (fun s -> Fmt.pr "GUARD FAILED: %s@." s) !guard_failures;
  !guard_failures = []

(* --- CX: state-space compaction (process symmetry) -----------------------------

   One timed Explore.run per ⟨workload, dedup mode⟩, dumped as
   BENCH_compact.json. [exact] is [Explore.fast] with pid-exact dedup keys,
   [symmetric] is [Explore.fast] itself (keys canonicalized under
   permutations of interchangeable processes). The report doubles as a
   guard: symmetry may never increase the node count, both modes must agree
   with Check.verify's verdict on every guard protocol, and at least one
   ≥3-process symmetric workload must show a ≥2x node cut; any breach makes
   the runner exit nonzero (the CI step runs `bench/main.exe cx`). *)

let cx_engines () =
  [
    ("exact", { Explore.fast with Explore.dedup = Exact });
    ("symmetric", Explore.fast);
  ]

let cx_workloads () =
  let equal_inputs n v = Array.init n (fun _ -> [ Ops.propose v ]) in
  [
    ("CX-cas3-equal", Protocols.from_cas ~procs:3 (), equal_inputs 3 Value.truth);
    ( "CX-cas3-mixed",
      Protocols.from_cas ~procs:3 (),
      [|
        [ Ops.propose Value.truth ];
        [ Ops.propose Value.truth ];
        [ Ops.propose Value.falsity ];
      |] );
    ( "CX-sticky3-equal",
      Protocols.from_sticky ~procs:3 (),
      equal_inputs 3 Value.truth );
    ( "CX-sticky4-equal",
      Protocols.from_sticky ~procs:4 (),
      equal_inputs 4 Value.truth );
    (* control row: the universal construction does not declare process
       symmetry, so the symmetry config must be a no-op here *)
    ( "CX-universal-faa-control",
      Universal.construct ~target:(Rmw.fetch_add_mod ~ports:2 ~modulus:5)
        ~procs:2 ~cells:8 (),
      [| [ Ops.fetch_add 1 ]; [ Ops.fetch_add 2 ] |] );
  ]

(* Collision probe: the pre-compaction hash chained [ha * 65599 + hb], which
   is commutative across the elements of a right-nested pair chain — exactly
   the shape dedup fingerprints have. Count colliding (unordered) pairs over
   all permutations of a 5-element chain, legacy formula vs Value.hash. *)
let cx_collision_probe () =
  let legacy =
    let rec h = function
      | Value.Unit -> 17
      | Value.Bool b -> if b then 31 else 37
      | Value.Int i -> Hashtbl.hash i
      | Value.Sym s -> Hashtbl.hash s
      | Value.Pair (a, b) -> (h a * 65599) + h b
      | Value.List xs -> List.fold_left (fun acc x -> (acc * 131) + h x) 43 xs
    in
    h
  in
  let atoms = List.init 5 (fun i -> Value.int (101 + (i * 17))) in
  let rec permutations = function
    | [] -> [ [] ]
    | xs ->
      List.concat_map
        (fun x ->
          permutations (List.filter (fun y -> not (y == x)) xs)
          |> List.map (fun p -> x :: p))
        xs
  in
  let chain xs =
    List.fold_right (fun x acc -> Value.Pair (x, acc)) xs Value.Unit
  in
  let chains = List.map chain (permutations atoms) in
  let colliding_pairs hash =
    let tbl = Hashtbl.create 256 in
    List.iter
      (fun c ->
        let h = hash c in
        Hashtbl.replace tbl h
          (1 + Option.value (Hashtbl.find_opt tbl h) ~default:0))
      chains;
    Hashtbl.fold (fun _ k acc -> acc + (k * (k - 1) / 2)) tbl 0
  in
  let n = List.length chains in
  (n * (n - 1) / 2, colliding_pairs legacy, colliding_pairs Value.hash)

let cx_verdict_guards () =
  [
    ("cas3", Protocols.from_cas ~procs:3 (), "verified");
    ("sticky3", Protocols.from_sticky ~procs:3 (), "verified");
    ("broken-register-only", Protocols.broken_register_only (), "falsified");
  ]

let compact_report () =
  Fmt.pr "==== CX state-space compaction (single timed runs) ====@.";
  let guard_failures = ref [] in
  let fail fmt =
    Fmt.kstr (fun s -> guard_failures := s :: !guard_failures) fmt
  in
  let best_cut = ref 1.0 in
  let json_workloads =
    List.map
      (fun (name, impl, workloads) ->
        Fmt.pr "%s:@." name;
        let base_nodes = ref 0 in
        let rows =
          List.map
            (fun (ename, options) ->
              let g0 = Gc.minor_words () in
              let t0 = Unix.gettimeofday () in
              (* dedup_threshold 0: these trees are the object of study, so
                 pruning is active from the root in every config *)
              let s =
                Explore.run impl ~workloads ~options ~dedup_threshold:0 ()
              in
              let wall = Unix.gettimeofday () -. t0 in
              let mwpn =
                if s.Explore.nodes > 0 then
                  (Gc.minor_words () -. g0) /. float_of_int s.Explore.nodes
                else 0.0
              in
              if String.equal ename "exact" then base_nodes := s.Explore.nodes;
              let cut =
                if s.Explore.nodes = 0 then 1.0
                else float_of_int !base_nodes /. float_of_int s.Explore.nodes
              in
              let nodes_per_s =
                if wall > 0.0 then float_of_int s.Explore.nodes /. wall else 0.0
              in
              Fmt.pr
                "  %-22s %9d nodes %8d leaves %8d pruned %9.3f ms %12.0f \
                 nodes/s %7.1f mw/node (nodes x%.2f vs exact)@."
                ename s.Explore.nodes s.Explore.leaves s.Explore.pruned
                (wall *. 1e3) nodes_per_s mwpn cut;
              ( (ename, s, cut),
                Fmt.str
                  {|        {"engine": %S, "nodes": %d, "leaves": %d, "pruned": %d, "sleep_skips": %d, "max_events": %d, "wall_s": %.6f, "nodes_per_s": %.0f, "minor_words_per_node": %.1f, "node_cut_vs_exact": %.3f}|}
                  ename s.Explore.nodes s.Explore.leaves s.Explore.pruned
                  s.Explore.sleep_skips s.Explore.max_events wall nodes_per_s
                  mwpn cut ))
            (cx_engines ())
        in
        List.iter
          (fun ((ename, s, cut), _) ->
            if String.equal ename "symmetric" then begin
              if s.Explore.nodes > !base_nodes then
                fail "%s: symmetry increased nodes (%d > %d)" name
                  s.Explore.nodes !base_nodes;
              if impl.Implementation.procs >= 3 && cut > !best_cut then
                best_cut := cut
            end)
          rows;
        Fmt.str "    {\"name\": %S, \"engines\": [\n%s\n    ]}" name
          (String.concat ",\n" (List.map snd rows)))
      (cx_workloads ())
  in
  if !best_cut < 2.0 then
    fail
      "no >=3-process symmetric workload reached a 2x node cut (best %.2fx)"
      !best_cut;
  (* verdict parity: the full checker must reach the same verdict under every
     dedup mode *)
  let verdict_str = function
    | Check.Verified _ -> "verified"
    | Check.Falsified _ -> "falsified"
    | Check.Unknown _ -> "unknown"
  in
  Fmt.pr "verdict parity (Check.verify under each dedup mode):@.";
  let json_verdicts =
    List.map
      (fun (name, impl, expected) ->
        let verdicts =
          List.map
            (fun (ename, engine) ->
              (ename, verdict_str (Check.verify ~engine impl)))
            (cx_engines ())
        in
        List.iter
          (fun (ename, v) ->
            if not (String.equal v expected) then
              fail "%s: %s verdict %S, expected %S" name ename v expected)
          verdicts;
        Fmt.pr "  %-24s %s@." name
          (String.concat " "
             (List.map (fun (e, v) -> Fmt.str "%s=%s" e v) verdicts));
        Fmt.str {|    {"name": %S, "expected": %S, "verdicts": {%s}}|} name
          expected
          (String.concat ", "
             (List.map (fun (e, v) -> Fmt.str "%S: %S" e v) verdicts)))
      (cx_verdict_guards ())
  in
  let probe_pairs, probe_legacy, probe_new = cx_collision_probe () in
  Fmt.pr
    "hash collision probe (120 permuted 5-chains, %d pairs): legacy %d \
     colliding, current %d@."
    probe_pairs probe_legacy probe_new;
  if probe_new >= probe_legacy && probe_legacy > 0 then
    fail "hash mixing no better than legacy (%d >= %d colliding pairs)"
      probe_new probe_legacy;
  let json =
    Fmt.str
      "{\n\
      \  \"schema\": \"wfc-bench-compact/3\",\n\
       %s\n\
      \  \"workloads\": [\n\
       %s\n\
      \  ],\n\
      \  \"verdict_guards\": [\n\
       %s\n\
      \  ],\n\
      \  \"collision_probe\": {\"pairs\": %d, \"legacy_colliding\": %d, \
       \"current_colliding\": %d}\n\
       }\n"
      (host_header ~skipped:[])
      (String.concat ",\n" json_workloads)
      (String.concat ",\n" json_verdicts)
      probe_pairs probe_legacy probe_new
  in
  let oc = open_out "BENCH_compact.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote BENCH_compact.json@.";
  List.iter (fun s -> Fmt.pr "GUARD FAILED: %s@." s) !guard_failures;
  !guard_failures = []

(* --- RS: resilience — resumed-verdict parity and checkpoint overhead --------

   Two guards for the checkpoint/resume machinery, dumped as BENCH_resume.json.
   Parity: a verify interrupted by a small node budget and resumed from its
   checkpoint until it finishes must reach the same verdict as the one-shot
   run; execution totals may differ only by the bounded duplicate re-emissions
   at segment boundaries (and frontier-order dedup). Overhead: arming a
   checkpoint whose interval never elapses must not slow exploration down. *)

let resume_report () =
  Fmt.pr "==== RS resilience (checkpoint/resume) ====@.";
  let guard_failures = ref [] in
  let fail fmt =
    Fmt.kstr (fun s -> guard_failures := s :: !guard_failures) fmt
  in
  let verdict_str = function
    | Check.Verified _ -> "verified"
    | Check.Falsified _ -> "falsified"
    | Check.Unknown _ -> "unknown"
  in
  (* parity guard: cas3 under a 500-node budget takes many segments.  The
     verdict must match the plain one-shot run; execution totals are compared
     against a checkpoint-armed one-shot (arming a checkpoint switches the
     engine into frontier mode, whose traversal order dedups differently), so
     the only remaining delta is the bounded duplicate re-emission at segment
     boundaries *)
  let impl = Protocols.from_cas ~procs:3 () in
  let reference = Check.verify ~engine:Explore.fast impl in
  (match reference with
  | Check.Verified _ -> ()
  | v -> fail "cas3 one-shot run was %s, expected verified" (verdict_str v));
  let path = Filename.temp_file "wfc_rs" ".ck" in
  let armed_ref =
    Check.verify ~engine:Explore.fast ~checkpoint:(path, 3600.) impl
  in
  let ref_execs =
    match armed_ref with
    | Check.Verified r -> r.Check.executions
    | v ->
      fail "cas3 checkpoint-armed one-shot was %s, expected verified"
        (verdict_str v);
      0
  in
  let rec go resume segments =
    if segments > 500 then begin
      fail "resume loop did not converge within 500 segments";
      (reference, segments)
    end
    else
      match
        Check.verify ~engine:Explore.fast ~budget:500
          ~checkpoint:(path, 3600.) ?resume impl
      with
      | Check.Unknown _ -> (
        match Wfc_sim.Checkpoint.load path with
        | Ok ck -> go (Some ck) (segments + 1)
        | Error e ->
          fail "checkpoint load failed: %s" e;
          (reference, segments))
      | v -> (v, segments)
  in
  let resumed, segments = go None 0 in
  if Sys.file_exists path then Sys.remove path;
  if segments < 1 then
    fail "a 500-node budget did not interrupt the cas3 verify even once";
  if not (String.equal (verdict_str resumed) (verdict_str reference)) then
    fail "verdict parity broken: one-shot %s, resumed %s"
      (verdict_str reference) (verdict_str resumed);
  let res_execs =
    match resumed with Check.Verified r -> r.Check.executions | _ -> 0
  in
  if ref_execs > 0 && res_execs < ref_execs then
    fail "resumed run lost work: armed one-shot %d executions, resumed %d"
      ref_execs res_execs;
  if ref_execs > 0 && res_execs > 3 * ref_execs then
    fail "segment-boundary duplicates unbounded: armed one-shot %d, resumed %d"
      ref_execs res_execs;
  Fmt.pr
    "  cas3 budget-500 resume: %d segments, %d executions (armed one-shot \
     %d), verdicts %s/%s@."
    segments res_execs ref_execs (verdict_str reference) (verdict_str resumed);
  (* overhead guard: E10 universal fetch-and-add, checkpoint armed at a 5 s
     interval that never elapses — only the frontier-mode bookkeeping is
     measured, since both runs walk the same kernel. min-of-9 wall clocks;
     0.5 ms absolute slack absorbs timer noise *)
  let uimpl =
    Universal.construct
      ~target:(Rmw.fetch_add_mod ~ports:2 ~modulus:5)
      ~procs:2 ~cells:10 ()
  in
  let uworkloads =
    [|
      [ Ops.fetch_add 1; Ops.fetch_add 1; Ops.read ];
      [ Ops.fetch_add 2; Ops.read; Ops.fetch_add 1 ];
    |]
  in
  let best f =
    let best_w = ref infinity and last = ref None in
    for _ = 1 to 9 do
      let t0 = Wfc_sim.Monotime.now () in
      let s = f () in
      let w = Wfc_sim.Monotime.now () -. t0 in
      if w < !best_w then best_w := w;
      last := Some s
    done;
    (!best_w, Option.get !last)
  in
  let plain_w, plain_s =
    best (fun () ->
        Explore.run uimpl ~workloads:uworkloads ~options:Explore.fast ())
  in
  let ck_path = Filename.temp_file "wfc_rs_overhead" ".ck" in
  let armed_w, armed_s =
    best (fun () ->
        Explore.run uimpl ~workloads:uworkloads ~options:Explore.fast
          ~checkpoint:(ck_path, 5.0) ())
  in
  if Sys.file_exists ck_path then Sys.remove ck_path;
  let overhead = (armed_w -. plain_w) /. plain_w in
  Fmt.pr
    "  universal-faa checkpoint overhead at 5 s interval: plain %.3f ms (%d \
     nodes), armed %.3f ms (%d nodes), %+.1f%%@."
    (plain_w *. 1e3) plain_s.Explore.nodes (armed_w *. 1e3)
    armed_s.Explore.nodes (overhead *. 100.);
  if overhead > 0.05 && armed_w -. plain_w > 0.0005 then
    fail "checkpoint overhead %.1f%% exceeds the 5%% budget"
      (overhead *. 100.);
  let json =
    Fmt.str
      "{\n\
      \  \"schema\": \"wfc-bench-resume/1\",\n\
       %s\n\
      \  \"parity\": {\"protocol\": \"cas3\", \"budget\": 500, \"segments\": \
       %d, \"one_shot_executions\": %d, \"resumed_executions\": %d, \
       \"one_shot_verdict\": %S, \"resumed_verdict\": %S},\n\
      \  \"overhead\": {\"workload\": \"universal-faa\", \"interval_s\": 5.0, \
       \"plain_wall_s\": %.6f, \"armed_wall_s\": %.6f, \"plain_nodes\": %d, \
       \"armed_nodes\": %d, \"overhead_frac\": %.4f},\n\
      \  \"guards_passed\": %b\n\
       }\n"
      (host_header ~skipped:[])
      segments ref_execs res_execs (verdict_str reference)
      (verdict_str resumed) plain_w armed_w plain_s.Explore.nodes
      armed_s.Explore.nodes overhead
      (!guard_failures = [])
  in
  let oc = open_out "BENCH_resume.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote BENCH_resume.json@.";
  List.iter (fun s -> Fmt.pr "GUARD FAILED: %s@." s) !guard_failures;
  !guard_failures = []

(* --- DS: distributed verification fleet -------------------------------------------------------- *)

(* Scaling of `wfc serve` over forked worker pools, on both transports
   (unix-domain baseline + tcp loopback), dumped as
   BENCH_distributed.json. The workload is cas n=6 (E10-class state space:
   728 vectors, ~11k executions) named via Protocols.of_name so workers can
   rebuild it from the job's meta. Hard guard: every fleet row — including
   every tcp row — must reach the same verdict (and vector count) as
   single-process Check.verify.
   Speedup guard: >= 1.6x at 4 workers, enforced only when the host has
   >= 4 cores — on fewer cores the forked workers time-slice one CPU and
   the numbers measure coordination overhead, not scaling. *)

let distributed_report () =
  Fmt.pr "==== DS distributed fleet (cas n=6 over forked workers) ====@.";
  let guard_failures = ref [] in
  let fail fmt =
    Fmt.kstr (fun s -> guard_failures := s :: !guard_failures) fmt
  in
  let name = "cas" and procs = 6 in
  let impl =
    match Protocols.of_name ~procs name with
    | Ok impl -> impl
    | Error e -> failwith e
  in
  let verdict_str = function
    | Check.Verified _ -> "verified"
    | Check.Falsified _ -> "falsified"
    | Check.Unknown _ -> "unknown"
  in
  let wall f =
    let t0 = Wfc_sim.Monotime.now () in
    let r = f () in
    (Wfc_sim.Monotime.now () -. t0, r)
  in
  let single_wall, single = wall (fun () -> Check.verify impl) in
  let single_vectors, single_execs =
    match single with
    | Check.Verified r -> (r.Check.vectors, r.Check.executions)
    | v ->
      fail "single-process run was %s, expected verified" (verdict_str v);
      (0, 0)
  in
  Fmt.pr "  single process: %.2f s (%d vectors, %d executions)@." single_wall
    single_vectors single_execs;
  let meta = [ ("protocol", name); ("procs", string_of_int procs) ] in
  (* the same run over both transports: unix-domain is the scaling
     baseline; tcp loopback prices the real wire (framing, NODELAY,
     kernel TCP) and guards verdict parity over the network path *)
  let run_fleet ~transport workers =
    let addr =
      match transport with
      | "unix" ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Fmt.str "wfc-ds-%d-%d.sock" (Unix.getpid ()) workers)
      | _ -> Fmt.str "tcp:127.0.0.1:%d" (42800 + (Unix.getpid () mod 1000) + workers)
    in
    let pids = Wfc_fleet.Local.spawn ~addr workers in
    (* one shard per input vector: a 100k quantum never cuts cas n=6's
       per-vector trees, so the 728 independent vectors are the unit of
       parallelism and splits only happen via work-stealing — splitting
       below that grain loses per-shard dedup and costs more than it
       buys *)
    let config =
      Wfc_fleet.Coordinator.config ~quantum:100_000 ~local_grace_s:10. addr
    in
    let w, (verdict, stats) =
      wall (fun () -> Wfc_fleet.Coordinator.serve ~meta ~config impl)
    in
    Wfc_fleet.Local.shutdown pids;
    (match verdict with
    | Check.Verified r when r.Check.vectors = single_vectors -> ()
    | Check.Verified r ->
      fail "%d-worker %s fleet checked %d vectors, single process %d" workers
        transport r.Check.vectors single_vectors
    | v ->
      fail "%d-worker %s fleet was %s, single process %s" workers transport
        (verdict_str v) (verdict_str single));
    let speedup = single_wall /. w in
    Fmt.pr
      "  %d workers (%s): %.2f s (%.2fx), %d shards, %d splits, %d steals, \
       %d lease misses, %d reattaches@."
      workers transport w speedup stats.Wfc_fleet.Coordinator.shards_run
      stats.Wfc_fleet.Coordinator.splits stats.Wfc_fleet.Coordinator.steals
      stats.Wfc_fleet.Coordinator.lease_misses
      stats.Wfc_fleet.Coordinator.reattaches;
    (transport, workers, w, speedup, verdict_str verdict, stats)
  in
  let rows =
    List.map (run_fleet ~transport:"unix") [ 2; 4; 8 ]
    @ List.map (run_fleet ~transport:"tcp") [ 2; 4 ]
  in
  let cores = Domain.recommended_domain_count () in
  let enforce = cores >= 4 in
  (match
     List.find_opt (fun (t, w, _, _, _, _) -> t = "unix" && w = 4) rows
   with
  | Some (_, _, _, speedup, _, _) when enforce ->
    if speedup < 1.6 then
      fail "4-worker speedup %.2fx below the 1.6x floor (%d cores)" speedup
        cores
  | Some (_, _, _, speedup, _, _) ->
    Fmt.pr
      "  (speedup guard skipped: %d effective core(s) — %.2fx at 4 workers \
       measures time-slicing, not scaling)@."
      cores speedup
  | None -> fail "no 4-worker row");
  let json =
    Fmt.str
      "{\n\
      \  \"schema\": \"wfc-bench-distributed/2\",\n\
       %s\n\
      \  \"workload\": {\"protocol\": %S, \"procs\": %d, \"vectors\": %d, \
       \"executions\": %d},\n\
      \  \"single_wall_s\": %.3f,\n\
      \  \"fleets\": [%s\n  ],\n\
      \  \"speedup_guard_enforced\": %b,\n\
      \  \"guards_passed\": %b\n\
       }\n"
      (host_header
         ~skipped:
           (if enforce then []
            else
              [
                Fmt.str
                  "4-worker speedup guard: %d effective core(s) measures \
                   time-slicing, not scaling"
                  cores;
              ]))
      name procs single_vectors single_execs single_wall
      (String.concat ","
         (List.map
            (fun (transport, workers, w, speedup, verdict, stats) ->
              Fmt.str
                "\n\
                \    {\"transport\": %S, \"workers\": %d, \"wall_s\": %.3f, \
                 \"speedup\": %.2f, \"verdict\": %S, \"shards\": %d, \
                 \"splits\": %d, \"steals\": %d, \"lease_misses\": %d, \
                 \"reattaches\": %d}"
                transport workers w speedup verdict
                stats.Wfc_fleet.Coordinator.shards_run
                stats.Wfc_fleet.Coordinator.splits
                stats.Wfc_fleet.Coordinator.steals
                stats.Wfc_fleet.Coordinator.lease_misses
                stats.Wfc_fleet.Coordinator.reattaches)
            rows))
      enforce
      (!guard_failures = [])
  in
  let oc = open_out "BENCH_distributed.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote BENCH_distributed.json@.";
  List.iter (fun s -> Fmt.pr "GUARD FAILED: %s@." s) !guard_failures;
  !guard_failures = []

(* --- SV: hardware serving throughput (lib/serve) ------------------------------

   Drives the paper's constructions as services over real Atomic.t/Domain
   primitives, dumped as BENCH_serve.json. Each row is one Driver.run — a
   ⟨construction, cell backend, workload mix⟩ triple — reporting sustained
   ops/sec and HDR-bucketed latency percentiles, with every k-th session
   spot-checked by the linearizability engine against the construction's
   target spec. Three guard families:

   - verdicts: every row must serve with zero failures and every sampled
     window linearizable; mutex and CAS backends must agree per scenario
     (the verdict-parity assert the CI smoke step relies on);
   - ticks: Runtime.run (which stamps every op) is timed under the global
     fetch-and-add scheme vs the sharded epoch scheme. The "sharded beats
     global" guard needs real parallelism to mean anything — the global
     counter only serializes when domains actually contend — so below 4
     cores it is recorded as skipped, not silently passed;
   - regression (--check): the register-chain/cas/equal row's ops/sec is
     compared against the committed baseline, enforced only when the host
     has >= 3 cores AND matches the baseline's recorded core count (an
     ops/sec comparison across different hardware is noise). *)

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
         if
           contains l {|"construction": "register-chain"|}
           && contains l {|"backend": "cas"|}
           && contains l {|"mix": "equal"|}
         then
           match float_field l "ops_per_sec" with
           | Some v -> nps := Some v
           | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    match (!cores, !nps) with Some c, Some v -> Some (c, v) | _ -> None

let serve_report ?(check = false) ?(smoke = false) () =
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
    (if smoke then "smoke" else if check then "regression check" else "full")
    cores;
  let domains = 2 in
  let sessions = if smoke then 6 else 48 in
  let check_every = if smoke then 3 else 8 in
  let scenarios =
    if smoke then
      [
        Workload.register_chain ~domains ~ops_per_proc:8;
        Workload.one_use_array ~domains;
        Workload.universal_faa ~domains ~ops_per_proc:3;
      ]
    else Workload.all ~domains
  in
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
  let tick_ops = if smoke then 200 else 2000 in
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
  let sweep_domains =
    List.filter (fun d -> d <= 4 || d <= cores) (if smoke then [ 1; 2 ] else [ 1; 2; 4 ])
  in
  let json_sweep =
    List.map
      (fun d ->
        let w =
          Workload.register_chain ~domains:d
            ~ops_per_proc:(if smoke then 8 else 32)
        in
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
          (fun l ->
            if
              contains l {|"construction": "register-chain"|}
              && contains l {|"backend": "cas"|}
              && contains l {|"mix": "equal"|}
            then float_field l "ops_per_sec"
            else None)
          json_rows
      in
      match current with
      | None -> fail "sv --check produced no register-chain/cas/equal row"
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
  else if not smoke then begin
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

let ex =
  let impl = Protocols.from_cas ~procs:3 () in
  let workloads =
    [|
      [ Ops.propose Value.truth ];
      [ Ops.propose Value.falsity ];
      [ Ops.propose Value.truth ];
    |]
  in
  let bench options () = ignore (Explore.run impl ~workloads ~options ()) in
  Test.make_grouped ~name:"EX exploration engine (cas n=3 consensus tree)"
    [
      Test.make ~name:"naive DFS" (staged (bench Explore.naive));
      Test.make ~name:"dedup"
        (staged (bench { Explore.naive with Explore.dedup = Exact }));
      Test.make ~name:"por"
        (staged (bench { Explore.naive with Explore.por = true }));
      Test.make ~name:"fast (dedup+por)" (staged (bench Explore.fast));
    ]

(* --- E12: multicore -------------------------------------------------------------------------- *)

let e12 =
  Test.make_grouped ~name:"E12 multicore (per batch of 5 trials)"
    [
      Test.make ~name:"sticky n=4, 5 agreement trials"
        (staged (fun () ->
             ignore
               (Wfc_multicore.Runtime.consensus_trials
                  ~make:(fun () -> Protocols.from_sticky ~procs:4 ())
                  ~trials:5 ())));
    ]

(* --- linearizability checker scaling ----------------------------------------------------------- *)

let checker =
  let history n =
    List.init n (fun i ->
        let write = i mod 2 = 0 in
        {
          Wfc_sim.Exec.proc = i mod 2;
          op_index = i / 2;
          inv =
            (if write then Ops.write (Value.bool (i mod 4 = 0)) else Ops.read);
          resp = (if write then Ops.ok else Value.bool (i mod 4 = 3));
          start_step = 2 * i;
          end_step = (2 * i) + 3;
          steps = 2;
        })
  in
  let spec = Register.bit ~ports:2 in
  Test.make_grouped ~name:"linearizability checker"
    [
      Test.make ~name:"8-op history"
        (staged (fun () ->
             ignore (Wfc_linearize.Linearizability.check ~spec (history 8))));
      Test.make ~name:"14-op history"
        (staged (fun () ->
             ignore (Wfc_linearize.Linearizability.check ~spec (history 14))));
    ]

let usage () =
  Fmt.epr
    "usage: main.exe [GROUP [FLAG]]@.\n\
     groups (no group runs the full suite):@.\
    \  fi             fault injection (BENCH_faults.json)@.\
    \  lz             linearizability engines (BENCH_linearize.json)@.\
    \  ex [--check]   exploration engines (BENCH_explore.json; --check \
     compares the committed baseline instead of rewriting it)@.\
    \  cx             state-space compaction (BENCH_compact.json)@.\
    \  rs             checkpoint/resume resilience (BENCH_resume.json)@.\
    \  ds             distributed verification fleet \
     (BENCH_distributed.json)@.\
    \  sv [--check|--smoke]  hardware serving throughput \
     (BENCH_serve.json; --smoke runs tiny op counts and writes nothing)@."

let () =
  (* `bench/main.exe GROUP` runs one report (the CI steps); an unrecognized
     group is a usage error, exit 2, so a workflow typo can never
     silently run the multi-minute full suite instead *)
  (if Array.length Sys.argv > 1 then
     let flag name =
       Array.length Sys.argv > 2 && String.equal Sys.argv.(2) name
     in
     match Sys.argv.(1) with
     | "fi" ->
       fault_injection_report ();
       exit 0
     | "lz" -> exit (if linearize_engine_report () then 0 else 1)
     | "ex" ->
       (* `ex` regenerates BENCH_explore.json; `ex --check` compares against
          the committed baseline instead of rewriting it *)
       exit (if explore_engine_report ~check:(flag "--check") () then 0 else 1)
     | "cx" -> exit (if compact_report () then 0 else 1)
     | "rs" -> exit (if resume_report () then 0 else 1)
     | "ds" -> exit (if distributed_report () then 0 else 1)
     | "sv" ->
       exit
         (if serve_report ~check:(flag "--check") ~smoke:(flag "--smoke") ()
          then 0
          else 1)
     | g ->
       Fmt.epr "main.exe: unknown group %S@." g;
       usage ();
       exit 2);
  shape_facts ();
  if not (explore_engine_report ~check:false ()) then exit 1;
  fault_injection_report ();
  if not (linearize_engine_report ()) then exit 1;
  if not (compact_report ()) then exit 1;
  if not (resume_report ()) then exit 1;
  if not (distributed_report ()) then exit 1;
  if not (serve_report ()) then exit 1;
  Fmt.pr "==== timings (bechamel, OLS per-run estimates) ====@.";
  List.iter
    (fun t ->
      Fmt.pr "@.%s:@." (Test.name t);
      run_test t)
    [ e1; e2; e3; e4; e5; e7; e8; e9_e11; e10; e13; e15; ex; e12; checker ]
