(* The serving layer (lib/serve): histogram bucket math as properties,
   tick-soundness invariants on real sharded-stamp histories, and the
   driver's spot-check loop — both accepting correct service and rejecting
   a wrong abstraction claim. *)

open Wfc_spec
open Wfc_zoo
module H = Wfc_serve.Histogram
module Tick = Wfc_multicore.Tick
module Runtime = Wfc_multicore.Runtime
module Cells = Wfc_multicore.Cells

(* --- histogram bucket math -------------------------------------------------

   The recording path never stores raw values, so everything reported rests
   on the bucket maps: [index_of] must be a monotone surjection onto
   [0, buckets), [value_of_index] its lower-bound inverse, and every bucket
   at most 1/32 of its lower bound wide (values below 32 are exact). *)

let nat =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      frequency
        [
          (3, int_range 0 200);
          (3, int_range 0 100_000);
          (2, int_range 0 1_000_000_000);
          (1, map abs int);
        ])

let prop_bucket_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"bucket round trip brackets the value"
    nat (fun v ->
      let i = H.index_of v in
      i >= 0 && i < H.buckets
      && H.value_of_index i <= v
      && (i + 1 >= H.buckets || v < H.value_of_index (i + 1))
      && H.index_of (H.value_of_index i) = i)

let prop_bucket_monotone =
  QCheck.Test.make ~count:1000 ~name:"bucket index is monotone"
    (QCheck.pair nat nat) (fun (a, b) ->
      let a, b = (min a b, max a b) in
      H.index_of a <= H.index_of b)

let prop_bucket_width =
  QCheck.Test.make ~count:1000 ~name:"bucket width is <= 1/32 of lower bound"
    nat (fun v ->
      let i = H.index_of v in
      QCheck.assume (i + 1 < H.buckets);
      let lo = H.value_of_index i and hi = H.value_of_index (i + 1) in
      if v < 32 then hi - lo = 1 else hi - lo <= max 1 (lo / 32))

let pos_list = QCheck.list_of_size QCheck.Gen.(int_range 1 400) nat
let quantile = QCheck.float_range 0.0 1.0

let prop_percentile_vs_exact =
  QCheck.Test.make ~count:500
    ~name:"percentile lands in the exact order statistic's bucket"
    (QCheck.pair pos_list quantile) (fun (vs, q) ->
      QCheck.assume (vs <> []);
      let t = H.make () in
      List.iter (H.record t) vs;
      let sorted = List.sort compare vs in
      let n = List.length vs in
      let rank =
        let r = int_of_float (ceil (q *. float_of_int n)) in
        if r < 1 then 1 else if r > n then n else r
      in
      let exact = List.nth sorted (rank - 1) in
      let p = H.percentile t q in
      p <= exact && H.index_of p = H.index_of exact)

let prop_percentile_monotone =
  QCheck.Test.make ~count:500 ~name:"percentile is monotone in q"
    (QCheck.triple pos_list quantile quantile) (fun (vs, q1, q2) ->
      QCheck.assume (vs <> []);
      let t = H.make () in
      List.iter (H.record t) vs;
      let q1, q2 = (min q1 q2, max q1 q2) in
      H.percentile t q1 <= H.percentile t q2
      && H.percentile t 0.0 = H.min_ns t
      (* percentiles report bucket lower bounds: p100 is the max's bucket,
         not the max itself *)
      && H.index_of (H.percentile t 1.0) = H.index_of (H.max_ns t))

let prop_merge_is_concat =
  QCheck.Test.make ~count:500 ~name:"merge equals recording the concatenation"
    (QCheck.pair pos_list pos_list) (fun (xs, ys) ->
      let a = H.make () and b = H.make () and c = H.make () in
      List.iter (H.record a) xs;
      List.iter (H.record b) ys;
      List.iter (H.record c) (xs @ ys);
      let m = H.merged [ a; b ] in
      H.count m = H.count c
      && H.min_ns m = H.min_ns c
      && H.max_ns m = H.max_ns c
      && List.for_all
           (fun q -> H.percentile m q = H.percentile c q)
           [ 0.0; 0.5; 0.9; 0.99; 0.999; 1.0 ])

(* --- tick soundness on real histories --------------------------------------

   The sharded epoch scheme may coarsen stamps (ties) but must never invert
   them: a history produced by Runtime.run under sharded ticks has to pass
   the same structural sanity Spotcheck enforces on serving windows, and
   still be accepted by the linearizability checker. *)

let chain_impl procs =
  Wfc_registers.Multi_writer.atomic_mrmw ~writers:procs ~extra_readers:0
    ~init:(Value.int 0) ()

let chain_workloads procs per =
  Array.init procs (fun p ->
      List.init per (fun i ->
          if (i + p) mod 2 = 0 then Ops.write (Value.int ((100 * p) + i))
          else Ops.read))

let prop_sharded_ticks_sane =
  QCheck.Test.make ~count:12 ~name:"sharded-tick histories pass tick sanity"
    (QCheck.pair (QCheck.int_range 1 8) (QCheck.int_bound 1000))
    (fun (epoch_every, seed) ->
      let procs = 3 in
      let o =
        Runtime.run ~seed ~backend:Cells.Atomic_cas
          ~tick:(Tick.sharded ~epoch_every ()) (chain_impl procs)
          ~workloads:(chain_workloads procs 12) ()
      in
      match Wfc_serve.Spotcheck.tick_sane o.Runtime.ops with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_reportf "tick sanity: %s" m)

let test_sharded_history_linearizable () =
  let procs = 3 in
  let impl = chain_impl procs in
  let o =
    Runtime.run ~seed:7 ~backend:Cells.Atomic_cas
      ~tick:(Tick.sharded ~epoch_every:4 ()) impl
      ~workloads:(chain_workloads procs 10) ()
  in
  match Wfc_serve.Spotcheck.check_window impl o.Runtime.ops with
  | Ok () -> ()
  | Error m -> Alcotest.failf "sharded history rejected: %s" m

let test_tick_sane_rejects_inversion () =
  (* two ops of one process whose stamps run backwards — the failure mode
     an unsound (per-domain block) tick scheme would produce *)
  let op i st en =
    {
      Wfc_sim.Exec.proc = 0;
      op_index = i;
      inv = Ops.read;
      resp = Value.int 0;
      start_step = st;
      end_step = en;
      steps = 1;
    }
  in
  (match Wfc_serve.Spotcheck.tick_sane [ op 0 5 6; op 1 2 3 ] with
  | Ok () -> Alcotest.fail "inverted program-order stamps accepted"
  | Error _ -> ());
  match Wfc_serve.Spotcheck.tick_sane [ op 0 4 2 ] with
  | Ok () -> Alcotest.fail "end < start accepted"
  | Error _ -> ()

(* --- the serving driver ----------------------------------------------------- *)

(* The serving smoke matrix: every construction × both cell backends ×
   both mixes at tiny op counts, every third session spot-checked. Every
   sampled window must pass, and the two backends must agree on what they
   served. *)
let test_driver_serves_ok () =
  let module W = Wfc_serve.Workload in
  let module D = Wfc_serve.Driver in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (mix, workloads) ->
          let name = Fmt.str "%s/%s" w.W.name mix in
          let served backend =
            let o =
              D.run ~backend ~sessions:6 ~check_every:3
                ~check:(w.W.check_spec, w.W.check_init)
                ?port_of:w.W.port_of w.W.impl ~workloads ()
            in
            Alcotest.(check (option string)) (name ^ ": no failure") None
              o.D.failure;
            Alcotest.(check int) (name ^ ": windows checked") 2
              o.D.windows_checked;
            Alcotest.(check int) (name ^ ": windows ok") 2 o.D.windows_ok;
            Alcotest.(check int) (name ^ ": every op served")
              (6 * W.session_ops workloads)
              o.D.total_ops;
            Alcotest.(check int) (name ^ ": latency recorded per op")
              o.D.total_ops (H.count o.D.hist);
            (o.D.failure, o.D.windows_ok, o.D.total_ops)
          in
          Alcotest.(check bool) (name ^ ": mutex and CAS backends agree") true
            (served Cells.Mutex_cells = served Cells.Atomic_cas))
        [ ("equal", w.W.equal); ("skewed", w.W.skewed) ])
    [
      W.register_chain ~domains:2 ~ops_per_proc:8;
      W.one_use_array ~domains:2;
      W.universal_faa ~domains:2 ~ops_per_proc:3;
    ]

let test_driver_one_use_sessions () =
  (* every session re-spends the full one-use budget: without the barrier
     reset, session 2's first write would raise on a spent bit *)
  let w = Wfc_serve.Workload.one_use_array ~domains:2 in
  let o =
    Wfc_serve.Driver.run ~backend:Cells.Atomic_cas ~sessions:4 ~check_every:1
      ~check:(w.Wfc_serve.Workload.check_spec, w.Wfc_serve.Workload.check_init)
      ?port_of:w.Wfc_serve.Workload.port_of w.Wfc_serve.Workload.impl
      ~workloads:w.Wfc_serve.Workload.equal ()
  in
  Alcotest.(check (option string)) "no failure" None o.Wfc_serve.Driver.failure;
  Alcotest.(check int) "all windows ok" o.Wfc_serve.Driver.windows_checked
    o.Wfc_serve.Driver.windows_ok

let test_driver_catches_wrong_abstraction () =
  (* serve a perfectly good register but claim it abstracts to 999: a
     read-only window can only ever observe the real initial value, so the
     very first spot-check must refute the claim — this is the evidence
     that the sampling loop actually checks something *)
  let w = Wfc_serve.Workload.register_chain ~domains:2 ~ops_per_proc:4 in
  let o =
    Wfc_serve.Driver.run ~backend:Cells.Atomic_cas ~sessions:2 ~check_every:1
      ~check:(w.Wfc_serve.Workload.check_spec, Value.int 999)
      w.Wfc_serve.Workload.impl
      ~workloads:[| [ Ops.read; Ops.read ]; [ Ops.read; Ops.read ] |] ()
  in
  match o.Wfc_serve.Driver.failure with
  | Some _ -> ()
  | None -> Alcotest.fail "wrong abstract initial state served as OK"

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "wfc_serve"
    [
      ( "histogram buckets",
        qsuite
          [
            prop_bucket_roundtrip;
            prop_bucket_monotone;
            prop_bucket_width;
            prop_percentile_vs_exact;
            prop_percentile_monotone;
            prop_merge_is_concat;
          ] );
      ( "tick soundness",
        qsuite [ prop_sharded_ticks_sane ]
        @ [
            Alcotest.test_case "sharded history linearizable" `Quick
              test_sharded_history_linearizable;
            Alcotest.test_case "tick sanity rejects inversions" `Quick
              test_tick_sane_rejects_inversion;
          ] );
      ( "driver",
        [
          Alcotest.test_case "serves and spot-checks OK" `Quick
            test_driver_serves_ok;
          Alcotest.test_case "one-use budget per session" `Quick
            test_driver_one_use_sessions;
          Alcotest.test_case "catches a wrong abstraction claim" `Quick
            test_driver_catches_wrong_abstraction;
        ] );
    ]
