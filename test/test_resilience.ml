(* E13 — resilience of long-running verification: checkpoint/resume with
   completeness stitched across segments, the capped dedup table, and total
   (never-raising) parsing of the witness/checkpoint text codecs. *)

open Wfc_spec
open Wfc_zoo
open Wfc_consensus
module Explore = Wfc_sim.Explore
module Checkpoint = Wfc_sim.Checkpoint
module Faults = Wfc_sim.Faults
module Witness = Wfc_sim.Witness
module Monotime = Wfc_sim.Monotime

let cas3 () = Protocols.from_cas ~procs:3 ()

let workloads3 =
  [|
    [ Ops.propose Value.truth ];
    [ Ops.propose Value.falsity ];
    [ Ops.propose Value.truth ];
  |]

let temp_ck () = Filename.temp_file "wfc_resilience" ".ck"

let completeness_of (s : Explore.stats) = s.Explore.completeness

(* --- monotonic time -------------------------------------------------------- *)

let test_monotime_nondecreasing () =
  let t0 = Monotime.now () in
  Alcotest.(check bool) "positive" true (t0 > 0.);
  let prev = ref t0 in
  for _ = 1 to 10_000 do
    let t = Monotime.now () in
    if t < !prev then Alcotest.failf "clock went backwards: %f < %f" t !prev;
    prev := t
  done

(* --- checkpoint codec ------------------------------------------------------ *)

let sample_trace =
  [
    { Faults.proc = 0; kind = Faults.Step 1 };
    { Faults.proc = 1; kind = Faults.Crash };
    { Faults.proc = 0; kind = Faults.Glitch 0 };
    { Faults.proc = 1; kind = Faults.Recover };
    { Faults.proc = 2; kind = Faults.Wedge };
  ]

let sample_checkpoint () =
  let faults =
    {
      Faults.max_crashes = 1;
      max_recoveries = 1;
      max_glitches = 2;
      degraded =
        [
          (0, Faults.Stale_reads 2);
          (1, Faults.Safe_reads [ Value.truth; Value.falsity ]);
        ];
    }
  in
  let counts =
    {
      Checkpoint.leaves = 42;
      nodes = 999;
      max_events = 12;
      max_op_steps = 3;
      max_accesses = [| 4; 5 |];
      overflows = 0;
      pruned = 7;
      sleep_skips = 1;
      evictions = 1;
    }
  in
  Checkpoint.make
    ~meta:[ ("protocol", "cas"); ("check.vector", "3") ]
    ~engine:{ Checkpoint.dedup = Checkpoint.Exact; por = false }
    ~fuel:10_000 ~budget_left:1234 ~faults
    ~workloads:
      [|
        [ Ops.propose Value.truth ];
        [];
        [ Ops.propose Value.falsity; Ops.propose Value.truth ];
      |]
    ~counts
    ~frontier:[ sample_trace; []; [ { Faults.proc = 1; kind = Faults.Step 0 } ] ]
    ()

let test_checkpoint_roundtrip () =
  let ck = sample_checkpoint () in
  let s = Checkpoint.to_string ck in
  match Checkpoint.of_string s with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok ck' ->
    Alcotest.(check string) "canonical form stable" s (Checkpoint.to_string ck');
    Alcotest.(check int) "leaves" 42 ck'.Checkpoint.counts.Checkpoint.leaves;
    Alcotest.(check int) "frontier size" 3 (List.length ck'.Checkpoint.frontier);
    Alcotest.(check (option string))
      "meta preserved" (Some "3")
      (Checkpoint.meta_find ck' "check.vector")

let test_checkpoint_digest_rejects_tampering () =
  let s = Checkpoint.to_string (sample_checkpoint ()) in
  (* corrupt one payload character (a count digit), keeping the digest *)
  let tampered = String.map (fun c -> if c = '9' then '8' else c) s in
  (match Checkpoint.of_string tampered with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered body accepted");
  match Checkpoint.of_string "wfc-checkpoint/1\ndigest 00000000\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad digest accepted"

let test_checkpoint_of_string_total () =
  let s = Checkpoint.to_string (sample_checkpoint ()) in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 500 do
    let b = Bytes.of_string s in
    let i = Random.State.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Random.State.int rng 256));
    match Checkpoint.of_string (Bytes.to_string b) with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "of_string raised %s on mutated input at byte %d"
        (Printexc.to_string e) i
  done;
  (* truncations must be rejected, not crash.  Stop at [len - 2]: cutting
     only the trailing newline leaves a syntactically complete checkpoint. *)
  for n = 0 to String.length s - 2 do
    match Checkpoint.of_string (String.sub s 0 n) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" n
    | exception e ->
      Alcotest.failf "of_string raised %s on %d-byte truncation"
        (Printexc.to_string e) n
  done

let test_checkpoint_mismatch_detected () =
  let ck = sample_checkpoint () in
  let same =
    Checkpoint.describe_mismatch ck ~engine:ck.Checkpoint.engine
      ~fuel:ck.Checkpoint.fuel ~faults:ck.Checkpoint.faults
      ~workloads:ck.Checkpoint.workloads
  in
  Alcotest.(check bool) "same problem accepted" true (same = None);
  let wrong_fuel =
    Checkpoint.describe_mismatch ck ~engine:ck.Checkpoint.engine ~fuel:99
      ~faults:ck.Checkpoint.faults ~workloads:ck.Checkpoint.workloads
  in
  Alcotest.(check bool) "fuel mismatch reported" true (wrong_fuel <> None);
  let wrong_workloads =
    Checkpoint.describe_mismatch ck ~engine:ck.Checkpoint.engine
      ~fuel:ck.Checkpoint.fuel ~faults:ck.Checkpoint.faults
      ~workloads:[| [ Ops.propose Value.truth ] |]
  in
  Alcotest.(check bool) "workload mismatch reported" true
    (wrong_workloads <> None);
  let wrong_faults =
    Checkpoint.describe_mismatch ck ~engine:ck.Checkpoint.engine
      ~fuel:ck.Checkpoint.fuel ~faults:Faults.none
      ~workloads:ck.Checkpoint.workloads
  in
  Alcotest.(check bool) "adversary mismatch reported" true (wrong_faults <> None)

(* Every dedup mode survives the text codec, and a resume refuses a
   checkpoint taken under another mode. *)
let test_checkpoint_dedup_modes_roundtrip () =
  let ck = sample_checkpoint () in
  List.iter
    (fun mode ->
      let name = Checkpoint.dedup_to_string mode in
      let ck =
        { ck with Checkpoint.engine = { ck.Checkpoint.engine with dedup = mode } }
      in
      let s = Checkpoint.to_string ck in
      Alcotest.(check bool)
        (name ^ ": engine line names the mode")
        true
        (List.mem
           (Fmt.str "engine dedup=%s por=0" name)
           (String.split_on_char '\n' s));
      match Checkpoint.of_string s with
      | Error e -> Alcotest.failf "%s: round-trip failed: %s" name e
      | Ok ck' ->
        Alcotest.(check string) (name ^ ": mode preserved") name
          (Checkpoint.dedup_to_string ck'.Checkpoint.engine.Checkpoint.dedup);
        Alcotest.(check string) (name ^ ": canonical form stable") s
          (Checkpoint.to_string ck'))
    [ Checkpoint.Off; Checkpoint.Exact; Checkpoint.Symmetric ]

let test_resume_refuses_other_mode () =
  let impl = cas3 () in
  let path = temp_ck () in
  let stats =
    Explore.run impl ~workloads:workloads3 ~options:Explore.fast ~budget:20
      ~checkpoint:(3600., fun ck -> Result.get_ok (Checkpoint.save ck ~path))
      ()
  in
  Alcotest.(check bool) "budget cut the run" true
    (completeness_of stats <> Explore.Exhaustive);
  let ck =
    match Checkpoint.load path with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "checkpoint load failed: %s" e
  in
  Sys.remove path;
  Alcotest.(check string) "checkpoint records the mode" "symmetric"
    (Checkpoint.dedup_to_string ck.Checkpoint.engine.Checkpoint.dedup);
  List.iter
    (fun mode ->
      let options = { Explore.fast with dedup = mode } in
      match
        Explore.run impl ~workloads:workloads3 ~options ~resume_from:ck ()
      with
      | _ ->
        Alcotest.failf "resume under dedup=%s accepted"
          (Checkpoint.dedup_to_string mode)
      | exception Invalid_argument _ -> ())
    [ Explore.Off; Explore.Exact ]

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* A frontier prefix must be a path of the tree, checked decision by
   decision the way [Exec.replay] checks a witness: [p1.x] wedges a process
   that steps fine, [p0.c p0.s0] steps a crashed process, and
   [p0.s0 p1.x p1.s0] wedges one mid-path, and [p0.c p0.r] recovers with no
   recovery budget. Resuming any of them would skip or invent subtrees, so
   each is refused. *)
let test_resume_refuses_bad_frontier () =
  let impl = Protocols.from_cas ~procs:2 () in
  let faults = Faults.crashes 1 in
  let workloads =
    match List.rev (Check.vectors ~repeat:false impl) with
    | v :: _ -> v.Check.workloads
    | [] -> Alcotest.fail "no input vectors"
  in
  List.iter
    (fun text ->
      let trace =
        match Faults.trace_of_string text with
        | Ok tr -> tr
        | Error e -> Alcotest.fail e
      in
      let ck =
        Checkpoint.make ~engine:Explore.fast ~fuel:Explore.default_fuel ~faults
          ~workloads
          ~counts:
            (Checkpoint.zero_counts
               ~n_objs:(Array.length impl.Wfc_program.Implementation.objects))
          ~frontier:[ trace ] ()
      in
      match
        Explore.run impl ~workloads ~faults ~options:Explore.fast
          ~resume_from:ck ()
      with
      | s ->
        Alcotest.failf "frontier %S resumed to %d nodes, %d leaves" text
          s.Explore.nodes s.Explore.leaves
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Fmt.str "%S refused: %s" text msg)
          true
          (contains msg "cannot resume"))
    [ "p1.x"; "p0.c p0.s0"; "p0.s0 p1.x p1.s0"; "p0.c p0.r" ]

let test_checkpoint_missing_directory () =
  (* a path in a missing directory is refused by name before any search,
     and a save that fails, at the open or at the rename, leaves no .tmp
     file behind *)
  let dir = Filename.temp_file "wfc_resilience" ".dir" in
  Sys.remove dir;
  let path = Filename.concat dir "ck.txt" in
  (match Checkpoint.check_path path with
  | Ok () -> Alcotest.fail "a missing directory was accepted"
  | Error e -> Alcotest.(check bool) "names the directory" true (contains e dir));
  Alcotest.(check bool) "an existing directory is accepted" true
    (Checkpoint.check_path
       (Filename.concat (Filename.get_temp_dir_name ()) "ck.txt")
    = Ok ());
  (match Checkpoint.save (sample_checkpoint ()) ~path with
  | Ok () -> Alcotest.fail "a save into a missing directory succeeded"
  | Error _ -> ());
  Alcotest.(check bool) "no .tmp after a failed open" false
    (Sys.file_exists (path ^ ".tmp"));
  (* the write succeeds, the rename onto a directory fails *)
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      match Checkpoint.save (sample_checkpoint ()) ~path:dir with
      | Ok () -> Alcotest.fail "a save over a directory succeeded"
      | Error _ ->
        Alcotest.(check bool) "no .tmp after a failed rename" false
          (Sys.file_exists (dir ^ ".tmp")))

(* Files of the earlier formats are refused, and the error names the header
   that was found. *)
let test_checkpoint_legacy_headers_refused () =
  let body =
    match String.split_on_char '\n' (Checkpoint.to_string (sample_checkpoint ())) with
    | _header :: rest -> String.concat "\n" rest
    | [] -> Alcotest.fail "empty checkpoint serialization"
  in
  List.iter
    (fun header ->
      match Checkpoint.of_string (header ^ "\n" ^ body) with
      | Ok _ -> Alcotest.failf "%s file accepted" header
      | Error e ->
        Alcotest.(check bool)
          (Fmt.str "error %S names %s" e header)
          true
          (contains e header))
    [
      "wfc-checkpoint/1"; "wfc-checkpoint/2"; "wfc-checkpoint/3";
      "wfc-checkpoint/4"; "wfc-checkpoint/5";
    ]

let test_checkpoint_meta_validation () =
  match
    Checkpoint.make
      ~meta:[ ("bad key", "v") ]
      ~engine:{ Checkpoint.dedup = Checkpoint.Off; por = false }
      ~fuel:1 ~faults:Faults.none ~workloads:[| [] |]
      ~counts:(Checkpoint.zero_counts ~n_objs:0)
      ~frontier:[] ()
  with
  | _ -> Alcotest.fail "meta key with a space was accepted"
  | exception Invalid_argument _ -> ()

(* --- witness codec: qcheck round-trip + fuzz ------------------------------- *)

let gen_kind =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Faults.Step i) (int_bound 5);
        map (fun i -> Faults.Glitch i) (int_bound 3);
        return Faults.Crash;
        return Faults.Recover;
        return Faults.Wedge;
      ])

let gen_decision =
  QCheck.Gen.(
    map2 (fun p kind -> { Faults.proc = p; kind }) (int_bound 4) gen_kind)

let gen_trace = QCheck.Gen.(list_size (int_bound 24) gen_decision)

let gen_inv =
  QCheck.Gen.(
    oneof
      [
        map (fun b -> Ops.propose (Value.bool b)) bool;
        return Ops.read;
        map (fun i -> Ops.write (Value.int i)) (int_bound 9);
        map (fun i -> Ops.fetch_add i) (int_bound 9);
      ])

let gen_workloads =
  QCheck.Gen.(
    map Array.of_list
      (list_size (int_range 1 4) (list_size (int_bound 3) gen_inv)))

let gen_faults =
  QCheck.Gen.(
    map3
      (fun c r g ->
        {
          Faults.max_crashes = c;
          max_recoveries = r;
          max_glitches = g;
          degraded = (if g > 0 then [ (0, Faults.Stale_reads 1) ] else []);
        })
      (int_bound 2) (int_bound 2) (int_bound 2))

let gen_witness =
  QCheck.Gen.(
    map3
      (fun workloads faults trace -> Witness.make ~workloads ~faults trace)
      gen_workloads gen_faults gen_trace)

let arb_witness =
  QCheck.make ~print:(fun w -> Witness.to_string w) gen_witness

let prop_witness_roundtrip =
  QCheck.Test.make ~count:300 ~name:"witness text codec round-trips"
    arb_witness (fun w ->
      match Witness.of_string (Witness.to_string w) with
      | Ok w' -> String.equal (Witness.to_string w) (Witness.to_string w')
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let prop_witness_of_string_total =
  (* mutate one byte anywhere: the parser may accept or reject, never raise *)
  let arb =
    QCheck.make
      ~print:(fun (w, i, c) ->
        Fmt.str "byte %d -> %C in:@.%s" i c (Witness.to_string w))
      QCheck.Gen.(
        map3 (fun w i c -> (w, i, c)) gen_witness (int_bound 4096) (map Char.chr (int_bound 255)))
  in
  QCheck.Test.make ~count:500 ~name:"witness parser is total under corruption"
    arb (fun (w, i, c) ->
      let s = Witness.to_string w in
      let b = Bytes.of_string s in
      Bytes.set b (i mod Bytes.length b) c;
      match Witness.of_string (Bytes.to_string b) with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let test_witness_targeted_corruption () =
  let w =
    Witness.make
      ~workloads:[| [ Ops.propose Value.truth ]; [ Ops.propose Value.falsity ] |]
      ~faults:(Faults.crashes 1) sample_trace
  in
  let s = Witness.to_string w in
  List.iter
    (fun (what, s') ->
      match Witness.of_string s' with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" what
      | exception e ->
        Alcotest.failf "%s raised %s" what (Printexc.to_string e))
    [
      ("empty input", "");
      ("missing header", "trace p0.s0\n");
      ("wrong version", "wfc-witness/9\ntrace p0.s0\n");
      ("garbage trace token", s ^ "trace p0.q9\n");
      ("malformed workload index", "wfc-witness/1\nworkload x |\n");
    ]

(* --- explore-level checkpoint / resume / interrupt ------------------------- *)

let test_explore_budget_checkpoint_resume () =
  let impl = cas3 () in
  let clean =
    Explore.run impl ~workloads:workloads3 ~options:Explore.naive ()
  in
  let path = temp_ck () in
  let rec go resume_from rounds =
    if rounds > 500 then Alcotest.fail "resume loop did not converge";
    let stats =
      (* the clean naive tree is ~270 nodes: a budget of 60 forces several
         checkpoint/resume segments *)
      Explore.run impl ~workloads:workloads3 ~options:Explore.naive ~budget:60
        ?resume_from
        ~checkpoint:(3600., fun ck -> Result.get_ok (Checkpoint.save ck ~path))
      ()
    in
    match completeness_of stats with
    | Explore.Exhaustive -> (stats, rounds)
    | Explore.Partial _ -> (
      match Checkpoint.load path with
      | Ok ck -> go (Some ck) (rounds + 1)
      | Error e -> Alcotest.failf "checkpoint load failed: %s" e)
  in
  let final, rounds = go None 0 in
  if Sys.file_exists path then Sys.remove path;
  Alcotest.(check bool) "took more than one segment" true (rounds >= 1);
  (* duplicate re-emissions at segment boundaries are allowed, lost work is
     not *)
  Alcotest.(check bool)
    (Fmt.str "no leaves lost (%d vs clean %d)" final.Explore.leaves
       clean.Explore.leaves)
    true
    (final.Explore.leaves >= clean.Explore.leaves);
  Alcotest.(check bool)
    (Fmt.str "duplicates bounded (%d vs clean %d)" final.Explore.leaves
       clean.Explore.leaves)
    true
    (final.Explore.leaves <= 3 * clean.Explore.leaves)

let test_explore_interrupt_flush_and_resume () =
  let impl = cas3 () in
  let path = temp_ck () in
  let flag = Atomic.make true in
  let stats =
    Explore.run impl ~workloads:workloads3 ~options:Explore.naive
      ~interrupt:flag
      ~checkpoint:(3600., fun ck -> Result.get_ok (Checkpoint.save ck ~path))
      ()
  in
  (match completeness_of stats with
  | Explore.Partial Explore.Interrupted -> ()
  | Explore.Exhaustive -> Alcotest.fail "expected Partial Interrupted, got exhaustive"
  | Explore.Partial r ->
    Alcotest.failf "expected Partial Interrupted, got %a"
      Explore.pp_partial_reason r);
  let ck =
    match Checkpoint.load path with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "no final flush: %s" e
  in
  Alcotest.(check bool) "frontier saved" true (ck.Checkpoint.frontier <> []);
  Atomic.set flag false;
  let stats2 =
    Explore.run impl ~workloads:workloads3 ~options:Explore.naive
      ~interrupt:flag ~resume_from:ck ()
  in
  if Sys.file_exists path then Sys.remove path;
  match completeness_of stats2 with
  | Explore.Exhaustive -> ()
  | Explore.Partial _ -> Alcotest.fail "resume after interrupt did not finish"

(* --- memory budget -------------------------------------------------------- *)

(* [mem_budget_mb:0] caps the dedup table at its smallest size, 1,024
   slots, so it is emptied each time it would pass 896 entries. Under two
   crashes and two recoveries, cas n=4 fills it 4 times: the run still
   finishes exhaustively, visits at least what the uncapped run visits,
   and flushes at the same nodes every time. *)
let test_mem_watchdog_evicts_and_finishes () =
  let impl = Protocols.from_cas ~procs:4 () in
  let workloads =
    Array.init 4 (fun i -> [ Ops.propose (Value.bool (i mod 2 = 0)) ])
  in
  let run ?mem_budget_mb () =
    Explore.run impl ~workloads
      ~faults:(Faults.crash_recovery ~crashes:2 ~recoveries:2)
      ~options:Explore.fast ?mem_budget_mb ()
  in
  let deduped = run () in
  let capped = run ~mem_budget_mb:0 () in
  (match completeness_of capped with
  | Explore.Exhaustive -> ()
  | c ->
    Alcotest.failf "a capped table must stay exhaustive, got %a"
      Explore.pp_completeness c);
  Alcotest.(check int) "uncapped: no flush" 0 deduped.Explore.evictions;
  Alcotest.(check int) "flushes at the cap" 4 capped.Explore.evictions;
  Alcotest.(check bool) "revisits, never skips" true
    (capped.Explore.leaves >= deduped.Explore.leaves
    && capped.Explore.nodes >= deduped.Explore.nodes);
  let again = run ~mem_budget_mb:0 () in
  Alcotest.(check (list int)) "deterministic"
    [ capped.Explore.leaves; capped.Explore.nodes; capped.Explore.evictions ]
    [ again.Explore.leaves; again.Explore.nodes; again.Explore.evictions ]

(* --- Check-level: verdict parity across interruption ----------------------- *)

let reference_verdict impl =
  match Check.verify ~engine:Explore.fast impl with
  | Check.Verified r -> r
  | v -> Alcotest.failf "reference run not verified: %a" Check.pp_verdict v

let test_verify_budget_resume_parity () =
  let impl = cas3 () in
  let reference = reference_verdict impl in
  let path = temp_ck () in
  let rec go resume rounds =
    if rounds > 300 then Alcotest.fail "resume loop did not converge";
    match
      Check.verify ~engine:Explore.fast ~budget:500 ~checkpoint:(path, 3600.)
        ?resume impl
    with
    | Check.Unknown _ -> (
      match Checkpoint.load path with
      | Ok ck -> go (Some ck) (rounds + 1)
      | Error e -> Alcotest.failf "checkpoint load failed: %s" e)
    | v -> (v, rounds)
  in
  let verdict, rounds = go None 0 in
  Alcotest.(check bool) "was actually interrupted" true (rounds >= 1);
  Alcotest.(check bool) "checkpoint removed on definitive verdict" false
    (Sys.file_exists path);
  (* an armed one-shot explores what the plain run explores; a resumed
     segment starts with an empty dedup table and empty sleep sets, so the
     resumed totals may exceed it, within a bound *)
  let armed = temp_ck () in
  let armed_reference =
    match Check.verify ~engine:Explore.fast ~checkpoint:(armed, 3600.) impl with
    | Check.Verified r -> r
    | v -> Alcotest.failf "armed one-shot not verified: %a" Check.pp_verdict v
  in
  match verdict with
  | Check.Verified r ->
    Alcotest.(check int) "vector parity" reference.Check.vectors
      r.Check.vectors;
    Alcotest.(check int) "max_events parity" reference.Check.max_events
      r.Check.max_events;
    Alcotest.(check bool) "resumed run lost no executions" true
      (r.Check.executions >= armed_reference.Check.executions);
    Alcotest.(check bool) "segment-boundary duplicates stay within 3x" true
      (r.Check.executions <= 3 * armed_reference.Check.executions)
  | v -> Alcotest.failf "expected Verified after resume, got %a" Check.pp_verdict v

let test_verify_interrupt_resume_parity () =
  let impl = cas3 () in
  let reference = reference_verdict impl in
  let path = temp_ck () in
  let flag = Atomic.make true in
  (match
     Check.verify ~engine:Explore.fast ~checkpoint:(path, 3600.)
       ~interrupt:flag
       ~meta:[ ("protocol", "cas"); ("procs", "3") ]
       impl
   with
  | Check.Unknown { reason; _ } ->
    Alcotest.(check string) "reason" "interrupted" reason
  | v -> Alcotest.failf "expected Unknown, got %a" Check.pp_verdict v);
  let ck =
    match Checkpoint.load path with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "no checkpoint after interrupt: %s" e
  in
  Alcotest.(check (option string))
    "caller meta carried through" (Some "cas")
    (Checkpoint.meta_find ck "protocol");
  Atomic.set flag false;
  (match
     Check.verify ~engine:Explore.fast ~checkpoint:(path, 3600.) ~resume:ck
       ~interrupt:flag impl
   with
  | Check.Verified r ->
    Alcotest.(check int) "vector parity" reference.Check.vectors
      r.Check.vectors
  | v -> Alcotest.failf "expected Verified after resume, got %a" Check.pp_verdict v);
  Alcotest.(check bool) "checkpoint removed" false (Sys.file_exists path)

(* Every vector of cas n=5 under two crashes and two recoveries takes a few
   milliseconds, far below the interval, while the whole run takes many
   intervals: a periodic save must still land while the run goes on, so a
   killed run keeps its progress. A poller interrupts the run as soon as the
   file appears; the file then resumes to a verdict over every vector. *)
let test_verify_periodic_save_across_vectors () =
  let impl = Protocols.from_cas ~procs:5 () in
  let faults = Faults.crash_recovery ~crashes:2 ~recoveries:2 in
  let path = temp_ck () in
  Sys.remove path;
  let interrupt = Atomic.make false in
  let stop = Atomic.make false in
  let poller =
    Domain.spawn (fun () ->
        while not (Atomic.get stop || Sys.file_exists path) do
          Unix.sleepf 0.002
        done;
        Atomic.set interrupt true)
  in
  let verdict =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join poller)
      (fun () ->
        Check.verify ~faults ~checkpoint:(path, 0.05) ~interrupt impl)
  in
  (match verdict with
  | Check.Unknown { reason = "interrupted"; _ } -> ()
  | v ->
    Alcotest.failf "no periodic save while the run went on: %a"
      Check.pp_verdict v);
  let ck =
    match Checkpoint.load path with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "checkpoint unreadable: %s" e
  in
  match Check.verify ~faults ~checkpoint:(path, 3600.) ~resume:ck impl with
  | Check.Verified r ->
    Alcotest.(check int) "every vector checked"
      (List.length (Check.vectors impl))
      r.Check.vectors;
    Alcotest.(check bool) "checkpoint removed" false (Sys.file_exists path)
  | v ->
    Alcotest.failf "expected Verified after resume, got %a" Check.pp_verdict v

(* The ledger a checkpoint carries reads back as it was written, through
   the text format, and a missing key is named. *)
let test_ledger_roundtrip () =
  let ledger =
    {
      Check.vector = 7;
      report =
        {
          Check.vectors = 7;
          executions = 123;
          max_events = 9;
          max_op_steps = 2;
          degraded = 1;
          evictions = 3;
        };
    }
  in
  let with_meta meta =
    let ck =
      Checkpoint.make ~meta ~engine:Explore.fast ~fuel:Explore.default_fuel
        ~faults:Faults.none ~workloads:workloads3
        ~counts:(Checkpoint.zero_counts ~n_objs:1)
        ~frontier:[ [] ] ()
    in
    match Checkpoint.of_string (Checkpoint.to_string ck) with
    | Ok ck -> Check.ledger_of_checkpoint ck
    | Error e -> Alcotest.failf "round trip: %s" e
  in
  let meta = ("protocol", "cas") :: Check.ledger_meta ledger in
  let without k = List.filter (fun (k', _) -> k' <> k) meta in
  (match with_meta meta with
  | Ok l -> Alcotest.(check bool) "ledger round-trips" true (l = ledger)
  | Error e -> Alcotest.failf "ledger refused: %s" e);
  match with_meta (without "check.max_events") with
  | Ok _ -> Alcotest.fail "accepted a ledger without check.max_events"
  | Error e ->
    Alcotest.(check bool) (Fmt.str "%S names the key" e) true
      (contains e "check.max_events")

let test_verify_falsified_unaffected_by_checkpointing () =
  (* a protocol with a real violation must still be falsified identically
     when checkpointing is armed *)
  let impl = Protocols.broken_register_only () in
  let path = temp_ck () in
  match Check.verify ~engine:Explore.fast ~checkpoint:(path, 3600.) impl with
  | Check.Falsified _ ->
    Alcotest.(check bool) "checkpoint removed" false (Sys.file_exists path)
  | v -> Alcotest.failf "expected Falsified, got %a" Check.pp_verdict v

(* A save that fails never ends the run. A directory at the checkpoint's
   path makes every save fail at its rename: the periodic ones (interval 0:
   at every chance) are reported and the run goes on to its verdict, and a
   cut's final one becomes the verdict's [unsaved]. Neither leaves a
   [.tmp] file. *)
let test_verify_failed_save () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "wfc_unsaved_%d" (Unix.getpid ()))
  in
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) @@ fun () ->
  let impl = cas3 () in
  (match Check.verify ~checkpoint:(dir, 0.) impl with
  | Check.Verified r ->
    Alcotest.(check int) "periodic failures: the full run"
      (reference_verdict impl).Check.executions r.Check.executions
  | v -> Alcotest.failf "periodic failures: %a" Check.pp_verdict v);
  Alcotest.(check bool) "no .tmp after periodic failures" false
    (Sys.file_exists (dir ^ ".tmp"));
  (match Check.verify ~budget:100 ~checkpoint:(dir, 3600.) impl with
  | Check.Unknown { reason; unsaved = Some e; _ } ->
    Alcotest.(check string) "the cut's reason" "node budget exhausted" reason;
    Alcotest.(check bool) "a reason for the failed save" true (e <> "")
  | v -> Alcotest.failf "final failure: %a" Check.pp_verdict v);
  Alcotest.(check bool) "no .tmp after the final failure" false
    (Sys.file_exists (dir ^ ".tmp"));
  (* a save that succeeds leaves nothing unsaved *)
  let path = temp_ck () in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  match Check.verify ~budget:100 ~checkpoint:(path, 3600.) impl with
  | Check.Unknown { unsaved = None; _ } -> ()
  | v -> Alcotest.failf "saved cut: %a" Check.pp_verdict v

let () =
  Alcotest.run "wfc_resilience"
    [
      ( "monotime",
        [ Alcotest.test_case "nondecreasing" `Quick test_monotime_nondecreasing ]
      );
      ( "checkpoint codec",
        [
          Alcotest.test_case "round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "digest rejects tampering" `Quick
            test_checkpoint_digest_rejects_tampering;
          Alcotest.test_case "parser total under mutation" `Quick
            test_checkpoint_of_string_total;
          Alcotest.test_case "dedup modes round-trip" `Quick
            test_checkpoint_dedup_modes_roundtrip;
          Alcotest.test_case "legacy headers refused" `Quick
            test_checkpoint_legacy_headers_refused;
          Alcotest.test_case "problem mismatch detected" `Quick
            test_checkpoint_mismatch_detected;
          Alcotest.test_case "meta validation" `Quick
            test_checkpoint_meta_validation;
          Alcotest.test_case "ledger round-trip" `Quick test_ledger_roundtrip;
          Alcotest.test_case "missing directory refused" `Quick
            test_checkpoint_missing_directory;
        ] );
      ( "witness codec",
        [
          QCheck_alcotest.to_alcotest prop_witness_roundtrip;
          QCheck_alcotest.to_alcotest prop_witness_of_string_total;
          Alcotest.test_case "targeted corruption" `Quick
            test_witness_targeted_corruption;
        ] );
      ( "checkpoint/resume",
        [
          Alcotest.test_case "budgeted resume loop" `Quick
            test_explore_budget_checkpoint_resume;
          Alcotest.test_case "interrupt flushes and resumes" `Quick
            test_explore_interrupt_flush_and_resume;
          Alcotest.test_case "resume refuses another mode" `Quick
            test_resume_refuses_other_mode;
          Alcotest.test_case "resume refuses bad frontiers" `Quick
            test_resume_refuses_bad_frontier;
        ] );
      ( "memory watchdog",
        [
          Alcotest.test_case "evicts and finishes" `Quick
            test_mem_watchdog_evicts_and_finishes;
        ] );
      ( "verify parity",
        [
          Alcotest.test_case "budget-cut resume" `Quick
            test_verify_budget_resume_parity;
          Alcotest.test_case "interrupt resume" `Quick
            test_verify_interrupt_resume_parity;
          Alcotest.test_case "falsified with checkpointing" `Quick
            test_verify_falsified_unaffected_by_checkpointing;
          Alcotest.test_case "periodic save across vectors" `Quick
            test_verify_periodic_save_across_vectors;
          Alcotest.test_case "a failed save never ends the run" `Quick
            test_verify_failed_save;
        ] );
    ]
