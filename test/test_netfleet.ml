(* Networked-fleet tests — Transport address grammar and deadline-bounded
   TCP I/O, the Netchaos pure fault schedule (replay determinism: same
   plan + same chunks ⇒ same actions and same fault log), the crash-safe
   job queue (journal replay, torn tails, retry/quarantine, exactly-once
   restart), and wire-chaos integration: TCP-loopback fleet runs routed
   through a Netchaos proxy must reach the same verdict as single-process
   Check.verify under every network-fault plan. *)

module Checkpoint = Wfc_sim.Checkpoint
module Faults = Wfc_sim.Faults
module Transport = Wfc_fleet.Transport
module Chaos = Wfc_fleet.Chaos
module Netchaos = Wfc_fleet.Netchaos
module Jobqueue = Wfc_fleet.Jobqueue
module Coordinator = Wfc_fleet.Coordinator
module Local = Wfc_fleet.Local
module Check = Wfc_consensus.Check
module Protocols = Wfc_consensus.Protocols

(* --- transport: address grammar -------------------------------------------- *)

let test_transport_parse () =
  let ok s expect =
    match Transport.parse s with
    | Ok a -> Alcotest.(check string) s expect (Transport.to_string a)
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  ok "tcp:127.0.0.1:9090" "tcp:127.0.0.1:9090";
  ok "tcp:localhost:1" "tcp:localhost:1";
  ok "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  ok "/tmp/x.sock" "unix:/tmp/x.sock";
  (* unknown prefix with a colon: the whole string is a bare path *)
  ok "weird:path" "unix:weird:path";
  (* to_string round-trips through parse *)
  List.iter
    (fun s ->
      match Transport.parse s with
      | Ok a -> (
        match Transport.parse (Transport.to_string a) with
        | Ok a' ->
          Alcotest.(check string)
            (Fmt.str "round-trip %S" s) (Transport.to_string a)
            (Transport.to_string a')
        | Error e -> Alcotest.failf "re-parse of %S: %s" s e)
      | Error e -> Alcotest.failf "parse %S: %s" s e)
    [ "tcp:10.0.0.1:80"; "unix:/a/b"; "relative.sock" ];
  List.iter
    (fun s ->
      match Transport.parse s with
      | Error _ -> ()
      | Ok a ->
        Alcotest.failf "accepted %S as %s" s (Transport.to_string a))
    [ "tcp:nohostport"; "tcp:host:notaport"; "tcp::9"; "tcp:h:99999" ]

let test_transport_tcp_roundtrip () =
  let listener = Transport.listen (Transport.Tcp { host = "127.0.0.1"; port = 0 }) in
  Fun.protect ~finally:(fun () -> Transport.close_noerr listener) @@ fun () ->
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "listener is not INET"
  in
  let client =
    Transport.connect ~deadline_s:2. (Transport.Tcp { host = "127.0.0.1"; port })
  in
  let rec accept_retry n =
    match Transport.accept listener with
    | Some fd -> fd
    | None ->
      if n > 200 then Alcotest.fail "accept never became ready"
      else (
        Unix.sleepf 0.01;
        accept_retry (n + 1))
  in
  let server = accept_retry 0 in
  Fun.protect
    ~finally:(fun () ->
      Transport.close_noerr client;
      Transport.close_noerr server)
  @@ fun () ->
  Transport.write_all ~deadline_s:2. client (Bytes.of_string "ping") 0 4;
  let buf = Bytes.create 16 in
  let n = Transport.read ~deadline_s:2. server buf 0 16 in
  Alcotest.(check string) "payload" "ping" (Bytes.sub_string buf 0 n);
  (* an idle peer costs the deadline, never a hang *)
  match Transport.read ~deadline_s:0.1 server buf 0 16 with
  | _ -> Alcotest.fail "read returned with nothing to read"
  | exception Transport.Timeout op ->
    Alcotest.(check string) "names the operation" "read" op

(* --- netchaos: plan specs (the wire side of Chaos's grammar) ---------------- *)

let test_netchaos_spec_roundtrip () =
  List.iter
    (fun s ->
      match Chaos.of_spec Wire s with
      | Error e -> Alcotest.failf "of_spec %S: %s" s e
      | Ok p -> (
        Alcotest.(check string) (Fmt.str "canonical %S" s) s (Chaos.to_spec p);
        match Chaos.of_spec Wire (Chaos.to_spec p) with
        | Ok p' -> Alcotest.(check bool) (Fmt.str "round-trip %S" s) true (p = p')
        | Error e -> Alcotest.failf "re-parse of %S: %s" s e))
    [
      "none"; "latency:0.001-0.01"; "partition:3:1.5"; "reset:4"; "fragment";
      "corrupt:2"; "latency:0-0.1,fragment,jitter:7";
    ];
  Alcotest.(check bool) "none is none" true
    (match Chaos.of_spec Wire "none" with
    | Ok p -> Chaos.is_none p
    | Error _ -> false);
  List.iter
    (fun s ->
      match Chaos.of_spec Wire s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bogus spec %S" s)
    [
      "bogus"; "latency:abc"; "latency:5-1"; "partition:1"; "corrupt:0";
      "reset:x"; "seed:1";
    ]

(* Pinned draws: a changed RNG salt or draw order changes these plans. *)
let test_netchaos_seeded_deterministic () =
  List.iter
    (fun (seed, index, expected) ->
      let what = Fmt.str "seed:%d:%d" seed index in
      let a = Chaos.seeded Wire ~seed ~index in
      Alcotest.(check string) ("pinned " ^ what) expected (Chaos.to_spec a);
      Alcotest.(check bool)
        ("replayable " ^ what) true
        (a = Chaos.seeded Wire ~seed ~index);
      match Chaos.of_spec Wire what with
      | Ok c -> Alcotest.(check bool) ("seed spec expands, " ^ what) true (a = c)
      | Error e -> Alcotest.failf "%s: %s" what e)
    [
      (0, 0, "jitter:652400093");
      (1, 1, "latency:0.00129203-0.0483153,jitter:839171627");
      (1, 3, "partition:25:1.68537,jitter:553054327");
      (7, 3, "reset:15,jitter:157604669");
      (9, 1, "corrupt:35,jitter:309645699");
      (42, 3, "fragment,jitter:504684613");
    ]

(* --- netchaos: the pure fault schedule -------------------------------------- *)

let plan_of s =
  match Chaos.of_spec Wire s with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let feed_all plan chunks =
  let t = Netchaos.Stream.create plan in
  let actions = List.map (Netchaos.Stream.feed t) chunks in
  (actions, Netchaos.Stream.faults t)

let test_stream_fragment () =
  let actions, _ = feed_all (plan_of "fragment") [ "abcd" ] in
  match actions with
  | [ frags ] ->
    Alcotest.(check int) "one action per byte" 4 (List.length frags);
    let data =
      String.concat ""
        (List.map
           (function
             | Netchaos.Forward { data; _ } -> data
             | Netchaos.Reset -> Alcotest.fail "fragment never resets")
           frags)
    in
    Alcotest.(check string) "bytes preserved in order" "abcd" data
  | _ -> Alcotest.fail "expected one fed chunk"

let test_stream_reset_then_dead () =
  let actions, faults =
    feed_all (plan_of "reset:1") [ "a"; "b"; "c"; "d" ]
  in
  (match actions with
  | [ [ Netchaos.Forward _ ]; [ Netchaos.Reset ]; []; [] ] -> ()
  | _ -> Alcotest.fail "reset:1 must forward chunk 1, reset at 2, then die");
  Alcotest.(check int) "one fault logged" 1 (List.length faults)

let test_stream_corrupt_one_bit () =
  let plan = plan_of "corrupt:2" in
  let chunks = [ "aaaa"; "bbbb"; "cccc" ] in
  let actions, faults = feed_all plan chunks in
  let flat =
    List.map
      (function
        | [ Netchaos.Forward { data; _ } ] -> data
        | _ -> Alcotest.fail "corrupt only rewrites bytes")
      actions
  in
  (match flat with
  | [ a; b; c ] ->
    Alcotest.(check string) "chunk 1 untouched" "aaaa" a;
    Alcotest.(check string) "chunk 3 untouched" "cccc" c;
    Alcotest.(check int) "length preserved" 4 (String.length b);
    let diff = ref 0 in
    String.iteri
      (fun i ch ->
        let x = Char.code ch lxor Char.code "bbbb".[i] in
        diff := !diff + (if x = 0 then 0 else 1);
        (* exactly one bit of one byte *)
        if x <> 0 then Alcotest.(check int) "single bit" 0 (x land (x - 1)))
      b;
    Alcotest.(check int) "exactly one byte differs" 1 !diff
  | _ -> Alcotest.fail "wrong action count");
  Alcotest.(check int) "one fault logged" 1 (List.length faults)

let test_stream_partition_delays () =
  let actions, _ = feed_all (plan_of "partition:2:5") [ "a"; "b"; "c"; "d" ] in
  List.iteri
    (fun i acts ->
      match acts with
      | [ Netchaos.Forward { delay_s; _ } ] ->
        if i = 2 then
          Alcotest.(check bool) "chunk 3 delayed >= 5s" true (delay_s >= 5.)
        else Alcotest.(check (float 0.)) "others undelayed" 0. delay_s
      | _ -> Alcotest.fail "partition only delays")
    actions

(* Replay determinism: any seeded plan, fed the same chunk sequence by two
   fresh streams, must produce identical actions and identical fault logs —
   the property that makes a chaos run's fault schedule reproducible from
   its seed alone. *)
let prop_stream_replay_deterministic =
  let open QCheck in
  let arb =
    pair (pair small_nat small_nat)
      (list_of_size Gen.(int_range 1 12)
         (string_gen_of_size Gen.(int_range 1 40) Gen.char))
  in
  Test.make ~count:200 ~name:"netchaos stream schedules replay exactly" arb
    (fun ((seed, stream), chunks) ->
      let plan = Chaos.seeded Wire ~seed ~index:stream in
      feed_all plan chunks = feed_all plan chunks)

(* --- job queue --------------------------------------------------------------- *)

let tmpdir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf d =
  let rec go p =
    if Sys.is_directory p then (
      Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p)
    else Sys.remove p
  in
  try go d with Sys_error _ | Unix.Unix_error _ -> ()

let with_queue_dir f =
  let d = tmpdir "wfc_netfleet_q" in
  Fun.protect ~finally:(fun () -> rm_rf d) @@ fun () ->
  f ~journal:(Filename.concat d "journal") ~state_dir:(Filename.concat d "ck")

let sample_jobs = Jobqueue.matrix ~protocols:[ ("tas", 2); ("faa", 2) ] ~crashes:[ 0; 1 ]

let test_matrix_ids () =
  Alcotest.(check (list string))
    "stable cross-product ids"
    [ "tas2.c0"; "tas2.c1"; "faa2.c0"; "faa2.c1" ]
    (List.map (fun (j : Jobqueue.job) -> j.Jobqueue.id) sample_jobs)

let run_queue ?max_retries ?interrupt ~journal ~state_dir ~exec jobs =
  match Jobqueue.run ~journal ~state_dir ?max_retries ?interrupt ~exec jobs with
  | Ok r -> r
  | Error e -> Alcotest.failf "queue run failed: %s" e

let test_queue_drains_then_restarts_idempotently () =
  with_queue_dir @@ fun ~journal ~state_dir ->
  let calls = Hashtbl.create 8 in
  let exec (j : Jobqueue.job) ~checkpoint:_ ~resume:_ =
    Hashtbl.replace calls j.Jobqueue.id
      (1 + Option.value ~default:0 (Hashtbl.find_opt calls j.Jobqueue.id));
    Ok Jobqueue.Verified
  in
  let r = run_queue ~journal ~state_dir ~exec sample_jobs in
  Alcotest.(check int) "all done" 4 r.Jobqueue.completed;
  Alcotest.(check int) "none quarantined" 0 r.Jobqueue.quarantined;
  Alcotest.(check int) "each job ran once" 4 (Hashtbl.length calls);
  (* a restart on the same journal re-runs nothing *)
  let r2 = run_queue ~journal ~state_dir ~exec sample_jobs in
  Alcotest.(check int) "still all done" 4 r2.Jobqueue.completed;
  Hashtbl.iter
    (fun id n -> Alcotest.(check int) (id ^ " exactly once") 1 n)
    calls

let test_queue_retry_then_quarantine () =
  with_queue_dir @@ fun ~journal ~state_dir ->
  (* one job fails once then succeeds; the other always fails *)
  let attempts = Hashtbl.create 8 in
  let exec (j : Jobqueue.job) ~checkpoint:_ ~resume:_ =
    let id = j.Jobqueue.id in
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt attempts id) in
    Hashtbl.replace attempts id n;
    if id = "tas2.c0" && n >= 2 then Ok Jobqueue.Verified
    else Error (Fmt.str "induced failure %d" n)
  in
  let jobs = Jobqueue.matrix ~protocols:[ ("tas", 2); ("faa", 2) ] ~crashes:[ 0 ] in
  let r = run_queue ~max_retries:3 ~journal ~state_dir ~exec jobs in
  Alcotest.(check int) "flaky job completed" 1 r.Jobqueue.completed;
  Alcotest.(check int) "hopeless job quarantined" 1 r.Jobqueue.quarantined;
  Alcotest.(check int) "failed attempts counted" 4 r.Jobqueue.retried;
  Alcotest.(check int) "quarantine respects the budget" 3
    (Hashtbl.find attempts "faa2.c0");
  (* quarantine is durable: a restart does not burn more attempts *)
  let r2 = run_queue ~max_retries:3 ~journal ~state_dir ~exec jobs in
  Alcotest.(check int) "still quarantined" 1 r2.Jobqueue.quarantined;
  Alcotest.(check int) "no new attempts" 3 (Hashtbl.find attempts "faa2.c0")

let test_queue_torn_tail_dropped () =
  with_queue_dir @@ fun ~journal ~state_dir ->
  (* a crash mid-append leaves an unterminated verdict line: the job must
     be treated as still pending, not half-done *)
  Out_channel.with_open_bin journal (fun oc ->
      Out_channel.output_string oc
        "wfc-queue/1\njob tas2.c0 tas 2 0\nstart tas2.c0 1\nok tas2.c0 veri");
  (match Jobqueue.load journal with
  | Ok [ { Jobqueue.status = Jobqueue.Pending 0; _ } ] -> ()
  | Ok _ -> Alcotest.fail "torn verdict line must leave the job pending"
  | Error e -> Alcotest.failf "load: %s" e);
  let ran = ref 0 in
  let exec _ ~checkpoint:_ ~resume:_ =
    incr ran;
    Ok Jobqueue.Verified
  in
  let jobs = Jobqueue.matrix ~protocols:[ ("tas", 2) ] ~crashes:[ 0 ] in
  let r = run_queue ~journal ~state_dir ~exec jobs in
  Alcotest.(check int) "torn job re-ran" 1 !ran;
  Alcotest.(check int) "and completed" 1 r.Jobqueue.completed;
  (* the torn fragment was cut off, so the new records read back *)
  match Jobqueue.load journal with
  | Ok [ { Jobqueue.status = Jobqueue.Done Jobqueue.Verified; _ } ] -> ()
  | Ok _ -> Alcotest.fail "the re-run's verdict did not read back"
  | Error e -> Alcotest.failf "journal corrupt after the re-run: %s" e

(* A journal left empty by a failed first write (a full disk, a file size
   limit) has no header: the next run writes one, so the run after it
   still reads the journal. A journal the queue cannot read and a state
   directory it cannot create are errors, never exceptions. *)
let test_queue_empty_and_unreadable_journal () =
  with_queue_dir @@ fun ~journal ~state_dir ->
  Out_channel.with_open_bin journal ignore;
  let ran = ref 0 in
  let exec _ ~checkpoint:_ ~resume:_ =
    incr ran;
    Ok Jobqueue.Verified
  in
  let jobs = Jobqueue.matrix ~protocols:[ ("tas", 2) ] ~crashes:[ 0 ] in
  ignore (run_queue ~journal ~state_dir ~exec jobs);
  let r = run_queue ~journal ~state_dir ~exec jobs in
  Alcotest.(check int) "done once" 1 !ran;
  Alcotest.(check int) "and read back" 1 r.Jobqueue.completed;
  let refused what ~journal ~state_dir prefix =
    match Jobqueue.run ~journal ~state_dir ~exec jobs with
    | Error e when String.starts_with ~prefix e -> ()
    | Error e -> Alcotest.failf "%s: unexpected error: %s" what e
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  refused "a directory as the journal" ~journal:state_dir ~state_dir
    ("journal " ^ state_dir ^ ": cannot read: ");
  let missing = Filename.concat state_dir "no/such" in
  refused "a state directory in a missing one" ~journal ~state_dir:missing
    ("state directory " ^ missing ^ ": cannot create: ")

let test_queue_crash_midjob_exactly_once () =
  with_queue_dir @@ fun ~journal ~state_dir ->
  (* the journal of a coordinator SIGKILLed mid-faa2.c0: tas2.c0 has a
     durable verdict, faa2.c0 was started but never finished *)
  Out_channel.with_open_bin journal (fun oc ->
      Out_channel.output_string oc
        "wfc-queue/1\n\
         job tas2.c0 tas 2 0\n\
         job faa2.c0 faa 2 0\n\
         start tas2.c0 1\n\
         ok tas2.c0 verified\n\
         start faa2.c0 1\n");
  let ran = ref [] in
  let exec (j : Jobqueue.job) ~checkpoint:_ ~resume:_ =
    ran := j.Jobqueue.id :: !ran;
    Ok Jobqueue.Verified
  in
  let jobs = Jobqueue.matrix ~protocols:[ ("tas", 2); ("faa", 2) ] ~crashes:[ 0 ] in
  let r = run_queue ~journal ~state_dir ~exec jobs in
  Alcotest.(check (list string))
    "only the in-flight job re-ran" [ "faa2.c0" ] !ran;
  Alcotest.(check int) "both done" 2 r.Jobqueue.completed;
  Alcotest.(check int) "no failures invented" 0 r.Jobqueue.retried

let test_queue_interrupt_leaves_resumable () =
  with_queue_dir @@ fun ~journal ~state_dir ->
  let flag = Atomic.make true in
  let exec _ ~checkpoint:_ ~resume:_ = Alcotest.fail "must not run" in
  let r = run_queue ~interrupt:flag ~journal ~state_dir ~exec sample_jobs in
  Alcotest.(check int) "nothing completed" 0 r.Jobqueue.completed;
  Alcotest.(check int) "nothing quarantined" 0 r.Jobqueue.quarantined;
  (* the journal already knows the matrix and resumes it *)
  Atomic.set flag false;
  let ran = ref 0 in
  let exec _ ~checkpoint:_ ~resume:_ =
    incr ran;
    Ok Jobqueue.Verified
  in
  let r2 = run_queue ~interrupt:flag ~journal ~state_dir ~exec sample_jobs in
  Alcotest.(check int) "all jobs recovered" 4 r2.Jobqueue.completed;
  Alcotest.(check int) "each ran once" 4 !ran

let test_queue_resume_passes_checkpoint () =
  with_queue_dir @@ fun ~journal ~state_dir ->
  let jobs = Jobqueue.matrix ~protocols:[ ("tas", 2) ] ~crashes:[ 0 ] in
  Unix.mkdir state_dir 0o755;
  (* a periodic flush left a checkpoint for the in-flight job: exec must
     receive it as its resume point *)
  let engine =
    {
      Checkpoint.dedup = true;
      por = true;
    }
  in
  let faults =
    { Faults.max_crashes = 0; max_recoveries = 0; max_glitches = 0; degraded = [] }
  in
  let ck =
    Checkpoint.make
      ~meta:[ ("protocol", "tas"); ("procs", "2") ]
      ~engine ~fuel:16 ~budget_left:99 ~faults
      ~workloads:[| [ Wfc_spec.Value.truth ] |]
      ~counts:(Checkpoint.zero_counts ~n_objs:1) ~frontier:[] ()
  in
  Result.get_ok
    (Checkpoint.save ck ~path:(Filename.concat state_dir "tas2.c0.ck"));
  let saw_resume = ref false in
  let exec _ ~checkpoint ~resume =
    Alcotest.(check string)
      "private checkpoint path"
      (Filename.concat state_dir "tas2.c0.ck")
      checkpoint;
    saw_resume := resume <> None;
    Ok Jobqueue.Verified
  in
  let r = run_queue ~journal ~state_dir ~exec jobs in
  Alcotest.(check bool) "resume checkpoint delivered" true !saw_resume;
  Alcotest.(check int) "done" 1 r.Jobqueue.completed;
  Alcotest.(check bool)
    "checkpoint consumed after the verdict" false
    (Sys.file_exists (Filename.concat state_dir "tas2.c0.ck"))

(* --- wire-chaos integration: TCP parity through the proxy -------------------- *)

let fresh_port =
  let c = ref 0 in
  fun () ->
    incr c;
    41000 + (Unix.getpid () mod 1500 * 16) + !c

let impl_of name procs =
  match Protocols.of_name ~procs name with
  | Ok impl -> impl
  | Error e -> Alcotest.failf "protocol %s: %s" name e

let parse_addr s =
  match Transport.parse s with Ok a -> a | Error e -> Alcotest.fail e

(* Workers reach the coordinator only through a Netchaos proxy running
   [plan] on every byte of every connection, both directions. *)
let serve_via_proxy ?(workers = 2) ~plan ~name ~procs () =
  let upstream = Fmt.str "tcp:127.0.0.1:%d" (fresh_port ()) in
  let proxied = Fmt.str "tcp:127.0.0.1:%d" (fresh_port ()) in
  let plan = plan_of plan in
  let proxy_pid =
    Netchaos.spawn ~listen:(parse_addr proxied) ~upstream:(parse_addr upstream)
      plan
  in
  let pids = Local.spawn ~addr:proxied workers in
  let impl = impl_of name procs in
  let config = Coordinator.config ~lease_s:1.5 ~quantum:60 upstream in
  let meta = [ ("protocol", name); ("procs", string_of_int procs) ] in
  Fun.protect ~finally:(fun () -> Local.shutdown (proxy_pid :: pids))
  @@ fun () -> Coordinator.serve ~meta ~config impl

let report_of = function
  | Check.Verified r -> r
  | Check.Falsified v -> Alcotest.failf "unexpectedly falsified: %s" v.Check.reason
  | Check.Unknown { reason; _ } -> Alcotest.failf "unexpectedly unknown: %s" reason

(* The acceptance bar: under [plan], the fleet reaches the same verdict as
   the single process, never a hang or crash; availability losses surface
   in [degraded], only re-attaches are free. *)
let check_wire_parity plan =
  let verdict, stats = serve_via_proxy ~plan ~name:"sticky" ~procs:3 () in
  let fleet = report_of verdict in
  let single = report_of (Check.verify (impl_of "sticky" 3)) in
  Alcotest.(check int)
    (plan ^ ": same vectors") single.Check.vectors fleet.Check.vectors;
  Alcotest.(check int)
    (plan ^ ": same longest run") single.Check.max_events fleet.Check.max_events;
  Alcotest.(check bool)
    (plan ^ ": executions cover the single-process count") true
    (fleet.Check.executions >= single.Check.executions);
  Alcotest.(check bool)
    (plan ^ ": losses surfaced as degradation") true
    (fleet.Check.degraded >= stats.Coordinator.lease_misses);
  stats

let test_wire_parity_clean () = ignore (check_wire_parity "none")
let test_wire_parity_latency () = ignore (check_wire_parity "latency:0.001-0.01")
let test_wire_parity_fragment () = ignore (check_wire_parity "fragment")
let test_wire_parity_corrupt () = ignore (check_wire_parity "corrupt:4")

let test_wire_parity_partition () =
  (* 2s of silence outlasts the 1.5s lease: the coordinator must requeue
     or re-adopt, and the verdict must not change *)
  ignore (check_wire_parity "partition:6:2")

let test_wire_parity_reset () =
  let stats = check_wire_parity "reset:20" in
  (* every connection dies after 20 chunks; sessions survive their
     connections, so recovery shows up as re-attaches or (when the outage
     outlasts the lease) as requeued shards — never as a wrong verdict *)
  Alcotest.(check bool)
    "connection churn was absorbed" true
    (stats.Coordinator.reattaches >= 1 || stats.Coordinator.lease_misses >= 1)

(* --------------------------------------------------------------------------- *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "netfleet"
    [
      ( "transport",
        [
          Alcotest.test_case "address grammar" `Quick test_transport_parse;
          Alcotest.test_case "tcp loopback round-trip + read deadline" `Quick
            test_transport_tcp_roundtrip;
        ] );
      ( "netchaos-plans",
        [
          Alcotest.test_case "spec round-trip" `Quick
            test_netchaos_spec_roundtrip;
          Alcotest.test_case "seeded plans replayable" `Quick
            test_netchaos_seeded_deterministic;
        ] );
      ( "netchaos-stream",
        [
          Alcotest.test_case "fragment shatters to single bytes" `Quick
            test_stream_fragment;
          Alcotest.test_case "reset kills the stream" `Quick
            test_stream_reset_then_dead;
          Alcotest.test_case "corrupt flips exactly one bit" `Quick
            test_stream_corrupt_one_bit;
          Alcotest.test_case "partition delays everything behind it" `Quick
            test_stream_partition_delays;
          qt prop_stream_replay_deterministic;
        ] );
      ( "jobqueue",
        [
          Alcotest.test_case "matrix ids" `Quick test_matrix_ids;
          Alcotest.test_case "drains, restart is idempotent" `Quick
            test_queue_drains_then_restarts_idempotently;
          Alcotest.test_case "retry then quarantine, durably" `Quick
            test_queue_retry_then_quarantine;
          Alcotest.test_case "torn tail leaves the job pending" `Quick
            test_queue_torn_tail_dropped;
          Alcotest.test_case "empty journal restarted, unreadable refused"
            `Quick test_queue_empty_and_unreadable_journal;
          Alcotest.test_case "crash mid-job finishes exactly once" `Quick
            test_queue_crash_midjob_exactly_once;
          Alcotest.test_case "interrupt leaves a resumable journal" `Quick
            test_queue_interrupt_leaves_resumable;
          Alcotest.test_case "in-flight checkpoint reaches exec" `Quick
            test_queue_resume_passes_checkpoint;
        ] );
      ( "wire-chaos",
        [
          Alcotest.test_case "verdict parity, clean proxy" `Slow
            test_wire_parity_clean;
          Alcotest.test_case "verdict parity under latency" `Slow
            test_wire_parity_latency;
          Alcotest.test_case "verdict parity under 1-byte fragmentation" `Slow
            test_wire_parity_fragment;
          Alcotest.test_case "verdict parity under mid-frame corruption" `Slow
            test_wire_parity_corrupt;
          Alcotest.test_case "verdict parity across a partition" `Slow
            test_wire_parity_partition;
          Alcotest.test_case "verdict parity under connection resets" `Slow
            test_wire_parity_reset;
        ] );
    ]
