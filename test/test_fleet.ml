(* Fleet tests — the wfc-fleet/3 wire codec (round-trip and totality under
   byte fuzz), checkpoint split/merge and torn-write rejection, chaos plan
   specs, reconnect backoff, and chaos-parity integration: a forked worker
   pool driven through kill/stall/garbage/delayed-ack faults must produce
   the same verdict as single-process Check.verify. Wire-level (network)
   chaos and the job queue live in test_netfleet.ml. *)

open Wfc_spec
module Checkpoint = Wfc_sim.Checkpoint
module Faults = Wfc_sim.Faults
module Witness = Wfc_sim.Witness
module Codec = Wfc_fleet.Codec
module Chaos = Wfc_fleet.Chaos
module Backoff = Wfc_fleet.Backoff
module Coordinator = Wfc_fleet.Coordinator
module Local = Wfc_fleet.Local
module Check = Wfc_consensus.Check
module Protocols = Wfc_consensus.Protocols

(* --- shared fixtures ------------------------------------------------------- *)

let engine =
  {
    Checkpoint.dedup = true;
    por = true;
  }

let sample_faults =
  {
    Faults.max_crashes = 1;
    max_recoveries = 0;
    max_glitches = 1;
    degraded = [ (0, Faults.Stale_reads 2) ];
  }

let sample_trace =
  [
    { Faults.proc = 0; kind = Faults.Step 1 };
    { Faults.proc = 1; kind = Faults.Crash };
    { Faults.proc = 0; kind = Faults.Glitch 0 };
  ]

let workloads2 = [| [ Value.truth ]; [ Value.falsity ] |]

let mk_counts n =
  {
    Checkpoint.leaves = n;
    nodes = 10 * n;
    max_events = 4 + n;
    max_op_steps = 2;
    max_accesses = [| n; 2 * n |];
    overflows = 0;
    pruned = n / 2;
    sleep_skips = 0;
    evictions = 0;
  }

let mk_ck ?(meta = [ ("protocol", "sticky"); ("procs", "2") ]) ?(frontier = [])
    ?counts () =
  let counts =
    match counts with Some c -> c | None -> Checkpoint.zero_counts ~n_objs:2
  in
  Checkpoint.make ~meta ~engine ~fuel:64 ~budget_left:123 ~faults:sample_faults
    ~workloads:workloads2 ~counts ~frontier ()

let sample_witness = Witness.make ~workloads:workloads2 ~faults:sample_faults sample_trace

let sample_msgs =
  [
    Codec.Hello { pid = 4242; name = "worker-a"; token = "w4242.00abcd" };
    Codec.Hello { pid = 1; name = "name with\nnewline"; token = "t" };
    Codec.Lease
      { shard = 7; lease_s = 2.5; quantum = 5000; job = mk_ck () };
    Codec.Lease
      {
        shard = 0;
        lease_s = 0.25;
        quantum = 1;
        job = mk_ck ~frontier:[ sample_trace; [] ] ();
      };
    Codec.Heartbeat { shard = -1 };
    Codec.Heartbeat { shard = 3 };
    Codec.Result { shard = 5; outcome = Codec.Done (mk_ck ~counts:(mk_counts 6) ()) };
    Codec.Result
      {
        shard = 6;
        outcome = Codec.Violation { reason = "agreement broken"; witness = sample_witness };
      };
    Codec.Result { shard = 8; outcome = Codec.Refused "unknown protocol zork" };
    Codec.Steal { shard = 2 };
    Codec.Shutdown { reason = "run complete" };
    Codec.Shutdown { reason = "multi\nline\nreason" };
  ]

(* --- codec round-trips ----------------------------------------------------- *)

(* Messages embed checkpoints and witnesses, which have no structural
   equality; the codec's own canonical text is the comparison key (encode
   flattens newlines, so encode ∘ decode ∘ encode is the identity on
   encoded text). *)
let check_roundtrip m =
  let s = Codec.encode m in
  match Codec.decode s with
  | Error e -> Alcotest.failf "decode (%a) failed: %s" Codec.pp_msg m e
  | Ok m' -> Alcotest.(check string) "re-encode" s (Codec.encode m')

let test_codec_roundtrip_each () = List.iter check_roundtrip sample_msgs

let test_codec_newline_flattening () =
  match
    Codec.decode
      (Codec.encode (Codec.Hello { pid = 9; name = "a\nb"; token = "t9" }))
  with
  | Ok (Codec.Hello { name; _ }) ->
    Alcotest.(check string) "flattened" "a b" name
  | Ok m -> Alcotest.failf "wrong message: %a" Codec.pp_msg m
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_codec_rejects () =
  let bad =
    [
      "";
      "wfc-fleet/9 hello";
      (* v1 speakers have no session token: refused at the header *)
      "wfc-fleet/1 hello\npid 1\nname a";
      (* a v2 heartbeat still carries its nodes field: refused at the header *)
      "wfc-fleet/2 heartbeat\nshard 1\nnodes 5";
      "wfc-fleet/3 nonsense";
      "wfc-fleet/3 hello";
      (* missing token *)
      "wfc-fleet/3 hello\npid 1\nname a";
      (* missing fields *)
      "wfc-fleet/3 lease\nshard 1\nlease 1.0\nquantum 5";
      (* no job blob *)
      "wfc-fleet/3 result\nshard 1\noutcome done\n--\ngarbage blob";
    ]
  in
  List.iter
    (fun s ->
      match Codec.decode s with
      | Ok m -> Alcotest.failf "accepted %S as %a" s Codec.pp_msg m
      | Error _ -> ())
    bad

let arb_msg =
  let open QCheck in
  let gen =
    let open Gen in
    let name = string_size ~gen:printable (int_range 0 16) in
    let ck =
      oneofl
        [
          mk_ck ();
          mk_ck ~frontier:[ sample_trace ] ();
          mk_ck ~counts:(mk_counts 3) ~meta:[ ("k", "v"); ("protocol", "tas") ] ();
        ]
    in
    let outcome =
      oneof
        [
          map (fun c -> Codec.Done c) ck;
          map
            (fun r -> Codec.Violation { reason = r; witness = sample_witness })
            name;
          map (fun r -> Codec.Refused r) name;
        ]
    in
    oneof
      [
        map3
          (fun pid name token -> Codec.Hello { pid; name; token })
          small_nat name name;
        map3
          (fun shard quantum job ->
            Codec.Lease { shard; lease_s = 1.5; quantum; job })
          small_nat small_nat ck;
        map (fun shard -> Codec.Heartbeat { shard }) small_nat;
        map2 (fun shard outcome -> Codec.Result { shard; outcome }) small_nat outcome;
        map (fun shard -> Codec.Steal { shard }) small_nat;
        map (fun reason -> Codec.Shutdown { reason }) name;
      ]
  in
  QCheck.make ~print:(Fmt.str "%a" Codec.pp_msg) gen

let prop_codec_roundtrip =
  QCheck.Test.make ~count:300 ~name:"codec round-trips every message" arb_msg
    (fun m ->
      let s = Codec.encode m in
      match Codec.decode s with
      | Ok m' -> String.equal s (Codec.encode m')
      | Error _ -> false)

let prop_decode_total =
  QCheck.Test.make ~count:500 ~name:"decode is total on arbitrary bytes"
    QCheck.(string_gen_of_size Gen.(int_range 0 300) Gen.char)
    (fun s ->
      match Codec.decode s with Ok _ -> true | Error _ -> true)

(* --- frame reassembly ------------------------------------------------------ *)

let feed_string frames s =
  Codec.Frames.feed frames (Bytes.of_string s) (String.length s)

let test_frames_chunked () =
  let frames = Codec.Frames.create () in
  let wire =
    String.concat "" (List.map (fun m -> Bytes.to_string (Codec.frame m)) sample_msgs)
  in
  (* one byte at a time: reassembly must not depend on read boundaries *)
  let popped = ref [] in
  String.iter
    (fun c ->
      feed_string frames (String.make 1 c);
      match Codec.Frames.pop frames with
      | Ok (Some m) -> popped := m :: !popped
      | Ok None -> ()
      | Error e -> Alcotest.failf "pop failed mid-stream: %s" e)
    wire;
  let popped = List.rev !popped in
  Alcotest.(check int) "all messages" (List.length sample_msgs) (List.length popped);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "in order" (Codec.encode a) (Codec.encode b))
    sample_msgs popped

let test_frames_truncated () =
  let frames = Codec.Frames.create () in
  let whole = Bytes.to_string (Codec.frame (Codec.Steal { shard = 4 })) in
  feed_string frames (String.sub whole 0 (String.length whole - 1));
  (match Codec.Frames.pop frames with
  | Ok None -> ()
  | Ok (Some m) -> Alcotest.failf "popped from truncated frame: %a" Codec.pp_msg m
  | Error e -> Alcotest.failf "truncated frame is an error: %s" e);
  (* a truncated frame stays pending, it never becomes a message or error *)
  (match Codec.Frames.pop frames with
  | Ok None -> ()
  | _ -> Alcotest.fail "second pop disagrees");
  (* completing the frame releases it *)
  feed_string frames (String.sub whole (String.length whole - 1) 1);
  match Codec.Frames.pop frames with
  | Ok (Some (Codec.Steal { shard = 4 })) -> ()
  | _ -> Alcotest.fail "completed frame did not pop"

let test_frames_oversized_length () =
  let frames = Codec.Frames.create () in
  (* 0xffffffff length prefix: must be rejected before any allocation *)
  feed_string frames "\xff\xff\xff\xffGARBAGE";
  match Codec.Frames.pop frames with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a garbage length prefix"

let prop_frames_fuzz_total =
  QCheck.Test.make ~count:300 ~name:"Frames.pop is total on fuzzed bytes"
    QCheck.(string_gen_of_size Gen.(int_range 0 200) Gen.char)
    (fun s ->
      let frames = Codec.Frames.create () in
      feed_string frames s;
      (* drain until quiescent; bounded (each pop consumes a frame) *)
      let rec drain n =
        if n > String.length s + 1 then true
        else
          match Codec.Frames.pop frames with
          | Ok (Some _) -> drain (n + 1)
          | Ok None -> true
          | Error _ -> true
      in
      drain 0)

(* Adversarial fragmentation: the wire image of every message type, cut at
   arbitrary split points (including splits inside the 4-byte length
   prefix), must reassemble to exactly the original sequence. *)
let prop_frames_random_splits =
  let wire =
    String.concat ""
      (List.map (fun m -> Bytes.to_string (Codec.frame m)) sample_msgs)
  in
  let arb_cuts =
    QCheck.(list_of_size Gen.(int_range 0 40) (int_bound (String.length wire - 1)))
  in
  QCheck.Test.make ~count:200
    ~name:"frames reassemble across arbitrary split points" arb_cuts
    (fun cuts ->
      let cuts = List.sort_uniq compare (0 :: cuts @ [ String.length wire ]) in
      let frames = Codec.Frames.create () in
      let popped = ref 0 in
      let rec pieces = function
        | a :: (b :: _ as rest) ->
          feed_string frames (String.sub wire a (b - a));
          let rec drain () =
            match Codec.Frames.pop frames with
            | Ok (Some _) ->
              incr popped;
              drain ()
            | Ok None -> ()
            | Error e -> QCheck.Test.fail_reportf "pop failed: %s" e
          in
          drain ();
          pieces rest
        | _ -> ()
      in
      pieces cuts;
      !popped = List.length sample_msgs)

(* --- checkpoint split / merge --------------------------------------------- *)

let trace_key (t : Faults.trace) =
  Fmt.str "%a" (Fmt.list ~sep:Fmt.comma Faults.pp_decision) t

let test_split_partitions_frontier () =
  let frontier =
    [
      sample_trace;
      [];
      [ { Faults.proc = 1; kind = Faults.Step 0 } ];
      [ { Faults.proc = 0; kind = Faults.Wedge } ];
      [ { Faults.proc = 2; kind = Faults.Step 2 } ];
    ]
  in
  let ck = mk_ck ~frontier ~counts:(mk_counts 5) () in
  let shards = Checkpoint.split ck ~into:3 in
  Alcotest.(check int) "three shards" 3 (List.length shards);
  let union =
    List.concat_map (fun s -> List.map trace_key s.Checkpoint.frontier) shards
  in
  Alcotest.(check (list string))
    "frontier partitioned"
    (List.sort compare (List.map trace_key frontier))
    (List.sort compare union);
  List.iter
    (fun s ->
      Alcotest.(check int) "counts zeroed" 0 s.Checkpoint.counts.Checkpoint.leaves;
      Alcotest.(check int) "nodes zeroed" 0 s.Checkpoint.counts.Checkpoint.nodes;
      Alcotest.(check bool)
        "meta preserved" true
        (Checkpoint.meta_find s "protocol" = Some "sticky"))
    shards;
  (* more shards than prefixes: capped at the frontier size *)
  Alcotest.(check int) "capped" 5 (List.length (Checkpoint.split ck ~into:10));
  Alcotest.(check int) "empty frontier" 0
    (List.length (Checkpoint.split (mk_ck ()) ~into:4));
  Alcotest.check_raises "into < 1"
    (Invalid_argument "Checkpoint.split: into must be >= 1") (fun () ->
      ignore (Checkpoint.split ck ~into:0))

let test_add_counts () =
  let a = mk_counts 4 in
  let b =
    {
      (mk_counts 10) with
      Checkpoint.max_accesses = [| 1; 50; 7 |];
      evictions = 2;
    }
  in
  let c = Checkpoint.add_counts a b in
  Alcotest.(check int) "leaves sum" 14 c.Checkpoint.leaves;
  Alcotest.(check int) "nodes sum" 140 c.Checkpoint.nodes;
  Alcotest.(check int) "max_events max" 14 c.Checkpoint.max_events;
  Alcotest.(check int) "evictions sum" 2 c.Checkpoint.evictions;
  Alcotest.(check (array int))
    "max_accesses pointwise max, padded" [| 4; 50; 7 |]
    c.Checkpoint.max_accesses

(* --- durable save + tamper rejection --------------------------------------- *)

let test_save_tamper_rejected () =
  let path = Filename.temp_file "wfc_fleet_tamper" ".ck" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let ck = mk_ck ~frontier:[ sample_trace ] ~counts:(mk_counts 9) () in
  Result.get_ok (Checkpoint.save ck ~path);
  Alcotest.(check bool)
    "no .tmp left behind" false
    (Sys.file_exists (path ^ ".tmp"));
  (match Checkpoint.load path with
  | Ok ck' ->
    Alcotest.(check string) "round-trips" (Checkpoint.to_string ck)
      (Checkpoint.to_string ck')
  | Error e -> Alcotest.failf "clean load failed: %s" e);
  let body = In_channel.with_open_bin path In_channel.input_all in
  (* flip one byte mid-file: the digest must reject it *)
  let torn = Bytes.of_string body in
  let i = Bytes.length torn / 2 in
  Bytes.set torn i (if Bytes.get torn i = 'x' then 'y' else 'x');
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc torn);
  (match Checkpoint.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a bit-flipped checkpoint");
  (* truncate to half: a torn write must also be rejected *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub body 0 (String.length body / 2)));
  match Checkpoint.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a truncated checkpoint"

(* A shard's remainder comes back as a value: with the temp directory
   pointing nowhere, a cut shard and a drained one both still run, and
   nothing is created there. *)
let test_exec_shard_no_temp_files () =
  let impl =
    match Protocols.of_name ~procs:3 "sticky" with
    | Ok impl -> impl
    | Error e -> Alcotest.fail e
  in
  let meta = Protocols.meta ~name:"sticky" ~procs:3 in
  let v = List.nth (Check.vectors impl) 20 in
  let job =
    Checkpoint.make ~meta ~engine:Wfc_sim.Explore.fast
      ~fuel:Wfc_sim.Explore.default_fuel ~faults:Faults.none
      ~workloads:v.Check.workloads
      ~counts:(Checkpoint.zero_counts ~n_objs:1)
      ~frontier:[ [] ] ()
  in
  let tmp = Filename.get_temp_dir_name () in
  let nowhere =
    Filename.concat tmp (Fmt.str "wfc-no-such-dir-%d" (Unix.getpid ()))
  in
  Filename.set_temp_dir_name nowhere;
  let cut, drained =
    Fun.protect
      ~finally:(fun () -> Filename.set_temp_dir_name tmp)
      (fun () ->
        ( Wfc_fleet.Worker.exec_shard impl ~job ~quantum:3 (),
          Wfc_fleet.Worker.exec_shard impl ~job () ))
  in
  (match cut with
  | Codec.Done ck ->
    Alcotest.(check bool) "cut: remainder left" true
      (ck.Checkpoint.frontier <> []);
    Alcotest.(check bool) "cut: job meta kept" true (ck.Checkpoint.meta = meta)
  | _ -> Alcotest.fail "cut shard did not return its remainder");
  (match drained with
  | Codec.Done ck ->
    Alcotest.(check bool) "drained" true (ck.Checkpoint.frontier = []);
    Alcotest.(check bool) "drained: leaves counted" true
      (ck.Checkpoint.counts.Checkpoint.leaves > 0)
  | _ -> Alcotest.fail "shard did not drain");
  Alcotest.(check bool) "temp directory untouched" false
    (Sys.file_exists nowhere)

(* --- chaos plans ----------------------------------------------------------- *)

(* The process side of the plan grammar; the wire side's rows are in
   test_netfleet.ml. *)

let side_name = function Chaos.Process -> "process" | Chaos.Wire -> "wire"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_chaos_spec_roundtrip () =
  List.iter
    (fun s ->
      match Chaos.of_spec Process s with
      | Error e -> Alcotest.failf "of_spec %S: %s" s e
      | Ok p -> (
        Alcotest.(check string) (Fmt.str "canonical %S" s) s (Chaos.to_spec p);
        match Chaos.of_spec Process (Chaos.to_spec p) with
        | Ok p' -> Alcotest.(check bool) (Fmt.str "round-trip %S" s) true (p = p')
        | Error e -> Alcotest.failf "re-parse of %S: %s" s e))
    [ "none"; "kill:3"; "stall:5"; "garbage:2"; "delay:0.5"; "kill:7,delay:1.5" ];
  Alcotest.(check bool) "none is none" true
    (match Chaos.of_spec Process "none" with
    | Ok p -> Chaos.is_none p
    | Error _ -> false);
  List.iter
    (fun s ->
      match Chaos.of_spec Process s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bogus spec %S" s)
    [ "bogus"; "kill:x"; "kill"; "delay:abc"; "seed:1" ]

(* Pinned draws: a changed RNG salt or draw order changes these plans. *)
let test_chaos_seeded_deterministic () =
  List.iter
    (fun (seed, index, expected) ->
      let what = Fmt.str "seed:%d:%d" seed index in
      let a = Chaos.seeded Process ~seed ~index in
      Alcotest.(check string) ("pinned " ^ what) expected (Chaos.to_spec a);
      Alcotest.(check bool)
        ("replayable " ^ what) true
        (a = Chaos.seeded Process ~seed ~index);
      match Chaos.of_spec Process what with
      | Ok c -> Alcotest.(check bool) ("seed spec expands, " ^ what) true (a = c)
      | Error e -> Alcotest.failf "%s: %s" what e)
    [
      (0, 0, "garbage:178"); (0, 1, "delay:2.03055"); (1, 1, "garbage:1257");
      (7, 3, "none"); (9, 1, "stall:297"); (42, 2, "kill:301");
      (42, 3, "stall:235"); (42, 4, "kill:1313");
    ]

(* Each side refuses the other side's kinds, naming the kind. *)
let test_chaos_cross_side_refusal () =
  List.iter
    (fun (side, s, kind) ->
      match Chaos.of_spec side s with
      | Ok _ -> Alcotest.failf "%s accepted %S" (side_name side) s
      | Error e ->
        Alcotest.(check bool)
          (Fmt.str "%s refusal of %S names %s" (side_name side) s kind)
          true
          (contains e (kind ^ " is a")))
    Chaos.
      [
        (Process, "reset:1", "reset"); (Process, "fragment", "fragment");
        (Process, "latency:0-0.1", "latency"); (Process, "corrupt:2", "corrupt");
        (Process, "jitter:7", "jitter");
        (Process, "kill:3,partition:25:2.5", "partition");
        (Wire, "kill:1", "kill"); (Wire, "stall:5", "stall");
        (Wire, "garbage:2", "garbage"); (Wire, "delay:0.5", "delay");
        (Wire, "partition:25:2.5,reset:60,kill:3", "kill");
      ]

(* --- backoff ---------------------------------------------------------------- *)

let test_backoff () =
  let delays seed n =
    let b = Backoff.create ~seed () in
    List.init n (fun _ -> Backoff.next b)
  in
  let d = delays 3 12 in
  List.iter
    (fun x ->
      Alcotest.(check bool) "positive" true (x > 0.);
      Alcotest.(check bool) "capped at 5s" true (x <= 5.))
    d;
  Alcotest.(check (list (float 0.)))
    "deterministic per seed" d (delays 3 12);
  let b = Backoff.create ~seed:1 () in
  ignore (Backoff.next b);
  ignore (Backoff.next b);
  Alcotest.(check int) "attempts counted" 2 (Backoff.attempt b);
  Backoff.reset b;
  Alcotest.(check int) "reset" 0 (Backoff.attempt b)

(* --- fleet integration: chaos parity with Check.verify ---------------------- *)

let sock_counter = ref 0

let fresh_socket () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Fmt.str "wfc-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let impl_of name procs =
  match Protocols.of_name ~procs name with
  | Ok impl -> impl
  | Error e -> Alcotest.failf "protocol %s: %s" name e

(* Run [name] under the fleet: [workers] forked real processes (chaos plan
   per worker index), small quantum so shards split and chaos triggers. *)
let serve_fleet ?(workers = 2) ?(chaos = fun _ -> Chaos.none) ?budget
    ?checkpoint ?resume ~name ~procs () =
  let socket = fresh_socket () in
  let impl = impl_of name procs in
  let pids =
    if workers > 0 then Local.spawn ~chaos ~addr:socket workers else []
  in
  let config =
    Coordinator.config ~lease_s:1.5 ~quantum:60
      ~local_grace_s:(if workers = 0 then 0.01 else 5.)
      socket
  in
  let meta = [ ("protocol", name); ("procs", string_of_int procs) ] in
  Fun.protect ~finally:(fun () -> Local.shutdown pids) @@ fun () ->
  Coordinator.serve ?budget
    ?checkpoint:(Option.map (fun path -> (path, 2.)) checkpoint)
    ?resume ~meta ~config impl

let report_of = function
  | Check.Verified r -> r
  | Check.Falsified v -> Alcotest.failf "unexpectedly falsified: %s" v.Check.reason
  | Check.Unknown { reason; _ } -> Alcotest.failf "unexpectedly unknown: %s" reason

let test_parity_clean () =
  let verdict, stats = serve_fleet ~name:"sticky" ~procs:3 () in
  let fleet = report_of verdict in
  let single = report_of (Check.verify (impl_of "sticky" 3)) in
  Alcotest.(check int) "same vectors" single.Check.vectors fleet.Check.vectors;
  Alcotest.(check int) "same longest run" single.Check.max_events fleet.Check.max_events;
  (* split shards re-visit states their siblings deduped, so the fleet may
     count more executions — never fewer *)
  Alcotest.(check bool)
    "executions cover the single-process count" true
    (fleet.Check.executions >= single.Check.executions);
  Alcotest.(check bool) "used the fleet" true (stats.Coordinator.workers_seen >= 1)

(* A 200-node quantum is smaller than some frontier items' subtrees of cas
   n=4: a lease that finishes no item hands its frontier back unchanged, and
   its next lease must get a larger quantum or the run never ends. The
   deadline turns a regression into a failure instead of a hang. *)
let test_quantum_smaller_than_shard () =
  let impl = impl_of "cas" 4 in
  let config =
    Coordinator.config ~quantum:200 ~local_grace_s:0.01 (fresh_socket ())
  in
  let verdict, stats =
    Coordinator.serve ~deadline_s:60.
      ~meta:(Protocols.meta ~name:"cas" ~procs:4)
      ~config impl
  in
  let fleet = report_of verdict in
  let single = report_of (Check.verify impl) in
  Alcotest.(check int) "same vectors" single.Check.vectors fleet.Check.vectors;
  Alcotest.(check bool) "ran locally" true (stats.Coordinator.local_shards >= 1)

(* Stack splitting: a cut lease returns the remainder of its DFS stack,
   disjoint from what it explored, so the fleet's folded counts describe
   disjoint work. Under the naive engine (no dedup, no sleep sets) a fleet
   cut into small leases then counts exactly the single process's
   executions; with a quantum no vector outgrows, every shard is the
   single process's search of its vector. *)
let test_fleet_counts_equal_single () =
  let impl = impl_of "cas" 3 in
  let serve ~engine ~quantum =
    let config =
      Coordinator.config ~quantum ~local_grace_s:0.01 (fresh_socket ())
    in
    report_of
      (fst
         (Coordinator.serve ~engine ~deadline_s:60.
            ~meta:(Protocols.meta ~name:"cas" ~procs:3)
            ~config impl))
  in
  List.iter
    (fun (what, engine, quantum, expected) ->
      let single = report_of (Check.verify ~engine impl) in
      Alcotest.(check int) (what ^ ": single process") expected
        single.Check.executions;
      Alcotest.(check int) (what ^ ": fleet") expected
        (serve ~engine ~quantum).Check.executions)
    [
      ("naive, quantum 50", Wfc_sim.Explore.naive, 50, 13_686);
      ("fast, quantum 1e6", Wfc_sim.Explore.fast, 1_000_000, 264);
    ]

(* The smallest lease still expands a node, so the run finishes. *)
let test_quantum_one () =
  let impl = impl_of "cas" 3 in
  let config = Coordinator.config ~quantum:1 ~local_grace_s:0.01 (fresh_socket ()) in
  match
    Coordinator.serve ~deadline_s:60.
      ~meta:(Protocols.meta ~name:"cas" ~procs:3)
      ~config impl
  with
  | Check.Verified _, _ -> ()
  | v, _ -> Alcotest.failf "quantum 1: %a" Check.pp_verdict v

(* Worker 0 crashes in its first lease and worker 1 delays every result
   past lease expiry, so each lease either takes is lost. Worker 2, which
   writes wire garbage, can reach the coordinator only once a lease was
   lost: its socket path is linked to the coordinator's at the first lease
   miss. No local grace ends the wait for workers, so the run cannot end
   before the chaos costs a lease, however slowly the workers start. Its
   garbage must reach the coordinator, which drops the connection and
   takes the worker back when it re-attaches, and none of it may change
   the single process's verdict or vector count. *)
let test_parity_chaos_mix () =
  let socket = fresh_socket () in
  let late = socket ^ ".late" in
  let chaos = function
    | 0 -> { Chaos.none with Chaos.kill_after = Some 1 }
    | _ -> { Chaos.none with Chaos.delay_result_s = Some 2.0 }
  in
  let pids =
    Local.spawn ~chaos ~addr:socket 2
    @ Local.spawn
        ~chaos:(fun _ -> { Chaos.none with Chaos.garbage_after = Some 2 })
        ~seed:2 ~addr:late 1
  in
  let bad_frames = ref 0 in
  let log m =
    if contains m "garbage on the wire" then incr bad_frames;
    if contains m " lost (" && not (Sys.file_exists late) then
      Unix.symlink socket late
  in
  let config =
    Coordinator.config ~lease_s:1.5 ~quantum:60 ~local_grace_s:3600. ~log
      socket
  in
  let verdict, stats =
    Fun.protect
      ~finally:(fun () ->
        Local.shutdown pids;
        try Sys.remove late with Sys_error _ -> ())
      (fun () ->
        Coordinator.serve
          ~meta:[ ("protocol", "sticky"); ("procs", "3") ]
          ~config (impl_of "sticky" 3))
  in
  let kind = function
    | Check.Verified _ -> "verified"
    | Check.Falsified _ -> "falsified"
    | Check.Unknown _ -> "unknown"
  in
  let single_verdict = Check.verify (impl_of "sticky" 3) in
  Alcotest.(check string) "same verdict" (kind single_verdict) (kind verdict);
  let fleet = report_of verdict and single = report_of single_verdict in
  Alcotest.(check int) "same vectors" single.Check.vectors fleet.Check.vectors;
  Alcotest.(check bool)
    "chaos produced lease misses" true
    (stats.Coordinator.lease_misses >= 1);
  Alcotest.(check bool)
    "garbage reached the coordinator" true
    (!bad_frames + stats.Coordinator.reattaches >= 1);
  Alcotest.(check bool)
    "misses surfaced as degradation" true
    (fleet.Check.degraded >= stats.Coordinator.lease_misses)

(* A coordinator that drops a connection on wire garbage may do so after
   the worker wrote its lease's result into it: the write succeeded on the
   worker's side and the result is lost, while the worker's reconnect
   re-attaches the parked lease, which then waits out its expiry. So the
   worker keeps its last result until its next lease and sends it again
   after a reconnect's Hello. A scripted coordinator plays the other side:
   it takes the result, closes the connection, and expects the result again
   on the next one. *)
let test_result_resent_after_reconnect () =
  let module Transport = Wfc_fleet.Transport in
  let socket = fresh_socket () in
  let addr = Result.get_ok (Transport.parse socket) in
  let listener = Transport.listen addr in
  let pids = Local.spawn ~addr:socket 1 in
  Fun.protect ~finally:(fun () ->
      Local.shutdown pids;
      Transport.close_noerr listener;
      Transport.unlink_noerr addr)
  @@ fun () ->
  let within = 10. in
  let rec accept deadline =
    if Unix.gettimeofday () > deadline then Alcotest.fail "no connection";
    match Unix.select [ listener ] [] [] 0.1 with
    | [], _, _ -> accept deadline
    | _ -> (
      match Transport.accept listener with
      | Some fd -> fd
      | None -> accept deadline)
  in
  (* the next message other than a heartbeat *)
  let rec next fd frames deadline =
    match Codec.Frames.pop frames with
    | Ok (Some (Codec.Heartbeat _)) -> next fd frames deadline
    | Ok (Some msg) -> msg
    | Error e -> Alcotest.fail e
    | Ok None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "no message but heartbeats";
      (match Unix.select [ fd ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ ->
        if Codec.Frames.read_from frames fd = 0 then
          Alcotest.fail "the worker closed the connection");
      next fd frames deadline
  in
  let connection () =
    let fd = accept (Unix.gettimeofday () +. within) in
    let frames = Codec.Frames.create () in
    (match next fd frames (Unix.gettimeofday () +. within) with
    | Codec.Hello _ -> ()
    | _ -> Alcotest.fail "expected a Hello first");
    (fd, frames)
  in
  let result fd frames =
    match next fd frames (Unix.gettimeofday () +. within) with
    | Codec.Result { shard = 7; outcome = Codec.Done ck } -> ck
    | _ -> Alcotest.fail "expected shard 7's result"
  in
  let impl = impl_of "sticky" 3 in
  let v = List.hd (Check.vectors impl) in
  let job =
    Checkpoint.make
      ~meta:(Protocols.meta ~name:"sticky" ~procs:3)
      ~engine:Wfc_sim.Explore.fast ~fuel:Wfc_sim.Explore.default_fuel
      ~faults:Faults.none ~workloads:v.Check.workloads
      ~counts:(Checkpoint.zero_counts ~n_objs:1)
      ~frontier:[ [] ] ()
  in
  let c1, f1 = connection () in
  Codec.write c1
    (Codec.Lease { shard = 7; lease_s = 30.; quantum = 1_000_000; job });
  let first = result c1 f1 in
  Transport.close_noerr c1;
  let c2, f2 = connection () in
  let again = result c2 f2 in
  Transport.close_noerr c2;
  Alcotest.(check string) "the same result"
    (Checkpoint.to_string first) (Checkpoint.to_string again)

(* A flush that fails never ends the run: a directory at the checkpoint's
   path makes every save fail at its rename. Periodic flushes (interval 0)
   are reported and the run goes on to its verdict; a cut's final flush
   becomes the verdict's [unsaved]. Neither leaves a [.tmp] file. *)
let test_failed_flush () =
  let dir = fresh_socket () ^ ".ck" in
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) @@ fun () ->
  let impl = impl_of "cas" 3 in
  let serve ?budget () =
    fst
      (Coordinator.serve ?budget ~checkpoint:(dir, 0.)
         ~meta:(Protocols.meta ~name:"cas" ~procs:3)
         ~config:(Coordinator.config ~local_grace_s:0. (fresh_socket ()))
         impl)
  in
  (match serve () with
  | Check.Verified _ -> ()
  | v -> Alcotest.failf "periodic failures: %a" Check.pp_verdict v);
  (match serve ~budget:100 () with
  | Check.Unknown { reason = "node budget exhausted"; unsaved = Some _; _ } -> ()
  | v -> Alcotest.failf "final failure: %a" Check.pp_verdict v);
  Alcotest.(check bool) "no .tmp left" false (Sys.file_exists (dir ^ ".tmp"))

let test_requeue_then_local_fallback () =
  (* the only worker dies on its first shard and never comes back: the
     shard is requeued once, lost again (nobody left to run it), and the
     coordinator drains everything itself — the run still completes *)
  let chaos _ = { Chaos.none with Chaos.kill_after = Some 2 } in
  let verdict, stats = serve_fleet ~workers:1 ~chaos ~name:"sticky" ~procs:3 () in
  let fleet = report_of verdict in
  let single = report_of (Check.verify (impl_of "sticky" 3)) in
  Alcotest.(check int) "same vectors" single.Check.vectors fleet.Check.vectors;
  Alcotest.(check bool) "lease lost" true (stats.Coordinator.lease_misses >= 1);
  Alcotest.(check bool)
    "coordinator drained locally" true
    (stats.Coordinator.local_shards >= 1);
  Alcotest.(check bool)
    "losses surfaced" true
    (fleet.Check.degraded >= stats.Coordinator.lease_misses)

let test_parity_falsified () =
  let verdict, _ = serve_fleet ~name:"broken" ~procs:2 () in
  (match Check.verify (impl_of "broken" 2) with
  | Check.Falsified _ -> ()
  | _ -> Alcotest.fail "single-process missed the broken protocol");
  match verdict with
  | Check.Falsified v ->
    Alcotest.(check bool) "reason attributed" true (String.length v.Check.reason > 0);
    (match v.Check.witness with
    | None -> Alcotest.fail "no witness"
    | Some w -> (
      (* the coordinator only trusts replay-validated violations; the
         shrunk witness must still replay to a bad leaf *)
      match Witness.replay (impl_of "broken" 2) w with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "witness does not replay: %s" e))
  | Check.Verified _ -> Alcotest.fail "fleet verified a broken protocol"
  | Check.Unknown { reason; _ } -> Alcotest.failf "fleet punted: %s" reason

let test_fleet_cut_resumes_in_single_process () =
  (* budget-cut fleet run flushes a wfc-checkpoint/2 file that plain
     Check.verify resumes to the exact full report — the fleet and the
     single process are interchangeable mid-run *)
  let ckfile = Filename.temp_file "wfc_fleet_cut" ".ck" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckfile with Sys_error _ -> ())
  @@ fun () ->
  let verdict, _ =
    serve_fleet ~workers:0 ~budget:100 ~checkpoint:ckfile ~name:"sticky"
      ~procs:3 ()
  in
  (match verdict with
  | Check.Unknown _ -> ()
  | Check.Verified _ ->
    Alcotest.fail "budget 100 did not cut (test needs a smaller budget)"
  | Check.Falsified v -> Alcotest.failf "falsified: %s" v.Check.reason);
  let ck =
    match Checkpoint.load ckfile with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "flushed checkpoint unreadable: %s" e
  in
  let resumed = report_of (Check.verify ~resume:ck (impl_of "sticky" 3)) in
  let direct = report_of (Check.verify (impl_of "sticky" 3)) in
  Alcotest.(check int) "vectors stitched" direct.Check.vectors resumed.Check.vectors;
  Alcotest.(check int)
    "executions stitched" direct.Check.executions resumed.Check.executions;
  Alcotest.(check int)
    "longest run stitched" direct.Check.max_events resumed.Check.max_events

let test_single_process_cut_resumes_in_fleet () =
  let ckfile = Filename.temp_file "wfc_single_cut" ".ck" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckfile with Sys_error _ -> ())
  @@ fun () ->
  let meta = [ ("protocol", "sticky"); ("procs", "3") ] in
  (match
     Check.verify ~budget:100 ~checkpoint:(ckfile, 1e9) ~meta
       (impl_of "sticky" 3)
   with
  | Check.Unknown _ -> ()
  | _ -> Alcotest.fail "budget 100 did not cut");
  let ck =
    match Checkpoint.load ckfile with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "checkpoint unreadable: %s" e
  in
  let verdict, _ =
    serve_fleet ~workers:2 ~resume:ck ~name:"sticky" ~procs:3 ()
  in
  let resumed = report_of verdict in
  let direct = report_of (Check.verify (impl_of "sticky" 3)) in
  Alcotest.(check int) "vectors stitched" direct.Check.vectors resumed.Check.vectors;
  Alcotest.(check bool)
    "executions cover the direct count" true
    (resumed.Check.executions >= direct.Check.executions)

(* A checkpoint that is not this run's is refused by both sides with one
   message, before the coordinator binds its socket. *)
let test_resume_refusal_parity () =
  let impl = impl_of "sticky" 3 in
  let v1 = List.hd (Check.vectors impl) in
  let bad ?(fuel = Wfc_sim.Explore.default_fuel) meta =
    Checkpoint.make ~meta ~engine:Wfc_sim.Explore.fast ~fuel
      ~faults:Faults.none ~workloads:v1.Check.workloads
      ~counts:(Checkpoint.zero_counts ~n_objs:1)
      ~frontier:[ [] ] ()
  in
  let ledger vector =
    Check.ledger_meta { Check.vector; report = Check.empty_report }
  in
  let refusal f =
    match f () with
    | _ -> Alcotest.fail "a bad checkpoint was accepted"
    | exception Invalid_argument msg -> msg
  in
  List.iter
    (fun (what, ck) ->
      let single =
        refusal (fun () -> ignore (Check.verify ~resume:ck impl))
      in
      let socket = fresh_socket () in
      let fleet =
        refusal (fun () ->
            ignore
              (Coordinator.serve ~resume:ck
                 ~meta:(Protocols.meta ~name:"sticky" ~procs:3)
                 ~config:(Coordinator.config socket) impl))
      in
      Alcotest.(check string) (what ^ ": same message") single fleet;
      Alcotest.(check bool)
        (what ^ ": refused before listening")
        false (Sys.file_exists socket))
    [
      ("no ledger", bad [ ("protocol", "sticky") ]);
      ( "malformed key",
        bad
          (List.map
             (fun (k, v) -> if k = "check.executions" then (k, "x") else (k, v))
             (ledger 1)) );
      ("vector out of range", bad (ledger 999));
      ("another problem", bad ~fuel:7 (ledger 1));
    ]

(* What a budget spends on the first [k] vectors, each drained from its
   root: the engine's limiter visits the root, then one configuration per
   node below it. *)
let spent_on_first impl k =
  Check.book ~engine:Wfc_sim.Explore.fast ~fuel:Wfc_sim.Explore.default_fuel
    ~faults:Faults.none impl
  |> Check.jobs |> Seq.take k
  |> Seq.fold_left
       (fun acc (_, job) ->
         match Check.run_job impl job with
         | Check.Drained counts -> acc + counts.Checkpoint.nodes + 1
         | _ -> Alcotest.fail "an unbudgeted job did not drain")
       0

(* The fleet, flushing the pending prefixes of its shards, and the single
   process, saving its job's remainder, both checkpoint vector k with the
   same ledger when a budget cuts them inside vector k. A quantum larger
   than any vector makes every shard a whole vector, searched as the single
   process searches it, and each lease is capped at the budget left, so the
   two make the same cuts. One visit past the vectors before k enters
   vector k's root and cuts at its first child. *)
let test_cut_ledgers_agree () =
  let impl = impl_of "sticky" 3 in
  let k = 6 in
  let budget = spent_on_first impl (k - 1) + 1 in
  let ledger_of path =
    match Checkpoint.load path with
    | Error e -> Alcotest.failf "checkpoint unreadable: %s" e
    | Ok ck -> (
      match Check.ledger_of_checkpoint ck with
      | Ok l -> l
      | Error e -> Alcotest.failf "no ledger: %s" e)
  in
  let single_ck = Filename.temp_file "wfc_single_cut" ".ck" in
  let fleet_ck = Filename.temp_file "wfc_fleet_cut" ".ck" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ single_ck; fleet_ck ])
  @@ fun () ->
  (match
     Check.verify ~budget
       ~checkpoint:(single_ck, 3600.) impl
   with
  | Check.Unknown _ -> ()
  | v -> Alcotest.failf "single process not cut: %a" Check.pp_verdict v);
  let config =
    Coordinator.config ~quantum:100_000 ~local_grace_s:0.01 (fresh_socket ())
  in
  (match
     Coordinator.serve ~budget ~checkpoint:(fleet_ck, 2.)
       ~meta:(Protocols.meta ~name:"sticky" ~procs:3)
       ~config impl
   with
  | Check.Unknown _, _ -> ()
  | v, _ -> Alcotest.failf "fleet not cut: %a" Check.pp_verdict v);
  let single = ledger_of single_ck and fleet = ledger_of fleet_ck in
  Alcotest.(check int) "single process cut at vector k" k single.Check.vector;
  Alcotest.(check bool) "equal check.* entries" true (single = fleet)

(* One account of a budgeted run: with no workers and a quantum no smaller
   than the budget, the fleet runs the single process's jobs in its order,
   each lease capped at the budget left, so both report the same partial
   vectors and executions when the budget cuts them. *)
let test_budget_parity () =
  let impl = impl_of "cas" 4 in
  let faults = Faults.crashes 1 in
  List.iter
    (fun budget ->
      let partial what = function
        | Check.Unknown { partial; reason = "node budget exhausted"; _ } ->
          partial
        | v -> Alcotest.failf "%s at budget %d: %a" what budget Check.pp_verdict v
      in
      let single = partial "verify" (Check.verify ~faults ~budget impl) in
      let config =
        Coordinator.config ~quantum:1_000_000 ~local_grace_s:0. (fresh_socket ())
      in
      let fleet =
        partial "serve"
          (fst
             (Coordinator.serve ~faults ~budget
                ~meta:(Protocols.meta ~name:"cas" ~procs:4)
                ~config impl))
      in
      let at what = Fmt.str "%s at budget %d" what budget in
      Alcotest.(check int) (at "vectors") single.Check.vectors fleet.Check.vectors;
      Alcotest.(check int)
        (at "executions") single.Check.executions fleet.Check.executions)
    [ 40; 1000; 5000 ]

(* One budget unit: the account charges a job what the engine's limiter
   spent, so a budget of exactly what the first k vectors spend drains
   those k vectors and stops before the next one starts, in the single
   process and in a worker-less fleet alike. *)
let test_budget_ends_on_a_vector () =
  let impl = impl_of "sticky" 3 in
  List.iter
    (fun k ->
      let budget = spent_on_first impl k in
      let partial what = function
        | Check.Unknown { partial; reason = "node budget exhausted"; _ } ->
          partial
        | v -> Alcotest.failf "%s at k = %d: %a" what k Check.pp_verdict v
      in
      let single = partial "verify" (Check.verify ~budget impl) in
      let config =
        Coordinator.config ~quantum:1_000_000 ~local_grace_s:0. (fresh_socket ())
      in
      let fleet =
        partial "serve"
          (fst
             (Coordinator.serve ~budget
                ~meta:(Protocols.meta ~name:"sticky" ~procs:3)
                ~config impl))
      in
      let at what = Fmt.str "%s at k = %d" what k in
      Alcotest.(check int) (at "verify drains k vectors") k single.Check.vectors;
      Alcotest.(check int) (at "serve drains k vectors") k fleet.Check.vectors;
      Alcotest.(check int)
        (at "executions") single.Check.executions fleet.Check.executions)
    [ 1; 5; 12; 25 ]

(* --------------------------------------------------------------------------- *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "fleet"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip, every message kind" `Quick
            test_codec_roundtrip_each;
          Alcotest.test_case "newline flattening" `Quick
            test_codec_newline_flattening;
          Alcotest.test_case "malformed payloads rejected" `Quick
            test_codec_rejects;
          qt prop_codec_roundtrip;
          qt prop_decode_total;
        ] );
      ( "frames",
        [
          Alcotest.test_case "reassembly from 1-byte chunks" `Quick
            test_frames_chunked;
          Alcotest.test_case "truncated frame stays pending" `Quick
            test_frames_truncated;
          Alcotest.test_case "oversized length prefix rejected" `Quick
            test_frames_oversized_length;
          qt prop_frames_fuzz_total;
          qt prop_frames_random_splits;
        ] );
      ( "shards",
        [
          Alcotest.test_case "split partitions the frontier" `Quick
            test_split_partitions_frontier;
          Alcotest.test_case "add_counts merges ledgers" `Quick test_add_counts;
          Alcotest.test_case "tampered checkpoint rejected" `Quick
            test_save_tamper_rejected;
          Alcotest.test_case "exec_shard leaves tmp dir untouched" `Quick
            test_exec_shard_no_temp_files;
        ] );
      ( "chaos-plans",
        [
          Alcotest.test_case "spec round-trip" `Quick test_chaos_spec_roundtrip;
          Alcotest.test_case "seeded plans replayable" `Quick
            test_chaos_seeded_deterministic;
          Alcotest.test_case "cross-side refusal" `Quick
            test_chaos_cross_side_refusal;
        ] );
      ("backoff", [ Alcotest.test_case "jittered, capped, seeded" `Quick test_backoff ]);
      ( "fleet",
        [
          Alcotest.test_case "verdict parity, healthy fleet" `Slow
            test_parity_clean;
          Alcotest.test_case "verdict parity under kill/garbage/delay chaos"
            `Slow test_parity_chaos_mix;
          Alcotest.test_case "quantum smaller than a shard still finishes"
            `Quick test_quantum_smaller_than_shard;
          Alcotest.test_case "requeue once, then local fallback" `Slow
            test_requeue_then_local_fallback;
          Alcotest.test_case "broken protocol falsified with replayable witness"
            `Slow test_parity_falsified;
          Alcotest.test_case "fleet cut resumes in a single process" `Slow
            test_fleet_cut_resumes_in_single_process;
          Alcotest.test_case "single-process cut resumes in the fleet" `Slow
            test_single_process_cut_resumes_in_fleet;
          Alcotest.test_case "refusal parity with Check.verify" `Quick
            test_resume_refusal_parity;
          Alcotest.test_case "cut ledgers equal at one vector" `Quick
            test_cut_ledgers_agree;
          Alcotest.test_case "small leases count the single process's executions"
            `Quick test_fleet_counts_equal_single;
          Alcotest.test_case "quantum 1 still finishes" `Quick test_quantum_one;
          Alcotest.test_case "budgeted verify and serve report alike" `Quick
            test_budget_parity;
          Alcotest.test_case "a budget ends on a vector boundary" `Quick
            test_budget_ends_on_a_vector;
          Alcotest.test_case "a failed flush never ends the run" `Quick
            test_failed_flush;
          Alcotest.test_case "a result written into a dropped connection is \
                              re-sent"
            `Quick test_result_resent_after_reconnect;
        ] );
    ]
