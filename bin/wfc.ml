(* wfc — command-line front end for the reproduction.

   Subcommands:
     zoo        the type catalog with §5.1/§5.2 analyses
     verify     exhaustively check a consensus protocol (with optional
                fault adversaries, budgets and witness output)
     serve      the same verification, distributed: coordinate a fleet of
                workers over a Unix-domain socket
     worker     join a fleet as a worker process
     checkpoint inspect a saved checkpoint without resuming it
     explore    §4.2 execution-tree statistics for a protocol
     compile    Theorem 5: eliminate a protocol's registers over a type
     stress     multicore agreement trials
     replay     re-execute a stored counterexample witness, event by event
*)

open Cmdliner
open Wfc_spec
open Wfc_zoo
open Wfc_consensus
open Wfc_core

(* --- shared arguments ------------------------------------------------------ *)

(* Refuse what the user gave: print [wfc: reason] and exit 1 before any
   work starts, never an uncaught exception. *)
let refuse fmt =
  Fmt.kstr
    (fun reason ->
      Fmt.epr "wfc: %s@." reason;
      Stdlib.exit 1)
    fmt

let protocol_names = Protocols.names

let make_protocol ?procs name =
  match Protocols.of_name ?procs name with
  | Ok impl -> impl
  | Error e -> refuse "%s" e

let protocol_arg =
  let doc =
    Fmt.str "Consensus protocol: %s." (String.concat ", " protocol_names)
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROTOCOL" ~doc)

let procs_arg =
  let doc = "Number of processes (cas/sticky only)." in
  Arg.(value & opt int 2 & info [ "n"; "procs" ] ~docv:"N" ~doc)

(* --- zoo -------------------------------------------------------------------- *)

let zoo_cmd =
  let run () =
    Fmt.pr "%-20s %-5s %-5s %-7s %-4s %s@." "type" "det" "obl" "trivial" "cn"
      "notes";
    List.iter
      (fun (e : Catalog.entry) -> Fmt.pr "%a@." Catalog.pp_entry e)
      (Catalog.all ~ports:2);
    Fmt.pr "@.§5.1 witnesses:@.";
    List.iter
      (fun (e : Catalog.entry) ->
        match Triviality.decide e.Catalog.spec with
        | Ok (Triviality.Nontrivial w) ->
          Fmt.pr "  %-20s %a@." e.Catalog.spec.Type_spec.name
            Triviality.pp_witness w
        | Ok Triviality.Trivial ->
          Fmt.pr "  %-20s trivial@." e.Catalog.spec.Type_spec.name
        | Error _ -> ())
      (Catalog.all ~ports:2)
  in
  Cmd.v (Cmd.info "zoo" ~doc:"List the type catalog with §5 analyses")
    Term.(const run $ const ())

(* --- verify ------------------------------------------------------------------ *)

let crashes_arg =
  let doc = "Allow up to $(docv) mid-operation crashes." in
  Arg.(value & opt int 0 & info [ "crashes" ] ~docv:"K" ~doc)

let recoveries_arg =
  let doc =
    "Allow up to $(docv) crash-recoveries (a crashed process restarts its \
     pending operation from scratch against the dirty shared state)."
  in
  Arg.(value & opt int 0 & info [ "recoveries" ] ~docv:"K" ~doc)

let glitches_arg =
  let doc = "Allow up to $(docv) degraded-read glitches (needs --degrade)." in
  Arg.(value & opt int 0 & info [ "glitches" ] ~docv:"K" ~doc)

let degrade_arg =
  let doc =
    "Degrade every base object: 'safe' (overlapping reads may return any \
     declared response) or 'stale:$(i,D)' (reads may answer from one of the \
     D most recently overwritten states)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "degrade" ] ~docv:"safe|stale:D" ~doc)

let budget_arg =
  let doc =
    "Bound the whole search to $(docv) explored configurations; when \
     exhausted the verdict is UNKNOWN (exit 2), never a hang."
  in
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"NODES" ~doc)

let deadline_arg =
  let doc = "Wall-clock bound in seconds; like --budget, cuts to UNKNOWN." in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let witness_out_arg =
  let doc = "On violation, store the shrunk replayable witness to $(docv)." in
  Arg.(value & opt (some string) None & info [ "witness" ] ~docv:"FILE" ~doc)

let no_symmetry_arg =
  let doc =
    "Disable process-symmetry reduction (merging schedules that differ only \
     by a permutation of equal-input processes of a symmetric protocol): \
     duplicate states are keyed pid-exactly. Escape hatch for debugging; \
     verdicts are identical either way, symmetry only shrinks the explored \
     state space."
  in
  Arg.(value & flag & info [ "no-symmetry" ] ~doc)

let checkpoint_arg =
  let doc =
    "Periodically (see $(b,--checkpoint-interval)) save a resumable \
     checkpoint of the search frontier to $(docv); on a budget, deadline or \
     SIGINT/SIGTERM cut the final frontier is flushed there, and \
     $(b,wfc verify PROTOCOL --resume) $(docv) continues the run. The file \
     is removed once a definitive verdict is reached."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let checkpoint_interval_arg =
  let doc = "Seconds between periodic checkpoint saves." in
  Arg.(
    value
    & opt float 5.0
    & info [ "checkpoint-interval" ] ~docv:"SECONDS" ~doc)

let resume_arg =
  let doc =
    "Resume a checkpointed verification from $(docv): already-verified \
     input vectors are skipped and the interrupted vector picks up at its \
     saved frontier. Pass the remaining $(b,--budget)/$(b,--deadline) \
     explicitly (they are not stored); without them the resumed run is \
     unbounded. Checkpointing continues to the same file unless \
     $(b,--checkpoint) names another."
  in
  Arg.(value & opt (some file) None & info [ "resume" ] ~docv:"FILE" ~doc)

let mem_budget_arg =
  let doc =
    "Cap the duplicate-state table at $(docv) MiB: the largest power of \
     two of 16-byte slots that fits, never below 1,024 slots (0 is the \
     smallest table), filled up to 7/8 load, so 1 MiB holds 57,344 \
     states. A full table is emptied instead of growing, so the \
     search revisits states it forgot and the verdict stays exact; the \
     report counts the flushes. It bounds the table, not the heap. A tiny \
     cap can cost many revisits: $(b,--budget) and $(b,--deadline) still \
     bound the run."
  in
  Arg.(value & opt (some int) None & info [ "mem-budget" ] ~docv:"MB" ~doc)

let profile_arg =
  let doc =
    "Sample the program counter on SIGPROF while verifying and write the \
     samples to $(docv): the executable's load base, then one PC per line. \
     $(b,tools/profile_report.py) $(docv) prints the share of samples per \
     symbol. The kernel delivers at most one sample per scheduler tick of \
     CPU (about 4 ms), so a one-second run gives a few hundred samples. \
     x86-64 Linux only; elsewhere the flag fails before verifying."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let parse_degrade impl ~glitches = function
  | None -> None
  | Some "safe" -> Some (Wfc_sim.Faults.degrade_all impl ~glitches `Safe)
  | Some s -> (
    match String.split_on_char ':' s with
    | [ "stale" ] -> Some (Wfc_sim.Faults.degrade_all impl ~glitches (`Stale 1))
    | [ "stale"; d ] -> (
      match int_of_string_opt d with
      | Some d when d > 0 ->
        Some (Wfc_sim.Faults.degrade_all impl ~glitches (`Stale d))
      | _ -> refuse "bad --degrade depth %S" d)
    | _ -> refuse "bad --degrade %S (want safe or stale:D)" s)

let faults_of_flags impl ~crashes ~recoveries ~glitches ~degrade =
  let degraded =
    match parse_degrade impl ~glitches degrade with
    | None ->
      if glitches > 0 then
        refuse "--glitches needs --degrade to name the faulty objects";
      []
    | Some f -> f.Wfc_sim.Faults.degraded
  in
  {
    Wfc_sim.Faults.max_crashes = crashes;
    max_recoveries = recoveries;
    max_glitches = glitches;
    degraded;
  }

(* Load-and-sanity-check a checkpoint named by --resume: shared between the
   single-process verifier and the fleet coordinator, which accept each
   other's files. *)
let load_resume ~name ~procs = function
  | None -> None
  | Some file -> (
    match Wfc_sim.Checkpoint.load file with
    | Error e -> refuse "cannot load checkpoint %s: %s" file e
    | Ok ck ->
      (match Protocols.of_meta ~procs ck.Wfc_sim.Checkpoint.meta with
      | Ok (p, _) when not (String.equal p name) ->
        refuse "checkpoint %s was taken for protocol %s, not %s" file p name
      | Ok (_, k) when k <> procs ->
        refuse "checkpoint %s was taken with %d processes, not %d" file k
          procs
      | _ -> ());
      Some ck)

(* A checkpoint path in a missing directory would fail only at the first
   save, in the middle of the search: refuse it before anything runs. *)
let require_checkpoint_dir = function
  | None -> ()
  | Some path -> (
    match Wfc_sim.Checkpoint.check_path path with
    | Ok () -> ()
    | Error e -> refuse "%s" e)

(* Arm SIGINT/SIGTERM as a cooperative cut: the engine (or coordinator)
   polls the flag, flushes a final checkpoint and reports UNKNOWN
   (interrupted) → exit 2. *)
let arm_interrupt () =
  let flag = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set flag true) in
  List.iter
    (fun s ->
      try Sys.set_signal s handler with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  flag

(* The one verdict printer: `wfc verify`, `wfc serve` and `wfc compile`'s
   re-verification must agree on both the text and the exit code (0
   verified / 1 falsified / 2 unknown), so a fleet run is a drop-in
   replacement in scripts and CI. *)
let print_verdict ~name ~procs ~crashes ~recoveries ~glitches ~degrade
    ~witness_file ~checkpoint verdict =
  let pp_pressure ppf (r : Check.report) =
    if r.Check.degraded > 0 then
      Fmt.pf ppf "@.degraded: absorbed %d worker failure/stall event(s)."
        r.Check.degraded;
    if r.Check.evictions > 0 then
      Fmt.pf ppf
        "@.memory budget: emptied the duplicate-state table %d time(s); the \
         verdict is exact."
        r.Check.evictions
  in
  match verdict with
  | Check.Verified r ->
    Fmt.pr
      "OK: agreement, validity and wait-freedom hold over %d executions \
       (%d input vectors, longest run %d events, max %d accesses per \
       op).%a@."
      r.Check.executions r.Check.vectors r.Check.max_events
      r.Check.max_op_steps pp_pressure r;
    0
  | Check.Falsified v ->
    Fmt.pr "VIOLATION: %a@." Check.pp_violation v;
    (match (witness_file, v.Check.witness) with
    | Some file, Some w ->
      let w =
        {
          w with
          Wfc_sim.Witness.meta = Protocols.meta ~name ~procs;
        }
      in
      let oc = open_out file in
      output_string oc (Wfc_sim.Witness.to_string w);
      close_out oc;
      Fmt.pr "witness stored to %s (replay with: wfc replay %s)@." file file
    | Some _, None -> Fmt.pr "no witness to store for this violation@."
    | None, _ -> ());
    1
  | Check.Unknown { partial; reason; unsaved } ->
    Fmt.pr
      "UNKNOWN (%s): not falsified within %d vector(s), %d execution(s)%s%a@."
      reason partial.Check.vectors partial.Check.executions
      (match (checkpoint, unsaved) with
      | Some f, None ->
        let flag k v = if v = 0 then "" else Fmt.str " --%s %d" k v in
        Fmt.str " — resume with: wfc verify %s -n %d%s%s%s%s --resume %s"
          name procs (flag "crashes" crashes)
          (flag "recoveries" recoveries) (flag "glitches" glitches)
          (match degrade with Some d -> " --degrade " ^ d | None -> "")
          f
      | _ -> " — raise --budget/--deadline for a verdict.")
      pp_pressure partial;
    Option.iter (Fmt.pr "checkpoint not written: %s@.") unsaved;
    2

let verify_cmd =
  let run name procs crashes recoveries glitches degrade budget deadline_s
      witness_file no_symmetry ckpt_file ckpt_interval
      resume_file mem_budget_mb profile_file =
    require_checkpoint_dir ckpt_file;
    let impl = make_protocol ~procs name in
    let faults =
      faults_of_flags impl ~crashes ~recoveries ~glitches ~degrade
    in
    if not (Wfc_sim.Faults.is_none faults) then
      Fmt.pr "adversary: %a@." Wfc_sim.Faults.pp faults;
    let engine =
      {
        Wfc_sim.Explore.fast with
        dedup = (if no_symmetry then Wfc_sim.Explore.Exact else Symmetric);
      }
    in
    let resume = load_resume ~name ~procs resume_file in
    let checkpoint =
      match (ckpt_file, resume_file) with
      | Some f, _ | None, Some f -> Some (f, ckpt_interval)
      | None, None -> None
    in
    let interrupt =
      match checkpoint with None -> None | Some _ -> Some (arm_interrupt ())
    in
    let meta = Protocols.meta ~name ~procs in
    Option.iter (fun _ -> Wfc_sim.Sampler.start ()) profile_file;
    let verdict =
      Check.verify ~faults ?budget ?deadline_s ~engine ?checkpoint ?resume
        ?mem_budget_mb ?interrupt ~meta impl
    in
    Option.iter
      (fun file ->
        let p = Wfc_sim.Sampler.stop () in
        Wfc_sim.Sampler.write file p;
        Fmt.epr "profile: %d sample(s) written to %s@."
          (Array.length p.Wfc_sim.Sampler.pcs)
          file)
      profile_file;
    print_verdict ~name ~procs ~crashes ~recoveries ~glitches ~degrade
      ~witness_file
      ~checkpoint:(Option.map fst checkpoint)
      verdict
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Exhaustively check a consensus protocol, optionally under a fault \
          adversary and/or an exploration budget")
    Term.(
      const (fun n p c r g d b dl w ns cf ci rf mb pf ->
          Stdlib.exit (run n p c r g d b dl w ns cf ci rf mb pf))
      $ protocol_arg $ procs_arg $ crashes_arg $ recoveries_arg $ glitches_arg
      $ degrade_arg $ budget_arg $ deadline_arg $ witness_out_arg
      $ no_symmetry_arg $ checkpoint_arg
      $ checkpoint_interval_arg $ resume_arg $ mem_budget_arg $ profile_arg)

(* --- serve / worker: the distributed fleet ---------------------------------- *)

(* One address grammar for the whole fleet (Transport.parse): a bare PATH
   or unix:PATH is a Unix-domain socket, tcp:HOST:PORT crosses machines.
   --socket is the historical spelling, kept as an alias. *)
let fleet_addr_arg alias =
  let doc =
    "Fleet rendezvous address: $(i,PATH) or unix:$(i,PATH) for a \
     Unix-domain socket, tcp:$(i,HOST):$(i,PORT) for TCP."
  in
  Arg.(
    value
    & opt string
        (Filename.concat (Filename.get_temp_dir_name ()) "wfc-fleet.sock")
    & info [ "socket"; alias ] ~docv:"ADDR" ~doc)

(* Both sides parse one grammar; each refuses the other side's kinds, so
   a misplaced fault is a usage error, not an option that does nothing. *)
let chaos_conv side =
  Arg.conv
    ( (fun s ->
        Result.map_error (fun e -> `Msg e) (Wfc_fleet.Chaos.of_spec side s)),
      Wfc_fleet.Chaos.pp )

let chaos_arg =
  let doc =
    "Fault-injection plan for (forked) workers: comma-separated kill:N, \
     stall:N, garbage:N, delay:F, or seed:S:W for a replayable randomized \
     plan; wire faults are refused (see $(b,wfc netchaos)). Test harness — \
     production fleets run without it."
  in
  Arg.(
    value
    & opt (chaos_conv Wfc_fleet.Chaos.Process) Wfc_fleet.Chaos.none
    & info [ "chaos" ] ~docv:"SPEC" ~doc)

let verbose_arg =
  let doc = "Log fleet events (joins, leases, losses, steals) to stderr." in
  Arg.(value & flag & info [ "verbose" ] ~doc)

let serve_cmd =
  let workers_arg =
    let doc =
      "Fork $(docv) local worker processes (0: rely entirely on external \
       $(b,wfc worker) processes joining the socket; the coordinator still \
       finishes alone if nobody ever comes)."
    in
    Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let lease_arg =
    let doc =
      "Lease duration in seconds: a worker that misses heartbeats for this \
       long is declared lost and its shard is requeued (once; then run \
       locally)."
    in
    Arg.(value & opt float 10. & info [ "lease" ] ~docv:"SECONDS" ~doc)
  in
  let quantum_arg =
    let doc =
      "Node budget per lease — the work-stealing grain: a cut shard's \
       remaining frontier is split across idle workers."
    in
    Arg.(value & opt int 20_000 & info [ "quantum" ] ~docv:"NODES" ~doc)
  in
  let chaos_seed_arg =
    let doc =
      "Give forked worker $(i,i) the replayable randomized plan \
       seed:$(docv):$(i,i) (overrides --chaos)."
    in
    Arg.(value & opt (some int) None & info [ "chaos-seed" ] ~docv:"SEED" ~doc)
  in
  let local_grace_arg =
    let doc =
      "With no connected workers after $(docv) seconds, the coordinator \
       starts draining shards itself (it never deadlocks waiting for a \
       fleet that never comes)."
    in
    Arg.(value & opt float 1. & info [ "local-grace" ] ~docv:"SECONDS" ~doc)
  in
  let run name procs crashes recoveries glitches degrade budget deadline_s
      witness_file ckpt_file resume_file socket workers lease_s quantum
      local_grace_s chaos chaos_seed verbose =
    require_checkpoint_dir ckpt_file;
    let impl = make_protocol ~procs name in
    let faults =
      faults_of_flags impl ~crashes ~recoveries ~glitches ~degrade
    in
    if not (Wfc_sim.Faults.is_none faults) then
      Fmt.pr "adversary: %a@." Wfc_sim.Faults.pp faults;
    let resume = load_resume ~name ~procs resume_file in
    let checkpoint =
      match (ckpt_file, resume_file) with
      | Some f, _ | None, Some f -> Some f
      | None, None -> None
    in
    let chaos =
      match chaos_seed with
      | Some seed -> fun i -> Wfc_fleet.Chaos.(seeded Process ~seed ~index:i)
      | None -> fun _ -> chaos
    in
    (* Fork the local pool before binding the socket (children retry with
       jittered backoff, so the ordering race is harmless) and before any
       domain is spawned. *)
    let pids =
      if workers > 0 then Wfc_fleet.Local.spawn ~chaos ~addr:socket workers
      else []
    in
    let log =
      if verbose then fun m -> Fmt.epr "[serve] %s@." m else fun _ -> ()
    in
    let config =
      Wfc_fleet.Coordinator.config ~lease_s ~quantum ~local_grace_s
        ?checkpoint ~log socket
    in
    let meta = Protocols.meta ~name ~procs in
    let interrupt = arm_interrupt () in
    let verdict, fstats =
      Wfc_fleet.Coordinator.serve ~faults ?budget ?deadline_s ?resume
        ~interrupt ~meta ~config impl
    in
    Wfc_fleet.Local.shutdown pids;
    Fmt.pr
      "fleet: %d worker(s) seen, %d shard(s) run (%d locally, %d splits, %d \
       steals), %d lease miss(es) absorbed, %d re-attach(es).@."
      fstats.Wfc_fleet.Coordinator.workers_seen
      fstats.Wfc_fleet.Coordinator.shards_run
      fstats.Wfc_fleet.Coordinator.local_shards
      fstats.Wfc_fleet.Coordinator.splits fstats.Wfc_fleet.Coordinator.steals
      fstats.Wfc_fleet.Coordinator.lease_misses
      fstats.Wfc_fleet.Coordinator.reattaches;
    print_verdict ~name ~procs ~crashes ~recoveries ~glitches ~degrade
      ~witness_file ~checkpoint verdict
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Verify a consensus protocol on a fleet of worker processes: same \
          search, same verdicts and exit codes as $(b,wfc verify), \
          tolerating worker crashes, stalls and partitions")
    Term.(
      const (fun n p c r g d b dl w cf rf sk wk ls q lg ch cs v ->
          Stdlib.exit (run n p c r g d b dl w cf rf sk wk ls q lg ch cs v))
      $ protocol_arg $ procs_arg $ crashes_arg $ recoveries_arg $ glitches_arg
      $ degrade_arg $ budget_arg $ deadline_arg $ witness_out_arg
      $ checkpoint_arg $ resume_arg $ fleet_addr_arg "listen" $ workers_arg
      $ lease_arg $ quantum_arg $ local_grace_arg $ chaos_arg $ chaos_seed_arg
      $ verbose_arg)

let worker_cmd =
  let name_arg =
    let doc = "Worker name reported to the coordinator." in
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc)
  in
  let seed_arg =
    let doc = "Reconnect-jitter seed." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let attempts_arg =
    let doc = "Give up after $(docv) consecutive failed connection attempts." in
    Arg.(value & opt int 60 & info [ "connect-attempts" ] ~docv:"K" ~doc)
  in
  let token_arg =
    let doc =
      "Session token sent in Hello (default: fresh). A worker that loses \
       its connection reconnects with the same token and re-attaches to \
       its live lease instead of forfeiting the shard."
    in
    Arg.(value & opt (some string) None & info [ "token" ] ~docv:"TOKEN" ~doc)
  in
  let persist_arg =
    let doc =
      "Standing-fleet mode: when a coordinator says shutdown, wait for the \
       next one instead of exiting (how a $(b,wfc queue) worker pool \
       outlives individual jobs)."
    in
    Arg.(value & flag & info [ "persist" ] ~doc)
  in
  let run socket name token chaos seed attempts persist verbose =
    let log =
      if verbose then fun m -> Fmt.epr "[worker] %s@." m else fun _ -> ()
    in
    let cfg =
      Wfc_fleet.Worker.config ?name ?token ~chaos ~seed
        ~connect_attempts:attempts ~persist ~log socket
    in
    match Wfc_fleet.Worker.run cfg with
    | Ok () -> 0
    | Error e ->
      Fmt.epr "worker: %s@." e;
      3
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Join a $(b,wfc serve) fleet: lease shards, explore them, heartbeat, \
          reconnect with jittered backoff when the coordinator vanishes")
    Term.(
      const (fun s n t c sd a p v -> Stdlib.exit (run s n t c sd a p v))
      $ fleet_addr_arg "connect" $ name_arg $ token_arg $ chaos_arg
      $ seed_arg $ attempts_arg $ persist_arg $ verbose_arg)

(* --- netchaos: the wire-level fault proxy ---------------------------------- *)

let netchaos_cmd =
  let listen_arg =
    let doc = "Address to accept fleet clients on ($(i,PATH), unix:, tcp:)." in
    Arg.(
      required & opt (some string) None & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let upstream_arg =
    let doc = "Real coordinator address to forward to." in
    Arg.(
      required
      & opt (some string) None
      & info [ "upstream" ] ~docv:"ADDR" ~doc)
  in
  let plan_arg =
    let doc =
      "Fault plan: comma-separated latency:LO-HI, partition:N:S, reset:N, \
       fragment, corrupt:N, jitter:J, or seed:S:K for a replayable \
       randomized plan; process faults are refused (see $(b,wfc worker))."
    in
    Arg.(
      value
      & opt (chaos_conv Wfc_fleet.Chaos.Wire) Wfc_fleet.Chaos.none
      & info [ "plan" ] ~docv:"SPEC" ~doc)
  in
  let run listen upstream plan verbose =
    let parse what s =
      match Wfc_fleet.Transport.parse s with
      | Ok a -> a
      | Error e -> refuse "bad %s address: %s" what e
    in
    let listen = parse "listen" listen in
    let upstream = parse "upstream" upstream in
    let log =
      if verbose then fun m -> Fmt.epr "[netchaos] %s@." m else fun _ -> ()
    in
    Fmt.pr "netchaos: %a -> %a plan %a@." Wfc_fleet.Transport.pp listen
      Wfc_fleet.Transport.pp upstream Wfc_fleet.Chaos.pp plan;
    let stop = arm_interrupt () in
    Wfc_fleet.Netchaos.run ~log ~stop ~listen ~upstream plan;
    0
  in
  Cmd.v
    (Cmd.info "netchaos"
       ~doc:
         "Interpose a seeded, replayable network-fault proxy (latency, \
          partitions, resets, fragmentation, corruption) between fleet \
          workers and their coordinator")
    Term.(
      const (fun l u p v -> Stdlib.exit (run l u p v))
      $ listen_arg $ upstream_arg $ plan_arg $ verbose_arg)

(* --- queue: the standing job queue ------------------------------------------ *)

let queue_cmd =
  let journal_arg =
    let doc =
      "Append-only fsync'd journal: progress survives any crash, and \
       re-running with the same journal resumes instead of repeating."
    in
    Arg.(
      required & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let state_dir_arg =
    let doc = "Directory for per-job resume checkpoints." in
    Arg.(
      required
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let protocols_arg =
    let doc =
      "Protocols to queue, comma-separated $(i,NAME) or $(i,NAME):$(i,PROCS) \
       (default procs 2)."
    in
    Arg.(
      value
      & opt string "tas,faa,swap,queue,cas,sticky"
      & info [ "protocols" ] ~docv:"LIST" ~doc)
  in
  let crashes_list_arg =
    let doc = "Adversary column of the matrix: comma-separated crash budgets." in
    Arg.(value & opt string "0,1" & info [ "crashes" ] ~docv:"LIST" ~doc)
  in
  let max_retries_arg =
    let doc = "Attempts per job before it is quarantined." in
    Arg.(value & opt int 3 & info [ "max-retries" ] ~docv:"K" ~doc)
  in
  let workers_arg =
    let doc =
      "Fork $(docv) persistent local workers for the whole matrix (0: \
       external $(b,wfc worker --persist) processes, or coordinator-local \
       execution)."
    in
    Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let budget_arg =
    let doc = "Per-job node budget; a cut job records UNKNOWN." in
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"NODES" ~doc)
  in
  let deadline_arg =
    let doc = "Per-job wall-clock bound in seconds." in
    Arg.(
      value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let lease_arg =
    let doc = "Lease duration in seconds (as in $(b,wfc serve))." in
    Arg.(value & opt float 10. & info [ "lease" ] ~docv:"SECONDS" ~doc)
  in
  let quantum_arg =
    let doc = "Node budget per lease (as in $(b,wfc serve))." in
    Arg.(value & opt int 20_000 & info [ "quantum" ] ~docv:"NODES" ~doc)
  in
  let parse_matrix ~protocols ~crashes =
    let protocols =
      List.map
        (fun entry ->
          match String.index_opt entry ':' with
          | None -> (entry, 2)
          | Some i -> (
            let name = String.sub entry 0 i in
            let procs =
              String.sub entry (i + 1) (String.length entry - i - 1)
            in
            match int_of_string_opt procs with
            | Some p when p >= 2 -> (name, p)
            | _ -> refuse "bad protocol entry %S (want NAME[:PROCS])" entry))
        (String.split_on_char ',' protocols)
    in
    List.iter
      (fun (name, procs) -> ignore (make_protocol ~procs name))
      protocols;
    let crashes =
      List.map
        (fun c ->
          match int_of_string_opt c with
          | Some c when c >= 0 -> c
          | _ -> refuse "bad crash budget %S" c)
        (String.split_on_char ',' crashes)
    in
    Wfc_fleet.Jobqueue.matrix ~protocols ~crashes
  in
  let run journal state_dir protocols crashes max_retries socket workers
      budget deadline_s lease_s quantum verbose =
    let jobs = parse_matrix ~protocols ~crashes in
    let log =
      if verbose then fun m -> Fmt.epr "[queue] %s@." m else fun _ -> ()
    in
    (* One persistent pool for the whole matrix: workers survive the
       per-job coordinator shutdowns and re-attach to the next job. *)
    let pids =
      if workers > 0 then Wfc_fleet.Local.spawn ~persist:true ~addr:socket workers
      else []
    in
    let interrupt = arm_interrupt () in
    let exec (j : Wfc_fleet.Jobqueue.job) ~checkpoint ~resume =
      match Protocols.of_name ~procs:j.Wfc_fleet.Jobqueue.procs j.protocol with
      | Error e -> Error e
      | Ok impl -> (
        let config =
          Wfc_fleet.Coordinator.config ~lease_s ~quantum ~checkpoint ~log
            socket
        in
        let meta = Protocols.meta ~name:j.protocol ~procs:j.procs in
        match
          Wfc_fleet.Coordinator.serve
            ~faults:(Wfc_sim.Faults.crashes j.crashes)
            ?budget ?deadline_s ?resume ~interrupt ~meta ~config impl
        with
        | Check.Verified _, _ -> Ok Wfc_fleet.Jobqueue.Verified
        | Check.Falsified _, _ -> Ok Wfc_fleet.Jobqueue.Falsified
        | Check.Unknown { reason = "interrupted"; _ }, _ ->
          (* not a job verdict: leave it in-flight for the next run *)
          Error "interrupted"
        | Check.Unknown { reason; _ }, _ ->
          Ok (Wfc_fleet.Jobqueue.Unknown reason)
        | exception e -> Error (Printexc.to_string e))
    in
    let result =
      Wfc_fleet.Jobqueue.run ~journal ~state_dir ~max_retries ~interrupt ~log
        ~exec jobs
    in
    Wfc_fleet.Local.shutdown pids;
    match result with
    | Error e ->
      Fmt.epr "wfc: %s@." e;
      1
    | Ok r ->
      List.iter
        (fun (e : Wfc_fleet.Jobqueue.entry) ->
          Fmt.pr "%-16s %a@." e.Wfc_fleet.Jobqueue.job.Wfc_fleet.Jobqueue.id
            Wfc_fleet.Jobqueue.pp_status e.Wfc_fleet.Jobqueue.status)
        r.Wfc_fleet.Jobqueue.entries;
      let pending =
        List.length r.Wfc_fleet.Jobqueue.entries
        - r.Wfc_fleet.Jobqueue.completed - r.Wfc_fleet.Jobqueue.quarantined
      in
      let falsified =
        List.exists
          (fun (e : Wfc_fleet.Jobqueue.entry) ->
            e.Wfc_fleet.Jobqueue.status
            = Wfc_fleet.Jobqueue.Done Wfc_fleet.Jobqueue.Falsified)
          r.Wfc_fleet.Jobqueue.entries
      in
      Fmt.pr
        "queue: %d job(s) done, %d quarantined, %d pending, %d retried \
         attempt(s).@."
        r.Wfc_fleet.Jobqueue.completed r.Wfc_fleet.Jobqueue.quarantined
        pending r.Wfc_fleet.Jobqueue.retried;
      if pending > 0 || r.Wfc_fleet.Jobqueue.quarantined > 0 then 2
      else if falsified then 1
      else 0
  in
  Cmd.v
    (Cmd.info "queue"
       ~doc:
         "Drain a protocol × adversary verification matrix through the \
          fleet with per-job retries, quarantine and a crash-safe journal: \
          kill it at any point and re-run the same command to resume with \
          no job lost or verdict duplicated"
       ~exits:
         (Cmd.Exit.info 1
              ~doc:
                "a job was falsified, or the journal could not be read or \
                 written or the state directory created: a full disk or a \
                 file size limit stops the run with \
                 $(b,wfc: journal) $(i,FILE)$(b,: cannot write:) \
                 $(i,reason), and the same command resumes it once there is \
                 room."
         :: Cmd.Exit.info 2 ~doc:"jobs are left pending or quarantined."
         :: Cmd.Exit.defaults))
    Term.(
      const (fun j sd p c mr sk w b dl ls q v ->
          Stdlib.exit (run j sd p c mr sk w b dl ls q v))
      $ journal_arg $ state_dir_arg $ protocols_arg $ crashes_list_arg
      $ max_retries_arg $ fleet_addr_arg "listen" $ workers_arg $ budget_arg
      $ deadline_arg $ lease_arg $ quantum_arg $ verbose_arg)

(* --- checkpoint info ---------------------------------------------------------- *)

let checkpoint_cmd =
  let file_arg =
    let doc = "Checkpoint file written by wfc verify/serve." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let info_run file =
    let first_line =
      let ic = open_in_bin file in
      let l = try input_line ic with End_of_file -> "" in
      close_in ic;
      l
    in
    match Wfc_sim.Checkpoint.load file with
    | Error e ->
      Fmt.pr "cannot load %s: %s@." file e;
      1
    | Ok ck ->
      let c = ck.Wfc_sim.Checkpoint.counts in
      let e = ck.Wfc_sim.Checkpoint.engine in
      Fmt.pr "%s@." file;
      Fmt.pr "  format        %s@."
        (match String.index_opt first_line ' ' with
        | Some i -> String.sub first_line 0 i
        | None -> first_line);
      (match
         Protocols.of_meta
           ~procs:(Array.length ck.Wfc_sim.Checkpoint.workloads)
           ck.Wfc_sim.Checkpoint.meta
       with
      | Ok (p, _) -> Fmt.pr "  protocol      %s@." p
      | Error _ -> ());
      Fmt.pr "  processes     %d@."
        (Array.length ck.Wfc_sim.Checkpoint.workloads);
      Fmt.pr "  engine        dedup=%s por=%b@."
        (Wfc_sim.Checkpoint.dedup_to_string e.Wfc_sim.Checkpoint.dedup)
        e.Wfc_sim.Checkpoint.por;
      Fmt.pr "  fuel          %d@." ck.Wfc_sim.Checkpoint.fuel;
      (match ck.Wfc_sim.Checkpoint.budget_left with
      | Some b -> Fmt.pr "  budget left   %d nodes@." b
      | None -> ());
      if not (Wfc_sim.Faults.is_none ck.Wfc_sim.Checkpoint.faults) then
        Fmt.pr "  adversary     %a@." Wfc_sim.Faults.pp
          ck.Wfc_sim.Checkpoint.faults;
      Fmt.pr "  frontier      %d pending subtree prefix(es)@."
        (List.length ck.Wfc_sim.Checkpoint.frontier);
      Fmt.pr "  counts        %d leaves, %d nodes, %d overflows, %d pruned, \
              %d evictions@."
        c.Wfc_sim.Checkpoint.leaves c.Wfc_sim.Checkpoint.nodes
        c.Wfc_sim.Checkpoint.overflows c.Wfc_sim.Checkpoint.pruned
        c.Wfc_sim.Checkpoint.evictions;
      (match Check.ledger_of_checkpoint ck with
      | Ok ledger ->
        (* each entry as stored, named without its [check.] prefix *)
        List.iter
          (fun (k, v) ->
            Fmt.pr "  %-13s %s@." (List.nth (String.split_on_char '.' k) 1) v)
          (Check.ledger_meta ledger)
      | Error _ -> ());
      0
  in
  let info_cmd =
    Cmd.v
      (Cmd.info "info"
         ~doc:
           "Print a checkpoint's protocol, engine configuration, frontier \
            size and accumulated statistics without resuming it")
      Term.(const (fun f -> Stdlib.exit (info_run f)) $ file_arg)
  in
  Cmd.group
    (Cmd.info "checkpoint" ~doc:"Inspect saved verification checkpoints")
    [ info_cmd ]

(* --- explore ------------------------------------------------------------------ *)

let explore_cmd =
  let run name procs =
    let impl = make_protocol ~procs name in
    match Access_bounds.analyze impl with
    | Ok r ->
      Fmt.pr "%a@." Access_bounds.pp_report r;
      0
    | Error e ->
      Fmt.pr "analysis failed: %s@." e;
      1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Section 4.2: execution-tree statistics and the bound D")
    Term.(const (fun n p -> Stdlib.exit (run n p)) $ protocol_arg $ procs_arg)

(* --- compile ------------------------------------------------------------------ *)

let type_arg =
  let doc =
    "Type T supplying the one-use bits (a catalog name, e.g. test-and-set, \
     fifo-queue, sticky-bit, non-oblivious-flag), or 'cas-consensus' for \
     the §5.3 route."
  in
  Arg.(
    value
    & opt string "test-and-set"
    & info [ "t"; "type" ] ~docv:"TYPE" ~doc)

let compile_cmd =
  let run name procs tname =
    let impl = make_protocol ~procs name in
    let strategy =
      if String.equal tname "cas-consensus" then
        Ok (Theorem5.Consensus_based (fun () -> Protocols.from_cas ~procs:2 ()))
      else
        match Catalog.find ~ports:2 tname with
        | e -> Theorem5.strategy_for e.Catalog.spec
        | exception Not_found -> Error (Fmt.str "unknown type %s" tname)
    in
    match strategy with
    | Error e ->
      Fmt.pr "no strategy: %s@." e;
      1
    | Ok strategy -> (
      match Theorem5.eliminate_registers ~strategy impl with
      | Error e ->
        Fmt.pr "compilation failed: %s@." e;
        1
      | Ok r ->
        Fmt.pr "%a@." Theorem5.pp_report r;
        (* the same exhaustive verdict, text and exit code as `wfc verify` *)
        print_verdict ~name ~procs ~crashes:0 ~recoveries:0 ~glitches:0
          ~degrade:None ~witness_file:None ~checkpoint:None
          (Check.verify r.Theorem5.compiled))
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Theorem 5: compile a register-using protocol to register-free")
    Term.(
      const (fun n p t -> Stdlib.exit (run n p t))
      $ protocol_arg $ procs_arg $ type_arg)

(* --- valence ------------------------------------------------------------------- *)

let valence_cmd =
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Also write the valence-coloured execution tree as DOT.")
  in
  let run name procs dot =
    let impl = make_protocol ~procs name in
    let inputs = List.init procs (fun p -> p mod 2 = 1) in
    match Valence.analyze impl ~inputs () with
    | Ok r -> (
      Fmt.pr "inputs [%a]: %a@."
        Fmt.(list ~sep:(any ";") bool)
        inputs Valence.pp_report r;
      match dot with
      | None -> 0
      | Some file -> (
        match Valence.to_dot impl ~inputs () with
        | Ok dot_src ->
          let oc = open_out file in
          output_string oc dot_src;
          close_out oc;
          Fmt.pr "wrote %s@." file;
          0
        | Error e ->
          Fmt.pr "dot export failed: %s@." e;
          1))
    | Error e ->
      Fmt.pr "analysis failed: %s@." e;
      1
  in
  Cmd.v
    (Cmd.info "valence"
       ~doc:
         "FLP-style valence analysis: find the critical configurations and \
          the objects that decide")
    Term.(
      const (fun n p d -> Stdlib.exit (run n p d))
      $ protocol_arg $ procs_arg $ dot_arg)

(* --- trace --------------------------------------------------------------------- *)

let trace_cmd =
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Schedule seed.")
  in
  let run name procs seed =
    let impl = make_protocol ~procs name in
    let rng = Random.State.make [| seed |] in
    let sched = Wfc_sim.Schedulers.random rng in
    let inputs = List.init procs (fun p -> p mod 2 = 1) in
    Fmt.pr "tracing %a with inputs [%a], seed %d:@."
      Wfc_program.Implementation.pp_summary impl
      Fmt.(list ~sep:(any ";") bool)
      inputs seed;
    let i = ref 0 in
    let leaf =
      Wfc_sim.Exec.run impl
        ~workloads:
          (Array.of_list
             (List.map (fun b -> [ Ops.propose (Value.bool b) ]) inputs))
        ~pick_proc:sched.Wfc_sim.Schedulers.pick_proc
        ~pick_alt:sched.Wfc_sim.Schedulers.pick_alt
        ~on_event:(fun ev ->
          incr i;
          Fmt.pr "  %3d  %a@." !i (Wfc_sim.Exec.pp_event impl) ev)
        ()
    in
    List.iter
      (fun (o : Wfc_sim.Exec.op) ->
        Fmt.pr "process %d decided %a@." o.proc Value.pp o.resp)
      leaf.Wfc_sim.Exec.ops;
    0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print one random execution of a protocol, event by event")
    Term.(
      const (fun n p s -> Stdlib.exit (run n p s))
      $ protocol_arg $ procs_arg $ seed_arg)

(* --- stress -------------------------------------------------------------------- *)

let stress_cmd =
  let trials_arg =
    Arg.(value & opt int 500 & info [ "trials" ] ~docv:"K" ~doc:"Trial count.")
  in
  let seed_arg =
    let doc =
      "RNG seed for the trial schedules (default: random; the seed used is \
       always printed, so any run can be reproduced with --seed)."
    in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let run name procs trials seed =
    let seed =
      match seed with
      | Some s -> s
      | None ->
        Random.self_init ();
        Random.int 0x3FFFFFFF
    in
    Fmt.pr "seed %d@." seed;
    let make () = make_protocol ~procs name in
    match Wfc_multicore.Runtime.consensus_trials ~seed ~make ~trials () with
    | Ok t ->
      Fmt.pr "%d/%d parallel trials agreed.@." t trials;
      0
    | Error e ->
      Fmt.pr "VIOLATION: %s (reproduce with --seed %d)@." e seed;
      1
  in
  Cmd.v
    (Cmd.info "stress" ~doc:"Multicore agreement trials on real domains")
    Term.(
      const (fun n p t s -> Stdlib.exit (run n p t s))
      $ protocol_arg $ procs_arg $ trials_arg $ seed_arg)

(* --- replay -------------------------------------------------------------------- *)

let replay_cmd =
  let file_arg =
    let doc = "Witness file stored by 'wfc verify --witness'." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let contents =
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    match Wfc_sim.Witness.of_string contents with
    | Error e ->
      Fmt.pr "cannot parse %s: %s@." file e;
      1
    | Ok w -> (
      let name, procs =
        match
          Protocols.of_meta
            ~procs:(Array.length w.Wfc_sim.Witness.workloads)
            w.Wfc_sim.Witness.meta
        with
        | Ok np -> np
        | Error e ->
          refuse "witness %s: %s; cannot rebuild the implementation" file e
      in
      let impl = make_protocol ~procs name in
      Fmt.pr "replaying %s (%a)@." file Wfc_program.Implementation.pp_summary
        impl;
      Fmt.pr "%a@." Wfc_sim.Witness.pp w;
      let i = ref 0 in
      match
        Wfc_sim.Witness.replay impl
          ~on_event:(fun ev ->
            incr i;
            Fmt.pr "  %3d  %a@." !i (Wfc_sim.Exec.pp_event impl) ev)
          w
      with
      | Error e ->
        Fmt.pr "replay failed: %s@." e;
        1
      | Ok leaf ->
        List.iter
          (fun (o : Wfc_sim.Exec.op) ->
            Fmt.pr "process %d (op %d) responded %a@." o.proc o.op_index
              Value.pp o.resp)
          leaf.Wfc_sim.Exec.ops;
        (* re-diagnose agreement/validity against the workloads' proposals *)
        let inputs = Check.inputs_of_workloads w.Wfc_sim.Witness.workloads in
        (match (leaf.Wfc_sim.Exec.ops, Check.check_leaf ~inputs leaf) with
        | [], _ -> Fmt.pr "no operation completed on this path.@."
        | _, Ok () -> Fmt.pr "agreement and validity hold on this path.@."
        | _, Error reason -> Fmt.pr "VIOLATION reproduced: %s@." reason);
        0)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Deterministically re-execute a stored counterexample witness, \
          event by event")
    Term.(const (fun f -> Stdlib.exit (run f)) $ file_arg)

let () =
  (* Fleet sockets everywhere: a peer disappearing mid-write must surface
     as EPIPE/ECONNRESET (mapped to the lease-loss/reconnect paths), never
     as a process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let doc =
    "Reproduction of 'On the Use of Registers in Achieving Wait-Free \
     Consensus' (Bazzi, Neiger, Peterson; PODC 1994)"
  in
  Stdlib.exit
    (Cmd.eval
       (Cmd.group (Cmd.info "wfc" ~doc)
          [
            zoo_cmd; verify_cmd; serve_cmd; worker_cmd; netchaos_cmd;
            queue_cmd; checkpoint_cmd; explore_cmd; compile_cmd; valence_cmd;
            trace_cmd; stress_cmd; replay_cmd;
          ]))
