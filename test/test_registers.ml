(* E2 — the Section 4.1 register-construction chain.

   Positive tests: every construction satisfies its advertised register
   condition (safe / regular / atomic) on ALL interleavings of small
   workloads. Negative controls: the classic broken variants fail exactly
   the condition they are supposed to fail. Stacked tests: the composed
   chain (down to SRSW safe/regular bits) still works. *)

open Wfc_spec
open Wfc_zoo
open Wfc_program
open Wfc_registers

let bool_domain = [ Value.falsity; Value.truth ]

let w v = Ops.write v
let wi i = Ops.write (Value.int i)
let r = Ops.read

(* Explore all executions, applying [check] to each leaf history. *)
let forall_leaves impl ~workloads ~check =
  let failure = ref None in
  let stats =
    Wfc_sim.Exec.explore impl ~workloads
      ~on_leaf:(fun leaf ->
        match check leaf.Wfc_sim.Exec.ops with
        | Ok () -> ()
        | Error msg ->
          failure := Some msg;
          raise Wfc_sim.Exec.Stop)
      ()
  in
  Alcotest.(check int) "wait-free (no fuel overflow)" 0
    stats.Wfc_sim.Exec.overflows;
  (match !failure with
  | Some msg -> Alcotest.failf "violation: %s" msg
  | None -> ());
  stats.Wfc_sim.Exec.leaves

let exists_violation impl ~workloads ~check =
  let found = ref false in
  let (_ : Wfc_sim.Exec.stats) =
    Wfc_sim.Exec.explore impl ~workloads
      ~on_leaf:(fun leaf ->
        if Result.is_error (check leaf.Wfc_sim.Exec.ops) then begin
          found := true;
          raise Wfc_sim.Exec.Stop
        end)
      ()
  in
  !found

let safe_check ~init ops =
  Result.map_error
    (Fmt.str "%a" Wfc_linearize.Register_props.pp_failure)
    (Wfc_linearize.Register_props.check_safe ~init ~domain:bool_domain ops)

let regular_check ~init ops =
  Result.map_error
    (Fmt.str "%a" Wfc_linearize.Register_props.pp_failure)
    (Wfc_linearize.Register_props.check_regular ~init ops)

let atomic_check ~spec ~init ops =
  match Wfc_linearize.Engine.check ~spec ~init ops with
  | Wfc_linearize.Engine.Linearizable _ -> Ok ()
  | Wfc_linearize.Engine.Not_linearizable m -> Error m

(* --- C1: replication ----------------------------------------------------- *)

let test_c1_safe () =
  let impl = Replicate.mrsw_bit ~base:`Safe ~readers:2 ~init:false () in
  let leaves =
    forall_leaves impl
      ~workloads:[| [ w Value.truth ]; [ r; r ]; [ r ] |]
      ~check:(safe_check ~init:Value.falsity)
  in
  Alcotest.(check bool) "explored some interleavings" true (leaves > 50)

let test_c1_regular () =
  let impl = Replicate.mrsw_bit ~base:`Regular ~readers:2 ~init:false () in
  ignore
    (forall_leaves impl
       ~workloads:[| [ w Value.truth ]; [ r; r ]; [ r ] |]
       ~check:(regular_check ~init:Value.falsity))

let test_c1_safe_not_regular () =
  (* replication over safe bits is NOT regular: a same-value write can make
     an overlapping read return the complement. *)
  let impl = Replicate.mrsw_bit ~base:`Safe ~readers:1 ~init:false () in
  Alcotest.(check bool) "safe replication fails regularity" true
    (exists_violation impl
       ~workloads:[| [ w Value.falsity ]; [ r ] |]
       ~check:(regular_check ~init:Value.falsity))

let test_c1_roles () =
  let impl = Replicate.mrsw_bit ~base:`Safe ~readers:1 ~init:false () in
  Alcotest.(check bool) "reader cannot write" true
    (match impl.Implementation.program ~proc:1 ~inv:(w Value.truth) Value.unit with
    | _ -> false
    | exception Roles.Role_violation _ -> true);
  Alcotest.(check bool) "writer cannot read" true
    (match impl.Implementation.program ~proc:0 ~inv:r Value.unit with
    | _ -> false
    | exception Roles.Role_violation _ -> true)

(* --- C2: write-on-change --------------------------------------------------- *)

let test_c2_regular () =
  let impl = On_change.regular_bit ~readers:1 ~init:false () in
  ignore
    (forall_leaves impl
       ~workloads:[| [ w Value.falsity; w Value.truth; w Value.truth ]; [ r; r ] |]
       ~check:(regular_check ~init:Value.falsity))

let test_c2_unguarded_fails () =
  let impl = On_change.regular_bit ~guard:false ~readers:1 ~init:false () in
  Alcotest.(check bool) "same-value write breaks regularity" true
    (exists_violation impl
       ~workloads:[| [ w Value.falsity ]; [ r ] |]
       ~check:(regular_check ~init:Value.falsity))

let test_c2_guard_suppresses_accesses () =
  (* a guarded same-value write performs zero base accesses *)
  let impl = On_change.regular_bit ~readers:1 ~init:false () in
  let resps, leaf =
    Wfc_sim.Exec.sequential_oracle impl [ w Value.falsity ]
  in
  Alcotest.(check int) "one response" 1 (List.length resps);
  Alcotest.(check int) "no base access" 0
    (Array.fold_left ( + ) 0 leaf.Wfc_sim.Exec.accesses)

(* --- C3: unary code ---------------------------------------------------------- *)

let test_c3_regular () =
  let impl = Unary.regular_reg ~readers:1 ~values:2 ~init:0 () in
  ignore
    (forall_leaves impl
       ~workloads:[| [ wi 1 ]; [ r; r ] |]
       ~check:(regular_check ~init:(Value.int 0)))

let test_c3_regular_three_values () =
  let impl = Unary.regular_reg ~readers:1 ~values:3 ~init:2 () in
  ignore
    (forall_leaves impl
       ~workloads:[| [ wi 0 ]; [ r; r ] |]
       ~check:(regular_check ~init:(Value.int 2)))

let test_c3_clear_first_fails () =
  let impl = Unary.regular_reg ~set_first:false ~readers:1 ~values:3 ~init:0 () in
  Alcotest.(check bool) "clear-before-set loses the value" true
    (exists_violation impl
       ~workloads:[| [ wi 2 ]; [ r ] |]
       ~check:(regular_check ~init:(Value.int 0)))

let test_c3_sequential () =
  let impl = Unary.regular_reg ~readers:1 ~values:4 ~init:1 () in
  (* sequential behaviour must be exactly a register; run writer ops then
     reader ops via exploration restricted to... simplest: separate runs *)
  let sched = Wfc_sim.Schedulers.round_robin in
  let leaf =
    Wfc_sim.Exec.run impl
      ~workloads:[| [ wi 3; wi 0 ]; [] |]
      ~pick_proc:sched.Wfc_sim.Schedulers.pick_proc
      ~pick_alt:sched.Wfc_sim.Schedulers.pick_alt ()
  in
  Alcotest.(check int) "writes done" 2 (List.length leaf.Wfc_sim.Exec.ops)

(* --- C4: timestamps ------------------------------------------------------------ *)

let unbounded_spec = Register.unbounded ~ports:2

let test_c4_atomic () =
  let impl = Timestamp.atomic_srsw ~init:(Value.int 0) () in
  ignore
    (forall_leaves impl
       ~workloads:[| [ wi 1; wi 2 ]; [ r; r; r ] |]
       ~check:(atomic_check ~spec:unbounded_spec ~init:(Value.int 0)))

let test_c4_no_cache_fails () =
  let impl = Timestamp.atomic_srsw ~cache:false ~init:(Value.int 0) () in
  Alcotest.(check bool) "new/old inversion without reader cache" true
    (exists_violation impl
       ~workloads:[| [ wi 1 ]; [ r; r ] |]
       ~check:(atomic_check ~spec:unbounded_spec ~init:(Value.int 0)))

(* --- C5: readers' table --------------------------------------------------------- *)

let test_c5_atomic () =
  let impl = Readers_table.atomic_mrsw ~readers:2 ~init:(Value.int 0) () in
  ignore
    (forall_leaves impl
       ~workloads:[| [ wi 1 ]; [ r ]; [ r ] |]
       ~check:
         (atomic_check ~spec:(Register.unbounded ~ports:3) ~init:(Value.int 0)))

let test_c5_no_report_fails () =
  let impl =
    Readers_table.atomic_mrsw ~report:false ~readers:2 ~init:(Value.int 0) ()
  in
  Alcotest.(check bool) "two readers invert without reports" true
    (exists_violation impl
       ~workloads:[| [ wi 1 ]; [ r ]; [ r ] |]
       ~check:
         (atomic_check ~spec:(Register.unbounded ~ports:3) ~init:(Value.int 0)))

let test_c5_single_reader_cache () =
  (* with one reader the local cache alone must already give atomicity *)
  let impl =
    Readers_table.atomic_mrsw ~report:false ~readers:1 ~init:(Value.int 0) ()
  in
  ignore
    (forall_leaves impl
       ~workloads:[| [ wi 1; wi 2 ]; [ r; r ] |]
       ~check:
         (atomic_check ~spec:(Register.unbounded ~ports:2) ~init:(Value.int 0)))

(* --- C6: multi-writer ------------------------------------------------------------- *)

let test_c6_atomic () =
  let impl = Multi_writer.atomic_mrmw ~writers:2 ~extra_readers:1 ~init:(Value.int 0) () in
  ignore
    (forall_leaves impl
       ~workloads:[| [ wi 1 ]; [ wi 2 ]; [ r; r ] |]
       ~check:
         (atomic_check ~spec:(Register.unbounded ~ports:3) ~init:(Value.int 0)))

let test_c6_writers_also_read () =
  let impl = Multi_writer.atomic_mrmw ~writers:2 ~extra_readers:0 ~init:(Value.int 0) () in
  ignore
    (forall_leaves impl
       ~workloads:[| [ wi 1; r ]; [ wi 2; r ] |]
       ~check:
         (atomic_check ~spec:(Register.unbounded ~ports:2) ~init:(Value.int 0)))

let test_c6_read_only_role () =
  let impl = Multi_writer.atomic_mrmw ~writers:1 ~extra_readers:1 ~init:(Value.int 0) () in
  Alcotest.(check bool) "extra reader cannot write" true
    (match impl.Implementation.program ~proc:1 ~inv:(wi 1) Value.unit with
    | _ -> false
    | exception Roles.Role_violation _ -> true)

(* --- Simpson's four-slot algorithm --------------------------------------------------- *)

let simpson_domain = [ Value.int 0; Value.int 1; Value.int 2 ]

let test_simpson_atomic_single_write () =
  let impl = Simpson.atomic_srsw ~domain:simpson_domain ~init:(Value.int 0) () in
  ignore
    (forall_leaves impl
       ~workloads:[| [ wi 1 ]; [ r; r ] |]
       ~check:
         (atomic_check ~spec:(Register.unbounded ~ports:2) ~init:(Value.int 0)))

let test_simpson_atomic_two_writes () =
  let impl = Simpson.atomic_srsw ~domain:simpson_domain ~init:(Value.int 0) () in
  let leaves =
    forall_leaves impl
      ~workloads:[| [ wi 1; wi 2 ]; [ r; r ] |]
      ~check:
        (atomic_check ~spec:(Register.unbounded ~ports:2) ~init:(Value.int 0))
  in
  Alcotest.(check bool) "big exhaustive space" true (leaves > 100_000)

let test_simpson_slot_isolation () =
  (* the four-slot property itself: the writer never writes a data slot the
     reader is concurrently reading. With two-phase safe data slots this is
     observable: a safe read overlapping a write would branch over the whole
     domain, so on every path each READ of a data slot must return a value
     actually written there — check by regularity of the implemented
     register on every leaf (safe garbage would break it). *)
  let impl = Simpson.atomic_srsw ~domain:simpson_domain ~init:(Value.int 0) () in
  ignore
    (forall_leaves impl
       ~workloads:[| [ wi 2; wi 1 ]; [ r ] |]
       ~check:(regular_check ~init:(Value.int 0)))

let test_simpson_no_handshake_fails () =
  let impl =
    Simpson.atomic_srsw ~handshake:false ~domain:simpson_domain
      ~init:(Value.int 0) ()
  in
  Alcotest.(check bool) "no handshake: atomicity broken" true
    (exists_violation impl
       ~workloads:[| [ wi 1; wi 2 ]; [ r; r ] |]
       ~check:
         (atomic_check ~spec:(Register.unbounded ~ports:2) ~init:(Value.int 0)))

let prop_simpson_random_long_runs =
  QCheck.Test.make ~count:40 ~name:"simpson: long random runs stay atomic"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let impl =
        Simpson.atomic_srsw ~domain:simpson_domain ~init:(Value.int 0) ()
      in
      let sched = Wfc_sim.Schedulers.random rng in
      let leaf =
        Wfc_sim.Exec.run impl
          ~workloads:[| [ wi 1; wi 2; wi 0; wi 1 ]; [ r; r; r; r; r ] |]
          ~pick_proc:sched.Wfc_sim.Schedulers.pick_proc
          ~pick_alt:sched.Wfc_sim.Schedulers.pick_alt ()
      in
      Result.is_ok
        (atomic_check
           ~spec:(Register.unbounded ~ports:2)
           ~init:(Value.int 0) leaf.Wfc_sim.Exec.ops))

(* --- atomic snapshots (E16) ----------------------------------------------------------- *)

let snap_domain = [ Value.int 0; Value.int 1 ]

let lin_snapshot impl ~workloads =
  match Wfc_linearize.Engine.verify impl ~workloads () with
  | Ok st -> Ok st.Wfc_linearize.Engine.explore.Wfc_sim.Explore.leaves
  | Error v -> Error v.Wfc_linearize.Engine.reason

let test_snapshot_basic () =
  let impl = Snapshot.single_writer ~procs:2 ~domain:snap_domain () in
  match
    lin_snapshot impl
      ~workloads:
        [| [ Snapshot_type.update (Value.int 1) ]; [ Snapshot_type.scan ] |]
  with
  (* the fused incremental checker runs on the reduced (dedup+POR) engine,
     so leaf counts are engine-specific — only guard non-triviality *)
  | Ok leaves -> Alcotest.(check bool) "explored" true (leaves > 0)
  | Error e -> Alcotest.fail e

let test_snapshot_concurrent_update_scan () =
  let impl = Snapshot.single_writer ~procs:2 ~domain:snap_domain () in
  match
    lin_snapshot impl
      ~workloads:
        [|
          [ Snapshot_type.update (Value.int 1); Snapshot_type.scan ];
          [ Snapshot_type.update (Value.int 0) ];
        |]
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_snapshot_borrow_path () =
  (* a double mover inside the scan's interval forces view borrowing *)
  let impl = Snapshot.single_writer ~procs:2 ~domain:snap_domain () in
  match
    lin_snapshot impl
      ~workloads:
        [|
          [ Snapshot_type.update (Value.int 1); Snapshot_type.update (Value.int 0) ];
          [ Snapshot_type.scan ];
        |]
  with
  | Ok leaves -> Alcotest.(check bool) "borrow space explored" true (leaves > 0)
  | Error e -> Alcotest.fail e

let test_snapshot_naive_refuted () =
  let impl = Snapshot.single_writer ~naive:true ~procs:3 ~domain:snap_domain () in
  Alcotest.(check bool) "single collect is not atomic" true
    (Result.is_error
       (lin_snapshot impl
          ~workloads:
            [|
              [ Snapshot_type.scan ];
              [ Snapshot_type.update (Value.int 1) ];
              [ Snapshot_type.update (Value.int 1) ];
            |]))

let test_snapshot_sequential () =
  let impl = Snapshot.single_writer ~procs:2 ~domain:snap_domain () in
  let resps, _ =
    Wfc_sim.Exec.sequential_oracle impl
      [ Snapshot_type.scan; Snapshot_type.update (Value.int 1); Snapshot_type.scan ]
  in
  Alcotest.(check (list string))
    "views evolve"
    [ "[0; 0]"; "ok"; "[1; 0]" ]
    (List.map Value.to_string resps)

let prop_snapshot_three_procs_random =
  QCheck.Test.make ~count:60
    ~name:"snapshot n=3: random + scanner-starving schedules"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let impl = Snapshot.single_writer ~procs:3 ~domain:snap_domain () in
      let sched =
        if seed mod 2 = 0 then Wfc_sim.Schedulers.random rng
        else Wfc_sim.Schedulers.handicap rng ~slow:[ 0 ] ~bias:6
      in
      let leaf =
        Wfc_sim.Exec.run impl
          ~workloads:
            [|
              [ Snapshot_type.scan; Snapshot_type.scan ];
              [
                Snapshot_type.update (Value.int 1);
                Snapshot_type.update (Value.int 0);
              ];
              [ Snapshot_type.update (Value.int 1); Snapshot_type.scan ];
            |]
          ~pick_proc:sched.Wfc_sim.Schedulers.pick_proc
          ~pick_alt:sched.Wfc_sim.Schedulers.pick_alt ()
      in
      let spec = Snapshot_type.spec ~ports:3 ~domain:snap_domain in
      Result.is_ok (atomic_check ~spec ~init:spec.Type_spec.initial
        leaf.Wfc_sim.Exec.ops))

let test_snapshot_spec_is_525_material () =
  (* the snapshot TYPE is deterministic and non-oblivious: §5.2 must find a
     pair and build a working one-use bit from a snapshot object *)
  let spec = Snapshot_type.spec ~ports:2 ~domain:snap_domain in
  Alcotest.(check bool) "non-oblivious" false (Type_spec.check_oblivious spec);
  match Wfc_core.Nontrivial_pair.search spec with
  | Ok (Some p) ->
    let impl = Wfc_core.Nontrivial_pair.one_use_bit spec p () in
    (match Wfc_core.One_use_bit.check_impl impl with
    | Ok () -> ()
    | Error e -> Alcotest.fail e)
  | Ok None -> Alcotest.fail "snapshot must be non-trivial"
  | Error e -> Alcotest.fail e

(* --- stacked chains ------------------------------------------------------------------ *)

let test_stack_regular_from_safe () =
  let impl = Chain.regular_bounded_from_safe_bits ~readers:1 ~values:2 ~init:0 () in
  Alcotest.(check int) "2 SRSW safe bits" 2 (Chain.srsw_bit_count impl);
  ignore
    (forall_leaves impl
       ~workloads:[| [ wi 1 ]; [ r; r ] |]
       ~check:(regular_check ~init:(Value.int 0)))

let test_stack_regular_from_safe_two_readers () =
  let impl = Chain.regular_bounded_from_safe_bits ~readers:2 ~values:2 ~init:1 () in
  Alcotest.(check int) "values×readers safe bits" 4 (Chain.srsw_bit_count impl);
  ignore
    (forall_leaves impl
       ~workloads:[| [ wi 0 ]; [ r ]; [ r ] |]
       ~check:(regular_check ~init:(Value.int 1)))

let test_stack_atomic_mrsw () =
  let impl = Chain.atomic_mrsw_from_regular_srsw ~readers:2 ~init:(Value.int 0) () in
  Alcotest.(check int) "readers + readers(readers-1) weak registers" 4
    (Chain.srsw_bit_count impl);
  ignore
    (forall_leaves impl
       ~workloads:[| [ wi 1 ]; [ r ]; [ r ] |]
       ~check:
         (atomic_check ~spec:(Register.unbounded ~ports:3) ~init:(Value.int 0)))

let test_stack_atomic_mrmw () =
  let impl =
    Chain.atomic_mrmw_from_regular_srsw ~writers:2 ~extra_readers:0
      ~init:(Value.int 0) ()
  in
  Alcotest.(check bool) "all weak-register bases" true
    (Chain.srsw_bit_count impl = Implementation.base_object_count impl);
  ignore
    (forall_leaves impl
       ~workloads:[| [ wi 1 ]; [ r ] |]
       ~check:
         (atomic_check ~spec:(Register.unbounded ~ports:2) ~init:(Value.int 0)))

let test_stack_atomic_mrmw_concurrent_writes () =
  let impl =
    Chain.atomic_mrmw_from_mrsw ~writers:2 ~extra_readers:0 ~init:(Value.int 0) ()
  in
  ignore
    (forall_leaves impl
       ~workloads:[| [ wi 1; r ]; [ wi 2; r ] |]
       ~check:
         (atomic_check ~spec:(Register.unbounded ~ports:2) ~init:(Value.int 0)))

(* --- randomized deep runs -------------------------------------------------------------- *)

let prop_stacked_regular_random_runs =
  QCheck.Test.make ~count:40 ~name:"stacked regular register: random schedules"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let impl =
        Chain.regular_bounded_from_safe_bits ~readers:2 ~values:3 ~init:0 ()
      in
      let sched = Wfc_sim.Schedulers.random rng in
      let leaf =
        Wfc_sim.Exec.run impl
          ~workloads:[| [ wi 2; wi 1; wi 2 ]; [ r; r; r ]; [ r; r ] |]
          ~pick_proc:sched.Wfc_sim.Schedulers.pick_proc
          ~pick_alt:sched.Wfc_sim.Schedulers.pick_alt ()
      in
      Result.is_ok (regular_check ~init:(Value.int 0) leaf.Wfc_sim.Exec.ops))

let prop_mrmw_random_runs =
  QCheck.Test.make ~count:40 ~name:"MRMW atomic register: random schedules"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let impl =
        Multi_writer.atomic_mrmw ~writers:3 ~extra_readers:1 ~init:(Value.int 0) ()
      in
      let sched = Wfc_sim.Schedulers.random rng in
      let leaf =
        Wfc_sim.Exec.run impl
          ~workloads:[| [ wi 1; r ]; [ wi 2; r ]; [ r; wi 3 ]; [ r; r ] |]
          ~pick_proc:sched.Wfc_sim.Schedulers.pick_proc
          ~pick_alt:sched.Wfc_sim.Schedulers.pick_alt ()
      in
      Result.is_ok
        (atomic_check
           ~spec:(Register.unbounded ~ports:4)
           ~init:(Value.int 0) leaf.Wfc_sim.Exec.ops))

let () =
  Alcotest.run "wfc_registers"
    [
      ( "C1 replicate",
        [
          Alcotest.test_case "safe MRSW from safe SRSW" `Quick test_c1_safe;
          Alcotest.test_case "regular MRSW from regular SRSW" `Quick
            test_c1_regular;
          Alcotest.test_case "safe is not regular" `Quick test_c1_safe_not_regular;
          Alcotest.test_case "role discipline" `Quick test_c1_roles;
        ] );
      ( "C2 on-change",
        [
          Alcotest.test_case "regular from safe" `Quick test_c2_regular;
          Alcotest.test_case "unguarded fails" `Quick test_c2_unguarded_fails;
          Alcotest.test_case "guard suppresses accesses" `Quick
            test_c2_guard_suppresses_accesses;
        ] );
      ( "C3 unary",
        [
          Alcotest.test_case "regular multivalue" `Quick test_c3_regular;
          Alcotest.test_case "three values" `Quick test_c3_regular_three_values;
          Alcotest.test_case "clear-first fails" `Quick test_c3_clear_first_fails;
          Alcotest.test_case "sequential writes" `Quick test_c3_sequential;
        ] );
      ( "C4 timestamp",
        [
          Alcotest.test_case "atomic SRSW" `Quick test_c4_atomic;
          Alcotest.test_case "no cache fails" `Quick test_c4_no_cache_fails;
        ] );
      ( "C5 readers' table",
        [
          Alcotest.test_case "atomic MRSW" `Quick test_c5_atomic;
          Alcotest.test_case "no report fails" `Quick test_c5_no_report_fails;
          Alcotest.test_case "single reader cache" `Quick
            test_c5_single_reader_cache;
        ] );
      ( "C6 multi-writer",
        [
          Alcotest.test_case "atomic MRMW" `Quick test_c6_atomic;
          Alcotest.test_case "writers also read" `Quick test_c6_writers_also_read;
          Alcotest.test_case "read-only role" `Quick test_c6_read_only_role;
        ] );
      ( "Simpson four-slot",
        [
          Alcotest.test_case "atomic, single write" `Quick
            test_simpson_atomic_single_write;
          Alcotest.test_case "atomic, two writes" `Quick
            test_simpson_atomic_two_writes;
          Alcotest.test_case "slot isolation (regularity)" `Quick
            test_simpson_slot_isolation;
          Alcotest.test_case "no handshake fails" `Quick
            test_simpson_no_handshake_fails;
          QCheck_alcotest.to_alcotest prop_simpson_random_long_runs;
        ] );
      ( "snapshots (E16)",
        [
          Alcotest.test_case "update vs scan" `Quick test_snapshot_basic;
          Alcotest.test_case "concurrent update+scan" `Quick
            test_snapshot_concurrent_update_scan;
          Alcotest.test_case "borrow path" `Quick test_snapshot_borrow_path;
          Alcotest.test_case "naive single collect refuted" `Quick
            test_snapshot_naive_refuted;
          Alcotest.test_case "sequential views" `Quick test_snapshot_sequential;
          Alcotest.test_case "snapshot type feeds §5.2" `Quick
            test_snapshot_spec_is_525_material;
          QCheck_alcotest.to_alcotest prop_snapshot_three_procs_random;
        ] );
      ( "stacked chains",
        [
          Alcotest.test_case "regular from safe bits" `Quick
            test_stack_regular_from_safe;
          Alcotest.test_case "regular, two readers" `Quick
            test_stack_regular_from_safe_two_readers;
          Alcotest.test_case "atomic MRSW full" `Quick test_stack_atomic_mrsw;
          Alcotest.test_case "atomic MRMW full" `Quick test_stack_atomic_mrmw;
          Alcotest.test_case "MRMW concurrent writes" `Quick
            test_stack_atomic_mrmw_concurrent_writes;
        ] );
      ( "randomized",
        [
          QCheck_alcotest.to_alcotest prop_stacked_regular_random_runs;
          QCheck_alcotest.to_alcotest prop_mrmw_random_runs;
        ] );
    ]
