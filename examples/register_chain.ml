(* E2's table generator: the §4.1 register-construction chain.

   For each construction (and each full stack) print the base-object
   footprint and the checker verdict on exhaustive small workloads: the weak
   constructions against safeness/regularity, the strong ones against
   linearizability. Includes the negative controls — the classic broken
   variants and exactly which condition they fail.

   $ dune exec examples/register_chain.exe *)

open Wfc_spec
open Wfc_zoo
open Wfc_program
open Wfc_registers

let w v = Ops.write v
let r = Ops.read

let explore_check impl ~workloads ~check =
  let failure = ref None in
  let stats =
    Wfc_sim.Exec.explore impl ~workloads
      ~on_leaf:(fun leaf ->
        if !failure = None then
          match check leaf.Wfc_sim.Exec.ops with
          | Ok () -> ()
          | Error msg -> failure := Some msg)
      ()
  in
  match !failure with
  | Some msg -> Fmt.str "FAILS (%s)" (String.sub msg 0 (min 40 (String.length msg)))
  | None -> Fmt.str "ok over %d executions" stats.Wfc_sim.Exec.leaves

let regular ~init ops =
  Result.map_error
    (Fmt.str "%a" Wfc_linearize.Register_props.pp_failure)
    (Wfc_linearize.Register_props.check_regular ~init ops)

let safe ~init ops =
  Result.map_error
    (Fmt.str "%a" Wfc_linearize.Register_props.pp_failure)
    (Wfc_linearize.Register_props.check_safe ~init
       ~domain:[ Value.falsity; Value.truth ] ops)

let linearizable ~spec ?init ops =
  match Wfc_linearize.Engine.check ~spec ?init ops with
  | Wfc_linearize.Engine.Linearizable _ -> Ok ()
  | Wfc_linearize.Engine.Not_linearizable m -> Error m

let atomic ~ports ~init ops =
  linearizable ~spec:(Register.unbounded ~ports) ~init ops

let row name impl verdict =
  Fmt.pr "%-44s %3d objs  %s@." name (Implementation.base_object_count impl)
    verdict

let () =
  Fmt.pr "== positive chain ==@.";
  let c1s = Replicate.mrsw_bit ~base:`Safe ~readers:2 ~init:false () in
  row "C1 safe MRSW bit ← safe SRSW bits" c1s
    (explore_check c1s
       ~workloads:[| [ w Value.truth ]; [ r; r ]; [ r ] |]
       ~check:(safe ~init:Value.falsity));
  let c2 = On_change.regular_bit ~readers:1 ~init:false () in
  row "C2 regular bit ← safe bit (write-on-change)" c2
    (explore_check c2
       ~workloads:[| [ w Value.falsity; w Value.truth ]; [ r; r ] |]
       ~check:(regular ~init:Value.falsity));
  let c3 = Unary.regular_reg ~readers:1 ~values:3 ~init:0 () in
  row "C3 regular 3-valued ← regular bits (unary)" c3
    (explore_check c3
       ~workloads:[| [ w (Value.int 2) ]; [ r; r ] |]
       ~check:(regular ~init:(Value.int 0)));
  let c4 = Timestamp.atomic_srsw ~init:(Value.int 0) () in
  row "C4 atomic SRSW ← regular SRSW (timestamps)" c4
    (explore_check c4
       ~workloads:[| [ w (Value.int 1); w (Value.int 2) ]; [ r; r ] |]
       ~check:(atomic ~ports:2 ~init:(Value.int 0)));
  let c5 = Readers_table.atomic_mrsw ~readers:2 ~init:(Value.int 0) () in
  row "C5 atomic MRSW ← atomic SRSW (readers' table)" c5
    (explore_check c5
       ~workloads:[| [ w (Value.int 1) ]; [ r ]; [ r ] |]
       ~check:(atomic ~ports:3 ~init:(Value.int 0)));
  let c6 = Multi_writer.atomic_mrmw ~writers:2 ~extra_readers:1 ~init:(Value.int 0) () in
  row "C6 atomic MRMW ← atomic MRSW (max timestamp)" c6
    (explore_check c6
       ~workloads:[| [ w (Value.int 1) ]; [ w (Value.int 2) ]; [ r; r ] |]
       ~check:(atomic ~ports:3 ~init:(Value.int 0)));

  Fmt.pr "@.== full stacks ==@.";
  let s1 = Chain.regular_bounded_from_safe_bits ~readers:2 ~values:2 ~init:0 () in
  row
    (Fmt.str "regular 2-valued MRSW ← %d SRSW safe bits"
       (Chain.srsw_bit_count s1))
    s1
    (explore_check s1
       ~workloads:[| [ w (Value.int 1) ]; [ r ]; [ r ] |]
       ~check:(regular ~init:(Value.int 0)));
  let s2 = Chain.atomic_mrsw_from_regular_srsw ~readers:2 ~init:(Value.int 0) () in
  row
    (Fmt.str "atomic MRSW ← %d regular SRSW registers"
       (Chain.srsw_bit_count s2))
    s2
    (explore_check s2
       ~workloads:[| [ w (Value.int 1) ]; [ r ]; [ r ] |]
       ~check:(atomic ~ports:3 ~init:(Value.int 0)));
  let s3 =
    Chain.atomic_mrmw_from_regular_srsw ~writers:2 ~extra_readers:0
      ~init:(Value.int 0) ()
  in
  row
    (Fmt.str "atomic MRMW ← %d regular SRSW registers"
       (Chain.srsw_bit_count s3))
    s3
    (explore_check s3
       ~workloads:[| [ w (Value.int 1) ]; [ r ] |]
       ~check:(atomic ~ports:2 ~init:(Value.int 0)));

  Fmt.pr "@.== bounded-space counterpoint ==@.";
  let dom = [ Value.int 0; Value.int 1; Value.int 2 ] in
  let simpson = Simpson.atomic_srsw ~domain:dom ~init:(Value.int 0) () in
  row "Simpson four-slot: atomic SRSW ← safe slots" simpson
    (explore_check simpson
       ~workloads:[| [ w (Value.int 1); w (Value.int 2) ]; [ r; r ] |]
       ~check:(atomic ~ports:2 ~init:(Value.int 0)));

  let snap_dom = [ Value.int 0; Value.int 1 ] in
  let snap = Snapshot.single_writer ~procs:2 ~domain:snap_dom () in
  row "Afek et al. snapshot ← atomic registers" snap
    (explore_check snap
       ~workloads:
         [| [ Wfc_zoo.Snapshot_type.update (Value.int 1) ];
            [ Wfc_zoo.Snapshot_type.scan ] |]
       ~check:
         (linearizable
            ~spec:(Wfc_zoo.Snapshot_type.spec ~ports:2 ~domain:snap_dom)));

  Fmt.pr "@.== negative controls (each must FAIL) ==@.";
  let b1 = On_change.regular_bit ~guard:false ~readers:1 ~init:false () in
  row "C2 without write-on-change vs regularity" b1
    (explore_check b1
       ~workloads:[| [ w Value.falsity ]; [ r ] |]
       ~check:(regular ~init:Value.falsity));
  let b2 = Unary.regular_reg ~set_first:false ~readers:1 ~values:3 ~init:0 () in
  row "C3 clear-before-set vs regularity" b2
    (explore_check b2
       ~workloads:[| [ w (Value.int 2) ]; [ r ] |]
       ~check:(regular ~init:(Value.int 0)));
  let b3 = Timestamp.atomic_srsw ~cache:false ~init:(Value.int 0) () in
  row "C4 without reader cache vs atomicity" b3
    (explore_check b3
       ~workloads:[| [ w (Value.int 1) ]; [ r; r ] |]
       ~check:(atomic ~ports:2 ~init:(Value.int 0)));
  let b4 = Readers_table.atomic_mrsw ~report:false ~readers:2 ~init:(Value.int 0) () in
  row "C5 without reader reports vs atomicity" b4
    (explore_check b4
       ~workloads:[| [ w (Value.int 1) ]; [ r ]; [ r ] |]
       ~check:(atomic ~ports:3 ~init:(Value.int 0)));
  let b6 = Snapshot.single_writer ~naive:true ~procs:3 ~domain:snap_dom () in
  row "snapshot with single-collect scans" b6
    (explore_check b6
       ~workloads:
         [| [ Wfc_zoo.Snapshot_type.scan ];
            [ Wfc_zoo.Snapshot_type.update (Value.int 1) ];
            [ Wfc_zoo.Snapshot_type.update (Value.int 1) ] |]
       ~check:
         (linearizable
            ~spec:(Wfc_zoo.Snapshot_type.spec ~ports:3 ~domain:snap_dom)));
  let b5 = Simpson.atomic_srsw ~handshake:false ~domain:dom ~init:(Value.int 0) () in
  row "Simpson without the reading handshake" b5
    (explore_check b5
       ~workloads:[| [ w (Value.int 1); w (Value.int 2) ]; [ r; r ] |]
       ~check:(atomic ~ports:2 ~init:(Value.int 0)))
