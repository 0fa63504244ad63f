(* E8's table generator: the Theorem 5 compiler across source protocols and
   target types.

   Rows: (consensus source, type T used for the one-use bits). For each, we
   print the §4.2 bound D, how many registers were eliminated or localized,
   how many one-use bits the §4.3 arrays introduced, the compiled
   implementation's base-object count, and the exhaustive re-verification
   verdict with its time. The cas-ids rows at n = 2, 3, 4 are the price of
   register freedom as n grows: n(n-1) registers, D and the bits climb.

   $ dune exec examples/register_elimination.exe *)

open Wfc_zoo
open Wfc_consensus
open Wfc_core

let sources =
  [
    ("tas", Protocols.from_tas);
    ("faa", Protocols.from_faa);
    ("swap", Protocols.from_swap);
    ("queue", Protocols.from_queue);
    ("cas-ids n=2", fun () -> Protocols.from_cas_ids ~procs:2 ());
    ("cas-ids n=3", fun () -> Protocols.from_cas_ids ~procs:3 ());
    ("cas-ids n=4", fun () -> Protocols.from_cas_ids ~procs:4 ());
  ]

let strategies =
  let of_type name =
    match Theorem5.strategy_for (Catalog.find ~ports:2 name).Catalog.spec with
    | Ok s -> s
    | Error e -> Fmt.failwith "strategy %s: %s" name e
  in
  [
    ("T=tas (§5.1)", of_type "test-and-set");
    ("T=queue (§5.1)", of_type "fifo-queue");
    ("T=sticky (§5.1)", of_type "sticky-bit");
    ("T=flag (§5.2)", of_type "non-oblivious-flag");
    ( "T=cas via consensus (§5.3)",
      Theorem5.Consensus_based (fun () -> Protocols.from_cas ~procs:2 ()) );
  ]

let () =
  Fmt.pr "%-11s %-28s %4s %6s %6s %7s %8s %10s %7s@." "source"
    "one-use bits from" "D" "elim" "local" "1u-bits" "objects" "verified"
    "time";
  List.iter
    (fun (sname, make_source) ->
      List.iter
        (fun (tname, strategy) ->
          match Theorem5.eliminate_registers ~strategy (make_source ()) with
          | Error e -> Fmt.pr "%-11s %-28s compile error: %s@." sname tname e
          | Ok r ->
            let t0 = Wfc_sim.Monotime.now () in
            let verdict =
              match Check.result_exn (Check.verify r.Theorem5.compiled) with
              | Ok rep -> Fmt.str "OK(%d)" rep.Check.executions
              | Error _ -> "BUG"
            in
            Fmt.pr "%-11s %-28s %4d %6d %6d %7d %8d %10s %6.3fs@." sname tname
              r.Theorem5.bounds.Access_bounds.bound_d
              r.Theorem5.registers_eliminated r.Theorem5.registers_localized
              r.Theorem5.one_use_bits r.Theorem5.t_objects verdict
              (Wfc_sim.Monotime.now () -. t0))
        strategies)
    sources;
  Fmt.pr
    "@.D is the §4.2 access bound; '1u-bits' counts the §4.3 arrays' \
     one-use bits@.(r·(w+1) per register); 'objects' is the compiled \
     implementation's base-object@.count; OK(n) = agreement, validity and \
     wait-freedom verified over n executions@.(every input vector, \
     participation subset and repeated proposal);@.time is the \
     re-verification's wall clock.@."
