(* E10: Herlihy's universal construction in action.

   Build a queue, a fetch-and-add counter, and a sticky register purely from
   consensus objects + registers, check them against their sequential
   specifications over every interleaving of small workloads, and compare
   step costs with the direct (identity) implementations.

   $ dune exec examples/universal_objects.exe *)

open Wfc_spec
open Wfc_zoo
open Wfc_program
open Wfc_consensus

let steps_of impl ~workloads =
  let stats = Wfc_sim.Exec.explore impl ~workloads () in
  (stats.Wfc_sim.Exec.leaves, stats.Wfc_sim.Exec.max_op_steps)

let check impl ~workloads =
  match Wfc_linearize.Engine.verify impl ~workloads () with
  | Ok _ -> "linearizable"
  | Error v -> "VIOLATION: " ^ v.Wfc_linearize.Engine.reason

let () =
  let targets =
    [
      ( "fifo-queue",
        Collections.queue ~ports:2 ~capacity:2 ~domain:[ Value.int 0; Value.int 1 ],
        [| [ Ops.enq (Value.int 0); Ops.deq ]; [ Ops.enq (Value.int 1) ] |] );
      ( "fetch-add-mod5",
        Rmw.fetch_add_mod ~ports:2 ~modulus:5,
        [| [ Ops.fetch_add 1; Ops.fetch_add 1 ]; [ Ops.fetch_add 2 ] |] );
      ( "sticky-bit",
        Sticky.bit ~ports:2,
        [| [ Ops.stick Value.truth ]; [ Ops.stick Value.falsity; Ops.read ] |] );
    ]
  in
  Fmt.pr "%-16s %-14s %9s %10s %12s@." "type" "verdict" "leaves"
    "max steps" "cons. cells";
  List.iter
    (fun (name, target, workloads) ->
      let universal = Universal.construct ~target ~procs:2 ~cells:10 () in
      let leaves, steps = steps_of universal ~workloads in
      Fmt.pr "%-16s %-14s %9d %10d %12d@." name
        (check universal ~workloads)
        leaves steps
        (Universal.consensus_cell_count universal);
      let direct = Implementation.identity target ~procs:2 in
      let _, direct_steps = steps_of direct ~workloads in
      Fmt.pr "%-16s   (direct implementation: max %d step(s) per op)@." ""
        direct_steps)
    targets;
  Fmt.pr
    "@.Every operation of the universal object costs a log walk (announce,@.\
     help, propose, replay) versus one step on the native object — the@.\
     universality price Herlihy's theorem pays for complete generality.@."
