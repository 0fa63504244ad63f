(* Thin facade over [Engine]: the historical entry points keep their
   signatures, the checking itself lives in the incremental engine. *)

type verdict = Engine.verdict =
  | Linearizable of Wfc_sim.Exec.op list
  | Not_linearizable of string

let pp_ops = Engine.pp_ops

let check ~spec ?init ?port_of ops = Engine.check ~spec ?init ?port_of ops

let is_linearizable ~spec ?init ?port_of ops =
  match check ~spec ?init ?port_of ops with
  | Linearizable _ -> true
  | Not_linearizable _ -> false

let check_all_executions impl ~workloads ?fuel () =
  match
    Engine.verify impl ~workloads ?fuel
      ~mode:(Engine.Incremental { compositional = true })
      ()
  with
  | Ok stats ->
    Ok (Wfc_sim.Explore.to_exec_stats stats.Engine.explore)
  | Error v -> Error v.Engine.reason
