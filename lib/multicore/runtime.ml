open Wfc_spec
open Wfc_zoo
open Wfc_program

type outcome = {
  ops : Wfc_sim.Exec.op list;
  wall_s : float;
  final_objects : Value.t array;
}

type backend = Cells.backend = Mutex_cells | Atomic_cas

let run ?(seed = 0) ?(backend = Mutex_cells) ?(tick = Tick.Global)
    (impl : Implementation.t) ~workloads () =
  let procs = impl.Implementation.procs in
  if Array.length workloads <> procs then
    invalid_arg "Runtime.run: workloads length must equal impl.procs";
  let cells = Cells.make backend impl.Implementation.objects in
  let ticks = Tick.make tick in
  let worker proc =
    let rng = Random.State.make [| seed; proc |] in
    let handle = Tick.handle ticks in
    let rec ops_loop local op_index acc = function
      | [] -> List.rev acc
      | inv :: rest ->
        let start_step = Tick.stamp handle in
        let resp, local', steps =
          Cells.exec_op cells impl ~rng ~proc ~local ~inv
        in
        let end_step = Tick.stamp handle in
        let op =
          {
            Wfc_sim.Exec.proc;
            op_index;
            inv;
            resp;
            start_step;
            end_step;
            steps;
          }
        in
        ops_loop local' (op_index + 1) (op :: acc) rest
    in
    ops_loop (impl.Implementation.local_init proc) 0 [] workloads.(proc)
  in
  let t0 = Wfc_sim.Monotime.now () in
  let domains =
    Array.init procs (fun proc ->
        Domain.spawn (fun () ->
            match worker proc with
            | ops -> Ok ops
            | exception e -> Error e))
  in
  (* Join every domain before surfacing a failure: raising on the first
     failed join would leak the later domains (and their mutexes) into a
     run that has already unwound. *)
  let results = Array.map Domain.join domains in
  let wall_s = Wfc_sim.Monotime.now () -. t0 in
  let per_proc =
    Array.map (function Ok ops -> ops | Error e -> raise e) results
  in
  {
    ops = List.concat (Array.to_list per_proc);
    wall_s;
    final_objects = Cells.states cells;
  }

let consensus_trials ?(seed = 0) ?backend ?tick ~make ~trials () =
  let rec go t =
    if t = trials then Ok trials
    else
      let impl = make () in
      let rng = Random.State.make [| seed; t |] in
      let inputs =
        Array.init impl.Implementation.procs (fun _ -> Random.State.bool rng)
      in
      let workloads =
        Array.map (fun b -> [ Ops.propose (Value.bool b) ]) inputs
      in
      let outcome = run ~seed:(seed + t) ?backend ?tick impl ~workloads () in
      let resps =
        List.map (fun (o : Wfc_sim.Exec.op) -> o.resp) outcome.ops
      in
      match resps with
      | [] -> Error "no operations completed"
      | first :: rest ->
        if not (List.for_all (Value.equal first) rest) then
          Error
            (Fmt.str "trial %d: agreement violated: {%a}" t
               Fmt.(list ~sep:(any ", ") Value.pp)
               resps)
        else if
          not (Array.exists (fun b -> Value.equal (Value.bool b) first) inputs)
        then Error (Fmt.str "trial %d: validity violated" t)
        else go (t + 1)
  in
  go 0

let linearizable_trials ?(seed = 0) ?backend ?tick ~make ~workloads ~trials ()
    =
  let rec go t =
    if t = trials then Ok trials
    else
      let impl = make () in
      let outcome = run ~seed:(seed + t) ?backend ?tick impl ~workloads () in
      match
        Wfc_linearize.Engine.check ~spec:impl.Implementation.target
          ~init:impl.Implementation.implements outcome.ops
      with
      | Wfc_linearize.Engine.Linearizable _ -> go (t + 1)
      | Wfc_linearize.Engine.Not_linearizable why ->
        Error (Fmt.str "trial %d: %s" t why)
  in
  go 0
