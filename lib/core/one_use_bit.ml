open Wfc_spec
open Wfc_zoo
open Wfc_program

let spec = One_use.spec

let identity ~procs = Implementation.identity (One_use.spec_n ~ports:procs) ~procs

let check_impl ?(writer = 0) ?(reader = 1) (impl : Implementation.t) =
  let ( let* ) r f = Result.bind r f in
  let procs = impl.Implementation.procs in
  let workload_of p ops = Array.init procs (fun q -> if q = p then ops else []) in
  (* solo read returns 0 — a value-only predicate, so the reduced engine
     applies *)
  let* () =
    let failure = ref None in
    let stats =
      Wfc_sim.Explore.run impl
        ~workloads:(workload_of reader [ One_use.read ])
        ~options:Wfc_sim.Explore.fast
        ~on_leaf_trace:(fun _ leaf ->
          match leaf.Wfc_sim.Exec.ops with
          | [ o ] when Value.equal o.Wfc_sim.Exec.resp Value.falsity -> ()
          | ops ->
            failure :=
              Some
                (Fmt.str "solo read misbehaved: %a"
                   Wfc_linearize.Engine.pp_ops ops))
        ()
    in
    match !failure with
    | Some msg -> Error msg
    | None ->
      if stats.Wfc_sim.Explore.overflows > 0 then
        Error "solo read: not wait-free"
      else Ok ()
  in
  (* write then read (same execution, writer first by precedence): verify by
     exploring both concurrently and checking linearizability, plus the two
     read-count variants *)
  let check_concurrent reads =
    let workloads =
      Array.init procs (fun q ->
          if q = writer then [ One_use.write ]
          else if q = reader then List.init reads (fun _ -> One_use.read)
          else [])
    in
    match Wfc_linearize.Engine.verify impl ~workloads () with
    | Ok _ -> Ok ()
    | Error v ->
      Error (Fmt.str "with %d read(s): %s" reads v.Wfc_linearize.Engine.reason)
  in
  let* () = check_concurrent 1 in
  let* () = check_concurrent 2 in
  (* sequentialized write-then-read must return 1: drive the writer to
     completion, then the reader *)
  let sched_first_writer ~enabled ~step:_ =
    if List.mem writer enabled then writer else List.hd enabled
  in
  let leaf =
    Wfc_sim.Exec.run impl
      ~workloads:
        (Array.init procs (fun q ->
             if q = writer then [ One_use.write ]
             else if q = reader then [ One_use.read ]
             else []))
      ~pick_proc:sched_first_writer
      ~pick_alt:(fun ~n:_ ~step:_ -> 0)
      ()
  in
  let read_resp =
    List.find_map
      (fun (o : Wfc_sim.Exec.op) ->
        if o.proc = reader then Some o.resp else None)
      leaf.Wfc_sim.Exec.ops
  in
  match read_resp with
  | Some r when Value.equal r Value.truth -> Ok ()
  | Some r ->
    Error (Fmt.str "read after completed write returned %a" Value.pp r)
  | None -> Error "read never completed"
