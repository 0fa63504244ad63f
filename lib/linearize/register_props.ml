open Wfc_spec

type failure = {
  read : Wfc_sim.Exec.op;
  allowed : Value.t list;
  explanation : string;
}

let pp_failure ppf f =
  Fmt.pf ppf "read p%d [%d,%d] returned %a; allowed {%a}: %s"
    f.read.Wfc_sim.Exec.proc f.read.Wfc_sim.Exec.start_step
    f.read.Wfc_sim.Exec.end_step Value.pp f.read.Wfc_sim.Exec.resp
    Fmt.(list ~sep:(any ", ") Value.pp)
    f.allowed f.explanation

let classify (o : Wfc_sim.Exec.op) =
  match o.inv with
  | Value.Sym "read" -> `Read
  | Value.Pair (Value.Sym "write", v) -> `Write v
  | _ -> invalid_arg (Fmt.str "Register_props: not a register op: %a" Value.pp o.inv)

let split ops =
  let reads, writes =
    List.partition (fun o -> classify o = `Read) ops
  in
  let writer_procs =
    List.sort_uniq Int.compare
      (List.map (fun (o : Wfc_sim.Exec.op) -> o.proc) writes)
  in
  if List.length writer_procs > 1 then
    invalid_arg "Register_props: multiple writer processes";
  let writes =
    List.sort
      (fun (a : Wfc_sim.Exec.op) b -> Int.compare a.start_step b.start_step)
      writes
  in
  (* single-writer: writes must be pairwise non-overlapping *)
  let rec check_seq = function
    | (a : Wfc_sim.Exec.op) :: (b :: _ as rest) ->
      if a.end_step >= b.start_step then
        invalid_arg "Register_props: overlapping writes"
      else check_seq rest
    | _ -> ()
  in
  check_seq writes;
  (reads, writes)

let write_value o =
  match classify o with `Write v -> v | `Read -> assert false

(* The value of the last write completed before [r] starts (or [init]) and
   the values of the writes overlapping [r]. *)
let read_context ~init writes (r : Wfc_sim.Exec.op) =
  let preceding =
    List.filter (fun (w : Wfc_sim.Exec.op) -> w.end_step < r.start_step) writes
  in
  let current =
    match List.rev preceding with [] -> init | w :: _ -> write_value w
  in
  let overlapping =
    List.filter
      (fun (w : Wfc_sim.Exec.op) ->
        w.end_step >= r.start_step && w.start_step <= r.end_step)
      writes
  in
  (current, List.map write_value overlapping)

let check_regular ~init ops =
  let reads, writes = split ops in
  let rec go = function
    | [] -> Ok ()
    | r :: rest ->
      let current, overlapping = read_context ~init writes r in
      let allowed = current :: overlapping in
      if List.exists (Value.equal r.Wfc_sim.Exec.resp) allowed then go rest
      else
        Error
          {
            read = r;
            allowed;
            explanation = "regularity: neither current nor concurrent value";
          }
  in
  go reads

let check_safe ~init ~domain ops =
  let reads, writes = split ops in
  let rec go = function
    | [] -> Ok ()
    | r :: rest ->
      let current, overlapping = read_context ~init writes r in
      let allowed = if overlapping = [] then [ current ] else domain in
      if List.exists (Value.equal r.Wfc_sim.Exec.resp) allowed then go rest
      else
        Error
          {
            read = r;
            allowed;
            explanation =
              (if overlapping = [] then
                 "safeness: quiescent read must return current value"
               else "safeness: response outside the domain");
          }
  in
  go reads

type violation = {
  failure : failure option;
  reason : string;
  witness : Wfc_sim.Witness.t option;
}

let pp_violation ppf v =
  Fmt.pf ppf "@[<v>%s" v.reason;
  (match v.witness with
  | Some w ->
    Fmt.pf ppf "@,faults: %a@,witness trace: %a" Wfc_sim.Faults.pp
      w.Wfc_sim.Witness.faults Wfc_sim.Faults.pp_trace w.Wfc_sim.Witness.trace
  | None -> ());
  Fmt.pf ppf "@]"

let check_all_regular impl ~init ~workloads ?fuel
    ?(faults = Wfc_sim.Faults.none) () =
  let violation = ref None in
  (* Regularity reads operation {e timing} (overlap intervals), which
     duplicate-state merging does not preserve — the naive engine is the
     only sound one here. *)
  let stats =
    Wfc_sim.Explore.run impl ~workloads ?fuel ~faults
      ~options:Wfc_sim.Explore.naive
      ~on_leaf_trace:(fun trace leaf ->
        match check_regular ~init leaf.Wfc_sim.Exec.ops with
        | Ok () -> ()
        | Error f ->
          violation :=
            Some
              {
                failure = Some f;
                reason = Fmt.str "%a" pp_failure f;
                witness = Some (Wfc_sim.Witness.make ~workloads ~faults trace);
              };
          raise Wfc_sim.Exec.Stop)
      ()
  in
  match !violation with
  | Some v -> Error v
  | None ->
    if stats.Wfc_sim.Explore.overflows > 0 then
      Error
        {
          failure = None;
          reason = "fuel exhausted: suspected non-wait-freedom";
          witness =
            Option.map
              (Wfc_sim.Witness.make ~workloads ~faults)
              stats.Wfc_sim.Explore.overflow_trace;
        }
    else Ok stats
