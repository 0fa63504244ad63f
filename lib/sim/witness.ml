open Wfc_spec

type t = {
  workloads : Value.t list array;
  faults : Faults.t;
  trace : Faults.trace;
  meta : (string * string) list;
}

let make ?(meta = []) ~workloads ~faults trace =
  { workloads; faults; trace; meta }

let replay impl ?on_event w =
  Exec.replay impl ~workloads:w.workloads ~faults:w.faults ?on_event w.trace

let pp ppf w =
  Fmt.pf ppf "@[<v>";
  List.iter (fun (k, v) -> Fmt.pf ppf "%s: %s@," k v) w.meta;
  Fmt.pf ppf "faults: %a@," Faults.pp w.faults;
  Array.iteri
    (fun p wl ->
      if wl <> [] then
        Fmt.pf ppf "p%d workload: %a@," p
          Fmt.(list ~sep:(any "; ") Value.pp)
          wl)
    w.workloads;
  Fmt.pf ppf "trace: %a@]" Faults.pp_trace w.trace

(* --- shrinking ---------------------------------------------------------------

   Delta debugging in two coordinates. Scenario shrinking (drop a whole
   participant's workload, drop trailing invocations) re-searches the smaller
   scenario for *some* bad path within a node budget — the original trace
   rarely survives a workload change. Trace shrinking (classic ddmin over
   the decision list) only needs [Exec.replay]: a candidate subsequence
   counts when it replays cleanly and its leaf is still bad. Both loop to a
   fixpoint, then the fault budgets are trimmed to what the final trace
   actually uses. *)

(* Dedup speeds the re-search up. Its key is symmetric when the problem
   allows it, which only prunes: the search still walks real
   configurations, so every trace it returns is a real trace of the
   scenario, and [shrink] adopts a trace only once [bad] holds on it. *)
let search_options = { Explore.dedup = true; por = false }

let find_bad impl ~bad ~budget ~faults workloads =
  let found = ref None in
  let stats =
    Explore.run impl ~workloads ~faults ~budget ~options:search_options
      ~on_leaf_trace:(fun trace leaf ->
        if bad ~workloads leaf then begin
          found := Some trace;
          raise Exec.Stop
        end)
      ()
  in
  ignore (stats : Explore.stats);
  !found

let ddmin ok trace =
  let rec loop cur n =
    let len = Array.length cur in
    if len <= 1 || n > len then cur
    else begin
      let chunk = (len + n - 1) / n in
      let rec try_remove i =
        if i >= n then None
        else begin
          let lo = i * chunk and hi = min len ((i + 1) * chunk) in
          if lo >= len then None
          else begin
            let candidate =
              Array.append (Array.sub cur 0 lo) (Array.sub cur hi (len - hi))
            in
            if Array.length candidate < len && ok (Array.to_list candidate)
            then Some candidate
            else try_remove (i + 1)
          end
        end
      in
      match try_remove 0 with
      | Some candidate -> loop candidate (max 2 (n - 1))
      | None -> if n >= len then cur else loop cur (min len (2 * n))
    end
  in
  Array.to_list (loop (Array.of_list trace) 2)

let used_budgets trace =
  List.fold_left
    (fun (c, r, g) { Faults.kind; _ } ->
      match kind with
      | Faults.Crash -> (c + 1, r, g)
      | Faults.Recover -> (c, r + 1, g)
      | Faults.Glitch _ -> (c, r, g + 1)
      | Faults.Step _ | Faults.Wedge -> (c, r, g))
    (0, 0, 0) trace

let shrink impl ~bad ?(budget = 50_000) w =
  let cur = ref w in
  let adopt w' = cur := w' in
  let try_workloads workloads =
    if Array.for_all (fun wl -> wl = []) workloads then None
    else
      match find_bad impl ~bad ~budget ~faults:(!cur).faults workloads with
      | Some trace -> Some { !cur with workloads; trace }
      | None -> None
  in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < 8 do
    improved := false;
    incr rounds;
    let n = Array.length (!cur).workloads in
    (* drop whole participants *)
    for p = 0 to n - 1 do
      if (!cur).workloads.(p) <> [] then begin
        let wl = Array.copy (!cur).workloads in
        wl.(p) <- [];
        match try_workloads wl with
        | Some better ->
          adopt better;
          improved := true
        | None -> ()
      end
    done;
    (* drop trailing invocations *)
    for p = 0 to n - 1 do
      let len = List.length (!cur).workloads.(p) in
      if len > 1 then begin
        let wl = Array.copy (!cur).workloads in
        wl.(p) <- List.filteri (fun i _ -> i < len - 1) wl.(p);
        match try_workloads wl with
        | Some better ->
          adopt better;
          improved := true
        | None -> ()
      end
    done;
    (* ddmin over the decision trace *)
    let ok trace' =
      trace' <> []
      &&
      match
        Exec.replay impl ~workloads:(!cur).workloads ~faults:(!cur).faults
          trace'
      with
      | Ok leaf -> bad ~workloads:(!cur).workloads leaf
      | Error _ -> false
    in
    let trace' = ddmin ok (!cur).trace in
    if List.length trace' < List.length (!cur).trace then begin
      adopt { !cur with trace = trace' };
      improved := true
    end
  done;
  (* trim fault budgets to what the final trace uses *)
  let c, r, g = used_budgets (!cur).trace in
  let f = (!cur).faults in
  let f' =
    {
      Faults.max_crashes = min f.Faults.max_crashes c;
      max_recoveries = min f.Faults.max_recoveries r;
      max_glitches = min f.Faults.max_glitches g;
      degraded = (if g = 0 then [] else f.Faults.degraded);
    }
  in
  let trimmed = { !cur with faults = f' } in
  (match replay impl trimmed with
  | Ok leaf when bad ~workloads:trimmed.workloads leaf -> adopt trimmed
  | _ -> ());
  !cur

(* --- serialization -----------------------------------------------------------

   Line-oriented text format:

     wfc-witness/1
     meta <key> <value…>
     faults crashes=<n> recoveries=<n> glitches=<n>
     degrade <obj> stale <depth>
     degrade <obj> safe <v>|<v>|…
     workload <proc> <v>|<v>|…
     trace p0.s0 p1.c p0.g1 …

   One [workload] line per process, in index order (empty workloads print no
   values). The number of [workload] lines fixes the process count. *)

let header = "wfc-witness/1"

let to_string w =
  let buf = Buffer.create 256 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%s" header;
  List.iter (fun (k, v) -> line "meta %s %s" k v) w.meta;
  line "%s" (Faults.budgets_line w.faults);
  List.iter (fun d -> line "%s" (Faults.degrade_line d)) w.faults.Faults.degraded;
  Array.iteri
    (fun p wl ->
      if wl = [] then line "workload %d" p
      else line "workload %d %s" p (Faults.field_of_values wl))
    w.workloads;
  line "trace %s" (Faults.trace_to_string w.trace);
  Buffer.contents buf

let ( let* ) = Result.bind

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  match lines with
  | [] -> Error "Witness.of_string: empty input"
  | hd :: rest when hd = header ->
    let split2 l =
      match String.index_opt l ' ' with
      | None -> (l, "")
      | Some i ->
        ( String.sub l 0 i,
          String.trim (String.sub l (i + 1) (String.length l - i - 1)) )
    in
    let located r = Result.map_error (fun e -> "Witness.of_string: " ^ e) r in
    let meta = ref [] in
    let budgets = ref (0, 0, 0) in
    let degraded = ref [] in
    let workloads = ref [] in
    let trace = ref [] in
    let rec go = function
      | [] -> Ok ()
      | l :: rest -> (
        let keyword, body = split2 l in
        match keyword with
        | "meta" ->
          let k, v = split2 body in
          meta := (k, v) :: !meta;
          go rest
        | "faults" ->
          let* budgets' = located (Faults.parse_budgets body) in
          budgets := budgets';
          go rest
        | "degrade" ->
          let* d = located (Faults.parse_degrade body) in
          degraded := d :: !degraded;
          go rest
        | "workload" -> (
          let idx, vals = split2 body in
          match int_of_string_opt idx with
          | Some p ->
            let* vs = located (Faults.values_of_field vals) in
            workloads := (p, vs) :: !workloads;
            go rest
          | None -> Error (Fmt.str "Witness.of_string: bad workload line %S" l))
        | "trace" ->
          let* t = Faults.trace_of_string body in
          trace := t;
          go rest
        | _ -> Error (Fmt.str "Witness.of_string: unknown line %S" l))
    in
    let* () = go rest in
    let wls = List.sort (fun (a, _) (b, _) -> compare a b) (List.rev !workloads) in
    if wls = [] then Error "Witness.of_string: no workload lines"
    else if not (List.for_all Fun.id (List.mapi (fun i (p, _) -> p = i) wls))
    then Error "Witness.of_string: workload lines must cover 0..n-1"
    else begin
      let c, r, g = !budgets in
      Ok
        {
          workloads = Array.of_list (List.map snd wls);
          faults =
            {
              Faults.max_crashes = c;
              max_recoveries = r;
              max_glitches = g;
              degraded = List.rev !degraded;
            };
          trace = !trace;
          meta = List.rev !meta;
        }
    end
  | hd :: _ -> Error (Fmt.str "Witness.of_string: bad header %S" hd)
