(* Disk-spilled frontier storage.

   A frontier item is, canonically, a decision-trace prefix — the same
   representation the wfc-checkpoint format serializes ([Faults.trace], one
   line of text). Spilling a pending subtree therefore costs one line
   appended to a temp file, and re-materializing it costs one line read
   plus a prefix replay, both of which the checkpoint/resume machinery
   already exercises. The in-RAM handle is just ⟨offset, length⟩.

   One spill file per run, written during frontier expansion and read once
   per spilled item when the drain reaches it. The file lives in the temp
   directory and is removed on [close] (and best-effort
   on [Gc] finalization if the run aborts without closing). *)

type t = {
  path : string;
  oc : out_channel;
  ic : in_channel;
  mutable next_off : int;
  mutable spilled : int;
  mutable closed : bool;
}

let create ?dir () =
  let dir = match dir with Some d -> d | None -> Filename.get_temp_dir_name () in
  let path =
    Filename.concat dir
      (Fmt.str "wfc-spill-%d-%x" (Unix.getpid ()) (Hashtbl.hash (Sys.time ())))
  in
  let oc = open_out_bin path in
  let ic = open_in_bin path in
  let t = { path; oc; ic; next_off = 0; spilled = 0; closed = false } in
  Gc.finalise
    (fun t ->
      if not t.closed then begin
        close_out_noerr t.oc;
        close_in_noerr t.ic;
        try Sys.remove t.path with Sys_error _ -> ()
      end)
    t;
  t

let spilled t = t.spilled

let append t trace =
  let line = Faults.trace_to_string trace in
  let off = t.next_off in
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc;
  t.next_off <- off + String.length line + 1;
  t.spilled <- t.spilled + 1;
  (off, String.length line)

let read t ~off ~len =
  match
    seek_in t.ic off;
    really_input_string t.ic len
  with
  | s -> Faults.trace_of_string s
  | exception (End_of_file | Sys_error _) ->
    Error (Fmt.str "spill read failed at %d+%d in %s" off len t.path)

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_out_noerr t.oc;
    close_in_noerr t.ic;
    try Sys.remove t.path with Sys_error _ -> ()
  end
