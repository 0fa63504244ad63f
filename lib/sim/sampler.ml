type profile = { load_base : int; pcs : int array; taken : int }

external start : unit -> unit = "wfc_sampler_start"
external stop_stub : unit -> int * int array * int = "wfc_sampler_stop"

let stop () =
  let load_base, pcs, taken = stop_stub () in
  { load_base; pcs; taken }

let write file p =
  let oc = open_out file in
  Printf.fprintf oc "# wfc-profile/1\nexe %s\nload_base 0x%x\ntaken %d\nkept %d\n"
    Sys.executable_name p.load_base p.taken (Array.length p.pcs);
  Array.iter (fun pc -> Printf.fprintf oc "0x%x\n" pc) p.pcs;
  close_out oc
