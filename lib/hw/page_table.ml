type pte = {
  frame : Frame.frame;
  writable : bool;
  user : bool;
  frame_generation : int;
}

type t = { asid : int; entries : (int, pte) Hashtbl.t }

let create ~asid = { asid; entries = Hashtbl.create 64 }
let asid t = t.asid

let map t ~vpn frame ~writable ~user =
  Hashtbl.replace t.entries vpn
    { frame; writable; user; frame_generation = frame.Frame.generation }

let unmap t ~vpn =
  match Hashtbl.find_opt t.entries vpn with
  | Some pte ->
      Hashtbl.remove t.entries vpn;
      Some pte
  | None -> None

let lookup t ~vpn = Hashtbl.find_opt t.entries vpn
let stale pte = pte.frame.Frame.generation <> pte.frame_generation
let mapped_count t = Hashtbl.length t.entries
