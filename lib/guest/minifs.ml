type file = { name : string; mutable blocks : int list (* sectors, reversed *) }

type t = {
  read : sector:int -> int option;
  write : sector:int -> tag:int -> bool;
  files : (int, file) Hashtbl.t;
  by_name : (string, int) Hashtbl.t;
  mutable next_fd : int;
  mutable next_sector : int;
}

let create ~read ~write () =
  {
    read;
    write;
    files = Hashtbl.create 16;
    by_name = Hashtbl.create 16;
    next_fd = 3; (* tradition *)
    next_sector = 0;
  }

let open_or_create t name =
  match Hashtbl.find_opt t.by_name name with
  | Some fd -> fd
  | None ->
      let fd = t.next_fd in
      t.next_fd <- t.next_fd + 1;
      Hashtbl.add t.files fd { name; blocks = [] };
      Hashtbl.add t.by_name name fd;
      fd

let append t ~fd ~tag =
  match Hashtbl.find_opt t.files fd with
  | None -> false
  | Some file ->
      let sector = t.next_sector in
      t.next_sector <- t.next_sector + 1;
      if t.write ~sector ~tag then begin
        file.blocks <- sector :: file.blocks;
        true
      end
      else false

let read_block t ~fd ~index =
  match Hashtbl.find_opt t.files fd with
  | None -> None
  | Some file ->
      let blocks = List.rev file.blocks in
      if index < 0 || index >= List.length blocks then None
      else t.read ~sector:(List.nth blocks index)

let size_blocks t ~fd =
  Option.map
    (fun file -> List.length file.blocks)
    (Hashtbl.find_opt t.files fd)

let file_count t = Hashtbl.length t.files

let sectors_used t =
  Hashtbl.fold (fun _ file acc -> acc + List.length file.blocks) t.files 0
