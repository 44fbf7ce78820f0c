type slot = { asid : int; vpn : int; pte : Page_table.pte }

type t = {
  capacity : int;
  tagged : bool;
  mutable slots : slot list; (* most-recently-used first *)
  mutable context : int;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

let create ~entries ~tagged =
  if entries < 1 then invalid_arg "Tlb.create: entries < 1";
  {
    capacity = entries;
    tagged;
    slots = [];
    context = 0;
    hits = 0;
    misses = 0;
    flushes = 0;
  }

let of_profile (p : Arch.profile) =
  create ~entries:p.Arch.tlb_entries ~tagged:p.Arch.tlb_tagged

let lookup t ~asid ~vpn =
  let matches s = s.vpn = vpn && s.asid = asid && (t.tagged || asid = t.context) in
  let rec split acc = function
    | [] -> None
    | s :: rest when matches s -> Some (s, List.rev_append acc rest)
    | s :: rest -> split (s :: acc) rest
  in
  match split [] t.slots with
  | Some (s, rest) ->
      t.hits <- t.hits + 1;
      t.slots <- s :: rest;
      Some s.pte
  | None ->
      t.misses <- t.misses + 1;
      None

let truncate n xs =
  let rec take i = function
    | [] -> []
    | _ when i = 0 -> []
    | x :: rest -> x :: take (i - 1) rest
  in
  take n xs

let insert t ~asid ~vpn pte =
  let others = List.filter (fun s -> not (s.asid = asid && s.vpn = vpn)) t.slots in
  t.slots <- truncate t.capacity ({ asid; vpn; pte } :: others)

let invalidate t ~asid ~vpn =
  t.slots <- List.filter (fun s -> not (s.asid = asid && s.vpn = vpn)) t.slots

let flush_all t =
  t.slots <- [];
  t.flushes <- t.flushes + 1

let flush_asid t ~asid = t.slots <- List.filter (fun s -> s.asid <> asid) t.slots

let set_context t ~asid =
  if (not t.tagged) && asid <> t.context then flush_all t;
  t.context <- asid

let hits t = t.hits
let misses t = t.misses
let flushes t = t.flushes
let live_entries t = List.length t.slots
