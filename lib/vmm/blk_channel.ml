type op = Read | Write

type req = { id : int; op : op; sector : int; gref : Hcall.gref; bytes : int }
type resp = { r_id : int; ok : bool }

type t = {
  ring : (req, resp) Ring.t;
  key : string;
  mutable front_dom : Hcall.domid option;
  mutable offer_port : Hcall.port option;
  mutable front_port : Hcall.port option;
  mutable back_port : Hcall.port option;
}

let next_key = ref 0

let create () =
  incr next_key;
  {
    ring = Ring.create ~capacity:32 ();
    key = Printf.sprintf "device/blk/%d" !next_key;
    front_dom = None;
    offer_port = None;
    front_port = None;
    back_port = None;
  }

let ring_cost = 25
