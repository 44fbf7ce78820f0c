type rx_mode = Flip | Copy

type tx_req = { tx_gref : Hcall.gref; tx_len : int }
type tx_resp = { txr_gref : Hcall.gref; txr_mark : bool }

type rx_req =
  | Rx_post_flip of { flip_gref : Hcall.gref }
  | Rx_post_copy of { rx_gref : Hcall.gref }

type rx_resp =
  | Rx_flipped of { full : Vmk_hw.Frame.frame; len : int }
  | Rx_copied of { rxr_gref : Hcall.gref; len : int }

type t = {
  mode : rx_mode;
  key : string;
  tx_ring : (tx_req, tx_resp) Ring.t;
  rx_ring : (rx_req, rx_resp) Ring.t;
  mutable front_dom : Hcall.domid option;
  mutable offer_port : Hcall.port option;
  mutable front_port : Hcall.port option;
  mutable back_port : Hcall.port option;
  mutable demux_key : int;
}

let create ~mode ~demux_key () =
  {
    mode;
    key = Printf.sprintf "device/net/%d" demux_key;
    tx_ring = Ring.create ~capacity:64 ();
    rx_ring = Ring.create ~capacity:64 ();
    front_dom = None;
    offer_port = None;
    front_port = None;
    back_port = None;
    demux_key;
  }

let ring_cost = 25
