(** Shared state of one netfront/netback pair.

    Stands in for the grant-mapped shared ring pages plus the xenstore
    handshake: the scenario builder creates a channel and hands it to both
    the guest (frontend) and Dom0 (backend) bodies. The [mode] selects the
    receive-path data movement — page flipping (Xen 2.x default, the
    [CG05] measurement) or copy into a granted buffer (ablation A1). *)

type rx_mode =
  | Flip  (** Backend transfers the packet-filled page to the guest. *)
  | Copy  (** Backend copies payload into a guest-granted buffer. *)

type tx_req = { tx_gref : Hcall.gref; tx_len : int }

type tx_resp = { txr_gref : Hcall.gref; txr_mark : bool }
(** [txr_mark] is the ECN congestion bit (E17): set when the bridge
    found the destination port's queue past its high watermark, so the
    sending frontend backs off before drops start. Always [false] on
    the physical-NIC path. *)

type rx_req =
  | Rx_post_flip of { flip_gref : Hcall.gref }
      (** Transfer-grant of an empty page the backend may exchange
          against a filled one. *)
  | Rx_post_copy of { rx_gref : Hcall.gref }

type rx_resp =
  | Rx_flipped of { full : Vmk_hw.Frame.frame; len : int }
  | Rx_copied of { rxr_gref : Hcall.gref; len : int }

type t = {
  mode : rx_mode;
  key : string;  (** XenStore directory for the connection handshake. *)
  tx_ring : (tx_req, tx_resp) Ring.t;
  rx_ring : (rx_req, rx_resp) Ring.t;
  mutable front_dom : Hcall.domid option;
  mutable offer_port : Hcall.port option;
      (** Unbound port the frontend published for the backend. *)
  mutable front_port : Hcall.port option;  (** = offer port once bound. *)
  mutable back_port : Hcall.port option;
  mutable demux_key : int;
      (** Packets whose [tag / 1_000_000] equals this key are for this
          frontend (the MAC address of the model). *)
}

val create : mode:rx_mode -> demux_key:int -> unit -> t
(** Two 64-slot rings, Xen-like. *)

val ring_cost : int
(** Cycles a producer/consumer burns per ring slot access. *)
