(** Shared state of one blkfront/blkback pair (cf. {!Net_channel}). *)

type op = Read | Write

type req = {
  id : int;
  op : op;
  sector : int;
  gref : Hcall.gref;  (** Guest data buffer (rw for reads, ro for writes). *)
  bytes : int;
}

type resp = { r_id : int; ok : bool }

type t = {
  ring : (req, resp) Ring.t;
  key : string;  (** XenStore directory for the connection handshake. *)
  mutable front_dom : Hcall.domid option;
  mutable offer_port : Hcall.port option;
  mutable front_port : Hcall.port option;
  mutable back_port : Hcall.port option;
}

val create : unit -> t
(** A 32-slot ring under a fresh ["device/blk/<n>"] key. *)

val ring_cost : int
