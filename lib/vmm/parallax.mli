(** Parallax-style storage service domain.

    The [WRF+05] structure the paper's §3.1 leans on: a dedicated VM that
    provides virtual block devices to client guests, itself a frontend of
    Dom0's block backend. Each client sees a private virtual disk
    (sectors striped by client index). A client request costs Parallax a
    grant map, a buffer copy and an upstream block operation — "providing
    a critical system service for a set of VMs", exactly a user-level
    server in microkernel terms.

    Kill this domain (experiment E6) and precisely its clients fail;
    Dom0 and non-storage guests are untouched. *)

val name : string
(** ["parallax"] — also its cycle account. *)

val body :
  Vmk_hw.Machine.t ->
  clients:Blk_channel.t list ->
  upstream:Blk_channel.t ->
  dom0:Hcall.domid ->
  unit ->
  unit
(** The service loop. [clients] are the channels guests connect to;
    [upstream] must be listed in Dom0's [blk] channels. *)
