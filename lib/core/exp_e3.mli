(** E3 — Dom0 I/O overhead ([CG05] reproduction).

    §3.2, citing Cherkasova & Gardner: under high I/O load "the CPU load
    generated by Dom0 accounts for almost all of the CPU load of the
    system", and "Dom0 CPU time is proportional to the number of Xen's
    page-flipping operations, that is, message transfers, irrespective of
    the message size". We stream packets at a fixed rate across a
    packet-size sweep, account every cycle to its protection domain, and
    regress Dom0 cycles against flip count and against byte count. *)

val experiment : Experiment.t

val ablation : Experiment.t
(** A1 — page-flip vs copy receive path: with copying, Dom0's per-packet
    cost grows with message size; flipping removes the size dependence
    (at the price of map-table churn). *)

type point = {
  packet_len : int;
  packets : int;
  flips : int;
  dom0_cycles : int64;
  guest_cycles : int64;
  vmm_cycles : int64;
  dom0_share : float;  (** Dom0 fraction of busy cycles. *)
}

val sweep :
  mode:Vmk_vmm.Net_channel.rx_mode ->
  packets:int ->
  period:int64 ->
  sizes:int list ->
  point list
(** One run per packet size; exposed for tests and examples. *)
