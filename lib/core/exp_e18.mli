(** E18: Dom0 disaggregated into driver domains — netback, blkback and
    the vnet bridge each in their own domain under a thin toolstack —
    measuring the blast radius of killing one driver domain mid-storm
    (vs the monolithic Dom0 and vs the microkernel's killed net server),
    the toolstack rebuild + generation-keyed reconnect recovery, the E10
    per-client TCB rerun, the E14 storm with per-core and fixed-fleet
    driver-domain placement, and bit-for-bit replay. *)

val experiment : Experiment.t

(** {1 Test and bench hooks} *)

type xmode = Monolithic | Disaggregated

type bres = {
  b_label : string;
  b_target : string;
  b_blk_completed : int;
  b_blk_lost : int;
  b_blk_stall : int64;
  b_blk_recovery : int64 option;
  b_net_rx : int;
  b_net_post : int;
  b_net_stall : int64;
  b_net_recovery : int64 option;
  b_vnet_rx : int;
  b_vnet_stall : int64;
  b_restarts : int;
  b_reconnects : int;
  b_net_generation : int;
  b_finished : bool;
  b_digest : string;
      (** {!Vmk_hw.Machine.digest} of the run plus its injected count,
          measured outcome, arrivals and block op log. *)
}
(** One blast-radius run: three concurrent flows (NIC receive, storage,
    inter-guest vnet) with the net backend optionally killed at 4M
    cycles. Equal digests are bit-for-bit reproducibility. *)

val xen_run : quick:bool -> mode:xmode -> kill:bool -> bres
(** The Xen-style stack: monolithic Dom0 + supervisor, or three driver
    domains + toolstack. [kill] kills Dom0 / the netback domain. *)

val l4_run : quick:bool -> kill:bool -> bres
(** The microkernel stack: net + blk servers, a watchdog, and one guest
    kernel per client. [kill] kills the net server. *)
