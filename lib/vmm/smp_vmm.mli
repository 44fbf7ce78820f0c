(** Xen-style VMM stack on an SMP machine.

    The E3 I/O-storm pipeline (NIC interrupt -> backend -> frontend
    upcall) rebuilt on {!Vmk_smp.Smp} with credit-style per-core vCPU
    scheduling, priced with the same {!Costs} constants as the
    single-CPU hypervisor. Two backend layouts probe [CG05]'s
    centralized-Dom0 bottleneck:
    {ul
    {- [Single_dom0]: every packet's grant check and page flip runs in
       one domain pinned to core 0 — adding guest cores cannot add
       backend capacity, so throughput plateaus at Dom0 saturation.}
    {- [Driver_domains]: a driver domain per core with private grant
       tables; only the frame-ownership check stays under the shared
       lock, so backends scale with cores (contention itemized in
       ["smp.spin"]).}
    {- [Fixed_domains n]: E18's deployment shape — a fixed fleet of [n]
       driver domains (the netdrv/blkdrv/bridge split) spread
       round-robin over the cores, private tables as above. Capacity
       tops out at [min n cores] busy backends, which is how the
       disaggregated stack tracks the multi-server L4 curve until the
       fleet itself saturates.}} *)

type backend = Single_dom0 | Driver_domains | Fixed_domains of int

type config = {
  cores : int;
  backend : backend;
  guests : int;
  packets : int;  (** Total packets injected, split across guests. *)
  packet_len : int;
  period : int64;  (** Arrival period — E14 keeps it saturating. *)
  app_cycles : int;  (** Per-packet application work in the guest. *)
  coalesce : int;
      (** Interrupt-mitigation factor (E16): 1 = one interrupt entry per
          packet; [n] charges the full entry to every n-th packet only,
          the rest arriving under the hold-off window at poll cost. *)
}

type result = {
  completed : int;  (** Packets fully consumed by finished guests. *)
  wall : int64;  (** Virtual time when the stack went idle. *)
  mach : Vmk_hw.Machine.t;  (** For counters and per-CPU accounts. *)
  gnt_acquisitions : int;
  gnt_contended : int;
  gnt_spin : int64;
}

val netback_work : int
(** Per-packet backend driver work (cycles) beyond the {!Costs}-priced
    grant and flip steps — also the Dom0 recipe of E22's fabric. *)

val default : ?backend:backend -> cores:int -> unit -> config
(** The E14 workload: 8 guests, 640 packets of 512 bytes arriving every
    400 cycles, 2600 cycles of app work each. *)

val run : ?seed:int64 -> config -> result
(** Build a fresh machine with [cfg.cores] vCPUs, run the pipeline to
    completion. Deterministic per seed.

    @raise Invalid_argument when [cores] or [guests] < 1. *)
