(** Multi-server microkernel stack on an SMP machine.

    The E3 I/O-storm pipeline (NIC interrupt -> net server -> guest
    app) rebuilt on {!Vmk_smp.Smp}: net servers hold per-core run
    queues' worth of work, forward packets by IPC priced with the same
    {!Costs} constants as the single-CPU kernel, and serialize
    mapping-database updates under one spinlock. Guests batch buffer
    unmaps into TLB-shootdown broadcasts.

    Two placements probe the paper's multi-server claim:
    {ul
    {- [Colocated]: one net server per core, serving the guests on the
       same core — IPC never crosses cores, throughput should scale
       with core count.}
    {- [Pinned]: servers get dedicated cores ([cores/4], at least one)
       and every delivery is a cross-core IPC with an IPI wake — the
       isolation-first arrangement, paying measurable IPI overhead.}} *)

type placement = Colocated | Pinned

type config = {
  cores : int;
  placement : placement;
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
  wall : int64;  (** Virtual time when the cluster went idle. *)
  mach : Vmk_hw.Machine.t;  (** For counters and per-CPU accounts. *)
  mapdb_acquisitions : int;
  mapdb_contended : int;
  mapdb_spin : int64;
}

val driver_work : int
(** Per-packet net-server driver work (cycles) beyond the
    {!Costs}-priced IPC and mapping steps — also the net-server recipe of
    E22's fabric. *)

val default : ?placement:placement -> cores:int -> unit -> config
(** The E14 workload: 8 guests, 640 packets of 512 bytes arriving every
    400 cycles, 2600 cycles of app work each. *)

val run : ?seed:int64 -> config -> result
(** Build a fresh machine with [cfg.cores] vCPUs, run the pipeline to
    completion. Deterministic per seed.

    @raise Invalid_argument when [cores] or [guests] < 1. *)
