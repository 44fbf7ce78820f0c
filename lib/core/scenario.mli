(** Uniform system-under-test construction.

    Builds the three hosting structures around the same application body
    and returns a comparable outcome: total virtual cycles, per-account
    cycle balances and all runtime counters. One fresh machine per run;
    nothing leaks between scenarios.

    Traffic sources are attached through a callback receiving the machine
    and a readiness gate that opens once the I/O stack is up. *)

type outcome = {
  cycles : int64;  (** Virtual time at workload completion. *)
  busy_cycles : int64;  (** Sum of all non-idle accounts. *)
  accounts : (string * int64) list;
  counters : (string * int) list;
  counter_set : Vmk_trace.Counter.set;  (** For {!Ipc_equiv}/{!Audit}. *)
  completed : bool;  (** The application body ran to completion. *)
  icache_misses : int;  (** Kernel-path i-cache misses (experiment E9). *)
  icache_miss_cycles : int;
}

type traffic_spec =
  Vmk_hw.Machine.t -> gate:(unit -> bool) -> Vmk_workloads.Traffic.t

val account_cycles : outcome -> string -> int64
val counter : outcome -> string -> int

val run_native : app:(unit -> unit) -> unit -> outcome
(** Mini-OS directly on the machine ({!Vmk_guest.Port_native}). *)

val run_xen :
  ?arch:Vmk_hw.Arch.profile ->
  ?seed:int64 ->
  ?rx_mode:Vmk_vmm.Net_channel.rx_mode ->
  ?net:bool ->
  ?blk:bool ->
  ?fast_syscall:bool ->
  ?glibc_tls:bool ->
  ?traffic:traffic_spec ->
  app:(unit -> unit) ->
  unit ->
  outcome
(** Hypervisor + Dom0 (with the requested backends) + one guest domain
    running the app ({!Vmk_guest.Port_xen}). Defaults: net and blk on,
    page-flip receive, trap-gate shortcut registered, no TLS. *)

val run_l4 :
  ?seed:int64 ->
  ?net:bool ->
  ?blk:bool ->
  ?traffic:traffic_spec ->
  app:(unit -> unit) ->
  unit ->
  outcome
(** Microkernel + user-level driver servers + guest-kernel server + one
    application thread ({!Vmk_guest.Port_l4}). *)

(** {1 The SMP I/O storm}

    The E14 storm on the 8-guest SMP models, one layout per run. Every
    experiment that drives {!Vmk_ukernel.Smp_cluster} or
    {!Vmk_vmm.Smp_vmm} goes through {!run_smp}. *)

type smp_layout =
  | Smp_uk of Vmk_ukernel.Smp_cluster.placement
  | Smp_vmm of Vmk_vmm.Smp_vmm.backend

type smp_storm = {
  delivered : int;  (** Packets fully consumed by finished guests. *)
  wall : int64;  (** Virtual time when the stack went idle. *)
  mach : Vmk_hw.Machine.t;  (** For counters and per-CPU accounts. *)
  contended : int;  (** Contended acquisitions of the shared lock. *)
  spin : int64;  (** Cycles spun on the shared lock. *)
}

val run_smp :
  seed:int64 ->
  ?coalesce:int ->
  smp_layout ->
  cores:int ->
  packets:int ->
  smp_storm
(** The model's default workload with [packets] packets on [cores]
    vCPUs; [coalesce] is the E16 interrupt-mitigation factor (default 1,
    no mitigation). Deterministic per seed. *)

val throughput : smp_storm -> float
(** Packets per million cycles of virtual wall time. *)

val smp_label : smp_layout -> string
(** ["uk/colocated"], ["vmm/single-dom0"], ["vmm/3-domain-fleet"], ... *)

val smp_digest : smp_storm -> string
(** {!Vmk_hw.Machine.digest} of the run plus its delivered count and
    lock statistics. *)

val arrival_lines : (int * int64) list -> string list
(** [(tag, virtual time)] arrivals in canonical (sorted) order, one
    digest line each. *)

(** {1 The single-guest receive storm}

    One guest runs {!Vmk_workloads.Apps.net_rx_probe} while a
    constant-rate source offers [count] packets of 512 bytes, one every
    [period] cycles, through the stack's net driver (E15, E16). Each rig
    returns the finished machine beside the summary. *)

type rx_storm = {
  injected : int;
  received : int;
  timely : int;  (** Received within {!rx_latency_budget} of injection. *)
  offered : float;  (** Injected packets per Mcycle of the offered window. *)
  goodput : float;  (** Timely packets per Mcycle of the offered window. *)
  p99 : float;  (** p99 delivery latency in cycles, over received packets. *)
  digest : string;
      (** {!Vmk_hw.Machine.digest} of the run plus its injected count and
          every arrival. *)
}

val rx_latency_budget : int64
(** 1M cycles: a later delivery does not count as goodput. *)

val rx_storm_xen :
  ?mitigation:int64 ->
  ?net_admit:Vmk_overload.Overload.Token_bucket.t ->
  ?net_napi:int ->
  ?net_poll:int64 ->
  period:int64 ->
  count:int ->
  unit ->
  Vmk_hw.Machine.t * rx_storm
(** Dom0 (at double the guest's weight) serving one paravirtualized
    guest. [mitigation] opens a NIC hold-off window; the other options
    are passed to {!Vmk_vmm.Dom0.body}. A polling-only ([net_poll]) run
    stops on a deadline instead of draining. *)

val rx_storm_l4 :
  ?mitigation:int64 ->
  ?admit:Vmk_overload.Overload.Token_bucket.t ->
  ?rx_capacity:int ->
  ?retry_attempts:int ->
  ?napi:int ->
  ?poll:int64 ->
  period:int64 ->
  count:int ->
  unit ->
  Vmk_hw.Machine.t * rx_storm
(** Net server, guest kernel and app thread. [retry_attempts] gives the
    guest kernel a busy-retry policy with a 1M-cycle timeout; the other
    options are passed to {!Vmk_ukernel.Net_server.body}. A polling-only
    ([poll]) run stops on a deadline instead of draining. *)

val rx_efficiency : rx_storm -> float
(** Timely packets over injected packets. *)

val rx_probe :
  base:int ->
  periods:int64 list ->
  (period:int64 -> count:int -> rx_storm) ->
  rx_storm list
(** One run per period, each offering load for the same window of
    [30_000 * base] cycles. *)

val rx_knee : rx_storm list -> float
(** Offered rate of the first run whose {!rx_efficiency} falls below
    0.9; [infinity] if none does. *)

(** {1 The inter-guest vnet fabric}

    [guests] mini-OS instances exchange vnet-tagged packets (E17, E19).
    Xen-style: a Dom0 software bridge ({!Vmk_vmm.Bridge}, seed 41).
    L4-style: a connection-brokering net server and direct guest-kernel
    IPC (seed 42). App body [i] runs on fabric port [i + 1]; the run ends
    once every body has returned, then lets in-flight packets settle. *)

type fabric = {
  fab_mach : Vmk_hw.Machine.t;
  fab_tx : Vmk_workloads.Apps.stats;
      (** Shared by every {!fabric_sender}: [completed] counts the
          packets the stack accepted. *)
  mutable fab_arrivals : (int * int64) list;
      (** [(tag, virtual time)] of every packet a {!fabric_receiver}
          logged, newest first. *)
}

val fabric_packet_len : int
(** 512 bytes. *)

val fabric_settle : int
(** 50k cycles of user work before a sender's first packet. *)

val fabric_sender :
  fabric -> src:int -> dst:int -> count:int -> pace:int -> unit -> unit
(** {!Vmk_workloads.Apps.net_tx_stream} of [count] packets from port
    [src] to [dst], [pace] cycles apart, counted in [fab_tx]. *)

val fabric_receiver : fabric -> packets:int -> work:int -> unit -> unit
(** {!Vmk_workloads.Apps.net_rx_probe} logging each arrival into
    [fab_arrivals], with [work] cycles of user work per packet. *)

val fabric_xen :
  guests:int ->
  ?mark_at:int ->
  ?port_capacity:int ->
  ?mk_fair:
    (Vmk_hw.Machine.t -> Vmk_overload.Overload.Weighted_buckets.t) ->
  ?side:(fabric -> Vmk_vmm.Hypervisor.t -> unit) ->
  apps:(fabric -> (unit -> unit) list) ->
  unit ->
  fabric
(** The bridge domain (double weight; [mark_at], [port_capacity] and the
    weighted gate built by [mk_fair] are passed to
    {!Vmk_vmm.Bridge.body}) plus one paravirtualized guest per app
    body, each with a 20M-cycle I/O timeout. [side] creates extra
    domains after the bridge and before the guests. *)

val fabric_l4 :
  guests:int ->
  ?mark_at:int ->
  ?side:
    (fabric -> Vmk_ukernel.Kernel.t -> net:Vmk_ukernel.Sysif.tid -> unit) ->
  apps:(fabric -> Vmk_guest.Port_l4.vnet list -> (unit -> unit) list) ->
  unit ->
  fabric
(** The broker ({!Vmk_ukernel.Net_server} [~vnet:true]) plus [guests]
    guest kernels, each with a fabric endpoint ([mark_at] arms its ECN
    watermark) and a retry policy on its own rng split. The apps are
    spawned once every guest kernel has attached; [apps] also receives
    the endpoints in port order. [side] spawns extra threads after the
    apps; it receives the broker's tid. *)

(** {1 Supervised driver stacks} *)

val supervision_period : int64
(** 1M cycles between watchdog / supervisor liveness polls. *)

type l4_supervised = {
  blk_svc : Vmk_ukernel.Svc.entry;
  net_svc : Vmk_ukernel.Svc.entry;
  watchdog : Vmk_ukernel.Watchdog.t;
}

val l4_supervised : Vmk_hw.Machine.t -> Vmk_ukernel.Kernel.t -> l4_supervised
(** Spawn the block and net servers, register them as ["blk"] and
    ["net"], and spawn a watchdog (200k-cycle ping timeout) that
    respawns either. Clients reach the servers through the entries. *)

val l4_retry : Vmk_hw.Machine.t -> Vmk_guest.Port_l4.retry
(** The client retry policy that rides out a respawn: 8 attempts, 1M
    timeout, 100k base backoff, on a fresh split of the machine rng. *)

val dom0_supervised :
  Vmk_hw.Machine.t ->
  Vmk_vmm.Hypervisor.t ->
  net:Vmk_vmm.Net_channel.t list ->
  blk:Vmk_vmm.Blk_channel.t list ->
  Vmk_vmm.Hcall.domid * Vmk_vmm.Hypervisor.supervisor
(** Dom0 serving the channels under a supervisor that rebuilds it with
    the next generation (reconnect handshake, 10M connect timeout). *)
