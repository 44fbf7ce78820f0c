(** E14 — SMP scalability: multi-server vs. centralized Dom0.

    Sweeps core count over the E3-style I/O storm on four SMP
    configurations: microkernel with colocated per-core net servers,
    microkernel with pinned server cores, VMM with a single Dom0 backend
    and VMM with a driver domain per core. Measures throughput scaling
    and itemizes the cross-CPU overheads (IPIs, TLB shootdowns, spinlock
    spin) from the per-CPU accounts, then checks the paper-shaped
    verdicts: the single Dom0 plateaus, the multi-server and
    disaggregated layouts scale. Prints the replay digest of the 8-core
    single-Dom0 run. *)

val kinds : Scenario.smp_layout list
(** The four layouts, in table order: uk/colocated, uk/pinned,
    vmm/single-dom0, vmm/driver-domains. *)

val run_case :
  Scenario.smp_layout -> cores:int -> packets:int -> Scenario.smp_storm
(** One layout at one core count, fixed seed — exposed for the tests. *)

val experiment : Experiment.t
