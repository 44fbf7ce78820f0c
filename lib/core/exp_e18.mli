(** E18: Dom0 disaggregated into driver domains — netback, blkback and
    the vnet bridge each in their own domain under a thin toolstack —
    measuring the blast radius of killing one driver domain mid-storm
    (vs the monolithic Dom0 and vs the microkernel's killed net server),
    the toolstack rebuild + generation-keyed reconnect recovery, the E10
    per-client TCB rerun, the E14 storm with per-core and fixed-fleet
    driver-domain placement, and the replay digest of the fault-free
    disaggregated run. *)

val experiment : Experiment.t
