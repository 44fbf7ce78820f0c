(** E20: live migration & checkpoint/restore with mid-migration fault
    recovery, on both stacks (see {!Vmk_migrate}). Sweeps dirty rates
    against round budgets (downtime / total pages / convergence),
    injects failures at every protocol phase, migrates the bridge
    driver domain under a packet storm, and checks that a migrated guest
    replays bit-for-bit against the uninterrupted run. *)

val experiment : Experiment.t
