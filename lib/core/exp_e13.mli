(** E13 — deterministic fault injection + driver-restart recovery.

    Sweeps a disk fault rate over both stacks while a {!Vmk_faults.Faults}
    plan kills the storage driver mid-run: the microkernel recovers by
    watchdog respawn + client IPC retry, the VMM by supervisor restart +
    frontend reconnect. Measures completed/lost/retried requests,
    recovery count and recovery latency per (stack, rate), and checks
    that the whole thing is a pure function of (seed, plan). *)

type metrics = {
  stack : string;
  rate : int;
  completed : int;
  lost : int;
  retries : int;
  gaveup : int;
  recoveries : int;
  recovery_latency : int64 option;
  finished : bool;
  digest : string;
      (** {!Vmk_hw.Machine.digest} of the run plus its outcome and the
          client's op log: equal digests are bit-for-bit replay. *)
}

val run_one : stack:[ `L4 | `Vmm ] -> rate:int -> quick:bool -> metrics
(** One scenario run, for the [faults] CLI subcommand and the tests. *)

val experiment : Experiment.t
