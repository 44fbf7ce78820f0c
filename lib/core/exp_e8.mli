(** E8 — macro performance of the hosted OS ([HHL+97] analog).

    §3.3: "L4 has demonstrated many years ago that it is perfectly
    suitable as a VMM supporting a paravirtualised Linux system with
    excellent performance" — Härtig et al. measured L4Linux within a few
    percent of native on macrobenchmarks, with larger gaps on
    syscall-bound microbenchmarks. The same two workload mixes run on
    native, L4 and Xen hosting. *)

val experiment : Experiment.t

type row = {
  structure : string;
  workload : string;
  busy_cycles : int64;
  relative : float;  (** Slowdown vs native on the same workload. *)
}
