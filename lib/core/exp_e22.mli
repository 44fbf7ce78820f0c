(** E22 — the million-flow day: heavy-tailed open-loop traffic against
    both stacks on the 8-core machine, tail latency from streaming
    mergeable quantile sketches, the offered-load knee sweep (closing the
    E15-admission-on-SMP carry-over), weighted-fair-share composition and
    the replay digests of two day cells. *)

val experiment : Experiment.t

type stack = Vmm | Uk

val bench_slice : stack:stack -> unit -> int
(** Run a small fixed-size day slice (quick schedule, naive mode) against
    one stack and return the delivered-packet count — the bench harness
    entry point ([e22_day_slice_*]). Deterministic per stack. *)
