(** E16: interrupt mitigation and batched I/O delivery — offered-load
    sweep across interrupt-only / polling-only / hybrid (NAPI) delivery
    on both structures, measuring driver cycles per packet and timely
    goodput, plus the mitigated knee probe and the E14 composition. *)

val experiment : Experiment.t

(** {1 Test hooks}

    The replay test drives single runs directly and compares their
    digests. *)

type stack = Vmm | Uk
type mode = Interrupt | Polling | Hybrid
type run

val run_one : stack -> mode -> base:int -> int * int -> run
(** One run at offered-load multiplier [num, den] of the stack's
    capacity, injecting [base * num / den] packets. *)

val digest : run -> string
(** {!Scenario.rx_storm} digest: machine state plus every arrival. *)

val received : run -> int
