(** E17: the inter-guest communication fabric — N mini-OS instances
    exchanging vnet-addressed packets through the Dom0 software bridge
    (every packet crosses Dom0 twice) vs L4-style direct guest-to-guest
    IPC channels (the net server only brokers connection setup),
    measuring fabric cycles, privileged transitions and middleman
    touches per packet, plus the flow-cache sweep, weighted fair-share
    and ECN satellites, the E14 storm composition and the replay digests
    of the 8-guest pairwise runs. *)

val experiment : Experiment.t

(** {1 Test hooks}

    The replay test drives single runs directly and compares their
    digests. *)

type stack = Vmm | Uk
type run

val pairwise : stack:stack -> guests:int -> count:int -> run
(** One pairwise run: [guests/2] unidirectional flows of [count]
    packets each (odd ports send to port+1). *)

val digest : run -> string
(** {!Vmk_hw.Machine.digest} of the run plus its sent count and every
    arrival. *)

val received : run -> int
