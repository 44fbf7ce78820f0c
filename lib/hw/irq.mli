(** Interrupt controller (PIC-style, round-robin arbitration).

    Devices raise lines; the hosting kernel polls {!next_pending} at its
    preemption points (the simulator has no true asynchrony) and
    acknowledges lines it services. Arbitration is round-robin starting
    after the last line serviced, so a chatty device cannot starve the
    others.

    The controller also supports the mask-while-pending discipline that
    NAPI-style drivers rely on: a masked line still latches raises (and
    counts how many coalesced onto the latch), it just never surfaces from
    {!next_pending} until unmasked — so a driver can mask, poll the device
    directly, and unmask without losing the edge that arrived meanwhile. *)

type t

val create : lines:int -> t
(** @raise Invalid_argument if [lines < 1]. *)

val lines : t -> int

val raise_line : t -> int -> unit
(** Latch line [n] pending (edge-triggered; re-raising a pending line
    coalesces, which the raised/serviced counters expose).

    @raise Invalid_argument on an out-of-range line. *)

val is_pending : t -> int -> bool
(** The line's pending latch is set (masked or not). *)

val next_pending : t -> int option
(** Next pending unmasked line, scanning round-robin from the line after
    the last one acknowledged, without acknowledging it. *)

val any_pending : t -> bool
(** Some unmasked line is pending: {!next_pending} would return a line. *)

val ack : t -> int -> unit
(** Clear the pending latch for line [n] (start of service). *)

val mask : t -> int -> unit
val unmask : t -> int -> unit
val is_masked : t -> int -> bool

val raised_total : t -> int -> int
(** How many times the line was raised (including coalesced raises). *)

val serviced_total : t -> int -> int
(** How many times the line was acknowledged. *)

val coalesced_total : t -> int -> int
(** Raises that landed on an already-pending latch (absorbed edges). *)

val burst : t -> int -> int
(** Raises since the line's latch was last cleared — the number of device
    events one acknowledgement will cover. A kernel can forward this with
    the interrupt message so one wake carries the whole batch. *)
