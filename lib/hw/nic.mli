(** Network interface model.

    A DMA-capable NIC with receive and transmit descriptor rings. The
    driver posts receive buffers (frames); arriving packets DMA their
    content tag into the next posted buffer and raise the NIC's interrupt
    line. Transmits complete after a wire delay. DMA itself costs no CPU —
    all CPU cost in the I/O experiments comes from the *drivers* (copies,
    page flips, ring manipulation, interrupt handling), mirroring the
    Cherkasova & Gardner measurement that E3 reproduces.

    Packet arrival is driven through {!inject_rx}, typically from
    engine-scheduled workload generators.

    {b Interrupt mitigation} (E16): with {!set_mitigation} the NIC models a
    hardware hold-off timer, the building block of NAPI-style hybrid
    interrupt/polling. The first rx or tx completion raises the line and
    opens a window of [mitigation] cycles; completions landing inside the
    window coalesce into at most one deferred raise at window end (counted
    by {!irq_coalesced} and reported through {!on_coalesce}). Drivers that
    poll pair this with {!poll}, which drains up to [budget] rx events in
    one call — the driver burns the arch profile's [poll_batch_cost] once
    per batch instead of [irq_entry_cost] per packet. A window of [0L]
    (the default) restores interrupt-per-completion behaviour exactly.

    Fault injection (E13): {!set_faults} installs transient windows in
    which an arriving packet may be dropped, corrupted (its content tag
    scrambled so verifying receivers notice) or duplicated. Coin flips
    draw from each window's own seeded stream, keeping runs
    reproducible. *)

type t

type rx_event = {
  frame : Frame.frame;  (** Buffer the packet landed in. *)
  len : int;  (** Payload bytes. *)
  tag : int;  (** Content identity (propagated into the frame tag). *)
}

type fault_mode =
  | Drop  (** The packet vanishes on the wire. *)
  | Corrupt  (** Delivered, but with a scrambled content tag. *)
  | Duplicate  (** Delivered twice (two buffers consumed). *)

type fault = {
  f_start : int64;  (** Window start (absolute virtual time, inclusive). *)
  f_stop : int64;  (** Window end (exclusive). *)
  f_mode : fault_mode;
  f_pct : int;  (** Per-packet fault probability in percent. *)
  f_rng : Vmk_sim.Rng.t;  (** Dedicated stream for the coin flips. *)
}

val create : Vmk_sim.Engine.t -> Irq.t -> irq_line:int -> unit -> t
(** A NIC raising [irq_line] on the given controller. A transmission
    completes 2000 cycles after submission. *)

val irq_line : t -> int

val set_faults : t -> fault list -> unit
(** Install the fault windows (replacing any previous set). An arriving
    packet is judged against the first window active at arrival time. *)

(** {1 Interrupt mitigation} *)

val set_mitigation : t -> int64 -> unit
(** Set the hold-off window in cycles; [0L] (default) disables mitigation.

    @raise Invalid_argument on a negative window. *)

val irq_coalesced : t -> int
(** Completions absorbed by an open hold-off window (no fresh raise). *)

val on_coalesce : t -> (unit -> unit) -> unit
(** Hook invoked on every absorbed completion (counter wiring). *)

val on_rx_drop : t -> (unit -> unit) -> unit
(** Hook invoked on every buffer-exhaustion rx drop (counter wiring). *)

(** {1 Receive} *)

val post_rx_buffer : t -> Frame.frame -> unit
(** Give the NIC an empty buffer for the next arrival (ring order). *)

val rx_buffers_posted : t -> int

val inject_rx : t -> tag:int -> len:int -> unit
(** A packet arrives now. If a buffer is posted, its frame receives the
    tag, an {!rx_event} is queued and the IRQ line is raised; otherwise the
    packet is dropped.

    @raise Invalid_argument if [len] is negative or exceeds a page. *)

val rx_ready : t -> rx_event option
(** Pop the oldest unserviced arrival. *)

val rx_pending : t -> int

val poll : t -> budget:int -> rx_event list
(** Drain up to [budget] queued arrivals in one device read, oldest first
    (empty list when the rx queue is dry). The caller is expected to burn
    the arch profile's [poll_batch_cost] once per call — that is the whole
    point: a batch costs one ring read, not [budget] interrupt entries.

    @raise Invalid_argument if [budget < 1]. *)

(** {1 Transmit} *)

val submit_tx : t -> Frame.frame -> len:int -> unit
(** Queue a frame for transmission; completes after the wire delay. The
    completion interrupt goes through the same mitigation window as rx, so
    tx completions landing inside an open window coalesce too. *)

val tx_done : t -> (Frame.frame * int) option
(** Pop the oldest completed transmit (frame, bytes). *)

val tx_completions_pending : t -> int
(** Completed transmits not yet reaped — a NAPI loop's "any tx work left"
    re-enable check. *)

(** {1 Statistics} *)

val rx_faulted : t -> int
(** Packets hit by an active fault window (dropped/corrupted/duplicated). *)

val rx_delivered : t -> int
val rx_dropped : t -> int
val tx_submitted : t -> int
val tx_completed : t -> int
val tx_bytes : t -> int
