(** Block device model.

    A simple latency-modelled disk: requests complete after 40,000
    cycles plus 8 cycles per byte (a fast 2005 disk with cache) and raise
    the disk's interrupt line. Sector contents are content tags (see
    {!Frame}), persisted in a sector store so reads after writes verify
    data integrity across the block stack (native driver,
    blkfront/blkback, Parallax, L4 driver server).

    Fault injection (E13): {!set_faults} installs transient fault windows.
    Inside a window a request may complete with [ok = false] ([Fail]) or
    vanish entirely ([Drop] — a request timeout as seen by the driver).
    Every coin flip draws from the window's own seeded stream, so fault
    runs are bit-for-bit reproducible. *)

type op = Read | Write

type request = {
  id : int;  (** Ticket returned by {!submit}. *)
  op : op;
  sector : int;
  frame : Frame.frame;  (** DMA target/source buffer. *)
  bytes : int;
  ok : bool;  (** [false]: media error — no data was transferred. *)
}

type fault_mode =
  | Fail  (** Complete (with interrupt) but flag a media error. *)
  | Drop  (** Never complete: the request is silently lost. *)

type fault = {
  f_start : int64;  (** Window start (absolute virtual time, inclusive). *)
  f_stop : int64;  (** Window end (exclusive). *)
  f_mode : fault_mode;
  f_pct : int;  (** Per-request fault probability in percent. *)
  f_rng : Vmk_sim.Rng.t;  (** Dedicated stream for the coin flips. *)
  f_sectors : (int * int) option;
      (** Restrict to an inclusive sector range (a bad-sector region);
          [None] faults any sector. *)
}

type t

val create :
  Vmk_sim.Engine.t ->
  Irq.t ->
  irq_line:int ->
  unit ->
  t

val set_faults : t -> fault list -> unit
(** Install the fault windows (replacing any previous set). A request is
    judged against the first window active at its submission time. *)

val submit : t -> op -> sector:int -> frame:Frame.frame -> bytes:int -> int
(** Queue a request; returns its id. On completion the IRQ line is raised:
    a [Read] deposits the stored sector tag into the frame; a [Write]
    persists the frame's tag into the sector store. A request faulted with
    [Fail] completes with [ok = false] and transfers nothing; one faulted
    with [Drop] never completes.

    @raise Invalid_argument on negative sector or size out of
    [\[0, page_size\]]. *)

val completed : t -> request option
(** Pop the oldest finished request. *)

val in_flight : t -> int

val sector_tag : t -> int -> int
(** Stored tag of a sector; [0] if never written. *)

val reads_total : t -> int
val writes_total : t -> int

val faulted_total : t -> int
(** Requests completed with [ok = false]. *)

val dropped_total : t -> int
(** Requests lost to [Drop] windows. *)
