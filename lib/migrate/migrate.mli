(** Stack-agnostic live-migration core (E20).

    Checkpoint/restore and pre-copy migration move a guest between two
    simulated machines. Because guests are OCaml fibers, their running
    continuation cannot be serialised; what migrates is the explicit
    {!Image} — the guest's architectural state: page stamps, the
    deterministic workload's step counter and the packet sequence
    counter. The guest body is a pure function of the image, so a
    restored image replayed on the destination is bit-for-bit the
    execution the source would have continued — exactly the property
    the experiment's replay verdict checks.

    The protocol is classic pre-copy [Clark et al., NSDI'05] shrunk to
    the model: arm log-dirty tracking, push all pages while the guest
    runs, then iterate rounds pushing only the pages dirtied since the
    last harvest. When a round's dirty set falls to the convergence
    threshold (or the round budget runs out), quiesce the guest
    cooperatively, pause it, push the remainder plus device state, and
    commit. [max_rounds = 0] degenerates into plain stop-and-copy —
    which is also the checkpoint/restore path.

    Robustness contract: a failure injected at any phase — the source's
    migration daemon dying, the destination rejecting, the transfer
    link dropping — resolves to {e exactly one} live consistent copy.
    Failures strictly before the commit point abort-and-rollback: the
    source is resumed (or never paused) and the destination discards
    its staging image. The commit point itself is atomic in the model:
    once the destination acknowledges, the source is destroyed in the
    same indivisible step, so "both alive" and "neither alive" are
    unrepresentable. Injection is either phase-targeted
    ({!session}[~abort_at], the qcheck property's lever) or time-based
    through {!inject}, the {!Vmk_faults.Faults.Mig_fault} callback. *)

(** {1 The migrated state} *)

module Image : sig
  type t = {
    pages : int array;  (** One content stamp per guest page. *)
    mutable step : int;  (** Workload steps executed so far. *)
    mutable sent : int;  (** Packets handed to the fabric so far. *)
  }

  val create : pages:int -> t
  (** All stamps zero, counters zero. *)

  val copy : t -> t
  val equal : t -> t -> bool
  (** Bit-for-bit: every stamp and both counters. *)

  val digest : t -> int
  (** Order-sensitive fold of the stamps and counters — a compact
      fingerprint for tables. Equal images have equal digests. *)
end

(** {1 The deterministic guest workload} *)

module Workload : sig
  type t = {
    hot : int;  (** Pages 0..hot-1 are rewritten every step. *)
    cold_every : int;  (** One cold page is rewritten every [cold_every] steps. *)
  }

  val make : ?hot:int -> ?cold_every:int -> unit -> t
  (** Defaults: [hot = 4], [cold_every = 16]. Every step burns 2,000
      guest cycles, and every 8th step sends a packet. The steady-state
      dirty rate is roughly
      [hot + round_span / cold_every] pages per harvest — [hot] is the
      knob the E20 sweep turns.
      @raise Invalid_argument on non-positive fields. *)

  val advance : Image.t -> t -> int list * bool
  (** Execute one step {e on the image}: mix the stamps of the pages
      this step writes, bump [step], and report [(written pages,
      send a packet now?)]. Pure in the image — replaying the same
      steps from the same image always produces the same states. *)
end

val total_sends : steps:int -> int
(** Packets a [steps]-step run of the workload emits. *)

(** {1 Running a guest around an image} *)

type quiesce = { mutable q_req : bool; mutable q_ack : bool }
(** The cooperative pause handshake between the migration daemon and
    the guest: the daemon raises [q_req]; the guest, at its next step
    boundary, drains in-flight packets, raises [q_ack] and spins in
    [g_wait] — only then does the daemon issue the stack's pause
    primitive, so the image is always quiesced at a step boundary. *)

val quiesce : unit -> quiesce

type guest_prims = {
  g_touch : vpn:int -> write:bool -> unit;
      (** Make the access visible to the stack's dirty tracker. [vpn]
          is the image page index; adapters add their base. *)
  g_burn : int -> unit;
  g_send : seq:int -> bool;  (** [false] = backpressure; will be retried. *)
  g_wait : unit -> unit;  (** Small block/yield (retry and pause spin). *)
  g_drain : unit -> unit;  (** Flush in-flight packets (pre-pause). *)
}

val guest_run :
  image:Image.t -> w:Workload.t -> prims:guest_prims -> q:quiesce ->
  until_step:int -> unit
(** Drive the image to [until_step], honouring the quiesce handshake at
    every step boundary and retrying backpressured sends. [sent] is
    incremented only after the fabric accepted the packet, so a
    migrated [sent] counter never double-counts an in-flight packet. *)

(** {1 The transfer link} *)

type link = {
  mutable l_down : bool;
  l_page_cost : int;  (** Daemon cycles per page pushed. *)
  l_state_cost : int;  (** Daemon cycles per control/state message. *)
}

val link : ?page_cost:int -> ?state_cost:int -> unit -> link
(** Defaults: 400 cycles/page, 2_000 cycles/state message. *)

exception Link_down
(** Raised by the transfer helpers when the link is down; the protocol
    driver converts it into an abort at the current phase. *)

(** {1 Protocol} *)

type phase = Setup | Precopy of int  (** Round; 0 = the full first pass. *)
           | Stopcopy | Commit

type abort_reason = Src_dead | Dst_reject | Link_drop

type outcome =
  | Completed of {
      c_rounds : int;  (** Copy rounds run (1 = just the full pass). *)
      c_pages : int;  (** Pages pushed over the link, all rounds. *)
      c_downtime : int64;  (** Source-side pause → commit span, cycles. *)
    }
  | Aborted of { a_phase : phase; a_reason : abort_reason }

type session
(** One migration attempt: the link, plus the injected-failure state
    the protocol driver polls at every phase boundary. *)

val session : ?abort_at:phase * abort_reason -> ?link:link -> unit -> session

val inject : session -> Vmk_faults.Faults.mig_action -> unit
(** Deliver a time-based mid-migration fault (wire this as the
    [migration] callback of {!Vmk_faults.Faults.arm}). [Mig_link_drop]
    additionally downs the link immediately, so a transfer already in
    progress fails too. *)

type ops = {
  o_now : unit -> int64;
  o_burn : int -> unit;  (** Daemon-side cycles (the link charges). *)
  o_log_dirty : bool -> unit;
  o_dirty_read : unit -> int list;  (** Image page indices, ascending. *)
  o_quiesce : unit -> unit;  (** Handshake + stack pause primitive. *)
  o_resume : unit -> unit;  (** Rollback: unpause; no-op if never paused. *)
  o_state_xfer : unit -> unit;
      (** Move device/connection state (grant, event-channel, XenStore
          generation on the VMM; mapping and capability-handle counts
          on the microkernel) into the staging area. *)
  o_commit : unit -> unit;  (** Atomically destroy the source guest. *)
}

type config = {
  max_rounds : int;  (** 0 = pure stop-and-copy (checkpoint). *)
  threshold : int;  (** Dirty pages at/below which precopy converges. *)
}

val precopy : ?max_rounds:int -> ?threshold:int -> unit -> config
(** Defaults: 8 rounds, threshold 8. *)

val stop_and_copy : config
(** [max_rounds = 0]: the checkpoint/restore configuration. *)

val run :
  cfg:config -> session:session -> src:Image.t -> staging:Image.t ->
  ops:ops -> outcome
(** Drive one migration attempt. On [Completed] the staging image holds
    the quiesced source state and the source guest is destroyed; on
    [Aborted] the source is resumed (consistent, at a step boundary)
    and the staging image must be discarded by the caller. Injected
    faults are polled at every phase boundary; {!Link_down} aborts from
    inside a transfer. Never raises. *)

val pp_outcome : Format.formatter -> outcome -> unit
val phase_name : phase -> string
val reason_name : abort_reason -> string

(** {1 Results} *)

type result = {
  r_outcome : outcome;
  r_image : Image.t;  (** Final image of the surviving copy. *)
  r_survivor : [ `Src | `Dst ];
  r_src_log : int list;  (** Seqs the source-machine sink received, in order. *)
  r_dst_log : int list;  (** Same for the destination ([] if aborted). *)
  r_total_sends : int;  (** Packets the whole workload emits. *)
  r_src_alive : bool;  (** Source guest (domain or task) alive after the run. *)
  r_logdirty_faults : int;  (** Log-dirty protection faults on the source. *)
  r_handles : (int * int) option;
      (** Microkernel only: per-page capability handles at the source and
          re-established on the destination. *)
  r_window : int64 * int64;
      (** Source-clock [(start, end)] of the protocol run — lets a caller
          aim a time-scheduled {!Vmk_faults.Faults.Mig_fault} into the
          middle of the migration window deterministically. *)
  r_digest : string;
      (** Replay digest: {!Vmk_hw.Machine.digest} of the source machine
          plus the outcome, every image stamp and counter, both sink
          logs, the window and the destination machine's digest. Equal
          digests are bit-for-bit replay. *)
}

val result :
  src:Vmk_hw.Machine.t ->
  dst:Vmk_hw.Machine.t option ->
  outcome:outcome ->
  image:Image.t ->
  survivor:[ `Src | `Dst ] ->
  src_log:int list ->
  dst_log:int list ->
  total_sends:int ->
  src_alive:bool ->
  logdirty_faults:int ->
  handles:(int * int) option ->
  window:int64 * int64 ->
  result
(** Assemble a finished run's result and its digest. [dst] is the
    destination machine, [None] when the migration aborted. *)
