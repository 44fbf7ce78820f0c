(** Overload-robustness policies shared by both I/O stacks (E15).

    Three deterministic building blocks: token-bucket admission control
    (shed work {e before} paying for it — the receive-livelock defense),
    bounded queues with an explicit full-queue policy (reject,
    drop-oldest, or tell the producer to retry until a deadline), and a
    client-side retry schedule with exponential backoff whose jitter is
    drawn from a seeded {!Vmk_sim.Rng} stream — so overloaded runs stay
    bit-for-bit reproducible (the property [test/test_overload.ml]
    asserts).

    Components that apply a policy itemize the outcome machine-wide
    under the ["overload.*"] counter namespace:
    {ul
    {- [overload.drop] — work accepted into the system then discarded
       (full ring, bounded queue overflow);}
    {- [overload.shed] — work refused {e early} by admission control,
       before the expensive part of the path ran;}
    {- [overload.retry] — client retry attempts under backoff;}
    {- [overload.backoff_cycles] — virtual cycles spent waiting between
       retries;}
    {- [overload.queue_peak.<name>] — high-water mark of each policied
       queue;}
    {- [overload.nic_drop] — packets the NIC dropped for want of a posted
       rx buffer (wired up by {!Vmk_hw.Machine.create}).}}

    Interrupt mitigation (E16) itemizes under the ["mitig.*"] namespace:
    [mitig.irq_coalesced] (completions absorbed by a NIC hold-off
    window), [mitig.poll_rounds] (non-empty NAPI poll rounds),
    [mitig.batch_hist.<2^k>] (poll-batch size histogram, power-of-two
    buckets) and [mitig.reenable] (empty rounds that re-enabled the
    interrupt). *)

val drop_counter : string
val shed_counter : string
val retry_counter : string
val backoff_counter : string
val queue_peak_prefix : string

val ring_reject_prefix : string
(** [overload.ring_reject.<dev>] — producer-side pushes a full shared
    ring refused (back-pressure the producer absorbs by retrying), as
    opposed to [overload.drop], which counts payload actually lost.
    Conflating the two double-counted retried tx attempts as drops —
    the E17 bugfix sweep separated them. *)

val fair_shed_counter : string
(** [overload.fair.shed] — sheds at a {!Weighted_buckets} gate; also
    itemized per client under [overload.fair.shed.<key>]. *)

val ecn_mark_counter : string
(** [overload.ecn_mark] — congestion marks propagated back to a
    sender (a bounded queue past its high watermark, E17). *)

(** [overload.ecn_backoff] — sender backoffs triggered by a mark
    {e before} any drop occurred. *)
val ecn_backoff_counter : string
val mitig_coalesced_counter : string
val mitig_poll_rounds_counter : string
val mitig_batch_hist_prefix : string
val mitig_reenable_counter : string

(** Deterministic token bucket: one token refills every [period] virtual
    cycles, up to [burst]. Over any window of [w] cycles at most
    [burst + w/period + 1] requests are admitted (the rate property the
    qcheck test asserts). Purely integer arithmetic — no float drift. *)
module Token_bucket : sig
  type t

  val create : period:int64 -> burst:int -> unit -> t
  (** @raise Invalid_argument if [period < 1] or [burst < 1]. *)

  val admit : t -> now:int64 -> bool
  (** Take one token at virtual time [now]; [false] = shed the work.
      [now] must not decrease across calls (virtual time never does). *)

  val admit_n : t -> now:int64 -> int -> int
  (** [admit_n t ~now n] admits as many of a batch of [n] as the bucket
      allows after one refill, returning how many were admitted (a prefix
      of the batch; the rest are denied). Equivalent to [n] same-cycle
      {!admit} calls.

      @raise Invalid_argument on a negative [n]. *)

  val available : t -> now:int64 -> int
  val admitted : t -> int
  val denied : t -> int
end

(** A bounded FIFO with an explicit policy for the full case — the
    replacement for the unbounded [Queue.t]s that let latency grow
    without limit under overload. *)
module Bounded_queue : sig
  type policy =
    | Reject  (** Refuse the newest item (tail drop). *)
    | Drop_oldest  (** Evict the head to make room (fresh data wins). *)
    | Block_with_deadline of int64
        (** The queue itself never blocks (it is pure bookkeeping);
            pushes into a full queue return {!Retry_until} [now + d] and
            the producer is expected to back off and retry until that
            deadline — see {!Backoff}. *)

  type 'a outcome =
    | Accepted
    | Rejected
    | Displaced of 'a  (** Accepted, but this older item was evicted. *)
    | Retry_until of int64  (** Absolute deadline to retry until. *)

  type 'a t

  val create : ?policy:policy -> ?mark_at:int -> capacity:int -> unit -> 'a t
  (** Default policy {!Reject}. [mark_at] is the ECN high watermark:
      once {!length} reaches it, {!marked} reports congestion so
      producers can back off {e before} the queue fills and drops
      (E17). Without it the queue never marks.
      @raise Invalid_argument if [capacity < 1] or [mark_at < 1]. *)

  val push : 'a t -> now:int64 -> 'a -> 'a outcome
  val pop : 'a t -> 'a option

  val length : 'a t -> int
  val is_empty : 'a t -> bool
  val rejected : 'a t -> int
  val displaced : 'a t -> int

  val peak : 'a t -> int
  (** High-water mark of {!length} — never exceeds the queue's capacity
      (the boundedness property the qcheck test asserts). *)

  val marked : 'a t -> bool
  (** [true] while {!length} is at or above the [mark_at] watermark —
      the ECN congestion bit. *)

end

(** Per-client fair-share admission (E17): one deterministic
    {!Token_bucket} per client key, refilling at [period / weight] — so
    a client with weight 2 is admitted twice the rate of a weight-1
    client, and an aggressive client exhausts only its own bucket.
    Decisions are itemized under [overload.fair.admit] /
    [overload.fair.shed] (plus [overload.fair.shed.<key>]) when a
    counter set is supplied. *)
module Weighted_buckets : sig
  type t

  val create :
    ?counters:Vmk_trace.Counter.set -> period:int64 -> burst:int -> unit -> t
  (** [period] is the weight-1 refill period; every bucket gets the same
      [burst]. @raise Invalid_argument if [period < 1] or [burst < 1]. *)

  val set_weight : t -> key:int -> int -> unit
  (** Set a client's fair share (default 1).
      @raise Invalid_argument on [weight < 1]. *)

  val admit : t -> key:int -> now:int64 -> bool
  (** Take one token from [key]'s bucket (created on first use);
      [false] = shed this client's work. *)

  val admitted : t -> int
end

(** Client retry schedule: exponential backoff with seeded jitter.
    Attempt [n] waits [min (base·2^n) cap + jitter_n] cycles where
    [jitter_n] is a fresh draw in [\[0, jitter)] from the stream given at
    create time — deterministic per (seed, call sequence). *)
module Backoff : sig
  type t

  val create :
    ?attempts:int ->
    ?base:int64 ->
    ?cap:int64 ->
    ?jitter:int ->
    Vmk_sim.Rng.t ->
    t
  (** Defaults: 5 attempts, base 100k cycles, cap 3.2M, jitter 1000.
      Split the machine RNG for the stream. *)

  val delay : t -> attempt:int -> int64
  (** Delay before retrying after failed attempt [attempt] (0-based).
      Draws the jitter, so the call sequence matters for determinism. *)

  val run :
    t ->
    counters:Vmk_trace.Counter.set ->
    sleep:(int64 -> unit) ->
    (unit -> 'a option) ->
    'a option
  (** [run t ~counters ~sleep try_once] retries [try_once] up to
      [attempts] times, sleeping the scheduled delay between failures
      via [sleep] and itemizing [overload.retry] /
      [overload.backoff_cycles]. [None] when every attempt failed. *)
end

val note_queue_peak : Vmk_trace.Counter.set -> name:string -> int -> unit
(** Record a queue-depth observation under [overload.queue_peak.<name>]
    (the counter keeps the maximum seen). *)

val queue_peak_id : Vmk_trace.Counter.set -> name:string -> int
(** Intern [overload.queue_peak.<name>] once at wiring time; feed the
    id to {!note_queue_peak_id} on the hot path. *)

val note_queue_peak_id : Vmk_trace.Counter.set -> int -> int -> unit
(** [note_queue_peak_id counters id depth] — allocation-free form of
    {!note_queue_peak} over a pre-resolved id. *)

type batch_hist
(** Pre-interned [mitig.batch_hist.*] bucket ids for one counter set. *)

val batch_hist : Vmk_trace.Counter.set -> batch_hist
(** Intern every power-of-two bucket once at wiring time. *)

val note_batch_hist : Vmk_trace.Counter.set -> batch_hist -> int -> unit
(** Record one poll batch of the given size under
    [mitig.batch_hist.<2^k>] where [2^k] is the largest power of two not
    exceeding the size; an array store, no allocation. Sizes [< 1] are
    ignored. *)
