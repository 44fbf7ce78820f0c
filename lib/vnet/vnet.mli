(** Deterministic inter-guest networking fabric (E17).

    A learning virtual switch — MAC table with aging, a bounded flow
    cache with hit/miss cycle accounting, per-port bounded rx queues
    reusing the {!Vmk_overload} policies, broadcast flooding — shared
    by both stack realizations of inter-guest traffic:

    {ul
    {- the Xen-style Dom0 software bridge ({!Vmk_vmm.Bridge}), where
       every packet crosses Dom0 twice
       (netfront→netback→bridge→netback→netfront); and}
    {- the L4-style path ({!Vmk_ukernel.Net_server} broker +
       {!Vmk_guest.Port_l4} channels), where the net server brokers
       connection setup against this switch and the data path then runs
       as direct guest-to-guest IPC.}}

    The switch itself is stack-agnostic: cycle costs are charged
    through a caller-supplied [burn], so the bridge bills Dom0 and the
    broker bills the net server. All state is deterministic (no wall
    clock, no unseeded randomness); counters itemize machine-wide under
    the ["vnet.*"] namespace. *)

type pkt = { src : int; dst : int; len : int; tag : int }
(** [src]/[dst] are vnet port ids (decoded from the machine-wide tag
    convention by the caller); [dst = 0] floods to every port except the
    source. *)

val flow_hit_cost : int
(** Cycles for a forwarding decision resolved by the flow cache. *)

val flow_miss_cost : int
(** Cycles for a cold decision: flow-cache miss + MAC-table walk (also
    the per-packet price of a flood). *)

val enqueue_cost : int
(** Cycles to enqueue onto one destination port. *)

(** Learning MAC table: stations are bound to ports as their traffic is
    seen; entries idle longer than [ttl] age out and the next lookup
    misses (the packet then floods or drops like an unknown). *)
module Mac_table : sig
  type t

  val create : ?ttl:int64 -> unit -> t
  (** Default ttl 10⁹ cycles. @raise Invalid_argument if [ttl < 1]. *)

  val learn : t -> now:int64 -> mac:int -> port:int -> unit
  (** Bind (or refresh) [mac] to [port]; a changed port is a station
      move and rebinds. Allocation-free. *)

  val lookup : t -> now:int64 -> int -> int option
  (** Resolve a MAC; expired entries are removed and miss. *)

  val lookup_port : t -> now:int64 -> int -> int
  (** Allocation-free {!lookup}: [-1] = miss (ports are non-negative). *)

  val moves : t -> int
  val expiries : t -> int
end

(** Bounded (src, dst) → port cache in front of the MAC table: a hit
    costs {!flow_hit_cost}, a miss pays {!flow_miss_cost} and installs
    the resolution, evicting the oldest entry when full (FIFO). The
    hit/miss split is the E17 flow-cache sweep's instrument. *)
module Flow_cache : sig
  type t

  val create : capacity:int -> unit -> t
  (** @raise Invalid_argument if [capacity < 1]. *)

  val find : t -> src:int -> dst:int -> int option

  val find_port : t -> src:int -> dst:int -> int
  (** Allocation-free {!find}: [-1] = miss (ports are non-negative). *)

  val insert : t -> src:int -> dst:int -> port:int -> unit

  val invalidate : t -> mac:int -> unit
  (** Drop every cached flow naming [mac] (station moved). *)

  val hits : t -> int
  val misses : t -> int
  val evictions : t -> int
  val hit_ratio : t -> float
end

(** The virtual switch: ports with bounded rx queues, forwarding via
    flow cache → MAC table → flood. *)
module Switch : sig
  type t

  type delivery = {
    mutable enqueued : int;  (** Ports the packet was queued on. *)
    mutable marked : bool;
        (** A destination queue is past its ECN watermark — bounce this
            to the sender so it backs off before drops start. *)
    mutable flood : bool;
  }
  (** The record returned by {!forward} is a per-switch scratch, reused
      on every call — read it before the next forward (E21: the steady
      state allocates nothing). *)

  val create :
    ?counters:Vmk_trace.Counter.set ->
    ?burn:(int -> unit) ->
    ?flow_capacity:int ->
    ?port_capacity:int ->
    ?mark_at:int ->
    ?fair:Vmk_overload.Overload.Weighted_buckets.t ->
    unit ->
    t
  (** [burn] charges forwarding cycles to the hosting component
      (default: free — unit tests). [fair] installs per-source-port
      weighted admission at the gate, before any lookup work.
      [mark_at] arms the ECN watermark on every port queue. Port
      queues default to capacity 64 and reject packets beyond it. The
      MAC table ages entries out after 10⁹ cycles. *)

  val add_port : t -> id:int -> int
  (** Register a port (a guest's attachment point). Returns [id].
      @raise Invalid_argument on duplicates or the broadcast id 0. *)

  val forward : t -> now:int64 -> in_port:int -> pkt -> delivery
  (** Forward one packet arriving on [in_port]: learn the source,
      fair-admit, resolve, enqueue. Drops (full destination queue,
      unknown destination, hairpin) are counted under ["vnet.*"] and
      [overload.drop].
      @raise Invalid_argument on an unknown [in_port]. *)

  val forward_to :
    t ->
    now:int64 ->
    in_port:int ->
    src:int ->
    dst:int ->
    len:int ->
    tag:int ->
    delivery
  (** {!forward} without materializing a [pkt] record — the
      allocation-free hot-path entry point. *)

  val pop : t -> port:int -> pkt option
  (** Dequeue the next packet waiting on a port (the port's backend
      drains this into its guest). *)

  val discard : t -> port:int -> bool
  (** Drop the next packet waiting on a port without materializing it —
      the allocation-free form of [ignore (pop t ~port)]. *)

  val pending : t -> port:int -> int
  val port_marked : t -> port:int -> bool

  val mac_table : t -> Mac_table.t
  val flow_cache : t -> Flow_cache.t
  val dropped : t -> int
end
