(** The L4-style microkernel.

    Threads are OCaml-5 fibers scheduled by a priority round-robin
    scheduler; the single system-call effect {!Sysif.Invoke} suspends the
    fiber into its TCB. Synchronous IPC rendezvous transfers untyped
    words, copies string items and applies map/grant items through the
    {!Mapdb}; hardware interrupts are converted into IPC from pseudo
    thread-ids; page faults are converted into IPC to the faulter's pager.

    Cost accounting: user computation ({!Sysif.call.Burn}) is charged to
    the thread's account; all kernel work (syscall entry/exit, IPC path,
    copies, mapping, interrupt conversion) is charged to the
    ["ukernel"] account. Address-space switches are charged when a thread
    from a different space is dispatched, so cross-space IPC automatically
    pays the TLB tax of untagged platforms. *)

type t

val default_priority : int

val create : Vmk_hw.Machine.t -> t
(** A kernel for the given (fresh) machine. *)

val spawn :
  t ->
  name:string ->
  ?priority:int ->
  ?pager:Sysif.tid ->
  ?account:string ->
  (unit -> unit) ->
  Sysif.tid
(** Create a thread in a new address space (threads sharing a space are
    created from inside via {!Sysif.call.Spawn} with [same_space]).
    [account] defaults to [name]. The body starts running at the first
    {!run} dispatch.

    @raise Invalid_argument on an out-of-range priority. *)

type stop_reason = Vmk_hw.Exec.stop_reason = Idle | Condition | Dispatch_limit
(** See {!Vmk_hw.Exec.stop_reason}. *)

val run :
  ?until:(unit -> bool) -> ?max_dispatches:int -> t -> stop_reason
(** Schedule until quiescence, the [until] condition, or the dispatch
    limit (default 10 million). *)

val kill : t -> Sysif.tid -> unit
(** Abruptly destroy a thread (fault injection): no cleanup runs, partners
    blocked on it receive [R_error Dead_partner], its interrupt
    attachments are dropped. Killing the last thread of a space revokes
    the space's mappings from the mapping database. *)

val is_alive : t -> Sysif.tid -> bool

val state_name : t -> Sysif.tid -> string
(** Human-readable state for diagnostics/tests:
    ["ready"|"running"|"blocked-send"|"blocked-recv"|"blocked-call"|
     "sleeping"|"dead"|"missing"]. *)

val thread_count : t -> int
(** Threads that are not dead. *)
