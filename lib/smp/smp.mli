(** Multi-CPU executor over the deterministic event engine.

    A machine created with [~cpus:n] gains an SMP executor that runs
    threads pinned to cores, interleaving cores round-robin at a fixed
    quantum of global virtual time so every run is bit-for-bit
    reproducible per seed. Each core has its own local clock, credit
    scheduler, TLB and i-cache ({!Vmk_hw.Cpu}); the frame table,
    devices and the one engine clock stay shared.

    Cross-core communication pays hardware-shaped costs:
    - sending to a thread blocked on another core posts an {b IPI}
      (sender pays the post, the target core pays [arch.ipi_cost] in
      its ["smp.ipi"] account before its next dispatch);
    - sending to a busy remote thread costs only a cache-line transfer
      delay before the message is visible;
    - {!shootdown} broadcasts a TLB invalidation: the initiator pays a
      per-remote-core IPI + wait-for-ack bill, every remote core pays
      [arch.shootdown_ack_cost] (["smp.shootdown"]) and loses its TLB;
    - {!locked} models a spinlock by serializing critical sections in
      global time — late arrivals spin, with spin cycles itemized in
      ["smp.spin"] and per lock.

    Threads are OCaml fibers performing one [Invoke] effect, exactly
    like the single-CPU kernels: the ops below ({!burn}, {!recv}, …)
    may only be called from inside a body passed to {!spawn}. *)

type t
type tid = int

type lock
(** A deterministic spinlock (see {!locked}). *)

type stop_reason =
  | Idle  (** No runnable thread, no pending event, no future message. *)
  | Condition  (** The [until] predicate returned true. *)
  | Rounds  (** [max_rounds] exhausted. *)

val create : Vmk_hw.Machine.t -> t
(** Executor over [machine]'s vCPU bank. Each scheduling round runs
    every core, in core-id order, for one 1,000-cycle quantum of global
    time. *)

val spawn :
  t -> name:string -> ?account:string -> cpu:int -> ?weight:int ->
  (unit -> unit) -> tid
(** New thread pinned to core [cpu]. [account] defaults to [name];
    [weight] (default 1) scales its credit refill — the per-core
    scheduler picks the Ready thread with the most credit, ties broken
    by lowest tid.

    @raise Invalid_argument on a bad cpu index or [weight < 1]. *)

val post : t -> ?irq_cost:int -> dst:tid -> int -> unit
(** Device-side injection: deliver tag to [dst]'s mailbox from outside
    any thread (e.g. from an engine event callback). The target core is
    billed [irq_cost] (default the profile's [irq_entry_cost]) in its
    ["smp.irq"] account before its next dispatch. *)

val run :
  ?until:(unit -> bool) -> ?max_rounds:int -> ?tickless:bool -> t -> stop_reason
(** Round-robin the cores until idle, [until ()] turns true, or
    [max_rounds] (default 2_000_000) rounds elapse. Quanta where every
    core is blocked are skipped straight to the next engine event or
    message visibility, so idle virtual time costs no host time and is
    charged to no account. [~tickless:false] crosses those same gaps in
    quantum-sized hops that stop exactly at the target instead, and
    each hop starts a round that refills every thread's credit; the
    jump applies the refills of the hops it skips in one step, so both
    dispatch the same threads at the same clocks and the stepped run
    just costs more rounds. The test suite uses it as the reference
    for the tickless-equivalence property (E21). *)

(** {1 Thread operations} — valid only inside a {!spawn} body. *)

val burn : int -> unit
(** Spend user computation, consumed one quantum-slice per dispatch
    (so long burns are preemptible). *)

val yield : unit -> unit
(** Give up the core for this round. *)

val recv : unit -> int
(** Block until a message is visible on this core, return its tag.
    Messages are delivered in (visibility time, global send order). *)

val send : dst:tid -> tag:int -> cycles:int -> unit
(** Send [tag] to [dst], paying [cycles] of send-path work first. Same
    core: visible immediately. Other core: visible after a cache-line
    delay, or after [arch.ipi_cost] when the target sleeps and needs an
    IPI to wake. *)

val locked : lock -> cycles:int -> unit
(** Run a [cycles]-long critical section under [lock]. If the lock's
    previous holder (on any core) is still inside in global time, the
    caller first spins for the remainder — charged to ["smp.spin"]. *)

val shootdown : pages:int -> unit
(** Broadcast TLB invalidation for [pages] pages to every other core. *)

(** {1 Locks} *)

val lock_create : t -> lock
val lock_acquisitions : lock -> int
val lock_contended : lock -> int
(** Acquisitions that found the lock held and had to spin. *)

val lock_spin_cycles : lock -> int64

(** {1 Introspection} *)

val is_done : t -> tid -> bool
(** True once the thread's body returned (or crashed). *)
