(** The simulated machine: one CPU's worth of hardware.

    Composes the event engine, frame table, interrupt controller, TLB,
    i-cache, NIC, disk and timer under one architecture profile, together
    with the instrumentation every experiment reads (named counters and
    per-domain cycle accounts). Scenarios create one fresh machine per run,
    so no state is shared between experiments. *)

type t = {
  arch : Arch.profile;
  engine : Vmk_sim.Engine.t;
  frames : Frame.t;
  irq : Irq.t;
  nic : Nic.t;
  disk : Disk.t;
  tlb : Tlb.t;  (** Alias of core 0's TLB, for single-CPU callers. *)
  icache : Cache.t;  (** Alias of core 0's i-cache. *)
  cpus : Cpu.t array;
      (** The vCPU bank; [cpus.(0)] owns {!field-tlb}/{!field-icache}.
          Single-CPU machines (the default) have exactly one entry. *)
  counters : Vmk_trace.Counter.set;
  accounts : Vmk_trace.Accounts.t;
  rng : Vmk_sim.Rng.t;
  timer_on : bool ref;  (** Periodic timer enabled (see {!start_timer}). *)
}

val timer_irq : int
(** Line 0. *)

val nic_irq : int
(** Line 1. *)

val disk_irq : int
(** Line 2. *)

val create :
  ?arch:Arch.profile -> ?frames:int -> ?cpus:int -> ?seed:int64 -> unit -> t
(** A machine with the given profile (default {!Arch.default}),
    [frames] physical frames (default 4096 = 16 MiB) and [cpus] vCPUs
    (default 1; values below 1 are clamped to 1). *)

val ncpus : t -> int

val cpu : t -> int -> Cpu.t
(** @raise Invalid_argument when the index is out of range. *)

val now : t -> int64

val burn : t -> int -> unit
(** Spend [cycles]: charged to the current {!Vmk_trace.Accounts} account
    and advanced on the engine (due device events fire).

    @raise Invalid_argument on a negative count. *)

val burn_on : t -> cpu:Cpu.t -> int -> unit
(** SMP variant of {!burn}: charge the current account's per-CPU bucket
    for [cpu] and advance that core's local clock only. The engine clock
    is *not* advanced — the SMP executor owns global time and steps it
    once per scheduling round.

    @raise Invalid_argument on a negative count. *)

val burn_copy : t -> bytes:int -> unit
(** Spend a memory-copy's worth of cycles per the architecture profile. *)

val start_timer : t -> period:int64 -> unit
(** Begin periodic timer interrupts on line {!timer_irq}. The timer stops
    when {!stop_timer} is called. *)

val stop_timer : t -> unit

val digest : t -> string list -> string
(** [digest t state] is the replay digest of a finished run: the hex MD5
    of a canonical dump of the final clock, every counter and every
    account sorted by name, every per-CPU account bucket, then the
    caller's run [state] (arrivals, op logs, sketch fingerprints...),
    one line per element in the given order. Executor bookkeeping such
    as the engine's idle and burst jumps is left out. Two runs replay
    bit-for-bit when their digests are equal. *)
