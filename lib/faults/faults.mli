(** Deterministic, engine-scheduled fault plans (E13).

    A {!plan} is data: device fault windows, IRQ storms and component
    kills at fixed virtual times. {!arm} installs it on a machine —
    device windows go to {!Vmk_hw.Disk}/{!Vmk_hw.Nic}, storms and kills
    become engine events. Every stochastic choice draws from a stream
    split off the machine's seeded RNG at arm time, so the same
    (seed, plan) pair replays bit-for-bit — the property E13's
    determinism check asserts.

    Kills are delegated to the caller through the [kill] callback
    (mapping a target name to {!Vmk_ukernel.Kernel.kill},
    {!Vmk_vmm.Hypervisor.kill_domain}, …), which keeps this library free
    of kernel/VMM dependencies and lets one plan type drive both
    stacks. *)

type disk_window = {
  d_start : int64;  (** Absolute virtual time, inclusive. *)
  d_stop : int64;  (** Exclusive. *)
  d_mode : Vmk_hw.Disk.fault_mode;  (** [Fail] (media error) or [Drop]. *)
  d_pct : int;  (** Per-request fault probability, percent. *)
  d_sectors : (int * int) option;  (** Bad-sector range, or whole disk. *)
}

type nic_window = {
  n_start : int64;
  n_stop : int64;
  n_mode : Vmk_hw.Nic.fault_mode;  (** [Drop], [Corrupt] or [Duplicate]. *)
  n_pct : int;  (** Per-packet fault probability, percent. *)
}

(** Resource-exhaustion notifications delivered through the arm-time
    [pressure] callback. Like [kill], the mapping to a concrete
    mechanism (frame-table allocation, say) is the caller's, keeping
    this library free of kernel/VMM dependencies. *)
type pressure =
  | Steal_frames of int
      (** Memory pressure: take this many frames away. *)

(** Mid-migration failures (E20), delivered through the arm-time
    [migration] callback. Like [kill] and [pressure], the mapping onto
    the live migration session is the caller's
    ({!Vmk_migrate.Migrate.inject}), keeping this library free of
    protocol dependencies. *)
type mig_action =
  | Mig_src_dead  (** The source's migration daemon dies mid-round. *)
  | Mig_dst_reject  (** The destination refuses to accept the guest. *)
  | Mig_link_drop  (** The transfer link goes down. *)

type event =
  | Disk_faults of disk_window list
  | Nic_faults of nic_window list
  | Irq_storm of { line : int; at : int64; count : int; gap : int64 }
      (** [count] raises of [line], [gap] cycles apart, starting at [at]. *)
  | Kill_at of { at : int64; target : string }
      (** Invoke the arm-time [kill] callback on [target] at time [at]. *)
  | Kill_window of { k_start : int64; k_stop : int64; k_target : string }
      (** One kill of [k_target] at an instant drawn uniformly from
          [\[k_start, k_stop)] off the plan's split RNG stream — a pure
          function of (machine seed, plan). *)
  | Memory_pressure of { m_at : int64; m_frames : int; m_victim : string }
      (** OOM at [m_at]: [Steal_frames m_frames] through [pressure],
          then kill [m_victim] (recorded in [kills_fired]). *)
  | Mig_fault of { mig_at : int64; mig_action : mig_action }
      (** Invoke the arm-time [migration] callback at [mig_at]. *)

type plan = event list

exception Invalid_plan of string
(** Raised by {!validate} (and so by {!arm}) on a malformed plan, with a
    message naming the offending event. *)

val validate : ?horizon:int64 -> ?targets:string list -> plan -> unit
(** Reject malformed plans before they are installed: negative-duration
    windows (which would silently never fire), fault percentages outside
    0..100, negative storm counts/gaps/times, and overlapping fault
    windows on the same target — two disk windows covering intersecting
    time spans and sector ranges, or two time-overlapping NIC windows.
    Kills interlock: a
    [Kill_at] (or [Memory_pressure] victim) falling inside an
    already-listed [Kill_window] on the same target is rejected — one of
    the two would fire into a corpse — as are two overlapping
    [Kill_window]s on one target, and a [Kill_window] that covers an
    earlier-listed [Kill_at]. With [horizon] (the run's end time), any
    window extending past it or instant scheduled at/after it is
    rejected: such an event never takes effect on a run that stops
    there, so the plan lies about its coverage. When [targets] names the
    killable components of the scenario, every [Kill_at]/[Kill_window]
    target and [Memory_pressure] victim must appear in it — a typo'd or
    stale name is caught here instead of firing into the void mid-run.
    @raise Invalid_plan on the first violation found. *)

type armed = {
  plan : plan;
  mutable kills_fired : (string * int64) list;
      (** (target, virtual time) of every kill that has fired, newest
          first. *)
  mutable handles : Vmk_sim.Engine.handle list;
      (** Scheduled engine events still subject to {!disarm}. *)
}

val arm :
  ?pressure:(pressure -> unit) ->
  ?migration:(mig_action -> unit) ->
  plan ->
  Vmk_hw.Machine.t ->
  kill:(string -> unit) ->
  armed
(** Install the plan: set the device fault windows and schedule storms,
    kills, memory pressure and migration faults on the machine's engine.
    Counters: ["faults.irq_storm"], ["faults.kill"],
    ["faults.mem_pressure"], ["faults.mig_fault"]. [pressure] and
    [migration] default to no-ops.
    @raise Invalid_plan if the plan fails {!validate}. *)

val disarm : armed -> Vmk_hw.Machine.t -> unit
(** Clear the device fault windows and cancel every scheduled event that
    has not fired yet. *)

val kill_times : armed -> string -> int64 list
(** Fire times recorded for a target, oldest first. *)

val first_kill_time : armed -> string -> int64 option
