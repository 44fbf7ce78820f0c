(** The single-core executor shared by the L4-style [Kernel], the
    Xen-style [Hypervisor] and the Mach-style [Mach_kernel].

    Each kernel supplies its own interrupt step, pick policy and
    dispatch; the loop that drives them, the timer quantum and the rule
    for fast-forwarding a compute burst live here, so a cycle difference
    between the stacks comes from what they do, not from how they are
    driven. *)

type stop_reason =
  | Idle  (** No runnable thread and no pending device event. *)
  | Condition  (** The [until] predicate became true. *)
  | Dispatch_limit  (** Safety limit hit — usually a livelock bug. *)

val timeslice : int
(** Timer-tick quantum (5,000 cycles): a compute burst longer than this
    is preempted and its thread re-enters the runnable set. *)

val run :
  Machine.t ->
  irqs:('k -> unit) ->
  pick:('k -> 'th option) ->
  dispatch:('k -> 'th -> unit) ->
  ?until:(unit -> bool) ->
  ?max_dispatches:int ->
  'k ->
  stop_reason
(** [run mach ~irqs ~pick ~dispatch k] repeats: stop if [until ()];
    deliver interrupts ([irqs k]); dispatch [pick k], or, when nothing
    is runnable, jump the clock to the next engine event
    ({!Vmk_sim.Engine.idle_to_next}) and stop [Idle] when there is none.
    Stops with [Dispatch_limit] when a thread is picked after
    [max_dispatches] dispatches (default 10 million). The current
    account is ["idle"] on return. *)

val slice :
  Machine.t -> sole:('k -> 'th -> bool) -> 'k -> 'th -> int -> int
(** [slice mach ~sole k th left] burns the next slice of thread [th]'s
    [left]-cycle compute burst and returns its length: one [timeslice]
    (or the remainder), or — tickless fast-forward (E21) — every whole
    timeslice of the burst at once, when no engine event falls due
    inside it, [sole k th] says no other thread is runnable, and no
    unmasked interrupt is pending. Each skipped tick is a dispatch
    that would pick [th] again, so the clock, accounts and counters end
    exactly as under slicing; the jump is recorded with
    {!Vmk_sim.Engine.note_burst}. Only whole timeslices are skipped,
    so per-dispatch arithmetic such as a stride scheduler's pass
    accumulates as it would sliced. *)

(** {1 Fibers}

    Every executor's threads, and the guest syscall pump, are OCaml
    fibers performing one syscall effect. [Fiber] runs them all: it owns
    a thread's body, the continuation parked at its last call and the
    reply that call will return. *)

module type EFFECT = sig
  type call
  type reply
  type _ Effect.t += Invoke : call -> reply Effect.t
end

module Fiber (E : EFFECT) : sig
  type t

  val create : reply:E.reply -> (unit -> unit) -> t
  (** Runs the body at the first {!resume}; [reply] is the pending reply
      until the first {!set_reply}. *)

  val set_reply : t -> E.reply -> unit
  (** What the parked call returns at the next {!resume}. It stays until
      overwritten. *)

  val started : t -> bool
  (** False until the first {!resume} or {!stop}. *)

  val stop : t -> unit
  (** Drop the body and the parked continuation: no code after the
      parked call runs, not even a [Fun.protect] finaliser, and the next
      {!resume} only calls [finish]. *)

  val resume :
    t ->
    call:('k -> 'th -> E.call -> unit) ->
    finish:('k -> 'th -> exn option -> unit) ->
    'k ->
    'th ->
    unit
  (** [resume f ~call ~finish k th] starts the body, or continues the
      parked call with the pending reply, until its next [E.Invoke c]:
      the continuation is parked and [call k th c] runs outside the
      fiber. [finish k th None] runs when the body returns or nothing is
      left to run, [finish k th (Some e)] when it raises [e]. Top-level
      [call] and [finish] keep a resume free of closures. *)
end
