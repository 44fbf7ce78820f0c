(** Discrete-event engine over the virtual {!Clock}.

    Device models (NIC packet arrivals, disk completions, timer ticks)
    schedule callbacks at absolute or relative virtual times. Kernel code
    advances time by burning cycles; after each burn the hosting layer calls
    {!dispatch_due} so that device events fire at (or just after) their due
    time. When no thread is runnable, {!idle_to_next} skips the clock ahead
    to the next scheduled event, charging the skipped time to an idle
    account if the caller wishes. *)

type t

val create : unit -> t
(** Fresh engine with its own clock at cycle 0. *)

val now : t -> int64

val at : t -> int64 -> (unit -> unit) -> unit
(** [at t time f] runs [f] when the clock reaches absolute [time]. An event
    scheduled in the past fires at the next {!dispatch_due}. *)

val after : t -> int64 -> (unit -> unit) -> unit
(** [after t delta f] runs [f] [delta] cycles from now. *)

val every : t -> int64 -> (unit -> bool) -> unit
(** [every t period f] runs [f] every [period] cycles starting one period
    from now, for as long as [f] returns [true]. *)

type handle
(** A cancellable scheduled event (the fault injector's disarm path). *)

val at_cancellable : t -> int64 -> (unit -> unit) -> handle
(** Like {!at}, but returns a handle; a cancelled event is skipped at
    dispatch time (the slot stays queued — the heap has no removal — but
    the callback never runs). *)

val cancel : handle -> unit

val pending : t -> int
(** Number of queued events. *)

val next_due : t -> int64 option
(** Due time of the earliest queued event, without dispatching it. Lets
    the SMP executor skip idle quanta straight to the next arrival. *)

val next_due_or : t -> int64 -> int64
(** [next_due_or t default] is {!next_due} without the option box —
    the allocation-free form the tickless executors poll every
    dispatch. *)

val note_burst : t -> unit
(** Record that an executor fast-forwarded a compute burst in one step
    instead of slicing it into quanta (E21). Pure bookkeeping —
    reported by {!burst_jumps}, never printed by experiments. *)

val note_idle : t -> unit
(** Record an idle-quantum skip performed by an executor's own jump
    (the SMP round loop); {!idle_to_next} records its own. *)

val idle_jumps : t -> int
(** How many idle gaps were jumped: by {!idle_to_next} moving the clock
    forward, or by an executor's {!note_idle}. *)

val burst_jumps : t -> int
(** How many compute bursts were fast-forwarded ({!note_burst}). *)

val burn : t -> int64 -> unit
(** [burn t cycles] advances the clock by [cycles] and dispatches any events
    that became due. This is the simulator's only way of "spending time". *)

val dispatch_due : t -> unit
(** Fire every event whose due time is [<= now]. Events may schedule further
    events; dispatch loops until quiescent at the current time. *)

val idle_to_next : t -> bool
(** Advance the clock to the next pending event and dispatch it. Returns
    [false] (and leaves the clock alone) when the queue is empty —
    i.e. the simulation has run out of work. *)

val run : ?until:int64 -> t -> unit
(** Drain the event queue in timestamp order, stopping when empty or when
    the next event lies beyond [until]. *)
