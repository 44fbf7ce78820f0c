(** Virtual cycle clock.

    All time in the simulator is expressed in CPU cycles of the simulated
    machine. The clock only moves forward; components advance it by the
    number of cycles an operation costs under the active architecture
    profile. Nothing in the simulator reads wall-clock time, which keeps
    every experiment deterministic. *)

type t
(** A monotonic virtual clock. *)

val create : unit -> t
(** [create ()] is a fresh clock at cycle 0. *)

val now : t -> int64
(** [now t] is the current virtual time in cycles. *)

val advance : t -> int64 -> unit
(** [advance t cycles] moves the clock forward by [cycles].

    @raise Invalid_argument if [cycles] is negative. *)

val advance_to : t -> int64 -> unit
(** [advance_to t deadline] moves the clock forward to absolute time
    [deadline]. A deadline in the past is a no-op: the clock never moves
    backwards. *)

val reset : t -> unit
(** [reset t] rewinds the clock to cycle 0 (used between experiment runs
    that reuse a machine). *)
