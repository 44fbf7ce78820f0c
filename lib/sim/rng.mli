(** Deterministic PCG32 random number generator.

    Every stochastic choice in the simulator (packet inter-arrival jitter,
    disk seek spread, workload think times) draws from an explicitly seeded
    stream so that experiment output is reproducible bit-for-bit. *)

type t

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] is a generator with the given seed (default a fixed
    project-wide constant). Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent stream from [t]'s current state so that
    subsystems cannot perturb each other's draws. *)

val int32 : t -> int32
(** Next raw 32-bit draw. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].

    @raise Invalid_argument if [bound <= 0]. *)

val int64_range : t -> int64 -> int64 -> int64
(** [int64_range t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean (Poisson
    inter-arrival times for device models). *)

val pick : t -> 'a array -> 'a
(** Uniformly chosen element.

    @raise Invalid_argument on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
