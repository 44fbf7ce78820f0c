(** Streaming univariate summaries.

    Welford's online algorithm for mean/variance plus a retained sample for
    exact order statistics. Experiments feed one observation per iteration
    and render mean, standard deviation and percentiles at the end. *)

type t

val create : unit -> t
(** Empty summary. *)

val add : t -> float -> unit
(** Record one observation. *)

val add_int64 : t -> int64 -> unit

val count : t -> int
val mean : t -> float
(** Mean of the observations; [0.] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val stddev : t -> float
val min : t -> float
val max : t -> float
val total : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0,100\]], by linear interpolation between
    closest ranks. [0.] when empty.

    @raise Invalid_argument if [p] is outside [\[0,100\]]. *)

val median : t -> float

val of_list : float list -> t
val merge : t -> t -> t
(** Combined summary of both observation sets. *)
