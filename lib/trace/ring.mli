(** Bounded event ring (flight-recorder trace buffer).

    Kernels append timestamped events; when the ring is full the oldest
    entries are overwritten, like a hardware trace buffer. Experiments and
    failure post-mortems read the retained tail. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val record : 'a t -> time:int64 -> 'a -> unit
val length : 'a t -> int
(** Number of retained entries, [<= capacity]. *)

val appended : 'a t -> int
(** Total entries ever recorded, including overwritten ones. *)

val dropped : 'a t -> int
(** Entries lost to overwriting. *)

val to_list : 'a t -> (int64 * 'a) list
(** Retained entries, oldest first. *)

val find_last : 'a t -> f:('a -> bool) -> (int64 * 'a) option
(** Most recent retained entry satisfying [f]. *)

val clear : 'a t -> unit
