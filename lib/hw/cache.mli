(** Instruction-cache footprint model.

    Experiment E9 tests the paper's §2.2 claim that a single combined IPC
    primitive has a smaller cache footprint than a set of dedicated VMM
    primitives. We model a fully-associative LRU cache of code lines; each
    kernel path owns a {!region} of lines, made once where the path is
    defined, and the model yields miss counts and the refill cycles they
    cost. A line misses on its first touch, after a {!flush}, or after the
    lines of other paths have evicted it. *)

type t

type region
(** A code path's lines. Distinct regions never share a line. *)

val region : lines:int -> region
(** A new region of [lines] lines.
    @raise Invalid_argument if [lines < 1]. *)

val region_lines : region -> int

val create : lines:int -> line_bytes:int -> refill_cost:int -> t
(** @raise Invalid_argument if any parameter is [< 1]. *)

val of_profile : Arch.profile -> t
(** Cache dimensioned from a platform profile; refill cost approximated by
    the profile's TLB refill (an L2 hit, roughly). *)

val touch : t -> region -> int
(** [touch t r] simulates executing every line of [r] in order; returns
    the cycles spent on misses, so re-running a resident path is free. *)

val footprint_bytes : t -> region -> int
(** Bytes of the region currently resident. *)

val resident_lines : t -> int
val misses : t -> int
val miss_cycles : t -> int
val flush : t -> unit
