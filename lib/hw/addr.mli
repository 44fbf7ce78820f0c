(** Address arithmetic.

    One simulator-wide page size keeps frame accounting uniform across the
    nine architecture profiles; page-size effects are outside the paper's
    claims. Virtual and physical addresses are plain [int]s. *)

val page_size : int
(** 4096 bytes. *)

val vpn : int -> int
(** Virtual page number of an address. *)

val base : int -> int
(** Address of the start of the enclosing page. *)

val offset : int -> int
(** Offset within the page. *)

val of_vpn : int -> int
(** First address of virtual page [n]. *)

val pages_for : int -> int
(** Number of pages needed to hold [bytes] ([0] for [0]).

    @raise Invalid_argument on a negative size. *)

val is_page_aligned : int -> bool

type range = { start : int; len : int }
(** A byte range [\[start, start+len)]. *)

val range : start:int -> len:int -> range
(** @raise Invalid_argument if [len < 0]. *)

val ranges_overlap : range -> range -> bool
