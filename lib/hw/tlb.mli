(** Translation lookaside buffer model.

    A small fully-associative LRU cache of [(asid, vpn)] translations.
    Untagged TLBs (x86-32, ARMv5 profiles) must be flushed on address-space
    switch — the dominant cost of cross-domain IPC and of VMM world
    switches on those platforms; tagged TLBs only invalidate selectively.
    Hit/miss/flush statistics feed experiments E2 and E4. *)

type t

val create : entries:int -> tagged:bool -> t
(** @raise Invalid_argument if [entries < 1]. *)

val of_profile : Arch.profile -> t
(** TLB dimensioned from a platform profile. *)

val lookup : t -> asid:int -> vpn:int -> Page_table.pte option
(** Probe; updates hit/miss counters and LRU order. On untagged TLBs the
    [asid] must match the last {!set_context}; stale entries never hit. *)

val insert : t -> asid:int -> vpn:int -> Page_table.pte -> unit
(** Fill after a page-table walk; evicts the LRU entry when full. *)

val invalidate : t -> asid:int -> vpn:int -> unit
(** Single-entry shootdown (after unmap or permission downgrade). *)

val set_context : t -> asid:int -> unit
(** Make [asid] current. On an untagged TLB this flushes everything —
    the "address-space switch tax"; on a tagged TLB it is free. *)

val flush_all : t -> unit
val flush_asid : t -> asid:int -> unit

val hits : t -> int
val misses : t -> int
val flushes : t -> int
(** Number of full flushes performed. *)

val live_entries : t -> int
