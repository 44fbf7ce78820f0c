(** Per-address-space page tables.

    Maps virtual page numbers to {!Frame.frame}s with permission bits. The
    representation is a hash table; walk *cost* is charged separately by the
    MMU from the architecture profile ([pt_levels]·[tlb_refill_cost]), which
    keeps cost modelling orthogonal to the data structure. *)

type pte = {
  frame : Frame.frame;
  writable : bool;
  user : bool;  (** Accessible at user privilege. *)
  frame_generation : int;
      (** {!Frame.frame.generation} at map time; if the frame was
          transferred since, the PTE is stale. *)
}

type t

val create : asid:int -> t
(** Empty page table for address-space id [asid]. *)

val asid : t -> int

val map : t -> vpn:int -> Frame.frame -> writable:bool -> user:bool -> unit
(** Install or replace the translation for [vpn]. *)

val unmap : t -> vpn:int -> pte option
(** Remove and return the translation, if present. *)

val lookup : t -> vpn:int -> pte option

val stale : pte -> bool
(** The mapped frame changed ownership (page flip) after mapping. *)

val mapped_count : t -> int
