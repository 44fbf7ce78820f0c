(** Physical memory as a table of owned frames.

    Frames carry an owner (a protection-domain name), a kind, and a content
    [tag] standing in for the actual bytes: copies and page flips propagate
    tags, so tests can verify data integrity end-to-end without storing
    payloads. Ownership transfer is the primitive behind Xen-style page
    flipping; the paper's E3 experiment counts exactly these transfers. *)

type kind =
  | Ram
  | Device_buffer  (** Target of device DMA. *)
  | Page_table_frame  (** Pinned as a page table; never remapped writable. *)

type frame = private {
  index : int;  (** Physical frame number, stable for the frame's life. *)
  mutable owner : string;
  mutable kind : kind;
  mutable tag : int;  (** Content stand-in; [0] means "zeroed". *)
  mutable generation : int;
      (** Bumped on every ownership transfer; mappings record the
          generation they were created under so stale mappings are
          detectable. *)
  mutable allocated : bool;
}

type t
(** A machine's frame table plus free list. *)

exception Out_of_frames

val create : frames:int -> t
(** [create ~frames] is a table of [frames] free frames.

    @raise Invalid_argument if [frames < 1]. *)

val free_count : t -> int

val alloc : t -> owner:string -> ?kind:kind -> unit -> frame
(** Allocate a zeroed frame to [owner].

    @raise Out_of_frames when exhausted. *)

val alloc_many : t -> owner:string -> int -> frame list

val release : t -> frame -> unit
(** Return a frame to the free list (tag cleared).

    @raise Invalid_argument if the frame is already free. *)

val transfer : t -> frame -> to_:string -> unit
(** Move ownership (the page-flip primitive). Bumps [generation]; the tag —
    i.e. the content — travels with the frame.

    @raise Invalid_argument on a free frame. *)

val set_tag : frame -> int -> unit
val count_owned_by : t -> string -> int

val reclaim_owner : t -> string -> int
(** Free every frame owned by the given domain (used when a domain is
    destroyed or killed by fault injection); returns how many frames were
    reclaimed. *)
