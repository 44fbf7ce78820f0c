(** Tiny block-backed file system.

    A flat namespace of append-only files, each a list of 512-byte blocks,
    stored through whatever block layer the hosting port provides (native
    driver, blkfront, L4 driver server, Parallax virtual disk). Metadata
    lives in memory — the point is to exercise the block path with a
    file-level workload, not to survive reboots. *)

type t

val create :
  read:(sector:int -> int option) ->
  write:(sector:int -> tag:int -> bool) ->
  unit ->
  t
(** A file system writing through the given block callbacks, allocating
    sectors upward from 0. *)

val open_or_create : t -> string -> int
(** File descriptor for [name], creating the file if needed. *)

val append : t -> fd:int -> tag:int -> bool
(** Append one block with the given content tag; [false] if the block
    layer failed (dead backend) or the fd is stale. *)

val read_block : t -> fd:int -> index:int -> int option
(** Content tag of the file's [index]-th block; [None] out of range, on a
    stale fd, or on block-layer failure. *)

val size_blocks : t -> fd:int -> int option
val file_count : t -> int
val sectors_used : t -> int
