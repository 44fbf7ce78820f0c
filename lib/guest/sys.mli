(** The mini-OS system-call interface.

    The paper's §3.3 point — "treat the OS as a component" — requires
    running {e the same} operating system workload on three hosting
    structures. This module is that OS's syscall ABI: application code
    written against these wrappers runs unchanged on {!Port_native} (bare
    machine), {!Port_xen} (paravirtualised domain) and {!Port_l4}
    (L4Linux-style server on the microkernel). Each port installs a
    handler for the single {!Gsys} effect and charges that structure's
    costs for the identical guest-kernel work. *)

type gcall =
  | G_burn of int  (** User-mode computation — not a system call. *)
  | G_getpid  (** The canonical null syscall (experiment E4). *)
  | G_yield
  | G_net_send of { len : int; tag : int }
  | G_net_drain  (** Wait until every queued transmit has completed. *)
  | G_net_recv  (** Block until a packet arrives. *)
  | G_blk_write of { sector : int; len : int; tag : int }
  | G_blk_read of { sector : int; len : int }
  | G_fs_create of string
  | G_fs_append of { fd : int; tag : int }
      (** Append one 512-byte block to the file. *)
  | G_fs_read of { fd : int; index : int }
      (** Read the [index]-th block of the file. *)
  | G_exit

type gret =
  | G_unit
  | G_int of int
  | G_bool of bool
  | G_data of { len : int; tag : int }
  | G_error of string

type _ Effect.t += Gsys : gcall -> gret Effect.t

exception Sys_error of string
(** Raised by wrappers on [G_error] — e.g. when the I/O stack below the
    guest has died (experiment E6). *)

(** {1 Application-side wrappers} *)

val burn : int -> unit
val getpid : unit -> int
val yield : unit -> unit

val net_send : len:int -> tag:int -> unit
(** @raise Sys_error if the packet could not be queued. *)

val net_drain : unit -> unit
(** Wait until every transmit queued by {!net_send} has completed. A
    sender must drain before exiting on the Xen port — a domain that
    dies with requests still in its tx ring strands them. A no-op on
    ports whose send path is synchronous (L4 direct IPC).
    @raise Sys_error on timeout or when the network is gone. *)

val net_recv : unit -> int * int
(** Blocking receive; returns [(len, tag)].
    @raise Sys_error when the network is gone. *)

val blk_write : sector:int -> len:int -> tag:int -> unit
val blk_read : sector:int -> len:int -> int
(** Returns the sector's content tag.
    @raise Sys_error on storage failure. *)

val fs_create : string -> int
val fs_append : fd:int -> tag:int -> unit
val fs_read : fd:int -> index:int -> int
val exit : unit -> 'a

(** {1 Guest-kernel path costs}

    Cycles of in-kernel work per syscall, identical across ports so that
    measured differences isolate the hosting structure. *)

val kernel_work : gcall -> int
val block_size : int
(** 512 bytes — the FS and blk transfer unit. *)

(** {1 Vnet addressing (E17)}

    N mini-OS instances on one machine are addressed by vnet port via
    the packet tag: [tag = dst·10⁶ + src·10⁴ + seq]. The dst decode is
    the [tag / 10⁶] demux key the I/O stacks have always used, so
    vnet-tagged and NIC traffic share the routing plumbing. *)

val vnet_broadcast : int
(** Destination 0 floods to every attached port. *)

val vnet_tag : src:int -> dst:int -> seq:int -> int
(** @raise Invalid_argument when a field is out of range. *)

val vnet_dst : int -> int
val vnet_src : int -> int
val vnet_seq : int -> int

(** {1 Port plumbing} *)

val run_with_handler : handler:(gcall -> gret) -> (unit -> unit) -> unit
(** Run an application under a syscall handler. Trampolined: each
    {!Gsys} suspends the app, the handler runs in the caller's context
    (free to perform hypercalls / IPC effects of the hosting layer), and
    the app resumes — without stacking a frame per syscall. [G_exit]
    terminates the app without resuming it. Application exceptions
    propagate to the caller. *)
