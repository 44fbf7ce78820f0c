(** A first-generation (Mach-style) microkernel variant.

    §3.1 traces the "liability inversion" accusation to "a particular
    design fault of Mach" being generalised onto all microkernels, and
    the performance half of the debate rests on the gap [HHL+97]
    measured between Mach-style and L4-style IPC. This kernel realises
    the first-generation design point: {e asynchronous, kernel-buffered,
    port-based} message passing — a send copies the message into a kernel
    buffer and returns; a receive copies it out — with port rights
    checking on every operation. Experiment E12 races it against the
    synchronous single-copy rendezvous of {!Kernel}.

    Threads are fibers performing the {!Mif} effect; scheduling is
    round-robin with the same timeslice discipline as {!Kernel}. The
    kernel is deliberately minimal (no devices, no pagers): enough to
    measure the IPC design point. *)

module Mif : sig
  type mport = int

  type mmsg = { mlabel : int; inline_words : int; ool_bytes : int; tag : int }
  (** [inline_words] travel in the message body; [ool_bytes] model
      out-of-line memory (copied — first-generation kernels moved it
      through kernel buffers or COW machinery we price as a copy). *)

  type mcall =
    | M_burn of int
    | M_port_create of { qlimit : int }
    | M_send of mport * mmsg  (** Asynchronous: blocks only when full. *)
    | M_recv of mport  (** Blocks when empty. *)
    | M_yield
    | M_exit

  type mreply =
    | MR_unit
    | MR_port of mport
    | MR_msg of mmsg
    | MR_error of string

  type _ Effect.t += Minvoke : mcall -> mreply Effect.t

  exception Mach_error of string

  val burn : int -> unit
  val port_create : ?qlimit:int -> unit -> mport
  val send : mport -> mmsg -> unit
  val recv : mport -> mmsg
  val yield : unit -> unit
  val exit : unit -> 'a
end

type t

val create : Vmk_hw.Machine.t -> t
(** Cost model: every syscall pays the hardware trap (first-generation
    kernels predate the sysenter fast paths) plus a longer kernel path;
    each message is copied twice (in and out) at the architecture's copy
    cost; port operations pay a rights-check. *)

val spawn : t -> name:string -> (unit -> unit) -> int
(** Each thread gets its own address space (asid), so a cross-thread
    message also pays the address-space switch, as cross-task Mach IPC
    did. Its cycles are charged to the account [name]. *)

type stop_reason = Vmk_hw.Exec.stop_reason = Idle | Condition | Dispatch_limit

val run : ?until:(unit -> bool) -> t -> stop_reason
val thread_count : t -> int
