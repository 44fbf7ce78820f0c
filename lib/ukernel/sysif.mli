(** The microkernel system-call interface.

    Following Liedtke, the kernel exposes one central primitive — IPC —
    which unifies the three §2.2 roles: control transfer (the rendezvous),
    data transfer (untyped words and string items) and resource delegation
    (map/grant items). Threads are OCaml-5 fibers; a system call is the
    single monomorphic effect {!Invoke}, so the kernel can store one
    continuation type per TCB.

    User code calls the wrappers in this module; each performs {!Invoke}
    and decodes the {!reply}. *)

type tid = int
(** Thread identifier. Non-negative for real threads; interrupt lines get
    pseudo-tids (see {!irq_tid}). *)

val irq_tid : int -> tid
(** Pseudo-tid that IPC from interrupt line [n] appears to come from. *)

val is_irq_tid : tid -> bool

type fpage = { base_vpn : int; pages : int; writable : bool }
(** A flexpage: [pages] virtual pages starting at [base_vpn]. *)

type item =
  | Words of int array
      (** Untyped words, transferred in (virtual) registers. *)
  | Str of { bytes : int; tag : int }
      (** String item: [bytes] copied by the kernel; [tag] is the content
          stand-in that arrives in the receiver's buffer. *)
  | Map of { fpage : fpage; grant : bool }
      (** Delegate the sender's pages to the receiver (grant = move). *)

type msg = { label : int; items : item list }

val msg : ?items:item list -> int -> msg
(** [msg ~items label] builds a message. *)

val words : msg -> int array
(** Concatenated untyped words of a message ([||] if none). *)

val str_total : msg -> int
(** Total bytes across string items. *)

val first_str_tag : msg -> int option
val map_items : msg -> (fpage * bool) list

type recv_filter = Any | From of tid

type error =
  | Dead_partner  (** Peer thread does not exist or died. *)
  | Not_permitted
  | Bad_argument of string
  | Page_fault_unhandled of int  (** Faulting vpn, no pager to ask. *)
  | Killed  (** The operation was aborted because this thread was killed. *)
  | Timeout  (** The IPC timeout elapsed before a rendezvous. *)

type spawn_spec = {
  name : string;
  priority : int;  (** 0 = highest; see {!Kernel}. *)
  same_space : bool;  (** Share the spawner's address space. *)
  pager : tid option;
  body : unit -> unit;
}

type call =
  | Burn of int  (** Compute for n cycles (also the preemption point). *)
  | Send of tid * msg * int64 option  (** Optional rendezvous timeout. *)
  | Recv of recv_filter * int64 option
  | Call of tid * msg * int64 option
      (** Send, then block for the reply; the timeout covers the whole
          round trip. *)
  | Reply_wait of tid * msg  (** Reply to a caller, then receive. *)
  | Yield
  | Sleep of int64
  | Exit
  | My_tid
  | Spawn of spawn_spec
  | Alloc_pages of int
      (** Root-memory delegation (the sigma0 shortcut): map [n] fresh
          frames into the caller's space; returns the fpage. *)
  | Touch of { addr : int; len : int; write : bool }
      (** Access memory; faults go to the pager via the IPC protocol. *)
  | Unmap of fpage  (** Recursively revoke the pages from all mappees. *)
  | Irq_attach of int  (** Become handler for interrupt line n. *)
  | Irq_mask of int
      (** Handler-only: hold the line's interrupt→IPC conversion while
          polling the device directly (NAPI discipline, E16). *)
  | Irq_unmask of int
      (** Handler-only: acknowledge the latch — one ack covers every
          edge that coalesced while masked — and re-enable delivery. *)
  | Send_batch of (tid * msg) list
      (** Deferred-notify (E16): one kernel entry attempts every send in
          the batch without blocking — each message is delivered iff its
          destination is already receptive (waiting in [Recv] on us, or
          [Call]-blocked on us) and silently skipped otherwise. Replies
          [R_tid n] with the number delivered. One syscall overhead is
          paid for the whole batch; each delivery still pays transfer
          cost. *)
  | Kill_thread of tid
      (** Unwind-kill the target: its pending operation fails with
          [R_error Killed] and the raised {!Ipc_error} unwinds its fiber
          (the watchdog's recourse against a wedged server). *)
  | Cap_mint of { obj : int; rights : int }
      (** Root capability for user object [obj] in the caller's space
          (E19). Replies [R_tid handle]. *)
  | Cap_derive of { handle : int; to_ : tid; rights : int }
      (** Child capability for the same object in [to_]'s space, rights
          masked by the parent's. Replies [R_tid handle];
          [Not_permitted] without [r_derive] or on a bad handle. *)
  | Cap_revoke of { handle : int; self : bool }
      (** Recursively tear down the derivation subtree (page caps drop
          their {!Mapdb} mappings as they die). Replies [R_tid removed]. *)
  | Cap_check of { subject : tid; handle : int; need : int }
      (** Server-side validation: does [subject] hold [handle] with every
          bit of [need]? [R_unit] yes; [R_error Not_permitted] no. *)
  | Cap_lookup of { vpn : int }
      (** The caller's capability for its own page at [vpn] (pages minted
          by [Alloc_pages] carry root caps). Replies [R_tid handle] or
          [Not_permitted]. *)
  | Thread_pause of tid
      (** Exclude the target from scheduling until resumed (E20's
          stop-and-copy quiesce). IPC and interrupts addressed to it
          park; its pending reply is deferred until resume. *)
  | Thread_resume of tid
  | Log_dirty of { target : tid; enable : bool }
      (** Arm/disarm dirty-page tracking on the target's address space:
          writes through [Touch] mark the page dirty, the first one per
          page paying a protection-fault charge
          (counter ["uk.logdirty_fault"]). *)
  | Dirty_read of tid
      (** Harvest-and-clear the target space's dirty vpns; replies
          [R_vpns], ascending, and re-protects each page. *)

type reply =
  | R_unit
  | R_tid of tid
  | R_msg of tid * msg  (** Sender (or caller) and the transferred message. *)
  | R_fpage of fpage
  | R_vpns of int list  (** Dirty-bitmap harvest, ascending. *)
  | R_error of error

type _ Effect.t += Invoke : call -> reply Effect.t

exception Ipc_error of error
(** Raised by the wrappers below on [R_error]. *)

exception Killed_by_kernel
(** Delivered into a fiber that the kernel (or fault injector) kills. *)

(** {1 User-side wrappers} *)

val burn : int -> unit
val send : ?timeout:int64 -> tid -> msg -> unit
val recv : ?timeout:int64 -> recv_filter -> tid * msg
val call : ?timeout:int64 -> tid -> msg -> tid * msg
val reply_wait : tid -> msg -> tid * msg
val yield : unit -> unit
val sleep : int64 -> unit
val exit : unit -> 'a
val my_tid : unit -> tid
val spawn : spawn_spec -> tid
val alloc_pages : int -> fpage
val touch : addr:int -> len:int -> write:bool -> unit
val unmap : fpage -> unit
val irq_attach : int -> unit
val irq_mask : int -> unit
val irq_unmask : int -> unit

val send_batch : (tid * msg) list -> int
(** Returns how many of the batch were delivered (see {!Send_batch}). *)

val kill_thread : tid -> unit

(** {1 Capability wrappers (E19)}

    Rights masks are {!Vmk_cap.Cap.rights} values. *)

val cap_mint : obj:int -> rights:int -> int
val cap_derive : handle:int -> to_:tid -> rights:int -> int
val cap_revoke : handle:int -> self:bool -> int
(** Returns the number of capabilities removed. *)

val cap_check : subject:tid -> handle:int -> need:int -> bool
val cap_lookup : vpn:int -> int option

(** {1 Migration wrappers (E20)} *)

val thread_pause : tid -> unit
val thread_resume : tid -> unit
val log_dirty : target:tid -> enable:bool -> unit
val dirty_read : tid -> int list
