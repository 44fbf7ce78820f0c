(** The hypervisor call interface — the VMM's primitive inventory.

    Where the microkernel funnels everything through IPC, the VMM exposes
    the §2.2 list of dedicated primitives: hypercalls for resource
    control, event channels for asynchronous notification, grant tables
    for memory sharing and transfer (page flipping), page-table updates,
    virtual interrupts, and the guest syscall trap paths. Each primitive
    carries its own security checks and its own code path — experiments
    E1 and E9 audit exactly that.

    Guest code runs as a per-domain fiber performing the single
    monomorphic effect {!Invoke}; the wrappers below are the
    "paravirtualised guest kernel" API. *)

type domid = int
type port = int
type gref = int

type syscall_path =
  | Fast_trap_gate
      (** Direct guest-user → guest-kernel via the int80 trap gate; the
          VMM is not involved. *)
  | Bounced
      (** Trap into the VMM, which re-injects into the guest kernel —
          one IPC-equivalent operation (§3.2). *)

type block_result =
  | Events of port list  (** Pending ports, cleared on return. *)
  | Timed_out

type pt_op =
  | Pt_map of { bframe : Vmk_hw.Frame.frame; bvpn : int; bwritable : bool }
  | Pt_unmap of int

type hcall =
  | H_burn of int  (** Guest computation; not a hypercall. *)
  | H_dom_id
  | H_yield
  | H_block of { timeout : int64 option }
      (** Deschedule until an event arrives (or the timeout elapses). *)
  | H_alloc_frames of int  (** Extend reservation by n frames. *)
  | H_evtchn_alloc_unbound of domid
      (** Create a port the given peer may bind to. *)
  | H_evtchn_bind of { remote_dom : domid; remote_port : port }
  | H_evtchn_send of port
  | H_irq_bind of int  (** Route a physical IRQ line to a fresh port
                           (driver domains only). *)
  | H_gnttab_grant of { to_dom : domid; frame : Vmk_hw.Frame.frame; readonly : bool }
      (** Writing one's own grant table is a shared-memory operation, not
          a trap: it costs table-maintenance cycles only. *)
  | H_gnttab_revoke of gref
  | H_gnttab_map of { dom : domid; gref : gref }
  | H_gnttab_unmap of { dom : domid; gref : gref }
  | H_gnttab_transfer of { to_dom : domid; frame : Vmk_hw.Frame.frame }
      (** Page flip: move the frame (and its contents) to [to_dom]. *)
  | H_gnttab_exchange of {
      dom : domid;
      gref : gref;  (** The peer's transfer-grant of an empty page. *)
      give : Vmk_hw.Frame.frame;  (** Own (filled) frame to hand over. *)
    }
      (** The netback receive flip: one hypercall swaps a filled local
          page against a page the peer offered — [give] becomes the
          peer's, the granted page becomes the caller's. This is the
          page-flip operation [CG05] counts. *)
  | H_gnttab_copy of { dom : domid; gref : gref; bytes : int; tag : int }
      (** Hypervisor-mediated copy into a granted page (GNTTABOP_copy):
          one trap, validation, and the byte movement — the copy-mode
          receive path of ablation A1. *)
  | H_pt_map of { frame : Vmk_hw.Frame.frame; vpn : int; writable : bool }
      (** Validated page-table update hypercall. *)
  | H_pt_unmap of int
  | H_pt_batch of pt_op list
      (** Batched page-table updates in one hypercall — Xen's multicall /
          writable-page-table amortisation. Under {!Hypervisor.Shadow}
          mode there is nothing to batch: each op still traps. *)
  | H_set_trap_table of { int80_direct : bool }
      (** Register the guest syscall entry; request the trap-gate
          shortcut. *)
  | H_load_segment of Vmk_hw.Segments.selector * Vmk_hw.Segments.descriptor
      (** Guest (application) segment reload — glibc TLS does this. *)
  | H_syscall_trap
      (** One guest-application system call enters the kernel; the VMM
          resolves which path it takes. *)
  | H_xs_write of { path : string; value : string }
      (** XenStore write (the XenBus handshake registry). Fires watches. *)
  | H_xs_read of string
  | H_xs_rm of string
  | H_xs_watch of string
      (** Register a watch on a path prefix; returns a fresh local port
          that goes pending whenever anything under the prefix is
          written. *)
  | H_dom_create of {
      cd_name : string;
      cd_privileged : bool;
      cd_weight : int;
      cd_body : unit -> unit;
    }
      (** Toolstack primitive (DOMCTL_createdomain + image build in one):
          allocate a fresh domain running [cd_body]. Privileged callers
          only — this is how the thin Dom0 of E18 constructs its driver
          domains instead of hosting their drivers itself. *)
  | H_dom_alive of domid
      (** Toolstack liveness probe: is the domain still undestroyed? *)
  | H_dom_pause of domid
      (** Deschedule the domain until unpaused (privileged; E20's
          stop-and-copy quiesce). Pending events accumulate. *)
  | H_dom_unpause of domid
  | H_log_dirty of { ld_dom : domid; ld_enable : bool }
      (** Arm/disarm log-dirty mode on a domain (privileged): the
          PT-virtualisation layer write-protects its pages, and each
          first write after arming (or after a {!dirty_read} harvest)
          traps once into the VMM to set the page's dirty bit — the
          shadow-mode trick pre-copy migration rides on. *)
  | H_dirty_read of domid
      (** Harvest-and-clear the domain's dirty bitmap (privileged).
          Returns the dirtied vpns and re-protects them, each paying a
          PT-update cycle charge. *)
  | H_touch_page of { tp_vpn : int; tp_write : bool }
      (** Guest memory access visible to the dirty tracker — the model's
          stand-in for a real load/store. Free when log-dirty is off;
          a write to a clean tracked page costs one protection-fault
          trap (counter ["vmm.logdirty_fault"]). *)
  | H_exit

type error =
  | Bad_port
  | Bad_gref
  | Permission_denied
  | Out_of_memory
  | Dead_domain
  | Not_virtualisable of string

type hreply =
  | R_unit
  | R_domid of domid
  | R_port of port
  | R_gref of gref
  | R_frames of Vmk_hw.Frame.frame list
  | R_block of block_result
  | R_syscall of syscall_path
  | R_xs of string option
  | R_bool of bool
  | R_vpns of int list  (** Dirty-bitmap harvest, ascending. *)
  | R_error of error

type _ Effect.t += Invoke : hcall -> hreply Effect.t

exception Hcall_error of error
(** Raised by the wrappers on [R_error]. *)

exception Domain_killed
(** Delivered into a domain the fault injector destroys. *)

(** {1 Guest-side wrappers} *)

val burn : int -> unit
val dom_id : unit -> domid
val yield : unit -> unit
val block : ?timeout:int64 -> unit -> block_result
val alloc_frames : int -> Vmk_hw.Frame.frame list
val evtchn_alloc_unbound : domid -> port
val evtchn_bind : remote_dom:domid -> remote_port:port -> port
val evtchn_send : port -> unit
val irq_bind : int -> port
val grant : to_dom:domid -> frame:Vmk_hw.Frame.frame -> readonly:bool -> gref
(** Grant [to_dom] access to [frame]. The caller may be the frame's
    owner, or (E19) hold it mapped through someone else's grant — a
    transitive grant whose capability derives from the map cap, so it
    dies when the upstream grant is revoked
    (counter ["vmm.grant_transitive"]). *)

val grant_revoke : gref -> unit
(** Revoke one of the caller's grants. Since E19 this always succeeds:
    outstanding peer mappings — and grants they transitively made from
    those mappings — are force-unmapped through the capability
    derivation tree in the same pass (counters
    ["vmm.grant_revoke_cascade"], ["gnt.revoke_forced"]) instead of
    failing with [Permission_denied]. *)

val grant_map : dom:domid -> gref:gref -> Vmk_hw.Frame.frame
val grant_unmap : dom:domid -> gref:gref -> unit
val grant_transfer : to_dom:domid -> frame:Vmk_hw.Frame.frame -> unit

(** [grant_exchange] returns the taken (previously granted) frame. *)
val grant_exchange :
  dom:domid -> gref:gref -> give:Vmk_hw.Frame.frame -> Vmk_hw.Frame.frame

val grant_copy : dom:domid -> gref:gref -> bytes:int -> tag:int -> unit
val pt_map : frame:Vmk_hw.Frame.frame -> vpn:int -> writable:bool -> unit
val pt_unmap : int -> unit
val pt_batch : pt_op list -> unit
val set_trap_table : int80_direct:bool -> unit
val load_segment : Vmk_hw.Segments.selector -> Vmk_hw.Segments.descriptor -> unit
val syscall_trap : unit -> syscall_path

val xs_write : path:string -> value:string -> unit
val xs_read : string -> string option
val xs_rm : string -> unit
val xs_watch : string -> port

val dom_create :
  name:string -> ?privileged:bool -> ?weight:int -> (unit -> unit) -> domid
(** Build a domain (privileged callers only; defaults: unprivileged,
    weight 256). Returns the new domid.
    @raise Hcall_error [Permission_denied] from an unprivileged domain. *)

val dom_alive : domid -> bool
(** Liveness probe for a domain this toolstack built. *)

val dom_pause : domid -> unit
val dom_unpause : domid -> unit

val log_dirty : dom:domid -> enable:bool -> unit
(** Arm/disarm dirty-page tracking on [dom] (privileged callers only). *)

val dirty_read : domid -> int list
(** Harvest-and-clear [dom]'s dirty vpns, ascending (privileged). *)

val touch_page : vpn:int -> write:bool -> unit
(** Report a guest memory access to the dirty tracker. *)

val xs_wait_for : ?timeout:int64 -> string -> string option
(** Watch a path and block until it has a value (or the optional timeout
    elapses); the standard XenBus handshake step. Events for other ports
    received while waiting are lost to the caller — use before wiring an
    {!Evt_mux}, as drivers do during connect. *)

val xs_wait_pred : ?timeout:int64 -> string -> (string -> bool) -> string option
(** Like {!xs_wait_for} but blocks until the value satisfies the
    predicate — e.g. waiting for a backend's reconnect generation to
    exceed one's own. Same caveat about events for other ports. *)

val exit : unit -> 'a
