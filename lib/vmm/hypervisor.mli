(** The Xen-style hypervisor.

    Domains are single-VCPU fibers scheduled round-robin; the hypervisor
    implements the primitive inventory of {!Hcall}: event channels, grant
    tables (including transfer, i.e. page flipping), validated page-table
    updates, physical-IRQ routing to driver domains, and the two guest
    system-call paths (trap-gate shortcut vs bounce through the VMM).

    Like Xen, the hypervisor lives in a reserved hole at the top of every
    guest address space; hypercalls therefore cost a trap but no
    address-space switch, while switching *between* domains is a full
    world switch (TLB flush on untagged platforms).

    Cost accounting: guest computation is charged to the domain's
    account (its name); all hypervisor work to ["vmm"]. *)

type t

type pt_mode =
  | Paravirt  (** Validated hypercall updates (Xen's paravirtualisation). *)
  | Shadow
      (** Trap-and-shadow page tables (full-virtualisation style):
          guest PTE writes fault into the VMM, which synchronises a
          shadow — compare ablation A6. *)

val create : Vmk_hw.Machine.t -> t

val create_domain :
  t ->
  name:string ->
  ?privileged:bool ->
  ?weight:int ->
  ?pt_mode:pt_mode ->
  (unit -> unit) ->
  Hcall.domid
(** Add a domain running [body] as its (para-virtualised) kernel.
    [privileged] domains (Dom0, driver domains) may bind physical IRQs.
    [weight] is the stride-scheduler share (default 256; Xen's credit
    scheduler analog — a boosted driver domain gets proportionally more
    CPU, see ablation A5). The domain's cycle account is its name.

    @raise Invalid_argument if [weight < 1]. *)

type stop_reason = Vmk_hw.Exec.stop_reason = Idle | Condition | Dispatch_limit

val run : ?until:(unit -> bool) -> ?max_dispatches:int -> t -> stop_reason

val kill_domain : t -> Hcall.domid -> unit
(** Destroy a domain abruptly (fault injection). Peers are not notified —
    they discover through send errors and block timeouts, which is the
    §3.1 liability-inversion behaviour under test. *)

type supervisor
(** Toolstack-style babysitter for a (driver) domain: an engine timer
    that polls liveness every [period] cycles and replaces a dead domain
    with a fresh one. The VMM analog of the microkernel's
    {!Vmk_ukernel.Watchdog} — restart is domain creation, which is why
    frontends then need the generation reconnect handshake. *)

val supervise :
  t ->
  name:string ->
  ?privileged:bool ->
  period:int64 ->
  make_body:(restart:int -> unit -> unit) ->
  Hcall.domid ->
  supervisor
(** [supervise h ~name ~period ~make_body domid0] watches [domid0]; on
    death, runs [make_body ~restart:n] (n = 1, 2, …) in a new domain.
    Counter: ["vmm.supervisor_restart"]. Call {!stop_supervisor} before
    the final drain — the poll timer otherwise keeps the engine busy
    forever. *)

val supervised_domid : supervisor -> Hcall.domid
(** The currently live incarnation. *)

val restarts : supervisor -> (int64 * Hcall.domid) list
(** [(virtual time, new domid)] per restart, oldest first. *)

val stop_supervisor : supervisor -> unit

val is_alive : t -> Hcall.domid -> bool

val state_name : t -> Hcall.domid -> string
(** ["ready"|"running"|"blocked"|"dead"|"missing"]. *)
