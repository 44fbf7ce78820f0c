(** Hypervisor path-length constants.

    Each VMM primitive has its own code path (and so its own i-cache
    region, see {!dispatch_region}); the paper's §2.2 point is precisely
    this multiplicity versus the microkernel's single IPC path. Values
    are calibrated against Xen 2.x-era measurements: hypercalls are a few
    hundred cycles of hypervisor work, a grant-map costs page-table
    manipulation, a page flip costs two address-space updates plus
    accounting. *)

val hypercall_fixed : int
(** Entry/exit and dispatch for any hypercall, on top of the hardware
    trap cost. *)

val evtchn_send : int
(** Marking a remote port pending and kicking the scheduler. *)

val upcall : int
(** Delivering pending events into a resuming guest. *)

val grant_check : int
(** Grant-table entry validation. *)

val page_flip_fixed : int
(** Transfer bookkeeping per page flip, excluding PTE/TLB costs — the
    per-operation cost [CG05] found Dom0 CPU proportional to. *)

val pt_validate : int
(** Validating one guest page-table update. *)

val shadow_sync : int
(** Decoding a faulting guest PTE write and updating the shadow table
    (full-virtualisation mode, ablation A6). *)

val syscall_bounce : int
(** Hypervisor work to reflect a guest syscall into the guest kernel. *)

val irq_route : int
(** Routing a physical IRQ to a driver domain's port. *)

val domain_build : int
(** Toolstack-requested domain construction ([H_dom_create]): allocating
    the domain structure, its address space and its event-channel table.
    Dwarfed by what a real builder pays to load a kernel image, but
    enough that restarting a driver domain is visibly not free. *)

val dispatch_region : Vmk_hw.Cache.region
(** I-cache regions of the hypercall paths (experiment E9): every
    hypercall touches [dispatch_region], then its primitive's own region.
    Regions are disjoint — that is the point. *)

val sched_region : Vmk_hw.Cache.region
val evtchn_region : Vmk_hw.Cache.region
val grant_map_region : Vmk_hw.Cache.region
val grant_transfer_region : Vmk_hw.Cache.region
val pt_region : Vmk_hw.Cache.region
val trap_region : Vmk_hw.Cache.region
val memory_region : Vmk_hw.Cache.region
val irq_region : Vmk_hw.Cache.region
val syscall_bounce_region : Vmk_hw.Cache.region
val domctl_region : Vmk_hw.Cache.region
