(** Architecture cost profiles.

    The paper's portability argument (§2.2) rests on L4 components running
    unmodified across nine processor platforms while VMM-level software is
    tied to one architecture's quirks. We model nine platforms as cost
    profiles: every privileged operation the simulator performs is priced by
    the active profile, and architecture-specific *features* (trap gates,
    tagged TLBs, segmentation) gate which code paths are even available.

    Cycle numbers are calibrated to the relative magnitudes reported for
    early-2000s hardware (L4 IPC papers, Xen SOSP'03, lmbench): exact values
    do not matter, orderings and ratios do. *)

type id =
  | X86_32  (** IA-32: trap gates, segmentation, untagged TLB. *)
  | X86_64
  | Arm32
  | Arm64
  | Mips64  (** Software-loaded tagged TLB. *)
  | Ppc32
  | Ppc64
  | Itanium
  | Sparc64

type profile = {
  id : id;
  name : string;  (** Human-readable platform name. *)
  trap_cost : int;
      (** User→kernel transition through an exception/interrupt gate. *)
  fast_syscall_cost : int;
      (** Dedicated syscall instruction (sysenter/syscall/eiem); equals
          [trap_cost] on platforms without one. *)
  kernel_exit_cost : int;  (** Return-to-user (iret/eret/rfi). *)
  addr_space_switch_cost : int;
      (** Switching the active address space, including any TLB flush on
          untagged-TLB platforms. *)
  tlb_tagged : bool;
      (** Tagged TLBs avoid the flush on address-space switch. *)
  tlb_entries : int;
  tlb_refill_cost : int;  (** One page-table walk / software refill. *)
  pt_levels : int;
  pt_update_cost : int;  (** Installing or changing one PTE. *)
  page_map_cost : int;
      (** Kernel bookkeeping to create one mapping beyond the PTE write. *)
  cacheline_bytes : int;
  icache_lines : int;  (** I-cache capacity in lines (footprint model). *)
  copy_per_byte_c100 : int;
      (** Memory-copy cost, hundredths of a cycle per byte. *)
  copy_base_cost : int;  (** Fixed setup cost of any copy. *)
  has_trap_gates : bool;
      (** IA-32 trap gates enable Xen's guest-syscall shortcut (§3.2). *)
  has_segmentation : bool;
      (** Segment-limit protection — prerequisite of the same shortcut. *)
  segment_reload_cost : int;
  irq_entry_cost : int;
      (** Interrupt delivery: vector dispatch + state save on entry. *)
  irq_eoi_cost : int;
  poll_batch_cost : int;
      (** One {!Nic.poll} round: ring-tail read + status-block check +
          prefetch of up to [budget] descriptors. Paid once per batch, not
          per packet — the interrupt-mitigation model's amortization lever
          (contrast with paying [irq_entry_cost] per packet). *)
  world_switch_cost : int;
      (** Extra state save/restore when a VMM switches between domains. *)
  ipi_cost : int;
      (** Delivering one inter-processor interrupt on the target core
          (vector delivery + interrupt entry); also the cross-core
          notification latency in the SMP model. *)
  shootdown_ack_cost : int;
      (** Remote-core TLB-shootdown handler: acknowledge the IPI and
          invalidate the requested entries. *)
}

val profile : id -> profile
val all : profile list
(** The nine platforms, in {!id} declaration order. *)

val by_name : string -> profile option
(** Case-insensitive lookup by {!field-name} or by the [id] spelling
    (e.g. ["x86_32"]). *)

val default : profile
(** {!X86_32} — the platform the paper's Xen discussion targets. *)

val copy_cost : profile -> bytes:int -> int
(** Cycles to copy [bytes] of memory: base + per-byte cost.

    @raise Invalid_argument on negative [bytes]. *)

val walk_cost : profile -> int
(** Full page-table walk: [pt_levels * tlb_refill_cost]. *)

val pp : Format.formatter -> profile -> unit
