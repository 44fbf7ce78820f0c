type id =
  | X86_32
  | X86_64
  | Arm32
  | Arm64
  | Mips64
  | Ppc32
  | Ppc64
  | Itanium
  | Sparc64

type profile = {
  id : id;
  name : string;
  trap_cost : int;
  fast_syscall_cost : int;
  kernel_exit_cost : int;
  addr_space_switch_cost : int;
  tlb_tagged : bool;
  tlb_entries : int;
  tlb_refill_cost : int;
  pt_levels : int;
  pt_update_cost : int;
  page_map_cost : int;
  cacheline_bytes : int;
  icache_lines : int;
  copy_per_byte_c100 : int;
  copy_base_cost : int;
  has_trap_gates : bool;
  has_segmentation : bool;
  segment_reload_cost : int;
  irq_entry_cost : int;
  irq_eoi_cost : int;
  poll_batch_cost : int;
  world_switch_cost : int;
  ipi_cost : int;
  shootdown_ack_cost : int;
}

let x86_32 =
  {
    id = X86_32;
    name = "x86-32 (Pentium 4 class)";
    trap_cost = 540;
    fast_syscall_cost = 180;
    kernel_exit_cost = 320;
    addr_space_switch_cost = 790; (* CR3 reload + untagged TLB refill wave *)
    tlb_tagged = false;
    tlb_entries = 128;
    tlb_refill_cost = 60;
    pt_levels = 2;
    pt_update_cost = 30;
    page_map_cost = 90;
    cacheline_bytes = 64;
    icache_lines = 512; (* 32 KiB at 64 B lines, trace-cache era proxy *)
    copy_per_byte_c100 = 120; (* cache-cold payload copies *)
    copy_base_cost = 40;
    has_trap_gates = true;
    has_segmentation = true;
    segment_reload_cost = 25;
    irq_entry_cost = 610;
    irq_eoi_cost = 90;
    poll_batch_cost = 140;
    world_switch_cost = 480;
    ipi_cost = 780; (* APIC vector delivery + P4 interrupt entry *)
    shootdown_ack_cost = 500;
  }

let x86_64 =
  {
    x86_32 with
    id = X86_64;
    name = "x86-64 (Opteron class)";
    trap_cost = 420;
    fast_syscall_cost = 120;
    kernel_exit_cost = 240;
    addr_space_switch_cost = 640;
    tlb_entries = 512;
    tlb_refill_cost = 80;
    pt_levels = 4;
    pt_update_cost = 28;
    copy_per_byte_c100 = 90;
    has_trap_gates = false; (* long mode drops the 32-bit trap-gate trick *)
    has_segmentation = false; (* flat segments; limits ignored *)
    irq_entry_cost = 480;
    poll_batch_cost = 110;
    world_switch_cost = 420;
    ipi_cost = 640;
    shootdown_ack_cost = 420;
  }

let arm32 =
  {
    id = Arm32;
    name = "ARMv5 (XScale class)";
    trap_cost = 140;
    fast_syscall_cost = 140; (* swi is the only entry *)
    kernel_exit_cost = 110;
    addr_space_switch_cost = 950; (* VIVT cache + untagged TLB: costly *)
    tlb_tagged = false;
    tlb_entries = 64;
    tlb_refill_cost = 45;
    pt_levels = 2;
    pt_update_cost = 22;
    page_map_cost = 70;
    cacheline_bytes = 32;
    icache_lines = 1024;
    copy_per_byte_c100 = 180;
    copy_base_cost = 30;
    has_trap_gates = false;
    has_segmentation = false;
    segment_reload_cost = 0;
    irq_entry_cost = 160;
    irq_eoi_cost = 40;
    poll_batch_cost = 60;
    world_switch_cost = 380;
    ipi_cost = 260;
    shootdown_ack_cost = 180;
  }

let arm64 =
  {
    arm32 with
    id = Arm64;
    name = "ARMv8 (Cortex-A class)";
    trap_cost = 110;
    fast_syscall_cost = 110;
    kernel_exit_cost = 90;
    addr_space_switch_cost = 60; (* ASID-tagged TLB *)
    tlb_tagged = true;
    tlb_entries = 512;
    tlb_refill_cost = 55;
    pt_levels = 4;
    cacheline_bytes = 64;
    copy_per_byte_c100 = 70;
    irq_entry_cost = 130;
    poll_batch_cost = 45;
    world_switch_cost = 260;
    ipi_cost = 210;
    shootdown_ack_cost = 150;
  }

let mips64 =
  {
    id = Mips64;
    name = "MIPS64 (R4000 lineage)";
    trap_cost = 90;
    fast_syscall_cost = 90;
    kernel_exit_cost = 80;
    addr_space_switch_cost = 40; (* ASID write only *)
    tlb_tagged = true;
    tlb_entries = 48;
    tlb_refill_cost = 35; (* software refill handler *)
    pt_levels = 1; (* software-managed: flat lookup by the handler *)
    pt_update_cost = 18;
    page_map_cost = 60;
    cacheline_bytes = 32;
    icache_lines = 512;
    copy_per_byte_c100 = 160;
    copy_base_cost = 25;
    has_trap_gates = false;
    has_segmentation = false;
    segment_reload_cost = 0;
    irq_entry_cost = 110;
    irq_eoi_cost = 30;
    poll_batch_cost = 40;
    world_switch_cost = 240;
    ipi_cost = 220;
    shootdown_ack_cost = 160;
  }

let ppc32 =
  {
    id = Ppc32;
    name = "PowerPC 32 (G4 class)";
    trap_cost = 170;
    fast_syscall_cost = 170;
    kernel_exit_cost = 130;
    addr_space_switch_cost = 210; (* segment-register reload *)
    tlb_tagged = true;
    tlb_entries = 128;
    tlb_refill_cost = 70; (* hashed page table probe *)
    pt_levels = 1;
    pt_update_cost = 34;
    page_map_cost = 85;
    cacheline_bytes = 32;
    icache_lines = 1024;
    copy_per_byte_c100 = 120;
    copy_base_cost = 35;
    has_trap_gates = false;
    has_segmentation = false;
    segment_reload_cost = 0;
    irq_entry_cost = 190;
    irq_eoi_cost = 45;
    poll_batch_cost = 70;
    world_switch_cost = 320;
    ipi_cost = 300;
    shootdown_ack_cost = 200;
  }

let ppc64 =
  {
    ppc32 with
    id = Ppc64;
    name = "PowerPC 64 (POWER4 class)";
    trap_cost = 150;
    fast_syscall_cost = 150;
    kernel_exit_cost = 120;
    addr_space_switch_cost = 140;
    tlb_entries = 1024;
    tlb_refill_cost = 95;
    cacheline_bytes = 128;
    icache_lines = 512;
    copy_per_byte_c100 = 60;
    poll_batch_cost = 65;
    world_switch_cost = 300;
    ipi_cost = 280;
    shootdown_ack_cost = 190;
  }

let itanium =
  {
    id = Itanium;
    name = "Itanium 2";
    trap_cost = 230;
    fast_syscall_cost = 36; (* epc: enter-privileged-code, famously cheap *)
    kernel_exit_cost = 110;
    addr_space_switch_cost = 70; (* region-ID tagged *)
    tlb_tagged = true;
    tlb_entries = 128;
    tlb_refill_cost = 50;
    pt_levels = 3;
    pt_update_cost = 26;
    page_map_cost = 75;
    cacheline_bytes = 128;
    icache_lines = 128; (* 16 KiB L1I at 128 B lines *)
    copy_per_byte_c100 = 55;
    copy_base_cost = 45;
    has_trap_gates = false;
    has_segmentation = false;
    segment_reload_cost = 0;
    irq_entry_cost = 260;
    irq_eoi_cost = 55;
    poll_batch_cost = 90;
    world_switch_cost = 520;
    ipi_cost = 420;
    shootdown_ack_cost = 260;
  }

let sparc64 =
  {
    id = Sparc64;
    name = "UltraSPARC III";
    trap_cost = 130;
    fast_syscall_cost = 130;
    kernel_exit_cost = 150; (* register-window spill risk *)
    addr_space_switch_cost = 90; (* context-ID tagged *)
    tlb_tagged = true;
    tlb_entries = 512;
    tlb_refill_cost = 65; (* TSB software refill *)
    pt_levels = 1;
    pt_update_cost = 24;
    page_map_cost = 70;
    cacheline_bytes = 64;
    icache_lines = 512;
    copy_per_byte_c100 = 95;
    copy_base_cost = 35;
    has_trap_gates = false;
    has_segmentation = false;
    segment_reload_cost = 0;
    irq_entry_cost = 170;
    irq_eoi_cost = 40;
    poll_batch_cost = 55;
    world_switch_cost = 340;
    ipi_cost = 310;
    shootdown_ack_cost = 210;
  }

let all =
  [ x86_32; x86_64; arm32; arm64; mips64; ppc32; ppc64; itanium; sparc64 ]

let profile = function
  | X86_32 -> x86_32
  | X86_64 -> x86_64
  | Arm32 -> arm32
  | Arm64 -> arm64
  | Mips64 -> mips64
  | Ppc32 -> ppc32
  | Ppc64 -> ppc64
  | Itanium -> itanium
  | Sparc64 -> sparc64

let id_spelling = function
  | X86_32 -> "x86_32"
  | X86_64 -> "x86_64"
  | Arm32 -> "arm32"
  | Arm64 -> "arm64"
  | Mips64 -> "mips64"
  | Ppc32 -> "ppc32"
  | Ppc64 -> "ppc64"
  | Itanium -> "itanium"
  | Sparc64 -> "sparc64"

let by_name name =
  let wanted = String.lowercase_ascii name in
  List.find_opt
    (fun p ->
      String.lowercase_ascii p.name = wanted || id_spelling p.id = wanted)
    all

let default = x86_32

let copy_cost p ~bytes =
  if bytes < 0 then invalid_arg "Arch.copy_cost: negative size";
  if bytes = 0 then 0
  else p.copy_base_cost + (bytes * p.copy_per_byte_c100 / 100)

let walk_cost p = p.pt_levels * p.tlb_refill_cost

let pp ppf p =
  Format.fprintf ppf
    "%s: trap=%d fast=%d exit=%d as-switch=%d tlb=%s/%d walk=%d copy=%d.%02d/B"
    p.name p.trap_cost p.fast_syscall_cost p.kernel_exit_cost
    p.addr_space_switch_cost
    (if p.tlb_tagged then "tagged" else "untagged")
    p.tlb_entries (walk_cost p) (p.copy_per_byte_c100 / 100)
    (p.copy_per_byte_c100 mod 100)
