type entry = {
  name : string;
  description : string;
  roles : Taxonomy.role list;
  security_checks : int;
  icache_lines : int;
  implemented_in : string;
  evidence_counter : string;
}

open Taxonomy
module Cache = Vmk_hw.Cache

let microkernel =
  [
    {
      name = "ipc";
      description =
        "synchronous IPC: rendezvous + untyped words + string items + \
         map/grant items";
      roles = [ Control_transfer; Data_transfer; Resource_delegation ];
      security_checks = 3; (* partner liveness, receive filter, map rights *)
      icache_lines = Cache.region_lines Vmk_ukernel.Costs.ipc_region;
      implemented_in = "Vmk_ukernel.Kernel";
      evidence_counter = "uk.ipc.rendezvous";
    };
    {
      name = "threads";
      description = "thread create/exit/scheduling parameters";
      roles = [];
      security_checks = 1;
      icache_lines = 6;
      implemented_in = "Vmk_ukernel.Kernel";
      evidence_counter = "uk.spawn";
    };
    {
      name = "interrupt-as-ipc";
      description = "hardware interrupts delivered as IPC messages";
      roles = [ Control_transfer ];
      security_checks = 1; (* handler registration *)
      icache_lines = 4;
      implemented_in = "Vmk_ukernel.Kernel";
      evidence_counter = "uk.irq.delivered";
    };
    {
      name = "unmap";
      description = "recursive revocation through the mapping database";
      roles = [ Resource_delegation ];
      security_checks = 1;
      icache_lines = 5;
      implemented_in = "Vmk_ukernel.Mapdb";
      evidence_counter = "uk.unmap.pages";
    };
  ]

let vmm =
  [
    {
      name = "guest-syscall-entry";
      description = "§2.2(1): synchronous guest-user to guest-kernel switch";
      roles = [ Control_transfer ];
      security_checks = 3; (* trap table registered, gates exist, segments *)
      icache_lines = Cache.region_lines Vmk_vmm.Costs.syscall_bounce_region;
      implemented_in = "Vmk_vmm.Hypervisor (H_syscall_trap)";
      evidence_counter = "vmm.syscall_bounce";
    };
    {
      name = "guest-syscall-return";
      description = "§2.2(2): guest-kernel to guest-user return path";
      roles = [ Control_transfer ];
      security_checks = 1;
      icache_lines = Cache.region_lines Vmk_vmm.Costs.trap_region;
      implemented_in = "Vmk_vmm.Hypervisor (trap table)";
      evidence_counter = "vmm.syscall_fast";
    };
    {
      name = "event-channels";
      description = "§2.2(3): asynchronous cross-domain channels";
      roles = [ Control_transfer ];
      security_checks = 3; (* port bound, peer alive, binding permission *)
      icache_lines = Cache.region_lines Vmk_vmm.Costs.evtchn_region;
      implemented_in = "Vmk_vmm.Hypervisor (evtchn ops)";
      evidence_counter = "vmm.evtchn_send";
    };
    {
      name = "hypercall-resource-alloc";
      description = "§2.2(4): per-VM resource allocation via hypercalls";
      roles = [ Resource_delegation ];
      security_checks = 2; (* reservation limits, caller identity *)
      icache_lines = Cache.region_lines Vmk_vmm.Costs.memory_region;
      implemented_in = "Vmk_vmm.Hypervisor (H_alloc_frames)";
      evidence_counter = "vmm.hypercall";
    };
    {
      name = "pt-virtualisation";
      description = "§2.2(5): validated guest page-table updates";
      roles = [ Resource_delegation ];
      security_checks = 2; (* frame ownership, type safety *)
      icache_lines = Cache.region_lines Vmk_vmm.Costs.pt_region;
      implemented_in = "Vmk_vmm.Hypervisor (H_pt_map/H_pt_unmap)";
      evidence_counter = "vmm.pt_update";
    };
    {
      name = "page-flipping";
      description = "§2.2(6): resource re-allocation via grant transfer";
      roles = [ Data_transfer; Resource_delegation ];
      security_checks = 2; (* frame ownership, target liveness *)
      icache_lines = Cache.region_lines Vmk_vmm.Costs.grant_transfer_region;
      implemented_in = "Vmk_vmm.Hypervisor (H_gnttab_transfer)";
      evidence_counter = "vmm.page_flip";
    };
    {
      name = "exception-virtualisation";
      description = "§2.2(7): page-fault and exception bouncing";
      roles = [ Control_transfer ];
      security_checks = 2;
      icache_lines = Cache.region_lines Vmk_vmm.Costs.trap_region;
      implemented_in = "Vmk_vmm.Hypervisor (trap paths)";
      evidence_counter = "vmm.syscall_bounce";
    };
    {
      name = "virtual-interrupt-signalling";
      description = "§2.2(8): asynchronous event notification (upcalls)";
      roles = [ Control_transfer ];
      security_checks = 1;
      icache_lines = Cache.region_lines Vmk_vmm.Costs.sched_region;
      implemented_in = "Vmk_vmm.Hypervisor (upcall path)";
      evidence_counter = "vmm.upcall";
    };
    {
      name = "hw-interrupt-routing";
      description = "§2.2(9): physical IRQs via the virtual controller";
      roles = [ Control_transfer ];
      security_checks = 2; (* privilege, line validity *)
      icache_lines = Cache.region_lines Vmk_vmm.Costs.irq_region;
      implemented_in = "Vmk_vmm.Hypervisor (H_irq_bind + routing)";
      evidence_counter = "vmm.irq";
    };
    {
      name = "device-backends";
      description = "§2.2(10): common devices (NIC, disk) via split drivers";
      roles = [ Data_transfer ];
      security_checks = 3; (* grant validation per request, ring bounds *)
      icache_lines = Cache.region_lines Vmk_vmm.Costs.grant_map_region;
      implemented_in = "Vmk_vmm.Netback / Vmk_vmm.Blkback";
      evidence_counter = "netback.rx_packets";
    };
  ]

let central_primitives entries =
  List.filter (fun e -> List.length e.roles >= 2) entries

let total_checks entries =
  List.fold_left (fun acc e -> acc + e.security_checks) 0 entries

let total_icache_lines entries =
  List.fold_left (fun acc e -> acc + e.icache_lines) 0 entries

let coverage counters entries =
  List.map
    (fun e -> (e, Vmk_trace.Counter.get counters e.evidence_counter > 0))
    entries
