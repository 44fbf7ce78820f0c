type role = Control_transfer | Data_transfer | Resource_delegation
type system = Microkernel | Vmm

let all_roles = [ Control_transfer; Data_transfer; Resource_delegation ]

let microkernel_map =
  [
    ("uk.ipc.rendezvous", [ Control_transfer ]);
    ("uk.ipc.words", [ Data_transfer ]);
    ("uk.ipc.bytes", [ Data_transfer ]);
    ("uk.ipc.map_pages", [ Resource_delegation ]);
    ("uk.unmap.pages", [ Resource_delegation ]);
    ("uk.irq.delivered", [ Control_transfer ]);
    ("uk.fault.ipc", [ Control_transfer ]);
    ("uk.space_switch", []);
    ("uk.syscall", []);
  ]

let vmm_map =
  [
    ("vmm.syscall_bounce", [ Control_transfer ]);
    ("vmm.syscall_fast", [ Control_transfer ]);
    ("vmm.evtchn_send", [ Control_transfer ]);
    ("vmm.upcall", [ Control_transfer ]);
    ("vmm.irq", [ Control_transfer ]);
    ("vmm.page_flip", [ Data_transfer; Resource_delegation ]);
    ("vmm.grant_map", [ Resource_delegation ]);
    ("vmm.grant_unmap", [ Resource_delegation ]);
    ("vmm.pt_update", [ Resource_delegation ]);
    ("vmm.world_switch", []);
    ("vmm.hypercall", []);
  ]

let roles_of_counter system name =
  let table = match system with Microkernel -> microkernel_map | Vmm -> vmm_map in
  match List.assoc_opt name table with Some roles -> roles | None -> []

let role_counts system counters =
  let totals =
    List.map
      (fun role ->
        let count =
          Vmk_trace.Counter.fold counters ~init:0 ~f:(fun acc name v ->
              if List.mem role (roles_of_counter system name) then acc + v
              else acc)
        in
        (role, count))
      all_roles
  in
  totals

let pp_role ppf role =
  Format.pp_print_string ppf
    (match role with
    | Control_transfer -> "control-transfer"
    | Data_transfer -> "data-transfer"
    | Resource_delegation -> "resource-delegation")
