module Counter = Vmk_trace.Counter

type breakdown = {
  control : int;
  data : int;
  delegation : int;
  total : int;
  detail : (string * int) list;
}

(* (counter, counted roles, ops-per-count) — an operation with several
   roles is still one operation. *)
let build counters ~control_counters ~data_counters ~delegation_counters =
  let sum names =
    List.fold_left (fun acc name -> acc + Counter.get counters name) 0 names
  in
  let control = sum control_counters in
  let data = sum data_counters in
  let delegation = sum delegation_counters in
  let all =
    List.sort_uniq compare
      (control_counters @ data_counters @ delegation_counters)
  in
  let detail =
    List.filter_map
      (fun name ->
        let v = Counter.get counters name in
        if v > 0 then Some (name, v) else None)
      all
  in
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 detail in
  { control; data; delegation; total; detail }

let of_microkernel_run counters =
  build counters
    ~control_counters:[ "uk.ipc.rendezvous"; "uk.irq.delivered" ]
    ~data_counters:[]
      (* string payloads ride inside counted rendezvous *)
    ~delegation_counters:[ "uk.ipc.map_pages"; "uk.unmap.pages" ]

let of_vmm_run counters =
  build counters
    ~control_counters:
      [ "vmm.syscall_bounce"; "vmm.evtchn_send"; "vmm.upcall"; "vmm.irq" ]
    ~data_counters:[ "vmm.page_flip" ]
    ~delegation_counters:[ "vmm.grant_map"; "vmm.pt_update" ]

let per_unit b ~units =
  if units <= 0 then 0.0 else float_of_int b.total /. float_of_int units
