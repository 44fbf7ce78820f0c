module Machine = Vmk_hw.Machine
module Arch = Vmk_hw.Arch
module Engine = Vmk_sim.Engine
module Smp = Vmk_smp.Smp

type placement = Colocated | Pinned

type config = {
  cores : int;
  placement : placement;
  guests : int;
  packets : int;
  packet_len : int;
  period : int64;
  app_cycles : int;
  coalesce : int;
      (** Interrupt-mitigation factor: 1 = every packet interrupts; [n]
          lets only every n-th packet pay the full interrupt→IPC entry,
          the rest arriving under the open hold-off window at poll cost
          (E16 composing with E14). *)
}

type result = {
  completed : int;
  wall : int64;
  mach : Machine.t;
  mapdb_acquisitions : int;
  mapdb_contended : int;
  mapdb_spin : int64;
}

(* Per-packet work beyond the arch/Costs-priced pieces. *)
let driver_work = 600
let unmap_batch = 16

let default ?(placement = Colocated) ~cores () =
  {
    cores;
    placement;
    guests = 8;
    packets = 640;
    packet_len = 512;
    period = 400L;
    app_cycles = 2_600;
    coalesce = 1;
  }

let split_count total parts i = (total / parts) + (if i < total mod parts then 1 else 0)

let run ?seed cfg =
  if cfg.cores < 1 then invalid_arg "Smp_cluster.run: cores";
  if cfg.guests < 1 then invalid_arg "Smp_cluster.run: guests";
  let mach = Machine.create ~cpus:cfg.cores ?seed () in
  let arch = mach.Machine.arch in
  let smp = Smp.create mach in
  let mapdb_lock = Smp.lock_create smp in
  (* Placement: Colocated runs one net server per core next to its
     guests (same-core IPC); Pinned dedicates the first cores to net
     servers, so every server->guest IPC crosses cores and pays IPIs —
     the paper's "servers in their own address spaces on their own
     cores" arrangement. *)
  let nsrv, srv_cpu, guest_cpu =
    match cfg.placement with
    | Colocated ->
        (cfg.cores, (fun i -> i mod cfg.cores), fun i -> i mod cfg.cores)
    | Pinned ->
        let nsrv = max 1 (cfg.cores / 4) in
        let ng = max 1 (cfg.cores - nsrv) in
        ( nsrv,
          (fun i -> i mod nsrv),
          fun i -> if cfg.cores = 1 then 0 else nsrv + (i mod ng) )
  in
  let guest_count = Array.init cfg.guests (split_count cfg.packets cfg.guests) in
  (* Guest i is served by the net server on (Colocated) its own core or
     (Pinned) server i mod nsrv. *)
  let guest_srv i =
    match cfg.placement with Colocated -> guest_cpu i mod nsrv | Pinned -> i mod nsrv
  in
  let srv_quota = Array.make nsrv 0 in
  Array.iteri
    (fun i c -> srv_quota.(guest_srv i) <- srv_quota.(guest_srv i) + c)
    guest_count;
  let guest_tids =
    Array.init cfg.guests (fun i ->
        let count = guest_count.(i) in
        Smp.spawn smp
          ~name:(Printf.sprintf "guest%d" i)
          ~account:(Printf.sprintf "guest%d" i)
          ~cpu:(guest_cpu i)
          (fun () ->
            for n = 1 to count do
              ignore (Smp.recv ());
              Smp.burn (cfg.app_cycles + Arch.copy_cost arch ~bytes:cfg.packet_len);
              (* Batched unmap of consumed buffers: one broadcast per
                 batch, per the mapdb's lazy revoke. *)
              if n mod unmap_batch = 0 then Smp.shootdown ~pages:unmap_batch
            done))
  in
  let srv_tids =
    Array.init nsrv (fun s ->
        let quota = srv_quota.(s) in
        Smp.spawn smp
          ~name:(Printf.sprintf "net%d" s)
          ~account:(Printf.sprintf "net%d" s)
          ~cpu:(srv_cpu s)
          (fun () ->
            for _ = 1 to quota do
              let dst = Smp.recv () in
              Smp.burn driver_work;
              (* Mapping-database update under the shared lock. *)
              Smp.locked mapdb_lock
                ~cycles:(2 * arch.Arch.pt_update_cost);
              Smp.send ~dst ~tag:dst
                ~cycles:(Costs.ipc_path + arch.Arch.page_map_cost)
            done))
  in
  (* Traffic: one packet per period, round-robin over guests, delivered
     as an interrupt (+ irq->IPC conversion) to the guest's server. *)
  let sent = ref 0 in
  let coalesce = max 1 cfg.coalesce in
  Engine.every mach.Machine.engine cfg.period (fun () ->
      if !sent < cfg.packets then begin
        let g = !sent mod cfg.guests in
        (* With mitigation only every [coalesce]-th packet pays the full
           interrupt→IPC entry; the rest land under the open hold-off
           window and cost one poll-batch read. *)
        let irq_cost =
          if !sent mod coalesce = 0 then
            arch.Arch.irq_entry_cost + Costs.irq_to_ipc
          else arch.Arch.poll_batch_cost
        in
        incr sent;
        Smp.post smp ~irq_cost ~dst:srv_tids.(guest_srv g) guest_tids.(g);
        !sent < cfg.packets
      end
      else false);
  (match Smp.run smp with
  | Smp.Idle -> ()
  | Smp.Condition | Smp.Rounds -> ());
  {
    completed =
      Array.fold_left ( + ) 0
        (Array.mapi
           (fun i tid -> if Smp.is_done smp tid then guest_count.(i) else 0)
           guest_tids);
    wall = Machine.now mach;
    mach;
    mapdb_acquisitions = Smp.lock_acquisitions mapdb_lock;
    mapdb_contended = Smp.lock_contended mapdb_lock;
    mapdb_spin = Smp.lock_spin_cycles mapdb_lock;
  }
