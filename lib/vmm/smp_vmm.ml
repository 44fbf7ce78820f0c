module Machine = Vmk_hw.Machine
module Arch = Vmk_hw.Arch
module Engine = Vmk_sim.Engine
module Smp = Vmk_smp.Smp

type backend = Single_dom0 | Driver_domains | Fixed_domains of int

type config = {
  cores : int;
  backend : backend;
  guests : int;
  packets : int;
  packet_len : int;
  period : int64;
  app_cycles : int;
  coalesce : int;
      (** Interrupt-mitigation factor: 1 = every packet interrupts; [n]
          lets only every n-th packet pay the full IRQ-route entry, the
          rest arriving under the open hold-off window at poll cost
          (E16 composing with E14). *)
}

type result = {
  completed : int;
  wall : int64;
  mach : Machine.t;
  gnt_acquisitions : int;
  gnt_contended : int;
  gnt_spin : int64;
}

let netback_work = 400
let frontend_work = 300
let flip_batch = 16

let default ?(backend = Single_dom0) ~cores () =
  {
    cores;
    backend;
    guests = 8;
    packets = 640;
    packet_len = 512;
    period = 400L;
    app_cycles = 2_600;
    coalesce = 1;
  }

let split_count total parts i = (total / parts) + (if i < total mod parts then 1 else 0)

let run ?seed cfg =
  if cfg.cores < 1 then invalid_arg "Smp_vmm.run: cores";
  if cfg.guests < 1 then invalid_arg "Smp_vmm.run: guests";
  let mach = Machine.create ~cpus:cfg.cores ?seed () in
  let arch = mach.Machine.arch in
  let smp = Smp.create mach in
  let gnt_lock = Smp.lock_create smp in
  (* Backend layout: Single_dom0 serializes every page flip through one
     domain on core 0 (guests on the remaining cores); Driver_domains
     gives each core its own driver with a private grant table, leaving
     only the frame-ownership check under the shared lock. *)
  (match cfg.backend with
  | Fixed_domains n when n < 1 -> invalid_arg "Smp_vmm.run: Fixed_domains"
  | Fixed_domains _ | Single_dom0 | Driver_domains -> ());
  let ndrv, drv_cpu, guest_cpu =
    match cfg.backend with
    | Single_dom0 ->
        ( 1,
          (fun _ -> 0),
          fun i -> if cfg.cores = 1 then 0 else 1 + (i mod (cfg.cores - 1)) )
    | Driver_domains ->
        (cfg.cores, (fun d -> d mod cfg.cores), fun i -> i mod cfg.cores)
    | Fixed_domains n ->
        (* E18's deployment shape: a fixed fleet of driver domains
           (netdrv/blkdrv/bridge-sized) spread round-robin over the
           cores, however many cores there are. *)
        (n, (fun d -> d mod cfg.cores), fun i -> i mod cfg.cores)
  in
  let flip_cost = Costs.page_flip_fixed + (2 * arch.Arch.pt_update_cost) in
  let guest_count = Array.init cfg.guests (split_count cfg.packets cfg.guests) in
  let guest_drv i =
    match cfg.backend with
    | Single_dom0 -> 0
    | Driver_domains -> guest_cpu i mod ndrv
    | Fixed_domains _ -> i mod ndrv
  in
  let drv_quota = Array.make ndrv 0 in
  Array.iteri
    (fun i c -> drv_quota.(guest_drv i) <- drv_quota.(guest_drv i) + c)
    guest_count;
  let guest_tids =
    Array.init cfg.guests (fun i ->
        let count = guest_count.(i) in
        Smp.spawn smp
          ~name:(Printf.sprintf "guest%d" i)
          ~account:(Printf.sprintf "guest%d" i)
          ~cpu:(guest_cpu i)
          (fun () ->
            for _ = 1 to count do
              ignore (Smp.recv ());
              Smp.burn
                (Costs.upcall + frontend_work + cfg.app_cycles
                + Arch.copy_cost arch ~bytes:cfg.packet_len)
            done))
  in
  let drv_tids =
    Array.init ndrv (fun d ->
        let quota = drv_quota.(d) in
        let name =
          match cfg.backend with
          | Single_dom0 -> "dom0"
          | Driver_domains | Fixed_domains _ -> Printf.sprintf "drv%d" d
        in
        Smp.spawn smp ~name ~account:name ~cpu:(drv_cpu d) (fun () ->
            for n = 1 to quota do
              let dst = Smp.recv () in
              Smp.burn netback_work;
              (match cfg.backend with
              | Single_dom0 ->
                  (* Grant check + page flip, all under the global
                     grant-table lock. *)
                  Smp.locked gnt_lock ~cycles:(Costs.grant_check + flip_cost)
              | Driver_domains | Fixed_domains _ ->
                  (* Flip under the private per-domain table; only the
                     frame-ownership check hits the shared lock. *)
                  Smp.burn flip_cost;
                  Smp.locked gnt_lock ~cycles:Costs.grant_check);
              (* Flipped-out pages invalidated in batches. *)
              if n mod flip_batch = 0 then Smp.shootdown ~pages:flip_batch;
              Smp.send ~dst ~tag:dst ~cycles:Costs.evtchn_send
            done))
  in
  let sent = ref 0 in
  let coalesce = max 1 cfg.coalesce in
  Engine.every mach.Machine.engine cfg.period (fun () ->
      if !sent < cfg.packets then begin
        let g = !sent mod cfg.guests in
        (* With mitigation only every [coalesce]-th packet pays the full
           IRQ-route entry; the rest land under the open hold-off window
           and cost one poll-batch read. *)
        let irq_cost =
          if !sent mod coalesce = 0 then
            arch.Arch.irq_entry_cost + Costs.irq_route
          else arch.Arch.poll_batch_cost
        in
        incr sent;
        Smp.post smp ~irq_cost ~dst:drv_tids.(guest_drv g) guest_tids.(g);
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
    gnt_acquisitions = Smp.lock_acquisitions gnt_lock;
    gnt_contended = Smp.lock_contended gnt_lock;
    gnt_spin = Smp.lock_spin_cycles gnt_lock;
  }
