module Machine = Vmk_hw.Machine
module Nic = Vmk_hw.Nic
module Accounts = Vmk_trace.Accounts
module Counter = Vmk_trace.Counter
module Kernel = Vmk_ukernel.Kernel
module Hypervisor = Vmk_vmm.Hypervisor
module Net_channel = Vmk_vmm.Net_channel
module Blk_channel = Vmk_vmm.Blk_channel
module Dom0 = Vmk_vmm.Dom0
module Port_native = Vmk_guest.Port_native
module Port_xen = Vmk_guest.Port_xen
module Port_l4 = Vmk_guest.Port_l4
module Net_server = Vmk_ukernel.Net_server
module Blk_server = Vmk_ukernel.Blk_server
module Traffic = Vmk_workloads.Traffic
module Apps = Vmk_workloads.Apps
module Summary = Vmk_stats.Summary
module Rng = Vmk_sim.Rng
module Sysif = Vmk_ukernel.Sysif
module Svc = Vmk_ukernel.Svc
module Watchdog = Vmk_ukernel.Watchdog
module Smp_cluster = Vmk_ukernel.Smp_cluster
module Smp_vmm = Vmk_vmm.Smp_vmm
module Bridge = Vmk_vmm.Bridge

type outcome = {
  cycles : int64;
  busy_cycles : int64;
  accounts : (string * int64) list;
  counters : (string * int) list;
  counter_set : Counter.set;
  completed : bool;
  icache_misses : int;
  icache_miss_cycles : int;
}

type traffic_spec = Machine.t -> gate:(unit -> bool) -> Traffic.t

let account_cycles outcome name =
  match List.assoc_opt name outcome.accounts with Some v -> v | None -> 0L

let counter outcome name =
  match List.assoc_opt name outcome.counters with Some v -> v | None -> 0

let outcome_of mach ~completed =
  {
    cycles = Machine.now mach;
    busy_cycles = Accounts.busy_total mach.Machine.accounts;
    accounts = Accounts.to_list mach.Machine.accounts;
    counters = Counter.to_list mach.Machine.counters;
    counter_set = mach.Machine.counters;
    completed;
    icache_misses = Vmk_hw.Cache.misses mach.Machine.icache;
    icache_miss_cycles = Vmk_hw.Cache.miss_cycles mach.Machine.icache;
  }

let run_native ~app () =
  let mach = Machine.create () in
  let completed = ref false in
  Port_native.run mach (fun () ->
      app ();
      completed := true);
  outcome_of mach ~completed:!completed

let run_xen ?arch ?seed ?(rx_mode = Net_channel.Flip) ?(net = true) ?(blk = true)
    ?(fast_syscall = true) ?(glibc_tls = false) ?traffic ~app () =
  let mach = Machine.create ?arch ?seed () in
  let h = Hypervisor.create mach in
  let net_chan =
    if net then Some (Net_channel.create ~mode:rx_mode ~demux_key:1 ()) else None
  in
  let blk_chan = if blk then Some (Blk_channel.create ()) else None in
  let dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      (Dom0.body mach
         ?net:(Option.map (fun c -> [ c ]) net_chan)
         ?blk:(Option.map (fun c -> [ c ]) blk_chan))
  in
  let ready = ref false in
  let completed = ref false in
  let _guest =
    Hypervisor.create_domain h ~name:"guest1"
      (Port_xen.guest_body mach
         ?net:(Option.map (fun c -> (c, dom0)) net_chan)
         ?blk:(Option.map (fun c -> (c, dom0)) blk_chan)
         ~fast_syscall ~glibc_tls
         ~on_ready:(fun () -> ready := true)
         ~app:(fun () ->
           app ();
           completed := true))
  in
  let _source =
    Option.map (fun spec -> spec mach ~gate:(fun () -> !ready)) traffic
  in
  ignore (Hypervisor.run h ~until:(fun () -> !completed));
  (* Let in-flight I/O drain so device counters settle. *)
  ignore (Hypervisor.run h ~max_dispatches:100_000);
  outcome_of mach ~completed:!completed

let run_l4 ?seed ?(net = true) ?(blk = true) ?traffic ~app () =
  let mach = Machine.create ?seed () in
  let k = Kernel.create mach in
  let net_tid =
    if net then
      Some
        (Kernel.spawn k ~name:"net-server" ~priority:2
           ~account:Net_server.account (fun () -> Net_server.body mach ()))
    else None
  in
  let blk_tid =
    if blk then
      Some
        (Kernel.spawn k ~name:"blk-server" ~priority:2
           ~account:Blk_server.account (fun () -> Blk_server.body mach ()))
    else None
  in
  let gk =
    Kernel.spawn k ~name:"guest-kernel" ~priority:3 ~account:Port_l4.gk_account
      (Port_l4.guest_kernel_body ~net:net_tid ~blk:blk_tid)
  in
  let completed = ref false in
  let _app_tid =
    Kernel.spawn k ~name:"app" ~priority:4 ~account:"app"
      (Port_l4.app_body mach ~gk (fun () ->
           app ();
           completed := true))
  in
  let _source =
    Option.map
      (fun spec ->
        spec mach ~gate:(fun () -> Nic.rx_buffers_posted mach.Machine.nic > 0))
      traffic
  in
  ignore (Kernel.run k ~until:(fun () -> !completed));
  ignore (Kernel.run k ~max_dispatches:100_000);
  outcome_of mach ~completed:!completed

(* --- the SMP I/O storm (E14, E16-E18) --- *)

type smp_layout = Smp_uk of Smp_cluster.placement | Smp_vmm of Smp_vmm.backend

type smp_storm = {
  delivered : int;
  wall : int64;
  mach : Machine.t;
  contended : int;
  spin : int64;
}

let run_smp ~seed ?(coalesce = 1) layout ~cores ~packets =
  match layout with
  | Smp_uk placement ->
      let cfg =
        {
          (Smp_cluster.default ~placement ~cores ()) with
          Smp_cluster.packets;
          coalesce;
        }
      in
      let r = Smp_cluster.run ~seed cfg in
      {
        delivered = r.Smp_cluster.completed;
        wall = r.Smp_cluster.wall;
        mach = r.Smp_cluster.mach;
        contended = r.Smp_cluster.mapdb_contended;
        spin = r.Smp_cluster.mapdb_spin;
      }
  | Smp_vmm backend ->
      let cfg =
        { (Smp_vmm.default ~backend ~cores ()) with Smp_vmm.packets; coalesce }
      in
      let r = Smp_vmm.run ~seed cfg in
      {
        delivered = r.Smp_vmm.completed;
        wall = r.Smp_vmm.wall;
        mach = r.Smp_vmm.mach;
        contended = r.Smp_vmm.gnt_contended;
        spin = r.Smp_vmm.gnt_spin;
      }

let throughput r =
  if Int64.compare r.wall 0L <= 0 then 0.0
  else float_of_int r.delivered *. 1e6 /. Int64.to_float r.wall

let smp_label = function
  | Smp_uk Smp_cluster.Colocated -> "uk/colocated"
  | Smp_uk Smp_cluster.Pinned -> "uk/pinned"
  | Smp_vmm Smp_vmm.Single_dom0 -> "vmm/single-dom0"
  | Smp_vmm Smp_vmm.Driver_domains -> "vmm/driver-domains"
  | Smp_vmm (Smp_vmm.Fixed_domains n) -> Printf.sprintf "vmm/%d-domain-fleet" n

let smp_digest r =
  Machine.digest r.mach
    [
      Printf.sprintf "delivered %d" r.delivered;
      Printf.sprintf "lock %d %Ld" r.contended r.spin;
    ]

let arrival_lines arrivals =
  List.map
    (fun (tag, at) -> Printf.sprintf "arrival %d %Ld" tag at)
    (List.sort compare arrivals)

(* --- the single-guest receive storm (E15, E16) --- *)

type rx_storm = {
  injected : int;
  received : int;
  timely : int;
  offered : float;
  goodput : float;
  p99 : float;
  digest : string;
}

let rx_latency_budget = 1_000_000L

(* The shared half of both rigs: the probe app records every arrival,
   the constant-rate source every injection, and the run is reduced to
   timely goodput over the offered window. Polling-only drivers never
   drain the event engine (the poll timer re-arms forever), so such runs
   stop on a deterministic deadline — offered window plus slack for
   boot, handshake and every timely delivery — instead of the usual
   run-until-done + settle phase. *)
let rx_drive mach ~gate ~period ~count ~polling
    ~(run : ?until:(unit -> bool) -> ?max_dispatches:int -> unit -> unit)
    spawn_app =
  let window = Int64.mul period (Int64.of_int count) in
  let completed = ref false in
  let inject_times = Hashtbl.create 256 in
  let arrivals = ref [] in
  spawn_app (fun () ->
      Apps.net_rx_probe
        ~now:(fun () -> Machine.now mach)
        ~record:(fun ~tag ~at -> arrivals := (tag, at) :: !arrivals)
        ~packets:count () ();
      completed := true);
  let source =
    Traffic.constant_rate mach ~gate ~period ~len:512 ~count
      ~on_inject:(fun ~tag ~at -> Hashtbl.replace inject_times tag at)
      ()
  in
  if polling then begin
    let deadline = Int64.add window 6_000_000L in
    run ~until:(fun () ->
        !completed || Int64.compare (Machine.now mach) deadline >= 0) ()
  end
  else begin
    run ~until:(fun () -> !completed) ();
    run ~max_dispatches:100_000 ()
  end;
  let injected = Traffic.injected source and arrivals = !arrivals in
  let latencies =
    List.rev_map
      (fun (tag, at) ->
        match Hashtbl.find_opt inject_times tag with
        | Some t0 -> Int64.sub at t0
        | None -> Int64.max_int)
      arrivals
  in
  let timely =
    List.length
      (List.filter (fun l -> Int64.compare l rx_latency_budget <= 0) latencies)
  in
  let s = Summary.create () in
  List.iter (Summary.add_int64 s) latencies;
  {
    injected;
    received = List.length arrivals;
    timely;
    offered = float_of_int injected *. 1e6 /. Int64.to_float window;
    goodput = float_of_int timely *. 1e6 /. Int64.to_float window;
    p99 = Summary.percentile s 99.0;
    digest =
      Machine.digest mach
        (Printf.sprintf "injected %d" injected :: arrival_lines arrivals);
  }

(* Dom0 runs at double the guest's scheduler weight: under load the
   backend wins the CPU and starves the guest that must consume the
   packets (the centralized-backend livelock configuration). The
   guest's 2M-cycle I/O timeout ends the app once traffic stops. *)
let rx_storm_xen ?mitigation ?net_admit ?net_napi ?net_poll ~period ~count ()
    =
  let mach = Machine.create ~seed:41L () in
  Option.iter (Nic.set_mitigation mach.Machine.nic) mitigation;
  let h = Hypervisor.create mach in
  let chan = Net_channel.create ~mode:Net_channel.Flip ~demux_key:1 () in
  let dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true ~weight:512
      (fun () -> Dom0.body mach ?net_admit ?net_napi ?net_poll ~net:[ chan ] ())
  in
  let ready = ref false in
  let rx =
    rx_drive mach
      ~gate:(fun () -> !ready)
      ~period ~count ~polling:(Option.is_some net_poll)
      ~run:(fun ?until ?max_dispatches () ->
        ignore (Hypervisor.run ?until ?max_dispatches h))
      (fun app ->
        ignore
          (Hypervisor.create_domain h ~name:"guest1"
             (Port_xen.guest_body mach ~net:(chan, dom0) ~io_timeout:2_000_000L
                ~on_ready:(fun () -> ready := true)
                ~app)))
  in
  (mach, rx)

(* Injection gates on the net server having posted its first receive
   buffers; NIC-level drops after that point are wire loss and count
   against the run. *)
let rx_storm_l4 ?mitigation ?admit ?rx_capacity ?retry_attempts ?napi ?poll
    ~period ~count () =
  let mach = Machine.create ~seed:42L () in
  Option.iter (Nic.set_mitigation mach.Machine.nic) mitigation;
  let k = Kernel.create mach in
  let net_tid =
    Kernel.spawn k ~name:"net-server" ~priority:2 ~account:Net_server.account
      (fun () -> Net_server.body mach ?admit ?rx_capacity ?napi ?poll ())
  in
  let retry =
    Option.map
      (fun attempts ->
        Port_l4.retry ~mach ~attempts ~timeout:1_000_000L
          (Rng.split mach.Machine.rng))
      retry_attempts
  in
  let gk =
    Kernel.spawn k ~name:"guest-kernel" ~priority:3 ~account:Port_l4.gk_account
      (Port_l4.guest_kernel_body ?retry ~net:(Some net_tid) ~blk:None)
  in
  let up = ref false in
  let gate () =
    if not !up then up := Nic.rx_buffers_posted mach.Machine.nic > 0;
    !up
  in
  let rx =
    rx_drive mach ~gate ~period ~count ~polling:(Option.is_some poll)
      ~run:(fun ?until ?max_dispatches () ->
        ignore (Kernel.run ?until ?max_dispatches k))
      (fun app ->
        ignore
          (Kernel.spawn k ~name:"app" ~priority:4 ~account:"app"
             (Port_l4.app_body mach ~gk app)))
  in
  (mach, rx)

let rx_efficiency r =
  if r.injected = 0 then 0.0 else float_of_int r.timely /. float_of_int r.injected

(* Knee probe at common absolute rates: each rung offers load for the
   same 30k x [base]-cycle window, and the knee is the offered rate of
   the first rung whose timely efficiency falls below 0.9. *)
let rx_probe ~base ~periods run =
  let window = Int64.mul 30_000L (Int64.of_int base) in
  List.map
    (fun period -> run ~period ~count:(Int64.to_int (Int64.div window period)))
    periods

let rx_knee runs =
  match List.find_opt (fun r -> rx_efficiency r < 0.9) runs with
  | Some r -> r.offered
  | None -> infinity

(* --- the inter-guest vnet fabric (E17, E19) --- *)

type fabric = {
  fab_mach : Machine.t;
  fab_tx : Apps.stats;
  mutable fab_arrivals : (int * int64) list;
}

let fabric_packet_len = 512
let fabric_settle = 50_000

let fabric_sender f ~src ~dst ~count ~pace =
  Apps.net_tx_stream ~stats:f.fab_tx ~settle:fabric_settle ~pace ~src ~dst
    ~packets:count ~len:fabric_packet_len ()

let fabric_receiver f ~packets ~work =
  Apps.net_rx_probe ~work
    ~now:(fun () -> Machine.now f.fab_mach)
    ~record:(fun ~tag ~at -> f.fab_arrivals <- (tag, at) :: f.fab_arrivals)
    ~packets ()

(* Guest [i] (port [i + 1]) runs the [i]th app body. A fabric run ends
   once every body has returned, then lets in-flight packets settle.
   The bridge domain runs at double weight; the guests' 20M-cycle I/O
   timeout outlasts every send pause the experiments configure. *)
let fabric_xen ~guests ?mark_at ?port_capacity ?mk_fair ?side ~apps () =
  let mach = Machine.create ~seed:41L () in
  let h = Hypervisor.create mach in
  let fair = Option.map (fun mk -> mk mach) mk_fair in
  let chans =
    List.init guests (fun i ->
        Net_channel.create ~mode:Net_channel.Flip ~demux_key:(i + 1) ())
  in
  let bridge =
    Hypervisor.create_domain h ~name:Bridge.name ~privileged:true ~weight:512
      (fun () -> Bridge.body mach ?mark_at ?port_capacity ?fair ~net:chans ())
  in
  let f = { fab_mach = mach; fab_tx = Apps.stats (); fab_arrivals = [] } in
  Option.iter (fun side -> side f h) side;
  let bodies = apps f in
  let pending = ref (List.length bodies) in
  List.iteri
    (fun i body ->
      ignore
        (Hypervisor.create_domain h
           ~name:(Printf.sprintf "guest%d" (i + 1))
           (Port_xen.guest_body mach ~net:(List.nth chans i, bridge)
              ~io_timeout:20_000_000L
              ~app:(fun () ->
                body ();
                decr pending))))
    bodies;
  ignore (Hypervisor.run h ~until:(fun () -> !pending = 0));
  ignore (Hypervisor.run h ~max_dispatches:100_000);
  f

let fabric_l4 ~guests ?mark_at ?side ~apps () =
  let mach = Machine.create ~seed:42L () in
  let k = Kernel.create mach in
  let net_tid =
    Kernel.spawn k ~name:"net-server" ~priority:2 ~account:Net_server.account
      (fun () -> Net_server.body mach ~vnet:true ())
  in
  let vnets, gks =
    List.split
      (List.init guests (fun i ->
           let port = i + 1 in
           let v = Port_l4.vnet ~mach ~port ?mark_at () in
           let retry = Port_l4.retry ~mach (Rng.split mach.Machine.rng) in
           ( v,
             Kernel.spawn k
               ~name:(Printf.sprintf "gk%d" port)
               ~priority:3 ~account:Port_l4.gk_account
               (Port_l4.guest_kernel_body ~retry ~vnet:v ~net:(Some net_tid)
                  ~blk:None) )))
  in
  (* Barrier: every guest kernel registered with the broker before any
     application transmits, so no destination resolves unknown (and
     lands in the negative cache) during boot. *)
  ignore
    (Kernel.run k ~until:(fun () ->
         Counter.get mach.Machine.counters "drv.net.vnet_attach" >= guests));
  let f = { fab_mach = mach; fab_tx = Apps.stats (); fab_arrivals = [] } in
  let bodies = apps f vnets in
  let pending = ref (List.length bodies) in
  List.iteri
    (fun i body ->
      ignore
        (Kernel.spawn k
           ~name:(Printf.sprintf "app%d" (i + 1))
           ~priority:4 ~account:"app"
           (Port_l4.app_body mach ~gk:(List.nth gks i) (fun () ->
                body ();
                decr pending))))
    bodies;
  Option.iter (fun side -> side f k ~net:net_tid) side;
  ignore (Kernel.run k ~until:(fun () -> !pending = 0));
  ignore (Kernel.run k ~max_dispatches:100_000);
  f

(* --- supervised driver stacks (E13, E18) --- *)

let supervision_period = 1_000_000L

type l4_supervised = {
  blk_svc : Svc.entry;
  net_svc : Svc.entry;
  watchdog : Watchdog.t;
}

let l4_supervised mach k =
  let spec name body () =
    { Sysif.name; priority = 2; same_space = false; pager = None; body }
  in
  let blk_body () = Blk_server.body mach () in
  let net_body () = Net_server.body mach () in
  let blk_tid =
    Kernel.spawn k ~name:"blk-server" ~priority:2 ~account:Blk_server.account
      blk_body
  in
  let net_tid =
    Kernel.spawn k ~name:"net-server" ~priority:2 ~account:Net_server.account
      net_body
  in
  let blk_svc = Svc.entry ~name:"blk" blk_tid in
  let net_svc = Svc.entry ~name:"net" net_tid in
  let watchdog = Watchdog.create () in
  ignore
    (Kernel.spawn k ~name:"watchdog" ~priority:1 ~account:"watchdog"
       (Watchdog.body mach watchdog ~period:supervision_period
          ~ping_timeout:200_000L
          [
            (blk_svc, spec "blk-server" blk_body);
            (net_svc, spec "net-server" net_body);
          ]));
  { blk_svc; net_svc; watchdog }

let l4_retry mach =
  Port_l4.retry ~mach ~attempts:8 ~timeout:1_000_000L ~base_delay:100_000L
    (Rng.split mach.Machine.rng)

let dom0_supervised mach h ~net ~blk =
  let make ~restart () =
    Dom0.body mach ~connect_timeout:10_000_000L ~generation:restart ~net ~blk ()
  in
  let dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true (make ~restart:0)
  in
  ( dom0,
    Hypervisor.supervise h ~name:Dom0.name ~privileged:true
      ~period:supervision_period ~make_body:make dom0 )
