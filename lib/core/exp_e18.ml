module Machine = Vmk_hw.Machine
module Nic = Vmk_hw.Nic
module Counter = Vmk_trace.Counter
module Accounts = Vmk_trace.Accounts
module Table = Vmk_stats.Table
module Kernel = Vmk_ukernel.Kernel
module Svc = Vmk_ukernel.Svc
module Watchdog = Vmk_ukernel.Watchdog
module Cluster = Vmk_ukernel.Smp_cluster
module Hypervisor = Vmk_vmm.Hypervisor
module Net_channel = Vmk_vmm.Net_channel
module Blk_channel = Vmk_vmm.Blk_channel
module Dom0 = Vmk_vmm.Dom0
module Driver_dom = Vmk_vmm.Driver_dom
module Bridge = Vmk_vmm.Bridge
module Svmm = Vmk_vmm.Smp_vmm
module Port_xen = Vmk_guest.Port_xen
module Port_l4 = Vmk_guest.Port_l4
module Apps = Vmk_workloads.Apps
module Traffic = Vmk_workloads.Traffic
module Faults = Vmk_faults.Faults

(* Three concurrent I/O flows ride across a mid-run driver kill: NIC
   receive (netfront <- netback), storage (blkfront <- blkback) and an
   inter-guest vnet pair through the E17 bridge. Monolithic mode hosts
   net + blk in one Dom0 and kills Dom0; disaggregated mode hosts each
   backend in its own driver domain under a thin toolstack and kills
   only the netback domain. The blast radius is whatever stalls. *)
let kill_at = 4_000_000L
let sup_period = Scenario.supervision_period
let connect_timeout = 10_000_000L
let net_period = 200_000L
let packet_len = 512
let vnet_pace = 250_000
let settle = 50_000

type xmode = Monolithic | Disaggregated

type bres = {
  b_label : string;
  b_target : string;  (** Who the fault plan killed ("-" if nobody). *)
  b_blk_completed : int;
  b_blk_lost : int;
  b_blk_stall : int64;  (** Max gap between successful block ops. *)
  b_blk_recovery : int64 option;
  b_net_rx : int;
  b_net_post : int;  (** Packets that arrived after the kill. *)
  b_net_stall : int64;  (** Max inter-arrival gap on the NIC path. *)
  b_net_recovery : int64 option;
  b_vnet_rx : int;
  b_vnet_stall : int64;  (** Max inter-arrival gap on the bridge path. *)
  b_restarts : int;  (** Supervisor restarts / toolstack rebuilds. *)
  b_reconnects : int;  (** Frontends dragged through reconnect. *)
  b_net_generation : int;
  b_finished : bool;
  b_digest : string;
}

let max_gap times =
  let rec go prev acc = function
    | [] -> acc
    | t :: rest -> go t (max acc (Int64.sub t prev)) rest
  in
  match times with [] -> 0L | t :: rest -> go t 0L rest

let first_after at times =
  List.find_map
    (fun t -> if Int64.compare t at > 0 then Some (Int64.sub t at) else None)
    times

(* One blast-radius run reduced to its measurements. [net] and [vnet]
   arrive as recorded (tag, time) pairs, [blk] as the op log newest
   first. The digest covers the machine, the injected count, the
   outcome and every arrival and op-log entry. *)
let bres_of mach ~label ~target ~kill ~(stats : Apps.stats) ~injected ~net ~blk
    ~vnet ~restarts ~reconnects ~generation ~finished =
  let net = List.sort compare net in
  let blk = List.rev blk in
  let vnet = List.sort compare vnet in
  let net_times = List.map snd net in
  let blk_ok_times = List.filter_map (fun (t, ok) -> if ok then Some t else None) blk in
  {
    b_label = label;
    b_target = (if kill then target else "-");
    b_blk_completed = stats.completed;
    b_blk_lost = stats.errors;
    b_blk_stall = max_gap blk_ok_times;
    b_blk_recovery = (if kill then first_after kill_at blk_ok_times else None);
    b_net_rx = List.length net;
    b_net_post =
      List.length (List.filter (fun t -> Int64.compare t kill_at > 0) net_times);
    b_net_stall = max_gap net_times;
    b_net_recovery = (if kill then first_after kill_at net_times else None);
    b_vnet_rx = List.length vnet;
    b_vnet_stall = max_gap (List.map snd vnet);
    b_restarts = restarts;
    b_reconnects = reconnects;
    b_net_generation = generation;
    b_finished = finished;
    b_digest =
      Machine.digest mach
        (Printf.sprintf "injected %d blk %d/%d restarts %d generation %d %b"
           injected stats.completed stats.errors restarts generation finished
         :: Scenario.arrival_lines net
        @ List.map (fun (t, ok) -> Printf.sprintf "blk %Ld %b" t ok) blk
        @ List.map (fun (tag, at) -> Printf.sprintf "vnet %d %Ld" tag at) vnet);
  }

(* What the toolstack / supervisor / watchdog side of one run looks like
   to the measurement code, independent of how the backends are hosted. *)
type ctl = {
  c_target : string;
  c_kill : string -> unit;
  c_stop : unit -> unit;
  c_restarts : unit -> int;
  c_net_generation : unit -> int;
}

(* --- the Xen-style stack, monolithic or disaggregated --- *)

let xen_run ~quick ~mode ~kill =
  let ops = if quick then 16 else 32 in
  let packets = if quick then 24 else 48 in
  let vnet_count = if quick then 24 else 40 in
  let seed = match mode with Monolithic -> 61L | Disaggregated -> 62L in
  let mach = Machine.create ~seed () in
  let h = Hypervisor.create mach in
  let nchan = Net_channel.create ~mode:Net_channel.Flip ~demux_key:1 () in
  let bchan = Blk_channel.create () in
  let vnet_arrivals = ref [] in
  let vnet_done = ref false in
  let ctl, net_backend, blk_backend, has_vnet =
    match mode with
    | Monolithic ->
        let dom0, sup =
          Scenario.dom0_supervised mach h ~net:[ nchan ] ~blk:[ bchan ]
        in
        ( {
            c_target = Dom0.name;
            c_kill =
              (fun target ->
                if target = Dom0.name then
                  Hypervisor.kill_domain h (Hypervisor.supervised_domid sup));
            c_stop = (fun () -> Hypervisor.stop_supervisor sup);
            c_restarts =
              (fun () -> List.length (Hypervisor.restarts sup));
            c_net_generation =
              (fun () -> List.length (Hypervisor.restarts sup));
          },
          dom0,
          dom0,
          false )
    | Disaggregated ->
        let ts = Driver_dom.create () in
        let vchan_a = Net_channel.create ~mode:Net_channel.Flip ~demux_key:2 () in
        let vchan_b = Net_channel.create ~mode:Net_channel.Flip ~demux_key:3 () in
        let specs =
          [
            Driver_dom.spec ~name:Driver_dom.net_name (fun ~restart () ->
                Driver_dom.net_body mach ~connect_timeout ~generation:restart
                  ~net:[ nchan ] ());
            Driver_dom.spec ~name:Driver_dom.blk_name (fun ~restart () ->
                Driver_dom.blk_body mach ~connect_timeout ~generation:restart
                  ~blk:[ bchan ] ());
            (* The bridge holds no device, so it keeps no IRQ privilege:
               disaggregation shrinks each component to what it uses. *)
            Driver_dom.spec ~name:Bridge.name ~privileged:false ~weight:512
              (fun ~restart () ->
                Bridge.body mach ~connect_timeout ~generation:restart
                  ~net:[ vchan_a; vchan_b ] ());
          ]
        in
        let _toolstack =
          Hypervisor.create_domain h ~name:Driver_dom.toolstack_name
            ~privileged:true
            (Driver_dom.toolstack_body mach ts ~period:sup_period specs)
        in
        ignore (Hypervisor.run h ~until:(fun () -> Driver_dom.built ts));
        let domid name = Option.get (Driver_dom.domid ts name) in
        let bridge_dom = domid Bridge.name in
        let _vsend =
          Hypervisor.create_domain h ~name:"vsend"
            (Port_xen.guest_body mach ~net:(vchan_a, bridge_dom)
               ~app:
                 (Apps.net_tx_stream ~settle ~pace:vnet_pace ~src:2 ~dst:3
                    ~packets:vnet_count ~len:packet_len ()))
        in
        let _vrecv =
          Hypervisor.create_domain h ~name:"vrecv"
            (Port_xen.guest_body mach ~net:(vchan_b, bridge_dom)
               ~app:(fun () ->
                 Apps.net_rx_probe
                   ~now:(fun () -> Machine.now mach)
                   ~record:(fun ~tag ~at ->
                     vnet_arrivals := (tag, at) :: !vnet_arrivals)
                   ~packets:vnet_count () ();
                 vnet_done := true))
        in
        ( {
            c_target = Driver_dom.net_name;
            c_kill =
              (fun target ->
                match Driver_dom.domid ts target with
                | Some d -> Hypervisor.kill_domain h d
                | None -> ());
            c_stop = (fun () -> Driver_dom.stop ts);
            c_restarts = (fun () -> List.length (Driver_dom.restarts ts));
            c_net_generation =
              (fun () ->
                Option.value ~default:0
                  (Driver_dom.generation ts Driver_dom.net_name));
          },
          domid Driver_dom.net_name,
          domid Driver_dom.blk_name,
          true )
  in
  let ready = ref false in
  let net_done = ref false and blk_done = ref false in
  let arrivals = ref [] in
  let blk_log = ref [] in
  let blk_stats = Apps.stats () in
  let _netguest =
    Hypervisor.create_domain h ~name:"netguest"
      (Port_xen.guest_body mach ~net:(nchan, net_backend) ~resilient:true
         ~io_timeout:1_500_000L
         ~on_ready:(fun () -> ready := true)
         ~app:(fun () ->
           Apps.net_rx_probe
             ~now:(fun () -> Machine.now mach)
             ~record:(fun ~tag ~at -> arrivals := (tag, at) :: !arrivals)
             ~packets () ();
           net_done := true))
  in
  let _blkguest =
    Hypervisor.create_domain h ~name:"blkguest"
      (Port_xen.guest_body mach ~blk:(bchan, blk_backend) ~resilient:true
         ~io_timeout:1_000_000L
         ~app:(fun () ->
           Apps.blk_retry_stream ~stats:blk_stats
             ~now:(fun () -> Machine.now mach)
             ~log:(fun entry -> blk_log := entry :: !blk_log)
             ~ops ~span:24 ~seed:7 ~pace:150_000 () ();
           blk_done := true))
  in
  let source =
    Traffic.constant_rate mach
      ~gate:(fun () -> !ready)
      ~period:net_period ~len:packet_len ~count:packets ()
  in
  let plan = if kill then [ Faults.Kill_at { at = kill_at; target = ctl.c_target } ] else [] in
  let armed = Faults.arm plan mach ~kill:ctl.c_kill in
  let finished () =
    !net_done && !blk_done && ((not has_vnet) || !vnet_done)
  in
  ignore (Hypervisor.run h ~until:finished);
  ctl.c_stop ();
  ignore (Hypervisor.run h);
  Faults.disarm armed mach;
  let label =
    match mode with Monolithic -> "xen/monolithic" | Disaggregated -> "xen/driver-domains"
  in
  bres_of mach ~label ~target:ctl.c_target ~kill ~stats:blk_stats
    ~injected:(Traffic.injected source) ~net:!arrivals ~blk:!blk_log
    ~vnet:!vnet_arrivals ~restarts:(ctl.c_restarts ())
    ~reconnects:(Counter.get mach.Machine.counters "xen.reconnects")
    ~generation:(ctl.c_net_generation ()) ~finished:(finished ())

(* --- the microkernel stack: same flows, net server killed --- *)

let l4_run ~quick ~kill =
  let ops = if quick then 16 else 32 in
  let packets = if quick then 24 else 48 in
  let mach = Machine.create ~seed:63L () in
  let k = Kernel.create mach in
  let sv = Scenario.l4_supervised mach k in
  (* One guest kernel per client: the block client's syscall path shares
     nothing with the net path but the microkernel itself. *)
  let gk_net =
    Kernel.spawn k ~name:"gk-net" ~priority:3 ~account:Port_l4.gk_account
      (Port_l4.guest_kernel_body ~retry:(Scenario.l4_retry mach)
         ~net_svc:sv.net_svc ~net:(Some (Svc.tid sv.net_svc)) ~blk:None)
  in
  let gk_blk =
    Kernel.spawn k ~name:"gk-blk" ~priority:3 ~account:Port_l4.gk_account
      (Port_l4.guest_kernel_body ~retry:(Scenario.l4_retry mach)
         ~blk_svc:sv.blk_svc ~net:None ~blk:(Some (Svc.tid sv.blk_svc)))
  in
  let net_done = ref false and blk_done = ref false in
  let arrivals = ref [] in
  let blk_log = ref [] in
  let blk_stats = Apps.stats () in
  let _netapp =
    Kernel.spawn k ~name:"netapp" ~priority:4 ~account:"netapp"
      (Port_l4.app_body mach ~gk:gk_net (fun () ->
           Apps.net_rx_probe
             ~now:(fun () -> Machine.now mach)
             ~record:(fun ~tag ~at -> arrivals := (tag, at) :: !arrivals)
             ~packets () ();
           net_done := true))
  in
  let _blkapp =
    Kernel.spawn k ~name:"blkapp" ~priority:4 ~account:"blkapp"
      (Port_l4.app_body mach ~gk:gk_blk (fun () ->
           Apps.blk_retry_stream ~stats:blk_stats
             ~now:(fun () -> Machine.now mach)
             ~log:(fun entry -> blk_log := entry :: !blk_log)
             ~ops ~span:24 ~seed:7 ~pace:150_000 () ();
           blk_done := true))
  in
  let up = ref false in
  let gate () =
    if !up then true
    else if Nic.rx_buffers_posted mach.Machine.nic > 0 then begin
      up := true;
      true
    end
    else false
  in
  let source =
    Traffic.constant_rate mach ~gate ~period:net_period ~len:packet_len
      ~count:packets ()
  in
  let plan =
    if kill then [ Faults.Kill_at { at = kill_at; target = "net-server" } ]
    else []
  in
  let armed =
    Faults.arm plan mach ~kill:(fun target ->
        if target = "net-server" then Kernel.kill k (Svc.tid sv.net_svc))
  in
  ignore (Kernel.run k ~until:(fun () -> !net_done && !blk_done));
  Watchdog.stop sv.watchdog;
  ignore (Kernel.run k);
  Faults.disarm armed mach;
  (* Respawns are recorded under the registry entry's name. *)
  let respawns =
    List.length
      (List.filter (fun (name, _) -> name = "net")
         (Watchdog.respawns sv.watchdog))
  in
  bres_of mach ~label:"l4/multi-server" ~target:"net-server" ~kill
    ~stats:blk_stats ~injected:(Traffic.injected source) ~net:!arrivals
    ~blk:!blk_log ~vnet:[] ~restarts:respawns
    ~reconnects:(Counter.get mach.Machine.counters "l4.retries")
    ~generation:respawns ~finished:(!net_done && !blk_done)

(* --- the E10 TCB rerun: who serves a lone storage client --- *)

(* Literature size estimates (kLoC), same basis as E10: Xen 2 core ~70
   [BDF+03], monolithic Dom0 a 2 MLoC legacy OS [CYC+01]. A driver
   domain runs a mini-OS-class kernel plus one driver (~75), the
   toolstack is xend-class domain-building code (~30). Only the ratios
   are meaningful. *)
let kloc_of = function
  | "vmm" -> 70
  | "dom0" -> 2_000
  | "toolstack" -> 30
  | "blkdrv" -> 75
  | "netdrv" -> 80
  | "bridge" -> 70
  | _ -> 0

let defects_per_kloc = 5

let reliance accounts ~client_accounts =
  accounts
  |> List.filter (fun (name, cycles) ->
         Int64.compare cycles 0L > 0
         && (not (List.mem name client_accounts))
         && name <> "idle")
  |> List.map fst |> List.sort compare

let tcb_run ~quick ~mode =
  let ops = if quick then 20 else 60 in
  let seed = match mode with Monolithic -> 65L | Disaggregated -> 66L in
  let mach = Machine.create ~seed () in
  let h = Hypervisor.create mach in
  let chan = Blk_channel.create () in
  let done_ = ref false in
  let spawn_client backend =
    ignore
      (Hypervisor.create_domain h ~name:"client"
         (Port_xen.guest_body mach ~blk:(chan, backend)
            ~app:(fun () ->
              Apps.blk_mix ~ops ~span:16 ~seed:7 () ();
              done_ := true)))
  in
  (match mode with
  | Monolithic ->
      let dom0 =
        Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
          (Dom0.body mach ~blk:[ chan ])
      in
      spawn_client dom0;
      ignore (Hypervisor.run h ~until:(fun () -> !done_))
  | Disaggregated ->
      let ts = Driver_dom.create () in
      let specs =
        [
          Driver_dom.spec ~name:Driver_dom.blk_name (fun ~restart () ->
              Driver_dom.blk_body mach ~connect_timeout ~generation:restart
                ~blk:[ chan ] ());
        ]
      in
      let _toolstack =
        Hypervisor.create_domain h ~name:Driver_dom.toolstack_name
          ~privileged:true
          (Driver_dom.toolstack_body mach ts ~period:sup_period specs)
      in
      ignore (Hypervisor.run h ~until:(fun () -> Driver_dom.built ts));
      spawn_client (Option.get (Driver_dom.domid ts Driver_dom.blk_name));
      ignore (Hypervisor.run h ~until:(fun () -> !done_));
      Driver_dom.stop ts;
      ignore (Hypervisor.run h));
  let infra =
    reliance (Accounts.to_list mach.Machine.accounts) ~client_accounts:[ "client" ]
  in
  let kloc = List.fold_left (fun acc n -> acc + kloc_of n) 0 infra in
  (infra, kloc)

(* --- the E14 storm with a fixed driver-domain fleet --- *)

let fleet_size = 3
let smp_uk = Scenario.Smp_uk Cluster.Pinned
let smp_dom0 = Scenario.Smp_vmm Svmm.Single_dom0
let smp_percore = Scenario.Smp_vmm Svmm.Driver_domains
let smp_fleet = Scenario.Smp_vmm (Svmm.Fixed_domains fleet_size)
let smp_kinds = [ smp_uk; smp_dom0; smp_percore; smp_fleet ]

let smp_label = function
  | Scenario.Smp_vmm Svmm.Driver_domains -> "vmm/per-core-drivers"
  | kind -> Scenario.smp_label kind

(* --- reporting --- *)

let show_latency = function
  | Some l -> Printf.sprintf "%Ld" l
  | None -> "-"

let blast_table rows =
  let table =
    Table.create
      ~header:
        [
          "stack";
          "killed";
          "blk ok";
          "blk lost";
          "blk stall";
          "blk recovery";
          "net rx";
          "net stall";
          "net recovery";
          "vnet rx";
          "vnet stall";
          "restarts";
          "reconnects";
          "finished";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.b_label;
          r.b_target;
          string_of_int r.b_blk_completed;
          string_of_int r.b_blk_lost;
          Int64.to_string r.b_blk_stall;
          show_latency r.b_blk_recovery;
          string_of_int r.b_net_rx;
          Int64.to_string r.b_net_stall;
          show_latency r.b_net_recovery;
          string_of_int r.b_vnet_rx;
          Int64.to_string r.b_vnet_stall;
          string_of_int r.b_restarts;
          string_of_int r.b_reconnects;
          (if r.b_finished then "yes" else "NO");
        ])
    rows;
  table

let run ~quick =
  let ops = if quick then 16 else 32 in
  let packets = if quick then 24 else 48 in
  let vnet_count = if quick then 24 else 40 in
  (* Blast-radius runs. *)
  let disagg_base = xen_run ~quick ~mode:Disaggregated ~kill:false in
  let disagg = xen_run ~quick ~mode:Disaggregated ~kill:true in
  let mono = xen_run ~quick ~mode:Monolithic ~kill:true in
  let l4 = l4_run ~quick ~kill:true in
  (* TCB rerun. *)
  let mono_infra, mono_kloc = tcb_run ~quick ~mode:Monolithic in
  let disagg_infra, disagg_kloc = tcb_run ~quick ~mode:Disaggregated in
  (* Storm. *)
  let storm_packets = if quick then 240 else 640 in
  let core_counts = [ 1; 2; 4; 8 ] in
  let storm =
    List.map
      (fun cores ->
        ( cores,
          List.map
            (fun kind ->
              (kind, Scenario.run_smp ~seed:18L kind ~cores ~packets:storm_packets))
            smp_kinds ))
      core_counts
  in
  let tput ~cores ~kind =
    Scenario.throughput (List.assoc kind (List.assoc cores storm))
  in
  let scale kind = tput ~cores:8 ~kind /. tput ~cores:1 ~kind in
  (* Tables. *)
  let tcb_table =
    let t =
      Table.create
        ~header:
          [ "structure"; "measured reliance set"; "infra kLoC (lit.)"; "est. defects" ]
    in
    Table.add_row t
      [
        "xen (monolithic dom0)";
        String.concat " + " mono_infra;
        string_of_int mono_kloc;
        string_of_int (mono_kloc * defects_per_kloc);
      ];
    Table.add_row t
      [
        "xen (driver domains)";
        String.concat " + " disagg_infra;
        string_of_int disagg_kloc;
        string_of_int (disagg_kloc * defects_per_kloc);
      ];
    t
  in
  let storm_table =
    let t =
      Table.create
        ~header:
          ("cores" :: List.map (fun k -> smp_label k ^ " pkt/Mcyc") smp_kinds)
    in
    List.iter
      (fun (cores, row) ->
        Table.add_row t
          (string_of_int cores
          :: List.map (fun (_, r) -> Table.cellf "%.1f" (Scenario.throughput r)) row))
      storm;
    t
  in
  (* Verdicts. *)
  let clean r =
    r.b_finished && r.b_blk_completed = ops && r.b_blk_lost = 0
    && r.b_net_rx = packets && r.b_restarts = 0
  in
  let unaffected_blk r =
    r.b_blk_completed = ops && r.b_blk_lost = 0
    && Int64.compare r.b_blk_stall sup_period < 0
  in
  let show_stalls r =
    Printf.sprintf "%s: blk %d/%d ok, stall %Ld; net stall %Ld; %d restarts"
      r.b_label r.b_blk_completed ops r.b_blk_stall r.b_net_stall r.b_restarts
  in
  let recovery_ok r =
    r.b_finished && r.b_restarts >= 1 && r.b_net_generation >= 1
    && r.b_net_rx = packets
    && r.b_net_post > 0
    && match r.b_net_recovery with Some l -> Int64.compare l 0L > 0 | None -> false
  in
  (* Recovery on either Xen variant is detection-bounded: the frontend
     cannot notice the backend died before its io_timeout, and the
     supervisor/toolstack polls on sup_period. Restarting one driver
     domain must land in the same window as restarting all of Dom0 —
     anything slower would mean disaggregation taxed recovery. *)
  let detection_bound = Int64.add 1_500_000L sup_period in
  let within_window a b =
    match (a, b) with
    | Some a, Some b ->
        Int64.compare a detection_bound <= 0
        && Int64.compare b detection_bound <= 0
        && Int64.compare (Int64.abs (Int64.sub a b)) (Int64.div sup_period 2L)
           <= 0
    | _ -> false
  in
  {
    Experiment.tables =
      [
        ( "Blast radius: net backend killed at 4M cycles, everything else \
           watching",
          blast_table [ disagg_base; disagg; mono; l4 ] );
        ("Per-client storage TCB, monolithic vs disaggregated", tcb_table);
        ("E14 storm with driver-domain placement (pkt/Mcyc)", storm_table);
        Experiment.digests
          [ (disagg_base.b_label ^ ", no kill", disagg_base.b_digest) ];
      ];
    verdicts =
      [
        Experiment.verdict
          ~claim:"the disaggregated stack is a working I/O fabric"
          ~expected:
            (Printf.sprintf
               "fault-free: %d net, %d blk, %d vnet ops complete across 3 \
                driver domains, no restarts"
               packets ops vnet_count)
          ~measured:
            (Printf.sprintf "net %d/%d, blk %d/%d, vnet %d/%d, %d restarts"
               disagg_base.b_net_rx packets disagg_base.b_blk_completed ops
               disagg_base.b_vnet_rx vnet_count disagg_base.b_restarts)
          (clean disagg_base && disagg_base.b_vnet_rx = vnet_count);
        Experiment.verdict
          ~claim:
            "killing the netback driver domain leaves block I/O and \
             non-dependent guests serving (§3.1 blast radius, now on the VMM \
             stack)"
          ~expected:
            "disaggregated: blk completes with no loss and stall < the 1M \
             supervision period; the vnet pair through the bridge delivers \
             everything"
          ~measured:
            (Printf.sprintf "blk %d/%d lost %d stall %Ld; vnet %d/%d stall %Ld"
               disagg.b_blk_completed ops disagg.b_blk_lost disagg.b_blk_stall
               disagg.b_vnet_rx vnet_count disagg.b_vnet_stall)
          (disagg.b_finished && unaffected_blk disagg
          && disagg.b_vnet_rx = vnet_count
          && Int64.compare disagg.b_vnet_stall sup_period < 0);
        Experiment.verdict
          ~claim:"the blast radius is strictly smaller than monolithic Dom0's"
          ~expected:
            "monolithic kill stalls the block path > 1M cycles and forces \
             both frontends through reconnect; disaggregated stalls blk less \
             than half that and reconnects only the net frontend"
          ~measured:
            (Printf.sprintf "%s | %s | reconnects %d vs %d"
               (show_stalls mono) (show_stalls disagg) mono.b_reconnects
               disagg.b_reconnects)
          (Int64.compare mono.b_blk_stall sup_period > 0
          && Int64.compare (Int64.mul disagg.b_blk_stall 2L) mono.b_blk_stall
             <= 0
          && mono.b_reconnects >= 2
          && disagg.b_reconnects = 1);
        Experiment.verdict
          ~claim:
            "the toolstack rebuilds the dead driver domain and the \
             generation-keyed reconnect recovers the net path in the same \
             detection-bounded window as restarting all of Dom0"
          ~expected:
            "disaggregated: 1 rebuild, netdrv generation 1, all packets \
             arrive, and both recoveries land within io_timeout + \
             sup_period of the kill, within sup_period/2 of each other"
          ~measured:
            (Printf.sprintf
               "rebuilds %d, generation %d, net %d/%d (%d post-kill), \
                recovery %s vs mono %s"
               disagg.b_restarts disagg.b_net_generation disagg.b_net_rx
               packets disagg.b_net_post
               (show_latency disagg.b_net_recovery)
               (show_latency mono.b_net_recovery))
          (recovery_ok disagg && disagg.b_restarts = 1
          && recovery_ok mono
          && within_window disagg.b_net_recovery mono.b_net_recovery);
        Experiment.verdict
          ~claim:
            "the microkernel shows the same shape: a killed net server is \
             respawned while the block client never notices (§3.1: 'exactly \
             the same situation as if a server fails in an L4-based system')"
          ~expected:
            "l4: watchdog respawns net-server, net client recovers, blk \
             client completes with no loss and stall < 1M"
          ~measured:
            (Printf.sprintf "respawns %d, net %d/%d recovery %s; blk %d/%d \
                             stall %Ld"
               l4.b_restarts l4.b_net_rx packets
               (show_latency l4.b_net_recovery) l4.b_blk_completed ops
               l4.b_blk_stall)
          (recovery_ok l4 && unaffected_blk l4);
        Experiment.verdict
          ~claim:
            "disaggregation finally shrinks the per-client TCB (E10 rerun: \
             Parallax could not, because Dom0 stayed on the path)"
          ~expected:
            "the storage client's reliance set swaps dom0 for \
             toolstack+blkdrv, >= 10x fewer kLoC"
          ~measured:
            (Printf.sprintf "{%s} %d kLoC vs {%s} %d kLoC"
               (String.concat ", " mono_infra)
               mono_kloc
               (String.concat ", " disagg_infra)
               disagg_kloc)
          (List.mem "dom0" mono_infra
          && (not (List.mem "dom0" disagg_infra))
          && List.mem "blkdrv" disagg_infra
          && List.mem "toolstack" disagg_infra
          && disagg_kloc * 10 <= mono_kloc);
        Experiment.verdict
          ~claim:
            "driver-domain placement lets the VMM stack track the \
             multi-server scaling curve in the E14 storm"
          ~expected:
            "per-core driver domains scale >= 70% of uk/pinned's 8-core \
             speedup; even a fixed 3-domain fleet beats single-dom0 at 8 \
             cores"
          ~measured:
            (Printf.sprintf
               "8-core speedups: uk %.2fx, per-core %.2fx, fleet %.2fx, \
                dom0 %.2fx"
               (scale smp_uk) (scale smp_percore) (scale smp_fleet)
               (scale smp_dom0))
          (scale smp_percore >= 0.7 *. scale smp_uk
          && tput ~cores:8 ~kind:smp_fleet > tput ~cores:8 ~kind:smp_dom0
          && scale smp_fleet > scale smp_dom0);
      ];
  }

let experiment =
  {
    Experiment.id = "e18";
    title = "Driver domains: disaggregating Dom0 and measuring the blast radius";
    paper_claim =
      "§3.1 argues a driver failure under a VMM 'only affects its clients — \
       exactly the same situation as if a server fails in an L4-based \
       system.' That only holds once Dom0 is disaggregated: E18 splits the \
       monolithic Dom0 into per-device driver domains under a thin \
       toolstack, kills the netback domain mid-storm, and measures what \
       else stalls — plus the E10 TCB and E14 scaling consequences the \
       paper predicts for this structure.";
    run;
  }
