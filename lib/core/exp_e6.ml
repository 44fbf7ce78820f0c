module Machine = Vmk_hw.Machine
module Addr = Vmk_hw.Addr
module Table = Vmk_stats.Table
module Kernel = Vmk_ukernel.Kernel
module Sysif = Vmk_ukernel.Sysif
module Net_server = Vmk_ukernel.Net_server
module Blk_server = Vmk_ukernel.Blk_server
module Pager = Vmk_ukernel.Pager
module Hypervisor = Vmk_vmm.Hypervisor
module Net_channel = Vmk_vmm.Net_channel
module Blk_channel = Vmk_vmm.Blk_channel
module Dom0 = Vmk_vmm.Dom0
module Parallax = Vmk_vmm.Parallax
module Port_xen = Vmk_guest.Port_xen
module Port_l4 = Vmk_guest.Port_l4
module Apps = Vmk_workloads.Apps
module Traffic = Vmk_workloads.Traffic

type fate = {
  participant : string;
  role : string;
  completed : int;
  errors : int;
  failed : bool;
}

let fate_of ~participant ~role ~goal (stats : Apps.stats) =
  {
    participant;
    role;
    completed = stats.Apps.completed;
    errors = stats.Apps.errors;
    failed = stats.Apps.errors > 0 || stats.Apps.completed < goal;
  }

(* --- VMM side: Dom0 + Parallax + three kinds of client --- *)

let vmm_blast_radius ~quick ~kill =
  let ops = if quick then 24 else 60 in
  (* The network client must still be running when the kill fires, well
     after the storage clients have made visible progress. *)
  let packets = if quick then 160 else 280 in
  let mach = Machine.create ~seed:21L () in
  let h = Hypervisor.create mach in
  let upstream = Blk_channel.create () in
  let storage_chans = [ Blk_channel.create (); Blk_channel.create () ] in
  let net_chan = Net_channel.create ~mode:Net_channel.Flip ~demux_key:1 () in
  let dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      (Dom0.body mach ~net:[ net_chan ] ~blk:[ upstream ])
  in
  let parallax =
    Hypervisor.create_domain h ~name:Parallax.name
      (Parallax.body mach ~clients:storage_chans ~upstream ~dom0)
  in
  let storage_stats = [ Apps.stats (); Apps.stats () ] in
  List.iteri
    (fun i (chan, stats) ->
      ignore
        (Hypervisor.create_domain h
           ~name:(Printf.sprintf "storage%d" i)
           (Port_xen.guest_body mach ~blk:(chan, parallax)
              ~app:(Apps.blk_mix ~stats ~ops ~span:24 ~seed:(100 + i) ()))))
    (List.combine storage_chans storage_stats);
  let net_stats = Apps.stats () in
  let net_ready = ref false in
  let _net_client =
    Hypervisor.create_domain h ~name:"netuser"
      (Port_xen.guest_body mach ~net:(net_chan, dom0)
         ~on_ready:(fun () -> net_ready := true)
         ~app:(Apps.net_rx_stream ~stats:net_stats ~packets ()))
  in
  let compute_stats = Apps.stats () in
  let _compute =
    Hypervisor.create_domain h ~name:"cruncher"
      (Port_xen.guest_body mach
         ~app:(Apps.compute ~stats:compute_stats ~iterations:(ops * 4) ~work:40_000 ()))
  in
  let _traffic =
    (* Offer twice the goal: an occasional wire drop must not look like a
       backend failure to the receiver. *)
    Traffic.constant_rate mach
      ~gate:(fun () -> !net_ready)
      ~period:150_000L ~len:512 ~count:(packets * 2) ()
  in
  (* Let everyone make progress, then pull the trigger. *)
  let progressed () =
    List.for_all (fun (s : Apps.stats) -> s.Apps.completed >= 6) storage_stats
    && net_stats.Apps.completed >= 4
  in
  ignore (Hypervisor.run h ~until:progressed);
  (match kill with
  | `Parallax -> Hypervisor.kill_domain h parallax
  | `Dom0 -> Hypervisor.kill_domain h dom0);
  ignore (Hypervisor.run h);
  List.mapi
    (fun i stats ->
      fate_of
        ~participant:(Printf.sprintf "storage%d" i)
        ~role:"parallax storage client" ~goal:ops stats)
    storage_stats
  @ [
      fate_of ~participant:"netuser" ~role:"dom0 network client" ~goal:packets
        net_stats;
      fate_of ~participant:"cruncher" ~role:"compute-only guest"
        ~goal:(ops * 4) compute_stats;
      {
        participant = Dom0.name;
        role = "driver super-VM";
        completed = 0;
        errors = 0;
        failed = not (Hypervisor.is_alive h dom0);
      };
      {
        participant = Parallax.name;
        role = "storage service VM";
        completed = 0;
        errors = 0;
        failed = not (Hypervisor.is_alive h parallax);
      };
    ]

(* --- microkernel side: driver servers, pager, clients --- *)

let l4_blast_radius ~quick ~kill =
  let ops = if quick then 24 else 60 in
  let packets = if quick then 160 else 280 in
  let mach = Machine.create ~seed:22L () in
  let k = Kernel.create mach in
  let net_tid =
    Kernel.spawn k ~name:"net-server" ~priority:2 ~account:Net_server.account
      (fun () -> Net_server.body mach ())
  in
  let blk_tid =
    Kernel.spawn k ~name:"blk-server" ~priority:2 ~account:Blk_server.account
      (fun () -> Blk_server.body mach ())
  in
  let pager_tid =
    (* Pool sized past the faulter's total demand: exhaustion is not the
       failure mode under test here. *)
    Kernel.spawn k ~name:"pager" ~priority:2
      (Pager.body ~pool_pages:((ops * 8) + 32))
  in
  let gk =
    Kernel.spawn k ~name:"guest-kernel" ~priority:3 ~account:Port_l4.gk_account
      (Port_l4.guest_kernel_body ~net:(Some net_tid) ~blk:(Some blk_tid))
  in
  let storage_stats = [ Apps.stats (); Apps.stats () ] in
  List.iteri
    (fun i stats ->
      ignore
        (Kernel.spawn k
           ~name:(Printf.sprintf "storage%d" i)
           ~account:(Printf.sprintf "storage%d" i)
           (Port_l4.app_body mach ~gk
              (Apps.blk_mix ~stats ~base:(i * 4096) ~ops ~span:24
                 ~seed:(100 + i) ()))))
    storage_stats;
  let net_stats = Apps.stats () in
  let _net_app =
    Kernel.spawn k ~name:"netuser" ~account:"netuser"
      (Port_l4.app_body mach ~gk
         (Apps.net_rx_stream ~stats:net_stats ~packets ()))
  in
  let compute_stats = Apps.stats () in
  let _compute =
    Kernel.spawn k ~name:"cruncher" ~account:"cruncher"
      (Port_l4.app_body mach ~gk
         (Apps.compute ~stats:compute_stats ~iterations:(ops * 4) ~work:40_000 ()))
  in
  (* A client of the pager: touches fresh pages, faulting on each. *)
  let pager_client_completed = ref 0 and pager_client_errors = ref 0 in
  let _pager_client =
    (* Paced so it is still faulting when the kill fires. *)
    Kernel.spawn k ~name:"faulter" ~pager:pager_tid ~account:"faulter" (fun () ->
        for i = 0 to (ops * 8) - 1 do
          Sysif.burn 20_000;
          match
            Sysif.touch ~addr:(Addr.of_vpn (0x4000 + i)) ~len:8 ~write:true
          with
          | () -> incr pager_client_completed
          | exception Sysif.Ipc_error _ -> incr pager_client_errors
        done)
  in
  let _traffic =
    Traffic.constant_rate mach
      ~gate:(fun () -> Vmk_hw.Nic.rx_buffers_posted mach.Machine.nic > 0)
      ~period:150_000L ~len:512 ~count:(packets * 2) ()
  in
  let progressed () =
    List.for_all (fun (s : Apps.stats) -> s.Apps.completed >= 6) storage_stats
    && net_stats.Apps.completed >= 4
    && !pager_client_completed >= 6
  in
  ignore (Kernel.run k ~until:progressed);
  (match kill with
  | `Blk_server -> Kernel.kill k blk_tid
  | `Pager -> Kernel.kill k pager_tid);
  ignore (Kernel.run k);
  List.mapi
    (fun i stats ->
      fate_of
        ~participant:(Printf.sprintf "storage%d" i)
        ~role:"blk-server client" ~goal:ops stats)
    storage_stats
  @ [
      fate_of ~participant:"netuser" ~role:"net-server client" ~goal:packets
        net_stats;
      fate_of ~participant:"cruncher" ~role:"compute-only thread"
        ~goal:(ops * 4) compute_stats;
      {
        participant = "faulter";
        role = "pager client";
        completed = !pager_client_completed;
        errors = !pager_client_errors;
        failed = !pager_client_errors > 0;
      };
      {
        participant = "guest-kernel";
        role = "OS server";
        completed = 0;
        errors = 0;
        failed = not (Kernel.is_alive k gk);
      };
      {
        participant = "net-server";
        role = "driver server";
        completed = 0;
        errors = 0;
        failed = not (Kernel.is_alive k net_tid);
      };
    ]

(* --- reporting --- *)

let fate_table title fates =
  let table =
    Table.create ~header:[ "participant"; "role"; "completed"; "errors"; "fate" ]
  in
  List.iter
    (fun f ->
      Table.add_row table
        [
          f.participant;
          f.role;
          string_of_int f.completed;
          string_of_int f.errors;
          (if f.failed then "FAILED" else "survived");
        ])
    fates;
  (title, table)

let failed_set fates =
  List.filter_map (fun f -> if f.failed then Some f.participant else None) fates

let run ~quick =
  let parallax_kill = vmm_blast_radius ~quick ~kill:`Parallax in
  let blk_kill = l4_blast_radius ~quick ~kill:`Blk_server in
  let pager_kill = l4_blast_radius ~quick ~kill:`Pager in
  let vmm_failed = failed_set parallax_kill in
  let l4_failed = failed_set blk_kill in
  let pager_failed = failed_set pager_kill in
  {
    Experiment.tables =
      [
        fate_table "VMM stack: Parallax killed mid-run" parallax_kill;
        fate_table "Microkernel stack: blk server killed mid-run" blk_kill;
        fate_table "Microkernel stack: pager killed mid-run" pager_kill;
      ];
    verdicts =
      [
        Experiment.verdict
          ~claim:"a Parallax failure only affects its clients (§3.1)"
          ~expected:
            "exactly {storage0, storage1, parallax} fail; network, compute \
             and Dom0 survive"
          ~measured:(String.concat ", " vmm_failed)
          (List.sort compare vmm_failed
          = [ "parallax"; "storage0"; "storage1" ]);
        Experiment.verdict
          ~claim:
            "exactly the same situation as if a server fails in an L4-based \
             system (§3.1)"
          ~expected:"the same blast-radius pattern: storage clients only"
          ~measured:(String.concat ", " l4_failed)
          (List.sort compare l4_failed = [ "storage0"; "storage1" ]);
        Experiment.verdict
          ~claim:"external pagers confine their failures the same way"
          ~expected:"killing the pager fails only its faulting client"
          ~measured:(String.concat ", " pager_failed)
          (pager_failed = [ "faulter" ]);
      ];
  }

let experiment =
  {
    Experiment.id = "e6";
    title = "Liability inversion: failure blast radius in both stacks";
    paper_claim =
      "§3.1: 'a failure of the Parallax server only affects its clients — \
       exactly the same situation as if a server fails in an L4-based \
       system. Hence, we fail to see the difference between a VMM and a \
       microkernel in this respect.'";
    run;
  }

let run_ablation ~quick =
  let parallax_kill = vmm_blast_radius ~quick ~kill:`Parallax in
  let dom0_kill = vmm_blast_radius ~quick ~kill:`Dom0 in
  let clients = [ "storage0"; "storage1"; "netuser"; "cruncher" ] in
  let failed_clients fates =
    List.filter (fun name -> List.mem name (failed_set fates)) clients
  in
  let parallax_radius = failed_clients parallax_kill in
  let dom0_radius = failed_clients dom0_kill in
  {
    Experiment.tables =
      [
        fate_table "Disaggregated service (Parallax) killed" parallax_kill;
        fate_table "Consolidated super-VM (Dom0) killed" dom0_kill;
      ];
    verdicts =
      [
        Experiment.verdict
          ~claim:
            "a consolidated super-VM 'poses the risk of a single point of \
             failure' (§2.2)"
          ~expected:
            "killing Dom0 fails every I/O client (storage via the parallax \
             chain and network), strictly more than killing Parallax"
          ~measured:
            (Printf.sprintf "dom0 kill: {%s}; parallax kill: {%s}"
               (String.concat ", " dom0_radius)
               (String.concat ", " parallax_radius))
          (List.length dom0_radius > List.length parallax_radius
          && List.mem "netuser" dom0_radius
          && List.mem "storage0" dom0_radius
          && not (List.mem "cruncher" dom0_radius));
      ];
  }

let ablation =
  {
    Experiment.id = "a3";
    title = "Ablation: consolidated Dom0 vs disaggregated service domain";
    paper_claim =
      "§2.2: 'centralized super-VMs that combine and colocate significant \
       critical system functionality … potentially decreases overall \
       reliability and poses the risk of a single point of failure.'";
    run = run_ablation;
  }
