module Machine = Vmk_hw.Machine
module Disk = Vmk_hw.Disk
module Counter = Vmk_trace.Counter
module Table = Vmk_stats.Table
module Kernel = Vmk_ukernel.Kernel
module Svc = Vmk_ukernel.Svc
module Watchdog = Vmk_ukernel.Watchdog
module Hypervisor = Vmk_vmm.Hypervisor
module Blk_channel = Vmk_vmm.Blk_channel
module Dom0 = Vmk_vmm.Dom0
module Port_xen = Vmk_guest.Port_xen
module Port_l4 = Vmk_guest.Port_l4
module Apps = Vmk_workloads.Apps
module Faults = Vmk_faults.Faults

(* Both stacks run the same probe workload and the same fault plan
   shape: an IRQ-storm burst early on, the storage driver killed at
   [kill_at], and a transient disk Fail window later. Rate 0 means an
   empty plan — the undisturbed baseline. *)
let kill_at = 4_000_000L
let window_start = 6_000_000L
let window_stop = 10_000_000L
let storm_at = 2_000_000L

let plan_for ~rate ~target =
  if rate = 0 then []
  else
    [
      Faults.Irq_storm
        { line = Machine.nic_irq; at = storm_at; count = 8; gap = 10_000L };
      Faults.Kill_at { at = kill_at; target };
      Faults.Disk_faults
        [
          {
            Faults.d_start = window_start;
            d_stop = window_stop;
            d_mode = Disk.Fail;
            d_pct = rate;
            d_sectors = None;
          };
        ];
    ]

type metrics = {
  stack : string;
  rate : int;
  completed : int;
  lost : int;
  retries : int;
  gaveup : int;
  recoveries : int;  (** Watchdog respawns / supervisor restarts. *)
  recovery_latency : int64 option;
      (** First successful op after the kill, minus the kill time. *)
  finished : bool;
  digest : string;
}

(* The replay digest covers the machine, the outcome and the op log. *)
let metrics_of mach ~stack ~rate ~retries_key ~gaveup_key ~recoveries ~log
    ~finished (stats : Apps.stats) =
  let counters = mach.Machine.counters in
  let chronological = List.rev log in
  let recovery_latency =
    if rate = 0 then None
    else
      List.find_map
        (fun (t, ok) ->
          if ok && t > kill_at then Some (Int64.sub t kill_at) else None)
        chronological
  in
  {
    stack;
    rate;
    completed = stats.Apps.completed;
    lost = stats.Apps.errors;
    retries = Counter.get counters retries_key;
    gaveup = Counter.get counters gaveup_key;
    recoveries;
    recovery_latency;
    finished;
    digest =
      Machine.digest mach
        (Printf.sprintf "%s rate %d ops %d/%d recoveries %d %b" stack rate
           stats.Apps.completed stats.Apps.errors recoveries finished
        :: List.map (fun (t, ok) -> Printf.sprintf "op %Ld %b" t ok)
             chronological);
  }

(* --- microkernel stack: watchdog respawn + client retry --- *)

let l4_run ~quick ~rate =
  let ops = if quick then 16 else 32 in
  let mach = Machine.create ~seed:31L () in
  let k = Kernel.create mach in
  let sv = Scenario.l4_supervised mach k in
  let retry = Scenario.l4_retry mach in
  let gk =
    Kernel.spawn k ~name:"guest-kernel" ~priority:3 ~account:Port_l4.gk_account
      (Port_l4.guest_kernel_body ~retry ~net_svc:sv.net_svc
         ~blk_svc:sv.blk_svc
         ~net:(Some (Svc.tid sv.net_svc))
         ~blk:(Some (Svc.tid sv.blk_svc)))
  in
  let stats = Apps.stats () in
  let log = ref [] in
  let finished = ref false in
  let _client =
    Kernel.spawn k ~name:"client" ~account:"client" (fun () ->
        Port_l4.app_body mach ~gk
          (Apps.blk_retry_stream ~stats
             ~now:(fun () -> Machine.now mach)
             ~log:(fun entry -> log := entry :: !log)
             ~ops ~span:24 ~seed:7 ~pace:150_000 ())
          ();
        finished := true)
  in
  let armed =
    Faults.arm
      (plan_for ~rate ~target:"blk-server")
      mach
      ~kill:(fun target ->
        if target = "blk-server" then Kernel.kill k (Svc.tid sv.blk_svc))
  in
  ignore (Kernel.run k ~until:(fun () -> !finished));
  Watchdog.stop sv.watchdog;
  ignore (Kernel.run k);
  Faults.disarm armed mach;
  metrics_of mach ~stack:"L4" ~rate
    ~retries_key:"l4.retries" ~gaveup_key:"l4.gaveup"
    ~recoveries:(List.length (Watchdog.respawns sv.watchdog))
    ~log:!log ~finished:!finished stats

(* --- VMM stack: supervisor restart + frontend reconnect --- *)

let vmm_run ~quick ~rate =
  let ops = if quick then 16 else 32 in
  let mach = Machine.create ~seed:32L () in
  let h = Hypervisor.create mach in
  let blk_chan = Blk_channel.create () in
  let dom0, sup = Scenario.dom0_supervised mach h ~net:[] ~blk:[ blk_chan ] in
  let stats = Apps.stats () in
  let log = ref [] in
  let finished = ref false in
  let _client =
    Hypervisor.create_domain h ~name:"client" (fun () ->
        Port_xen.guest_body mach ~blk:(blk_chan, dom0) ~resilient:true
          ~io_timeout:1_000_000L
          ~app:
            (Apps.blk_retry_stream ~stats
               ~now:(fun () -> Machine.now mach)
               ~log:(fun entry -> log := entry :: !log)
               ~ops ~span:24 ~seed:7 ~pace:150_000 ())
          ();
        finished := true)
  in
  let armed =
    Faults.arm
      (plan_for ~rate ~target:Dom0.name)
      mach
      ~kill:(fun target ->
        if target = Dom0.name then
          Hypervisor.kill_domain h (Hypervisor.supervised_domid sup))
  in
  ignore (Hypervisor.run h ~until:(fun () -> !finished));
  Hypervisor.stop_supervisor sup;
  ignore (Hypervisor.run h);
  Faults.disarm armed mach;
  metrics_of mach ~stack:"VMM" ~rate
    ~retries_key:"xen.retries" ~gaveup_key:"xen.gaveup"
    ~recoveries:(List.length (Hypervisor.restarts sup))
    ~log:!log ~finished:!finished stats

let run_one ~stack ~rate ~quick =
  match stack with
  | `L4 -> l4_run ~quick ~rate
  | `Vmm -> vmm_run ~quick ~rate

(* --- reporting --- *)

let rates = [ 0; 15; 35 ]

let metrics_table title rows =
  let table =
    Table.create
      ~header:
        [
          "stack";
          "fault rate %";
          "completed";
          "lost";
          "retries";
          "gave up";
          "recoveries";
          "recovery latency";
          "finished";
        ]
  in
  List.iter
    (fun m ->
      Table.add_row table
        [
          m.stack;
          string_of_int m.rate;
          string_of_int m.completed;
          string_of_int m.lost;
          string_of_int m.retries;
          string_of_int m.gaveup;
          string_of_int m.recoveries;
          (match m.recovery_latency with
          | Some l -> Printf.sprintf "%Ld cycles" l
          | None -> "-");
          (if m.finished then "yes" else "NO");
        ])
    rows;
  (title, table)

let run ~quick =
  let ops = if quick then 16 else 32 in
  let l4 = List.map (fun rate -> l4_run ~quick ~rate) rates in
  let vmm = List.map (fun rate -> vmm_run ~quick ~rate) rates in
  let baseline_ok m = m.completed = ops && m.lost = 0 && m.finished in
  let recovered m =
    m.finished && m.recoveries >= 1
    && (match m.recovery_latency with Some l -> l > 0L | None -> false)
    && m.completed + m.lost = ops
    && m.lost <= ops / 4
  in
  let faulted l = List.filter (fun m -> m.rate > 0) l in
  let show m =
    Printf.sprintf "%s@%d%%: %d/%d ok, %d retries, %d recoveries, latency %s"
      m.stack m.rate m.completed ops m.retries m.recoveries
      (match m.recovery_latency with
      | Some l -> Int64.to_string l
      | None -> "-")
  in
  {
    Experiment.tables =
      [
        metrics_table "Microkernel stack (watchdog respawn + IPC retry)" l4;
        metrics_table "VMM stack (supervisor restart + frontend reconnect)" vmm;
        Experiment.digests [ ("L4@15%", (List.nth l4 1).digest) ];
      ];
    verdicts =
      [
        Experiment.verdict
          ~claim:"fault rate 0 is the undisturbed baseline on both stacks"
          ~expected:"all ops complete, nothing lost, no recovery machinery"
          ~measured:
            (String.concat "; "
               (List.map show [ List.hd l4; List.hd vmm ]))
          (baseline_ok (List.hd l4)
          && baseline_ok (List.hd vmm)
          && (List.hd l4).recoveries = 0
          && (List.hd vmm).recoveries = 0);
        Experiment.verdict
          ~claim:
            "a user-level watchdog respawns a killed driver server and \
             clients ride it out (§3: drivers are ordinary threads)"
          ~expected:
            "every faulted L4 run: >=1 respawn, recovery latency > 0, the \
             client finishes with bounded loss"
          ~measured:(String.concat "; " (List.map show (faulted l4)))
          (List.for_all recovered (faulted l4));
        Experiment.verdict
          ~claim:
            "a restarted driver domain is recoverable by frontend reconnect \
             (the VMM's equivalent restart story)"
          ~expected:
            "every faulted VMM run: >=1 restart, recovery latency > 0, the \
             client finishes with bounded loss"
          ~measured:(String.concat "; " (List.map show (faulted vmm)))
          (List.for_all recovered (faulted vmm));
      ];
  }

let experiment =
  {
    Experiment.id = "e13";
    title = "Deterministic fault injection and driver-restart recovery";
    paper_claim =
      "§3.1: a driver failure 'only affects its clients — exactly the same \
       situation as if a server fails in an L4-based system.' E13 pushes \
       past E6's blast radius to the recovery story: with drivers as \
       restartable user-level components, both structures can bring the \
       service back — the microkernel by respawning a server thread, the \
       VMM by restarting the driver domain and reconnecting frontends.";
    run;
  }
