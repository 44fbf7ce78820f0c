(* Tests for the fault-injection library and the recovery machinery
   around it (E13): deterministic device fault windows, engine-scheduled
   kills and IRQ storms, unwind-kill, watchdog respawn, supervisor
   restart + frontend reconnect, and client-visible recovery. *)

module Machine = Vmk_hw.Machine
module Frame = Vmk_hw.Frame
module Disk = Vmk_hw.Disk
module Nic = Vmk_hw.Nic
module Counter = Vmk_trace.Counter
module Engine = Vmk_sim.Engine
module Rng = Vmk_sim.Rng
module Kernel = Vmk_ukernel.Kernel
module Sysif = Vmk_ukernel.Sysif
module Proto = Vmk_ukernel.Proto
module Svc = Vmk_ukernel.Svc
module Watchdog = Vmk_ukernel.Watchdog
module Blk_server = Vmk_ukernel.Blk_server
module Hypervisor = Vmk_vmm.Hypervisor
module Blk_channel = Vmk_vmm.Blk_channel
module Dom0 = Vmk_vmm.Dom0
module Faults = Vmk_faults.Faults
module Apps = Vmk_workloads.Apps
module Port_l4 = Vmk_guest.Port_l4
module Port_xen = Vmk_guest.Port_xen
module Exp_e13 = Vmk_core.Exp_e13

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- device fault windows --- *)

let disk_fail_run ~seed =
  let mach = Machine.create ~seed () in
  Disk.set_faults mach.Machine.disk
    [
      {
        Disk.f_start = 0L;
        f_stop = 1_000_000L;
        f_mode = Disk.Fail;
        f_pct = 50;
        f_rng = Rng.split mach.Machine.rng;
        f_sectors = None;
      };
    ];
  for sector = 0 to 39 do
    let frame = Frame.alloc mach.Machine.frames ~owner:"t" () in
    ignore (Disk.submit mach.Machine.disk Disk.Write ~sector ~frame ~bytes:512)
  done;
  Engine.run mach.Machine.engine;
  Disk.faulted_total mach.Machine.disk

let test_disk_fail_window_deterministic () =
  let a = disk_fail_run ~seed:5L and b = disk_fail_run ~seed:5L in
  check_int "same seed, same faults" a b;
  check_bool "some requests faulted" true (a > 0);
  check_bool "not all requests faulted" true (a < 40)

let test_disk_drop_window_loses_requests () =
  let mach = Machine.create ~seed:6L () in
  Disk.set_faults mach.Machine.disk
    [
      {
        Disk.f_start = 0L;
        f_stop = 1_000_000L;
        f_mode = Disk.Drop;
        f_pct = 100;
        f_rng = Rng.split mach.Machine.rng;
        f_sectors = None;
      };
    ];
  for sector = 0 to 3 do
    let frame = Frame.alloc mach.Machine.frames ~owner:"t" () in
    ignore (Disk.submit mach.Machine.disk Disk.Read ~sector ~frame ~bytes:512)
  done;
  Engine.run mach.Machine.engine;
  check_int "all dropped" 4 (Disk.dropped_total mach.Machine.disk);
  check_bool "nothing completes" true (Disk.completed mach.Machine.disk = None)

let test_disk_bad_sector_range_scopes_faults () =
  let mach = Machine.create ~seed:7L () in
  Disk.set_faults mach.Machine.disk
    [
      {
        Disk.f_start = 0L;
        f_stop = 1_000_000L;
        f_mode = Disk.Fail;
        f_pct = 100;
        f_rng = Rng.split mach.Machine.rng;
        f_sectors = Some (10, 19);
      };
    ];
  let submit sector =
    let frame = Frame.alloc mach.Machine.frames ~owner:"t" () in
    ignore (Disk.submit mach.Machine.disk Disk.Write ~sector ~frame ~bytes:512)
  in
  submit 5;
  submit 15;
  Engine.run mach.Machine.engine;
  check_int "only the bad-region request faults" 1
    (Disk.faulted_total mach.Machine.disk)

let test_nic_corrupt_scrambles_tag () =
  let mach = Machine.create ~seed:8L () in
  let nic = mach.Machine.nic in
  Nic.set_faults nic
    [
      {
        Nic.f_start = 0L;
        f_stop = 1_000_000L;
        f_mode = Nic.Corrupt;
        f_pct = 100;
        f_rng = Rng.split mach.Machine.rng;
      };
    ];
  Nic.post_rx_buffer nic (Frame.alloc mach.Machine.frames ~owner:"t" ());
  Nic.inject_rx nic ~tag:1234 ~len:1500;
  check_int "faulted counted" 1 (Nic.rx_faulted nic);
  match Nic.rx_ready nic with
  | None -> Alcotest.fail "corrupted packet still delivered"
  | Some ev -> check_bool "tag scrambled" true (ev.Nic.tag <> 1234)

let test_nic_drop_eats_packet () =
  let mach = Machine.create ~seed:9L () in
  let nic = mach.Machine.nic in
  Nic.set_faults nic
    [
      {
        Nic.f_start = 0L;
        f_stop = 1_000_000L;
        f_mode = Nic.Drop;
        f_pct = 100;
        f_rng = Rng.split mach.Machine.rng;
      };
    ];
  Nic.post_rx_buffer nic (Frame.alloc mach.Machine.frames ~owner:"t" ());
  Nic.inject_rx nic ~tag:55 ~len:100;
  check_int "faulted counted" 1 (Nic.rx_faulted nic);
  check_bool "nothing delivered" true (Nic.rx_ready nic = None)

(* --- plan arming: storms and kills as engine events --- *)

let test_arm_schedules_storm_and_kill () =
  let mach = Machine.create ~seed:10L () in
  let killed = ref [] in
  let armed =
    Faults.arm
      [
        Faults.Irq_storm
          { line = Machine.nic_irq; at = 1_000L; count = 8; gap = 10L };
        Faults.Kill_at { at = 5_000L; target = "blk-server" };
      ]
      mach
      ~kill:(fun target -> killed := target :: !killed)
  in
  Engine.run mach.Machine.engine;
  check_int "kill callback fired once" 1 (List.length !killed);
  check_bool "kill recorded with its virtual time" true
    (Faults.first_kill_time armed "blk-server" = Some 5_000L);
  check_int "storm raises counted" 8
    (Counter.get mach.Machine.counters "faults.irq_storm");
  check_int "kill counted" 1
    (Counter.get mach.Machine.counters "faults.kill")

(* Disarming before the events fire must cancel them: the engine still
   runs to quiescence, but no storm raises, no kill, no squeeze. *)
let test_disarm_cancels_scheduled_events () =
  let mach = Machine.create ~seed:10L () in
  let killed = ref [] in
  let squeezed = ref 0 in
  let armed =
    Faults.arm
      ~pressure:(fun _ -> incr squeezed)
      [
        Faults.Irq_storm
          { line = Machine.nic_irq; at = 1_000L; count = 8; gap = 10L };
        Faults.Kill_at { at = 5_000L; target = "blk-server" };
        Faults.Memory_pressure { m_at = 2_000L; m_frames = 4; m_victim = "x" };
      ]
      mach
      ~kill:(fun target -> killed := target :: !killed)
  in
  Faults.disarm armed mach;
  Engine.run mach.Machine.engine;
  check_int "no kill fired" 0 (List.length !killed);
  check_int "no squeeze fired" 0 !squeezed;
  check_int "no storm raises" 0
    (Counter.get mach.Machine.counters "faults.irq_storm");
  check_int "no kill counted" 0
    (Counter.get mach.Machine.counters "faults.kill")

(* --- unwind-kill: the victim observes Killed --- *)

let test_kill_thread_observable_by_victim () =
  let mach = Machine.create ~seed:11L () in
  let k = Kernel.create mach in
  let observed = ref None in
  let victim =
    Kernel.spawn k ~name:"victim" (fun () ->
        try ignore (Sysif.recv Sysif.Any)
        with Sysif.Ipc_error e -> observed := Some e)
  in
  let _killer =
    Kernel.spawn k ~name:"killer" (fun () ->
        Sysif.burn 1000;
        Sysif.kill_thread victim)
  in
  ignore (Kernel.run k);
  check_bool "victim saw Killed" true (!observed = Some Sysif.Killed);
  check_int "no live threads" 0 (Kernel.thread_count k)

(* --- watchdog: respawn + rebind --- *)

let test_watchdog_respawns_dead_server () =
  let mach = Machine.create ~seed:12L () in
  let k = Kernel.create mach in
  let blk_spec () =
    {
      Sysif.name = "blk-server";
      priority = 2;
      same_space = false;
      pager = None;
      body = (fun () -> Blk_server.body mach ());
    }
  in
  let tid0 =
    Kernel.spawn k ~name:"blk-server" ~priority:2 ~account:Blk_server.account
      (fun () -> Blk_server.body mach ())
  in
  let entry = Svc.entry ~name:"blk" tid0 in
  let wd = Watchdog.create () in
  let _ =
    Kernel.spawn k ~name:"watchdog" ~priority:1 ~account:"watchdog"
      (Watchdog.body mach wd ~period:500_000L ~ping_timeout:100_000L
         [ (entry, blk_spec) ])
  in
  (* Client: wait for the rebind, then check the replacement answers. *)
  let replacement_ok = ref false in
  let done_ = ref false in
  let _client =
    Kernel.spawn k ~name:"client" ~priority:3 ~account:"client" (fun () ->
        while Svc.generation entry = 0 do
          Sysif.sleep 100_000L
        done;
        let _, reply =
          Sysif.call ~timeout:500_000L (Svc.tid entry) (Sysif.msg Proto.ping)
        in
        replacement_ok := reply.Sysif.label = Proto.ok;
        done_ := true)
  in
  Engine.after mach.Machine.engine 200_000L (fun () -> Kernel.kill k tid0);
  ignore (Kernel.run k ~until:(fun () -> !done_));
  Watchdog.stop wd;
  ignore (Kernel.run k);
  check_int "one respawn" 1 (List.length (Watchdog.respawns wd));
  check_bool "entry rebound to a fresh tid" true (Svc.tid entry <> tid0);
  check_int "generation bumped" 1 (Svc.generation entry);
  check_bool "replacement answers pings" true !replacement_ok;
  check_int "respawn counted" 1
    (Counter.get mach.Machine.counters "uk.watchdog.respawn")

(* --- Dom0: a never-connecting channel is dropped, not spun on --- *)

let test_dom0_drops_unconnected_channel () =
  let mach = Machine.create ~seed:13L () in
  let h = Hypervisor.create mach in
  let chan = Blk_channel.create () in
  let _ =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      (Dom0.body mach ~connect_timeout:100_000L ~blk:[ chan ])
  in
  (match Hypervisor.run h with
  | Hypervisor.Idle -> ()
  | _ -> Alcotest.fail "dom0 never quiesced (busy spin on dead channel?)");
  check_int "drop counted" 1
    (Counter.get mach.Machine.counters "dom0.connect_dropped")

(* --- end-to-end recovery (the E13 scenarios) --- *)

let recovered (m : Exp_e13.metrics) ~ops =
  m.Exp_e13.finished
  && m.Exp_e13.recoveries >= 1
  && (match m.Exp_e13.recovery_latency with Some l -> l > 0L | None -> false)
  && m.Exp_e13.completed + m.Exp_e13.lost = ops
  && m.Exp_e13.lost <= ops / 4

let test_l4_client_rides_out_driver_kill () =
  let m = Exp_e13.run_one ~stack:`L4 ~rate:15 ~quick:true in
  check_bool "watchdog + retry recovery" true (recovered m ~ops:16)

let test_vmm_client_rides_out_domain_kill () =
  let m = Exp_e13.run_one ~stack:`Vmm ~rate:15 ~quick:true in
  check_bool "supervisor + reconnect recovery" true (recovered m ~ops:16)

let test_baseline_rate_zero_is_clean () =
  let l4 = Exp_e13.run_one ~stack:`L4 ~rate:0 ~quick:true in
  let vmm = Exp_e13.run_one ~stack:`Vmm ~rate:0 ~quick:true in
  List.iter
    (fun (m : Exp_e13.metrics) ->
      check_int "all ops complete" 16 m.Exp_e13.completed;
      check_int "nothing lost" 0 m.Exp_e13.lost;
      check_int "no recoveries" 0 m.Exp_e13.recoveries;
      check_int "no retries" 0 m.Exp_e13.retries)
    [ l4; vmm ]

(* --- plan validation (E18): malformed plans die at arm time --- *)

let rejected plan =
  match Faults.validate plan with
  | () -> false
  | exception Faults.Invalid_plan _ -> true

let disk_w ?sectors ~start ~stop () =
  {
    Faults.d_start = start;
    d_stop = stop;
    d_mode = Disk.Fail;
    d_pct = 10;
    d_sectors = sectors;
  }

let nic_w ~start ~stop () =
  { Faults.n_start = start; n_stop = stop; n_mode = Nic.Drop; n_pct = 50 }

let test_validate_rejects_malformed_plans () =
  check_bool "negative-duration disk window" true
    (rejected [ Faults.Disk_faults [ disk_w ~start:2_000L ~stop:1_000L () ] ]);
  check_bool "negative-duration nic window" true
    (rejected [ Faults.Nic_faults [ nic_w ~start:500L ~stop:100L () ] ]);
  check_bool "kill at negative time" true
    (rejected [ Faults.Kill_at { at = -1L; target = "x" } ]);
  check_bool "fault pct above 100" true
    (rejected
       [
         Faults.Disk_faults
           [ { (disk_w ~start:0L ~stop:1L ()) with Faults.d_pct = 101 } ];
       ]);
  check_bool "empty sector range" true
    (rejected
       [ Faults.Disk_faults [ disk_w ~sectors:(9, 3) ~start:0L ~stop:1L () ] ]);
  (* arm refuses the same plans: nothing is half-installed. *)
  let mach = Machine.create ~seed:30L () in
  (match
     Faults.arm [ Faults.Kill_at { at = -1L; target = "x" } ] mach ~kill:ignore
   with
  | _ -> Alcotest.fail "arm accepted an invalid plan"
  | exception Faults.Invalid_plan _ -> ());
  Engine.run mach.Machine.engine;
  check_int "nothing fired from the rejected plan" 0
    (Counter.get mach.Machine.counters "faults.kill")

let test_validate_rejects_overlapping_windows () =
  (* Same sectors, intersecting spans: the first matching window shadows
     the second. *)
  check_bool "overlapping whole-disk windows" true
    (rejected
       [
         Faults.Disk_faults
           [ disk_w ~start:0L ~stop:1_000L (); disk_w ~start:500L ~stop:2_000L () ];
       ]);
  check_bool "time-overlapping nic windows" true
    (rejected
       [
         Faults.Nic_faults
           [ nic_w ~start:0L ~stop:1_000L (); nic_w ~start:999L ~stop:2_000L () ];
       ]);
  (* Disjoint sector ranges may share a time span: two distinct bad
     regions, no shadowing. *)
  Faults.validate
    [
      Faults.Disk_faults
        [
          disk_w ~sectors:(0, 9) ~start:0L ~stop:1_000L ();
          disk_w ~sectors:(10, 19) ~start:0L ~stop:1_000L ();
        ];
    ];
  (* Back-to-back windows (half-open spans) are not an overlap. *)
  Faults.validate
    [
      Faults.Nic_faults
        [ nic_w ~start:0L ~stop:1_000L (); nic_w ~start:1_000L ~stop:2_000L () ];
    ];
  (* And a well-formed plan still arms and fires. *)
  let mach = Machine.create ~seed:31L () in
  let killed = ref 0 in
  let armed =
    Faults.arm
      [
        Faults.Nic_faults [ nic_w ~start:0L ~stop:1_000L () ];
        Faults.Kill_at { at = 2_000L; target = "t" };
      ]
      mach
      ~kill:(fun _ -> incr killed)
  in
  Engine.run mach.Machine.engine;
  check_int "valid plan fires its kill" 1 !killed;
  check_bool "kill time recorded" true
    (Faults.first_kill_time armed "t" = Some 2_000L)

(* --- watchdog backoff + give-up (E18) --- *)

(* A deterministically crashing service: every replacement exits at once,
   every ping fails. The watchdog must space its respawns exponentially
   and abandon the service at the cap instead of rebuilding forever. *)
let test_watchdog_backoff_and_giveup () =
  let mach = Machine.create ~seed:32L () in
  let k = Kernel.create mach in
  let crash_spec () =
    {
      Sysif.name = "crashy";
      priority = 2;
      same_space = false;
      pager = None;
      body = (fun () -> ());
    }
  in
  let tid0 = Kernel.spawn k ~name:"crashy" ~priority:2 (fun () -> ()) in
  let entry = Svc.entry ~name:"crashy" tid0 in
  let wd = Watchdog.create () in
  let backoff = 150_000L in
  let _ =
    Kernel.spawn k ~name:"watchdog" ~priority:1 ~account:"watchdog"
      (Watchdog.body mach wd ~period:100_000L ~ping_timeout:50_000L ~backoff
         ~give_up:3
         [ (entry, crash_spec) ])
  in
  ignore (Kernel.run k ~until:(fun () -> Watchdog.given_up wd <> []));
  Watchdog.stop wd;
  ignore (Kernel.run k);
  let times = List.map snd (Watchdog.respawns wd) in
  check_int "respawns stop at the cap" 3 (List.length times);
  (match times with
  | [ t1; t2; t3 ] ->
      let g2 = Int64.sub t2 t1 and g3 = Int64.sub t3 t2 in
      check_bool "second respawn waits out one backoff" true (g2 >= backoff);
      check_bool "third respawn waits out twice the backoff" true
        (g3 >= Int64.mul 2L backoff);
      check_bool "gaps grow" true (Int64.compare g3 g2 > 0)
  | _ -> Alcotest.fail "expected exactly three respawn times");
  check_bool "service abandoned" true (Watchdog.given_up wd = [ "crashy" ]);
  check_int "give-up counted once" 1
    (Counter.get mach.Machine.counters "uk.watchdog.giveup");
  check_int "respawns counted" 3
    (Counter.get mach.Machine.counters "uk.watchdog.respawn");
  check_int "machine quiesces after give-up" 0 (Kernel.thread_count k)

let test_watchdog_rejects_bad_caps () =
  let mach = Machine.create ~seed:33L () in
  let wd = Watchdog.create () in
  Alcotest.check_raises "give_up < 1 rejected"
    (Invalid_argument "Watchdog.body: give_up < 1") (fun () ->
      Watchdog.body mach wd ~period:1L ~ping_timeout:1L ~give_up:0 [] ());
  Alcotest.check_raises "negative backoff rejected"
    (Invalid_argument "Watchdog.body: backoff < 0") (fun () ->
      Watchdog.body mach wd ~period:1L ~ping_timeout:1L ~backoff:(-1L) [] ())

(* --- repeated kills (E18): k kills, k recoveries, on both stacks --- *)

let l4_kill_times = [ 1_000_000L; 2_200_000L; 3_400_000L ]

let test_l4_rides_out_repeated_kills () =
  let ops = 32 in
  let mach = Machine.create ~seed:34L () in
  let k = Kernel.create mach in
  let blk_spec () =
    {
      Sysif.name = "blk-server";
      priority = 2;
      same_space = false;
      pager = None;
      body = (fun () -> Blk_server.body mach ());
    }
  in
  let tid0 =
    Kernel.spawn k ~name:"blk-server" ~priority:2 ~account:Blk_server.account
      (fun () -> Blk_server.body mach ())
  in
  let entry = Svc.entry ~name:"blk" tid0 in
  let wd = Watchdog.create () in
  let _ =
    Kernel.spawn k ~name:"watchdog" ~priority:1 ~account:"watchdog"
      (Watchdog.body mach wd ~period:300_000L ~ping_timeout:100_000L
         [ (entry, blk_spec) ])
  in
  let retry =
    Port_l4.retry ~mach ~attempts:8 ~timeout:1_000_000L ~base_delay:100_000L
      (Rng.split mach.Machine.rng)
  in
  let gk =
    Kernel.spawn k ~name:"gk" ~priority:3 ~account:Port_l4.gk_account
      (Port_l4.guest_kernel_body ~retry ~blk_svc:entry ~net:None
         ~blk:(Some tid0))
  in
  let stats = Apps.stats () in
  let done_ = ref false in
  let _client =
    Kernel.spawn k ~name:"blkapp" ~priority:4 ~account:"blkapp"
      (Port_l4.app_body mach ~gk (fun () ->
           Apps.blk_retry_stream ~stats
             ~now:(fun () -> Machine.now mach)
             ~log:(fun _ -> ())
             ~ops ~span:24 ~seed:7 ~pace:150_000 () ();
           done_ := true))
  in
  (* Three kills through one armed plan: validation accepts repeated
     kills of the same target (they are points, not windows). *)
  let armed =
    Faults.arm
      (List.map
         (fun at -> Faults.Kill_at { at; target = "blk-server" })
         l4_kill_times)
      mach
      ~kill:(fun _ -> Kernel.kill k (Svc.tid entry))
  in
  ignore (Kernel.run k ~until:(fun () -> !done_));
  Watchdog.stop wd;
  ignore (Kernel.run k);
  check_bool "client finished" true !done_;
  check_int "every kill fired" 3
    (List.length (Faults.kill_times armed "blk-server"));
  check_int "one respawn per kill" 3 (List.length (Watchdog.respawns wd));
  check_int "generation matches the kill count" 3 (Svc.generation entry);
  check_bool "no give-up: healthy pings reset the streak" true
    (Watchdog.given_up wd = []);
  check_int "all ops accounted" ops (stats.Apps.completed + stats.Apps.errors);
  check_bool "most ops survive three kills" true (stats.Apps.errors <= ops / 4)

let vmm_kill_times = [ 1_500_000L; 3_500_000L; 5_500_000L ]

let test_vmm_rides_out_repeated_kills () =
  let ops = 40 in
  let mach = Machine.create ~seed:35L () in
  let h = Hypervisor.create mach in
  let bchan = Blk_channel.create () in
  let make ~restart () =
    Dom0.body mach ~connect_timeout:10_000_000L ~generation:restart
      ~blk:[ bchan ] ()
  in
  let dom0 =
    Hypervisor.create_domain h ~name:Dom0.name ~privileged:true
      (make ~restart:0)
  in
  let sup =
    Hypervisor.supervise h ~name:Dom0.name ~privileged:true ~period:500_000L
      ~make_body:make dom0
  in
  let stats = Apps.stats () in
  let done_ = ref false in
  let _guest =
    Hypervisor.create_domain h ~name:"blkguest"
      (Port_xen.guest_body mach ~blk:(bchan, dom0) ~resilient:true
         ~io_timeout:800_000L
         ~app:(fun () ->
           Apps.blk_retry_stream ~stats
             ~now:(fun () -> Machine.now mach)
             ~log:(fun _ -> ())
             ~ops ~span:24 ~seed:7 ~pace:150_000 () ();
           done_ := true))
  in
  let armed =
    Faults.arm
      (List.map
         (fun at -> Faults.Kill_at { at; target = Dom0.name })
         vmm_kill_times)
      mach
      ~kill:(fun _ ->
        Hypervisor.kill_domain h (Hypervisor.supervised_domid sup))
  in
  ignore (Hypervisor.run h ~until:(fun () -> !done_));
  Hypervisor.stop_supervisor sup;
  ignore (Hypervisor.run h);
  check_bool "client finished" true !done_;
  check_int "every kill fired" 3
    (List.length (Faults.kill_times armed Dom0.name));
  check_int "one restart per kill" 3 (List.length (Hypervisor.restarts sup));
  check_bool "one reconnect per restart" true
    (Counter.get mach.Machine.counters "xen.reconnects" >= 3);
  check_int "all ops accounted" ops (stats.Apps.completed + stats.Apps.errors);
  check_bool "most ops survive three kills" true (stats.Apps.errors <= ops / 4)

let test_e13_runs_are_deterministic () =
  let digest stack = (Exp_e13.run_one ~stack ~rate:35 ~quick:true).digest in
  Alcotest.(check string) "identical digests" (digest `L4) (digest `L4);
  Alcotest.(check string) "identical digests (vmm)" (digest `Vmm) (digest `Vmm)

let suite =
  [
    Alcotest.test_case "disk Fail window is deterministic" `Quick
      test_disk_fail_window_deterministic;
    Alcotest.test_case "disk Drop window loses requests" `Quick
      test_disk_drop_window_loses_requests;
    Alcotest.test_case "disk bad-sector range scopes faults" `Quick
      test_disk_bad_sector_range_scopes_faults;
    Alcotest.test_case "nic Corrupt scrambles the tag" `Quick
      test_nic_corrupt_scrambles_tag;
    Alcotest.test_case "nic Drop eats the packet" `Quick
      test_nic_drop_eats_packet;
    Alcotest.test_case "arm schedules storms and kills" `Quick
      test_arm_schedules_storm_and_kill;
    Alcotest.test_case "disarm cancels scheduled events" `Quick
      test_disarm_cancels_scheduled_events;
    Alcotest.test_case "kill_thread is observable by the victim" `Quick
      test_kill_thread_observable_by_victim;
    Alcotest.test_case "watchdog respawns a dead server" `Quick
      test_watchdog_respawns_dead_server;
    Alcotest.test_case "dom0 drops a never-connecting channel" `Quick
      test_dom0_drops_unconnected_channel;
    Alcotest.test_case "L4 client rides out a driver kill" `Quick
      test_l4_client_rides_out_driver_kill;
    Alcotest.test_case "VMM client rides out a domain kill" `Quick
      test_vmm_client_rides_out_domain_kill;
    Alcotest.test_case "rate 0 reproduces the clean baseline" `Quick
      test_baseline_rate_zero_is_clean;
    Alcotest.test_case "fault runs are deterministic" `Quick
      test_e13_runs_are_deterministic;
    Alcotest.test_case "validate rejects malformed plans" `Quick
      test_validate_rejects_malformed_plans;
    Alcotest.test_case "validate rejects overlapping windows" `Quick
      test_validate_rejects_overlapping_windows;
    Alcotest.test_case "watchdog backs off and gives up on a crash loop"
      `Quick test_watchdog_backoff_and_giveup;
    Alcotest.test_case "watchdog rejects bad caps" `Quick
      test_watchdog_rejects_bad_caps;
    Alcotest.test_case "L4 rides out three repeated kills" `Quick
      test_l4_rides_out_repeated_kills;
    Alcotest.test_case "VMM rides out three repeated kills" `Quick
      test_vmm_rides_out_repeated_kills;
  ]
