module Machine = Vmk_hw.Machine
module Table = Vmk_stats.Table
module Kernel = Vmk_ukernel.Kernel
module Sysif = Vmk_ukernel.Sysif
module Hypervisor = Vmk_vmm.Hypervisor
module Hcall = Vmk_vmm.Hcall

(* --- L4 ping-pong --- *)

(* Cycles per round trip for [rounds] Call/Reply_wait exchanges carrying
   [items]. [map_pool] provides a fresh page per round for map-item
   benchmarks (identity-window maps need unoccupied destinations). *)
let l4_round_trip ?arch ~rounds ~same_space ~items () =
  let mach = Machine.create ?arch ~seed:11L () in
  let k = Kernel.create mach in
  let measured = ref 0.0 in
  let warmup = 10 in
  let server_body () =
    let rec loop (client, _m) = loop (Sysif.reply_wait client (Sysif.msg 0)) in
    loop (Sysif.recv Sysif.Any)
  in
  let client_body server () =
    let items = items () in
    for _ = 1 to warmup do
      ignore (Sysif.call server (Sysif.msg 1 ~items:(items ())))
    done;
    let t0 = Machine.now mach in
    for _ = 1 to rounds do
      ignore (Sysif.call server (Sysif.msg 1 ~items:(items ())))
    done;
    measured := Int64.to_float (Int64.sub (Machine.now mach) t0) /. float_of_int rounds
  in
  if same_space then begin
    let _pair =
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
    ()
  end
  else begin
    let server = Kernel.spawn k ~name:"server" server_body in
    let _client = Kernel.spawn k ~name:"client" (client_body server) in
    ()
  end;
  ignore (Kernel.run k);
  !measured

let words n = Array.make n 7

let l4_map_round_trip ?arch ~rounds () =
  (* Each round delegates a fresh page; the pool is allocated up front so
     only the map-item transfer is on the measured path. *)
  let mach = Machine.create ?arch ~frames:8192 ~seed:11L () in
  let k = Kernel.create mach in
  let measured = ref 0.0 in
  let server_body () =
    let rec loop (client, _m) = loop (Sysif.reply_wait client (Sysif.msg 0)) in
    loop (Sysif.recv Sysif.Any)
  in
  let server = Kernel.spawn k ~name:"server" server_body in
  let _client =
    Kernel.spawn k ~name:"client" (fun () ->
        let pool = Sysif.alloc_pages rounds in
        let t0 = Machine.now mach in
        for i = 0 to rounds - 1 do
          let fpage =
            { Sysif.base_vpn = pool.Sysif.base_vpn + i; pages = 1; writable = true }
          in
          ignore
            (Sysif.call server
               (Sysif.msg 1 ~items:[ Sysif.Map { fpage; grant = false } ]))
        done;
        measured :=
          Int64.to_float (Int64.sub (Machine.now mach) t0) /. float_of_int rounds)
  in
  ignore (Kernel.run k);
  !measured

(* --- context/world switches --- *)

(* Two entities alternating via yield: cycles per switch. *)
let l4_switch_cost ?arch ~rounds ~same_space () =
  let mach = Machine.create ?arch ~seed:12L () in
  let k = Kernel.create mach in
  let measured = ref 0.0 in
  let yielder n () =
    for _ = 1 to n do
      Sysif.yield ()
    done
  in
  if same_space then begin
    let _parent =
      Kernel.spawn k ~name:"pair" (fun () ->
          ignore
            (Sysif.spawn
               {
                 Sysif.name = "peer";
                 priority = Kernel.default_priority;
                 same_space = true;
                 pager = None;
                 body = yielder (rounds + 10);
               });
          let t0 = Machine.now mach in
          yielder rounds ();
          measured :=
            Int64.to_float (Int64.sub (Machine.now mach) t0)
            /. float_of_int (2 * rounds))
    in
    ()
  end
  else begin
    let _a = Kernel.spawn k ~name:"a" (yielder (rounds + 10)) in
    let _b =
      Kernel.spawn k ~name:"b" (fun () ->
          let t0 = Machine.now mach in
          yielder rounds ();
          measured :=
            Int64.to_float (Int64.sub (Machine.now mach) t0)
            /. float_of_int (2 * rounds))
    in
    ()
  end;
  ignore (Kernel.run k);
  !measured

let vmm_switch_cost ?arch ~rounds () =
  let mach = Machine.create ?arch ~seed:12L () in
  let h = Hypervisor.create mach in
  let measured = ref 0.0 in
  let yielder n () =
    for _ = 1 to n do
      Hcall.yield ()
    done
  in
  let _a = Hypervisor.create_domain h ~name:"a" (yielder (rounds + 10)) in
  let _b =
    Hypervisor.create_domain h ~name:"b" (fun () ->
        let t0 = Machine.now mach in
        yielder rounds ();
        measured :=
          Int64.to_float (Int64.sub (Machine.now mach) t0)
          /. float_of_int (2 * rounds);
        Hcall.exit ())
  in
  ignore (Hypervisor.run h);
  !measured

(* --- VMM event-channel ping-pong --- *)

let vmm_evtchn_round_trip ?arch ~rounds () =
  let mach = Machine.create ?arch ~seed:11L () in
  let h = Hypervisor.create mach in
  let offer = ref None in
  let measured = ref 0.0 in
  let warmup = 10 in
  let _pong =
    Hypervisor.create_domain h ~name:"pong" (fun () ->
        let port = Hcall.evtchn_alloc_unbound 1 in
        offer := Some port;
        let rec loop () =
          match Hcall.block () with
          | Hcall.Events _ ->
              Hcall.evtchn_send port;
              loop ()
          | Hcall.Timed_out -> loop ()
        in
        loop ())
  in
  let _ping =
    Hypervisor.create_domain h ~name:"ping" (fun () ->
        let rec wait () =
          match !offer with
          | Some p -> p
          | None ->
              Hcall.yield ();
              wait ()
        in
        let remote_port = wait () in
        let port = Hcall.evtchn_bind ~remote_dom:0 ~remote_port in
        let round () =
          Hcall.evtchn_send port;
          match Hcall.block () with
          | Hcall.Events _ -> ()
          | Hcall.Timed_out -> ()
        in
        for _ = 1 to warmup do
          round ()
        done;
        let t0 = Machine.now mach in
        for _ = 1 to rounds do
          round ()
        done;
        measured :=
          Int64.to_float (Int64.sub (Machine.now mach) t0) /. float_of_int rounds;
        Hcall.exit ())
  in
  ignore (Hypervisor.run h);
  !measured

(* Per-operation cost of grant map+unmap and of a one-way page flip,
   measured inside one domain pair. *)
let vmm_grant_costs ?arch ~rounds () =
  let mach = Machine.create ?arch ~frames:8192 ~seed:11L () in
  let h = Hypervisor.create mach in
  let gref_box = ref None in
  let map_cost = ref 0.0 and flip_cost = ref 0.0 in
  let _granter =
    Hypervisor.create_domain h ~name:"granter" (fun () ->
        let frame = List.hd (Hcall.alloc_frames 1) in
        gref_box := Some (Hcall.grant ~to_dom:1 ~frame ~readonly:false);
        ignore (Hcall.block ~timeout:100_000_000L ()))
  in
  let _worker =
    Hypervisor.create_domain h ~name:"worker" (fun () ->
        let rec wait () =
          match !gref_box with
          | Some g -> g
          | None ->
              Hcall.yield ();
              wait ()
        in
        let gref = wait () in
        let t0 = Machine.now mach in
        for _ = 1 to rounds do
          ignore (Hcall.grant_map ~dom:0 ~gref);
          Hcall.grant_unmap ~dom:0 ~gref
        done;
        map_cost :=
          Int64.to_float (Int64.sub (Machine.now mach) t0) /. float_of_int rounds;
        let frames = Hcall.alloc_frames rounds in
        let t1 = Machine.now mach in
        List.iter (fun frame -> Hcall.grant_transfer ~to_dom:0 ~frame) frames;
        flip_cost :=
          Int64.to_float (Int64.sub (Machine.now mach) t1) /. float_of_int rounds;
        Hcall.exit ())
  in
  ignore (Hypervisor.run h);
  (!map_cost, !flip_cost)

let run ~quick =
  let rounds = if quick then 50 else 500 in
  let empty () = [] in
  let l4_short_same =
    l4_round_trip ~rounds ~same_space:true ~items:(fun () -> empty) ()
  in
  let l4_short_cross =
    l4_round_trip ~rounds ~same_space:false ~items:(fun () -> empty) ()
  in
  let l4_words64 =
    l4_round_trip ~rounds ~same_space:false
      ~items:(fun () -> fun () -> [ Sysif.Words (words 64) ])
      ()
  in
  let l4_str1k =
    l4_round_trip ~rounds ~same_space:false
      ~items:(fun () -> fun () -> [ Sysif.Str { bytes = 1024; tag = 1 } ])
      ()
  in
  let l4_str4k =
    l4_round_trip ~rounds ~same_space:false
      ~items:(fun () -> fun () -> [ Sysif.Str { bytes = 4096; tag = 1 } ])
      ()
  in
  let l4_map = l4_map_round_trip ~rounds () in
  let l4_switch_same = l4_switch_cost ~rounds ~same_space:true () in
  let l4_switch_cross = l4_switch_cost ~rounds ~same_space:false () in
  let world_switch = vmm_switch_cost ~rounds () in
  let evtchn = vmm_evtchn_round_trip ~rounds () in
  let grant_map, flip = vmm_grant_costs ~rounds () in
  let table = Table.create ~header:[ "mechanism"; "payload"; "cycles/op" ] in
  let row name payload v = Table.add_row table [ name; payload; Table.cellf "%.0f" v ] in
  row "L4 IPC round trip (same space)" "0 B" l4_short_same;
  row "L4 IPC round trip (cross space)" "0 B" l4_short_cross;
  row "L4 IPC round trip (cross space)" "64 words" l4_words64;
  row "L4 IPC round trip (cross space)" "1 KiB string" l4_str1k;
  row "L4 IPC round trip (cross space)" "4 KiB string" l4_str4k;
  row "L4 IPC round trip (1-page map item)" "4 KiB page" l4_map;
  row "L4 thread switch (same space)" "yield" l4_switch_same;
  row "L4 thread switch (cross space)" "yield" l4_switch_cross;
  Table.add_separator table;
  row "VMM world switch" "yield" world_switch;
  row "VMM event-channel round trip" "notification" evtchn;
  row "VMM grant map+unmap" "4 KiB page" grant_map;
  row "VMM page flip (one way)" "4 KiB page" flip;
  {
    Experiment.tables = [ ("Cross-domain operation costs (x86-32)", table) ];
    verdicts =
      [
        Experiment.verdict
          ~claim:"low-overhead IPC is achievable (§2.2)"
          ~expected:
            "L4 cross-space round trip beats the VMM event-channel round trip"
          ~measured:
            (Printf.sprintf "L4 %.0f vs evtchn %.0f cycles/RT" l4_short_cross
               evtchn)
          (l4_short_cross < evtchn);
        Experiment.verdict
          ~claim:"string data rides the same primitive at copy cost"
          ~expected:"4 KiB string RT > 1 KiB string RT > 0 B RT"
          ~measured:
            (Printf.sprintf "%.0f > %.0f > %.0f" l4_str4k l4_str1k
               l4_short_cross)
          (l4_str4k > l4_str1k && l4_str1k > l4_short_cross);
        Experiment.verdict
          ~claim:"delegation rides the same primitive"
          ~expected:"map-item RT within 2x of plain cross-space RT"
          ~measured:
            (Printf.sprintf "map %.0f vs plain %.0f" l4_map l4_short_cross)
          (l4_map < 2.0 *. l4_short_cross);
        Experiment.verdict
          ~claim:"scheduling complete OSes costs a world switch (§3.2)"
          ~expected:
            "the VMM's domain switch is dearer than the microkernel's              cross-space thread switch"
          ~measured:
            (Printf.sprintf "world %.0f vs thread %.0f cycles/switch"
               world_switch l4_switch_cross)
          (world_switch > l4_switch_cross);
      ];
  }

let experiment =
  {
    Experiment.id = "e2";
    title = "IPC primitive vs VMM mechanism microbenchmarks";
    paper_claim =
      "§2.2: a single low-overhead IPC primitive covers control transfer, \
       data transfer and resource delegation; VMMs use dedicated, heavier \
       mechanisms (event channels, grant tables, page flipping).";
    run;
  }

(* --- A2: synchronous IPC vs asynchronous notification under batching --- *)

let l4_batch_cost ~messages () =
  let mach = Machine.create ~seed:13L () in
  let k = Kernel.create mach in
  let measured = ref 0.0 in
  let server = Kernel.spawn k ~name:"server" (fun () ->
      let rec loop (c, _) = loop (Sysif.reply_wait c (Sysif.msg 0)) in
      loop (Sysif.recv Sysif.Any))
  in
  let _client =
    Kernel.spawn k ~name:"client" (fun () ->
        let t0 = Machine.now mach in
        for _ = 1 to messages do
          ignore (Sysif.call server (Sysif.msg 1))
        done;
        measured :=
          Int64.to_float (Int64.sub (Machine.now mach) t0)
          /. float_of_int messages)
  in
  ignore (Kernel.run k);
  !measured

let vmm_batched_cost ~batches ~batch () =
  let mach = Machine.create ~seed:13L () in
  let h = Hypervisor.create mach in
  let ring : int Queue.t = Queue.create () in
  let total = batches * batch in
  let consumed = ref 0 in
  let offer = ref None in
  let started = ref None in
  let measured = ref 0.0 in
  let _consumer =
    Hypervisor.create_domain h ~name:"consumer" (fun () ->
        let port = Hcall.evtchn_alloc_unbound 1 in
        offer := Some port;
        let rec loop () =
          if !consumed < total then begin
            match Hcall.block ~timeout:10_000_000L () with
            | Hcall.Events _ ->
                let rec drain () =
                  match Queue.take_opt ring with
                  | Some _ ->
                      Hcall.burn 80; (* per-message work *)
                      incr consumed;
                      drain ()
                  | None -> ()
                in
                drain ();
                loop ()
            | Hcall.Timed_out -> ()
          end
        in
        loop ();
        (match !started with
        | Some t0 ->
            measured :=
              Int64.to_float (Int64.sub (Machine.now mach) t0)
              /. float_of_int total
        | None -> ());
        Hcall.exit ())
  in
  let _producer =
    Hypervisor.create_domain h ~name:"producer" (fun () ->
        let rec wait () =
          match !offer with
          | Some p -> p
          | None ->
              Hcall.yield ();
              wait ()
        in
        let remote_port = wait () in
        let port = Hcall.evtchn_bind ~remote_dom:0 ~remote_port in
        started := Some (Machine.now mach);
        for _ = 1 to batches do
          for i = 1 to batch do
            Queue.add i ring;
            Hcall.burn 40 (* ring producer work *)
          done;
          (* One notification per batch: coalescing in action. *)
          Hcall.evtchn_send port;
          Hcall.yield ()
        done;
        Hcall.exit ())
  in
  ignore (Hypervisor.run h ~until:(fun () -> !measured > 0.0));
  !measured

let run_ablation ~quick =
  let messages = if quick then 64 else 512 in
  let sync = l4_batch_cost ~messages () in
  let async1 = vmm_batched_cost ~batches:(messages / 1) ~batch:1 () in
  let async8 = vmm_batched_cost ~batches:(messages / 8) ~batch:8 () in
  let async32 = vmm_batched_cost ~batches:(messages / 32) ~batch:32 () in
  let table = Table.create ~header:[ "mechanism"; "batch"; "cycles/message" ] in
  Table.add_row table [ "sync IPC (call/reply)"; "1"; Table.cellf "%.0f" sync ];
  Table.add_row table [ "evtchn + shared ring"; "1"; Table.cellf "%.0f" async1 ];
  Table.add_row table [ "evtchn + shared ring"; "8"; Table.cellf "%.0f" async8 ];
  Table.add_row table [ "evtchn + shared ring"; "32"; Table.cellf "%.0f" async32 ];
  {
    Experiment.tables = [ ("Sync IPC vs async notification", table) ];
    verdicts =
      [
        Experiment.verdict ~claim:"async notification amortises under batching"
          ~expected:"per-message cost drops monotonically with batch size"
          ~measured:
            (Printf.sprintf "%.0f -> %.0f -> %.0f" async1 async8 async32)
          (async8 < async1 && async32 < async8);
        Experiment.verdict
          ~claim:"synchronous IPC wins at batch size 1 (latency)"
          ~expected:"sync round trip cheaper than unbatched async round trip"
          ~measured:(Printf.sprintf "sync %.0f vs async %.0f" sync async1)
          (sync < async1);
      ];
  }

let ablation =
  {
    Experiment.id = "a2";
    title = "Ablation: synchronous IPC vs asynchronous event channels";
    paper_claim =
      "§3.2 calls Xen's I/O signalling 'a simple asynchronous unidirectional \
       event mechanism — nothing else than a form of asynchronous IPC'; this \
       ablation quantifies the latency/throughput trade against the \
       synchronous primitive.";
    run = run_ablation;
  }
