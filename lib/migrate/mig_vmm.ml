module Machine = Vmk_hw.Machine
module Counter = Vmk_trace.Counter
module Hypervisor = Vmk_vmm.Hypervisor
module Hcall = Vmk_vmm.Hcall
module Net_channel = Vmk_vmm.Net_channel
module Netfront = Vmk_vmm.Netfront
module Bridge = Vmk_vmm.Bridge
module Sys = Vmk_guest.Sys
module Faults = Vmk_faults.Faults
module Overload = Vmk_overload.Overload
module Image = Migrate.Image
module Workload = Migrate.Workload

let guest_key = 1 (* fabric address of the migrating guest *)
let sink_key = 2
let storm_key = 3
let packet_len = 256

let reference ?(pages = 64) ?(steps = 400) ?(w = Workload.make ()) () =
  let img = Image.create ~pages in
  for _ = 1 to steps do
    let _, send = Workload.advance img w in
    (* Every send eventually succeeds in a live run, so the pure replay
       counts them all. *)
    if send then img.Image.sent <- img.Image.sent + 1
  done;
  img

(* Block until [cond], waking on any event or every [tick] cycles. *)
let wait ?(tick = 20_000L) cond =
  while not (cond ()) do
    ignore (Hcall.block ~timeout:tick ())
  done

(* The sink guest: a frontend that records every received sequence
   number. [stop] ends the loop once the fabric has gone quiet. *)
let sink_body chan ~backend ~log ~stop () =
  let front = Netfront.connect chan ~backend () in
  while not !stop do
    match Netfront.recv_blocking front ~timeout:100_000L () with
    | Some (_len, tag) -> log := Sys.vnet_seq tag :: !log
    | None -> ()
  done

(* A restored sink for the destination machine: same loop, but the
   frontend attaches through restore + reconnect since the destination
   bridge runs at generation 1 (a fresh [connect] only speaks the
   generation-0 handshake). *)
let sink_body_restored chan ~log ~stop () =
  let front = Netfront.restore chan ~generation:0 () in
  if Netfront.reconnect front ~timeout:20_000_000L () then
    while not !stop do
      match Netfront.recv_blocking front ~timeout:100_000L () with
      | Some (_len, tag) -> log := Sys.vnet_seq tag :: !log
      | None -> ()
    done

let guest_prims front ~src =
  {
    Migrate.g_touch = (fun ~vpn ~write -> Hcall.touch_page ~vpn ~write);
    g_burn = Hcall.burn;
    g_send =
      (fun ~seq ->
        Netfront.send front ~len:packet_len
          ~tag:(Sys.vnet_tag ~src ~dst:sink_key ~seq));
    g_wait = (fun () -> ignore (Hcall.block ~timeout:20_000L ()));
    g_drain =
      (fun () ->
        let budget = ref 200 in
        while
          Netfront.tx_unacked front > 0
          && (not (Netfront.backend_dead front))
          && !budget > 0
        do
          decr budget;
          Netfront.pump front;
          ignore (Hcall.block ~timeout:10_000L ())
        done);
  }

let migrate ?(pages = 64) ?(steps = 400) ?(w = Workload.make ())
    ?(cfg = Migrate.precopy ()) ?abort_at ?(plan = []) () =
  let seed = 97L in
  let sends = Migrate.total_sends ~steps in
  (* --- source machine --- *)
  let mach = Machine.create ~seed () in
  let h = Hypervisor.create mach in
  let chan_g = Net_channel.create ~mode:Net_channel.Flip ~demux_key:guest_key () in
  let chan_s = Net_channel.create ~mode:Net_channel.Flip ~demux_key:sink_key () in
  let bridge =
    Hypervisor.create_domain h ~name:Bridge.name ~privileged:true ~weight:512
      (fun () ->
        Bridge.body mach ~connect_timeout:20_000_000L ~net:[ chan_g; chan_s ] ())
  in
  let src_log = ref [] and sink_stop = ref false in
  let _sink =
    Hypervisor.create_domain h ~name:"sink"
      (sink_body chan_s ~backend:bridge ~log:src_log ~stop:sink_stop)
  in
  let image = Image.create ~pages in
  let staging = Image.create ~pages in
  let q = Migrate.quiesce () in
  let g_done = ref false in
  let front_gen = ref 0 in
  let guest =
    Hypervisor.create_domain h ~name:"guest" (fun () ->
        let front = Netfront.connect chan_g ~backend:bridge () in
        Migrate.guest_run ~image ~w
          ~prims:(guest_prims front ~src:guest_key)
          ~q ~until_step:steps;
        front_gen := Netfront.generation front;
        g_done := true)
  in
  let session =
    Migrate.session ?abort_at
      ~link:(Migrate.link ~page_cost:2_000 ~state_cost:4_000 ())
      ()
  in
  let staged_gen = ref 0 in
  let outcome = ref None in
  let paused = ref false in
  let ops =
    {
      Migrate.o_now = (fun () -> Machine.now mach);
      (* Transfer cost is wire time, not daemon CPU: sleep for the
         duration so the guest keeps running (and dirtying pages)
         while each pre-copy round streams out. *)
      o_burn =
        (fun n ->
          if n > 0 then ignore (Hcall.block ~timeout:(Int64.of_int n) ()));
      o_log_dirty =
        (fun enable ->
          if Hypervisor.is_alive h guest then
            Hcall.log_dirty ~dom:guest ~enable);
      o_dirty_read = (fun () -> Hcall.dirty_read guest);
      o_quiesce =
        (fun () ->
          q.Migrate.q_req <- true;
          wait (fun () -> q.Migrate.q_ack || !g_done);
          if not !g_done then begin
            Hcall.dom_pause guest;
            paused := true
          end);
      o_resume =
        (fun () ->
          q.Migrate.q_req <- false;
          if !paused then begin
            paused := false;
            Hcall.dom_unpause guest
          end);
      o_state_xfer = (fun () -> staged_gen := !front_gen);
      o_commit =
        (fun () ->
          if Hypervisor.is_alive h guest then Hypervisor.kill_domain h guest);
    }
  in
  let t_start = ref 0L and t_end = ref 0L in
  let _migd =
    Hypervisor.create_domain h ~name:"migd" ~privileged:true (fun () ->
        ignore (Hcall.block ~timeout:200_000L ());
        (* Migrate a guest that is actually mid-run: frontend handshakes
           take a while, so gate on progress, not just time. *)
        wait (fun () -> !g_done || image.Image.step * 3 >= steps);
        t_start := Machine.now mach;
        outcome := Some (Migrate.run ~cfg ~session ~src:image ~staging ~ops);
        t_end := Machine.now mach)
  in
  let armed =
    if plan = [] then None
    else
      Some
        (Faults.arm plan mach
           ~migration:(Migrate.inject session)
           ~kill:(fun target ->
             if target = "guest" then Hypervisor.kill_domain h guest))
  in
  (* Run the source world until the protocol resolved and every packet
     the surviving source-side execution emitted reached the sink. *)
  let src_expected () =
    match !outcome with
    | None -> -1
    | Some (Migrate.Completed _) -> staging.Image.sent
    | Some (Migrate.Aborted _) -> if !g_done then sends else -1
  in
  ignore
    (Hypervisor.run h ~max_dispatches:3_000_000 ~until:(fun () ->
         let e = src_expected () in
         e >= 0 && List.length !src_log >= e));
  sink_stop := true;
  ignore (Hypervisor.run h ~max_dispatches:200_000);
  Option.iter (fun a -> Faults.disarm a mach) armed;
  let out =
    match !outcome with
    | Some o -> o
    | None ->
        (* The guest was killed by the fault plan before the daemon
           resolved; report as an abort at setup. *)
        Migrate.Aborted { a_phase = Migrate.Setup; a_reason = Migrate.Src_dead }
  in
  let finish ~survivor ~img ~dst_log ~dst =
    Migrate.result ~src:mach ~dst ~outcome:out ~image:img ~survivor
      ~src_log:(List.rev !src_log) ~dst_log ~total_sends:sends
      ~src_alive:(Hypervisor.is_alive h guest)
      ~logdirty_faults:(Counter.get mach.Machine.counters "vmm.logdirty_fault")
      ~handles:None ~window:(!t_start, !t_end)
  in
  match out with
  | Migrate.Aborted _ -> finish ~survivor:`Src ~img:image ~dst_log:[] ~dst:None
  | Migrate.Completed _ ->
      (* --- destination machine: restore and replay --- *)
      let mach2 = Machine.create ~seed:(Int64.add seed 1L) () in
      let h2 = Hypervisor.create mach2 in
      let chan_g2 =
        Net_channel.create ~mode:Net_channel.Flip ~demux_key:guest_key ()
      in
      let chan_s2 =
        Net_channel.create ~mode:Net_channel.Flip ~demux_key:sink_key ()
      in
      let _bridge2 =
        Hypervisor.create_domain h2 ~name:Bridge.name ~privileged:true
          ~weight:512
          (fun () ->
            Bridge.body mach2 ~connect_timeout:20_000_000L
              ~generation:(!staged_gen + 1)
              ~net:[ chan_g2; chan_s2 ] ())
      in
      let dst_log = ref [] and stop2 = ref false in
      let _sink2 =
        Hypervisor.create_domain h2 ~name:"sink"
          (sink_body_restored chan_s2 ~log:dst_log ~stop:stop2)
      in
      let image2 = Image.copy staging in
      let g2_done = ref false in
      let _guest2 =
        Hypervisor.create_domain h2 ~name:"guest" (fun () ->
            let front = Netfront.restore chan_g2 ~generation:!staged_gen () in
            if Netfront.reconnect front ~timeout:20_000_000L () then
              Migrate.guest_run ~image:image2 ~w
                ~prims:(guest_prims front ~src:guest_key)
                ~q:(Migrate.quiesce ()) ~until_step:steps;
            g2_done := true)
      in
      let dst_expected = sends - staging.Image.sent in
      ignore
        (Hypervisor.run h2 ~max_dispatches:3_000_000 ~until:(fun () ->
             !g2_done && List.length !dst_log >= dst_expected));
      stop2 := true;
      ignore (Hypervisor.run h2 ~max_dispatches:200_000);
      finish ~survivor:`Dst ~img:image2 ~dst_log:(List.rev !dst_log)
        ~dst:(Some mach2)

(* --- driver-domain handoff under load --- *)

type handoff = {
  ho_mode : [ `Planned | `Crash ];
  ho_sent : int;
  ho_received : int;
  ho_retries : int;
  ho_outage : int64;
  ho_generation : int;
  ho_storm_received : int;
}

let driver_handoff ~mode ?(packets = 48) () =
  let mach = Machine.create ~seed:101L () in
  let h = Hypervisor.create mach in
  let chan_c = Net_channel.create ~mode:Net_channel.Flip ~demux_key:guest_key () in
  let chan_s = Net_channel.create ~mode:Net_channel.Flip ~demux_key:sink_key () in
  let chan_st =
    Net_channel.create ~mode:Net_channel.Flip ~demux_key:storm_key ()
  in
  let chans = [ chan_c; chan_s; chan_st ] in
  let make_bridge ~generation () =
    (* The E17 fair gate, so the storm exhausts its own bucket at the
       switch instead of tail-dropping the client's packets out of the
       shared sink queue. Each bridge incarnation gets a fresh gate. *)
    let fair =
      Overload.Weighted_buckets.create ~counters:mach.Machine.counters
        ~period:200_000L ~burst:8 ()
    in
    Overload.Weighted_buckets.set_weight fair ~key:guest_key 32;
    Bridge.body mach ~connect_timeout:20_000_000L ~generation ~fair ~net:chans
      ()
  in
  let bridge0 =
    Hypervisor.create_domain h ~name:Bridge.name ~privileged:true ~weight:512
      (make_bridge ~generation:0)
  in
  let log = ref [] and storm_rx = ref 0 and stop = ref false in
  let _sink =
    Hypervisor.create_domain h ~name:"sink" (fun () ->
        let front = Netfront.connect chan_s ~backend:bridge0 () in
        let reconnecting = ref false in
        while not !stop do
          (match Netfront.recv_blocking front ~timeout:100_000L () with
          | Some (_len, tag) ->
              if Sys.vnet_src tag = storm_key then incr storm_rx
              else log := Sys.vnet_seq tag :: !log
          | None -> ());
          (* A receive-only frontend makes no hypercalls while idle, so
             backend death is invisible without the spurious-notify
             probe. *)
          if
            (Netfront.backend_dead front || Netfront.probe front)
            && not !reconnecting
          then begin
            reconnecting := true;
            ignore (Netfront.reconnect front ~timeout:20_000_000L ());
            reconnecting := false
          end
        done)
  in
  let _storm =
    Hypervisor.create_domain h ~name:"storm" (fun () ->
        let front = Netfront.connect chan_st ~backend:bridge0 () in
        let sent = ref 0 in
        while not !stop do
          let tag =
            Sys.vnet_tag ~src:storm_key ~dst:sink_key ~seq:(!sent mod 9999)
          in
          if Netfront.send front ~len:packet_len ~tag then incr sent
          else begin
            Netfront.pump front;
            if Netfront.backend_dead front then
              ignore (Netfront.reconnect front ~timeout:20_000_000L ());
            ignore (Hcall.block ~timeout:20_000L ())
          end
        done)
  in
  let retries = ref 0 in
  let first_fail = ref None and first_recover = ref None in
  let sent = ref 0 and client_done = ref false in
  let gen_end = ref 0 in
  let delivered () = List.sort_uniq compare !log in
  let _client =
    Hypervisor.create_domain h ~name:"client" (fun () ->
        let front = Netfront.connect chan_c ~backend:bridge0 () in
        let push seq =
          let tag = Sys.vnet_tag ~src:guest_key ~dst:sink_key ~seq in
          let sent_ok = ref false in
          while not !sent_ok do
            if Netfront.send front ~len:packet_len ~tag then begin
              if !first_fail <> None && !first_recover = None then
                first_recover := Some (Machine.now mach);
              sent_ok := true;
              incr sent
            end
            else begin
              incr retries;
              if !first_fail = None then first_fail := Some (Machine.now mach);
              Netfront.pump front;
              if Netfront.backend_dead front || Netfront.probe front then
                ignore (Netfront.reconnect front ~timeout:20_000_000L ());
              ignore (Hcall.block ~timeout:30_000L ())
            end
          done
        in
        let drain () =
          let budget = ref 400 in
          while Netfront.tx_unacked front > 0 && !budget > 0 do
            decr budget;
            Netfront.pump front;
            ignore (Hcall.block ~timeout:10_000L ())
          done
        in
        for seq = 0 to packets - 1 do
          push seq;
          Hcall.burn 20_000
        done;
        drain ();
        (* A frontend accept is not delivery: packets sitting in the old
           bridge's rings or switch queues die with it. Retransmit
           whatever the sink has not logged (the sink's log is the
           harness's stand-in for an application-level ack channel);
           the receiver dedupes by sequence number. *)
        let budget = ref 20 in
        let missing () =
          let got = delivered () in
          List.filter
            (fun s -> not (List.mem s got))
            (List.init packets Fun.id)
        in
        while missing () <> [] && !budget > 0 do
          decr budget;
          (* Let in-flight packets land before declaring them lost. *)
          ignore (Hcall.block ~timeout:100_000L ());
          List.iter push (missing ());
          drain ()
        done;
        gen_end := Netfront.generation front;
        client_done := true)
  in
  let _toolstack =
    Hypervisor.create_domain h ~name:"toolstack" ~privileged:true (fun () ->
        (* Hand off mid-stream: wait until the client has demonstrably
           pushed packets through the incumbent bridge. *)
        while !sent < packets / 3 do
          ignore (Hcall.block ~timeout:50_000L ())
        done;
        (* The outage clock starts at the handoff, not at boot-time
           ring-full transients. *)
        first_fail := None;
        first_recover := None;
        (match mode with
        | `Planned ->
            (* Build the successor, then destroy the old incarnation:
               frontends fail over into a backend already waiting. *)
            let nd =
              Hcall.dom_create ~name:Bridge.name ~privileged:true ~weight:512
                (make_bridge ~generation:1)
            in
            ignore nd;
            Hypervisor.kill_domain h bridge0
        | `Crash ->
            (* Destroy first; the supervisor only notices a poll later. *)
            Hypervisor.kill_domain h bridge0;
            ignore (Hcall.block ~timeout:500_000L ());
            ignore
              (Hcall.dom_create ~name:Bridge.name ~privileged:true ~weight:512
                 (make_bridge ~generation:1)));
        ())
  in
  ignore
    (Hypervisor.run h ~max_dispatches:3_000_000 ~until:(fun () ->
         !client_done && List.length (delivered ()) >= packets));
  stop := true;
  ignore (Hypervisor.run h ~max_dispatches:300_000);
  let outage =
    match (!first_fail, !first_recover) with
    | Some f, Some r -> Int64.sub r f
    | Some f, None -> Int64.sub (Machine.now mach) f
    | None, _ -> 0L
  in
  {
    ho_mode = mode;
    ho_sent = !sent;
    ho_received = List.length (delivered ());
    ho_retries = !retries;
    ho_outage = outage;
    ho_generation = !gen_end;
    ho_storm_received = !storm_rx;
  }
