module Machine = Vmk_hw.Machine
module Engine = Vmk_sim.Engine
module Counter = Vmk_trace.Counter
module Vnet = Vmk_vnet.Vnet

let name = "bridge"

(* The tag convention shared with {!Vmk_guest.Sys}: dst·10⁶ + src·10⁴
   + seq. The dst decode is the same [tag / 10⁶] demux key Dom0 has
   always used, so vnet traffic and NIC traffic route identically. *)
let tag_dst tag = tag / 1_000_000
let tag_src tag = tag mod 1_000_000 / 10_000

let body mach ?connect_timeout ?generation ?fair ?port_capacity ?mark_at
    ?(net = []) () =
  let mux = Evt_mux.create () in
  let now () = Engine.now mach.Machine.engine in
  let switch =
    Vnet.Switch.create ~counters:mach.Machine.counters ~burn:Hcall.burn
      ?port_capacity ?mark_at ?fair ()
  in
  let dropped chan_key =
    Logs.warn (fun m ->
        m "bridge: frontend never connected on %s; dropping channel" chan_key);
    Counter.incr mach.Machine.counters "bridge.connect_dropped";
    None
  in
  let netbacks =
    List.filter_map
      (fun chan ->
        match
          Netback.connect_opt ?timeout:connect_timeout ?generation
            ~attach_nic:false chan mach ()
        with
        | Some back -> Some back
        | None -> dropped chan.Net_channel.key)
      net
  in
  List.iter
    (fun back ->
      let in_port = Netback.demux_key back in
      ignore (Vnet.Switch.add_port switch ~id:in_port);
      (* Static FDB entry for the attachment (the [bridge fdb add]
         analog): station ids are port ids under the machine-wide tag
         convention, so a receive-only guest is routable before it ever
         transmits. Dynamic learning still refreshes/moves entries. *)
      Vnet.Mac_table.learn
        (Vnet.Switch.mac_table switch)
        ~now:(now ()) ~mac:in_port ~port:in_port;
      (* Transmit = first Dom0 crossing: the guest's packet enters the
         switch; the forward verdict's ECN mark rides back on the tx
         completion. *)
      Netback.set_tx_handler back (fun ~len ~tag ->
          let pkt =
            { Vnet.src = tag_src tag; dst = tag_dst tag; len; tag }
          in
          let d = Vnet.Switch.forward switch ~now:(now ()) ~in_port pkt in
          d.Vnet.Switch.marked))
    netbacks;
  (* Second Dom0 crossing: switch output drains into the destination's
     netback (flip/copy + notify), exactly like NIC receive. Run after
     each event batch, not after each packet, so a burst can pile up on
     a port queue and trip the ECN watermark. *)
  let drain_switch () =
    List.iter
      (fun back ->
        let port = Netback.demux_key back in
        let rec go () =
          if Netback.rx_ready back then
            match Vnet.Switch.pop switch ~port with
            | Some pkt ->
                ignore
                  (Netback.deliver_pkt back ~len:pkt.Vnet.len ~tag:pkt.Vnet.tag);
                go ()
            | None -> ()
        in
        go ();
        Netback.flush back)
      netbacks
  in
  List.iter
    (fun back ->
      Evt_mux.on mux (Netback.port back) (fun () -> Netback.handle_event back))
    netbacks;
  (* Catch transmits queued before the handshakes finished. *)
  List.iter Netback.handle_event netbacks;
  drain_switch ();
  let rec serve () =
    (match Hcall.block () with
    | Hcall.Events ports ->
        Counter.add mach.Machine.counters "bridge.wakeups" 1;
        Counter.add mach.Machine.counters "bridge.events" (List.length ports);
        Evt_mux.dispatch mux ports;
        drain_switch ()
    | Hcall.Timed_out -> ());
    serve ()
  in
  serve ()
