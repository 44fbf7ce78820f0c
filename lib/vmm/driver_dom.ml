module Machine = Vmk_hw.Machine
module Disk = Vmk_hw.Disk
module Engine = Vmk_sim.Engine
module Counter = Vmk_trace.Counter

let net_name = "netdrv"
let blk_name = "blkdrv"
let toolstack_name = "toolstack"

(* The backend service core, shared verbatim between the monolithic Dom0
   (both device classes, prefix "dom0") and the disaggregated driver
   domains (one class each, their own prefix and so their own cycle
   account and counters). *)
let service_body mach ~prefix ?connect_timeout ?generation ?net_admit
    ?net_napi ?net_poll ?(net = []) ?(blk = []) () =
  let mux = Evt_mux.create () in
  (* A channel whose frontend never shows up used to hang the domain in
     the handshake forever; with a timeout it is logged and dropped, and
     the domain serves whoever did connect. *)
  let dropped kind chan_key =
    Logs.warn (fun m ->
        m "%s: %s frontend never connected on %s; dropping channel" prefix
          kind chan_key);
    Counter.incr mach.Machine.counters (prefix ^ ".connect_dropped");
    None
  in
  let netbacks =
    List.filter_map
      (fun chan ->
        match
          Netback.connect_opt ?timeout:connect_timeout ?generation
            ?admit:net_admit ?napi:net_napi chan mach ()
        with
        | Some back -> Some back
        | None -> dropped "net" chan.Net_channel.key)
      net
  in
  let blkbacks =
    List.filter_map
      (fun chan ->
        match
          Blkback.connect_opt ?timeout:connect_timeout ?generation chan mach ()
        with
        | Some back -> Some back
        | None -> dropped "blk" chan.Blk_channel.key)
      blk
  in
  let handle_disk () =
    let rec drain () =
      match Disk.completed mach.Machine.disk with
      | Some request ->
          ignore (List.exists (fun b -> Blkback.try_complete b request) blkbacks);
          drain ()
      | None -> ()
    in
    drain ()
  in
  (* With one frontend the backend drains the NIC itself; with several,
     the domain drains and demultiplexes by the packet tag's key. *)
  let handle_nic_all () =
    match netbacks with
    | [ only ] -> Netback.handle_nic only
    | backs ->
        let route_rx (ev : Vmk_hw.Nic.rx_event) =
          let key = ev.Vmk_hw.Nic.tag / 1_000_000 in
          match List.find_opt (fun b -> Netback.demux_key b = key) backs with
          | Some back -> Netback.deliver_rx back ev
          | None ->
              Counter.incr mach.Machine.counters (prefix ^ ".rx_no_route")
        in
        let rec drain_rx () =
          match Vmk_hw.Nic.rx_ready mach.Machine.nic with
          | Some ev ->
              route_rx ev;
              drain_rx ()
          | None -> ()
        in
        let rec drain_tx () =
          match Vmk_hw.Nic.tx_done mach.Machine.nic with
          | Some (frame, _len) ->
              ignore (List.exists (fun b -> Netback.complete_tx b frame) backs);
              drain_tx ()
          | None -> ()
        in
        drain_rx ();
        drain_tx ();
        List.iter Netback.flush backs
  in
  (* Polling-only mode: never bind the NIC interrupt — mask the line so
     the hypervisor's IRQ router has nothing to charge — and service the
     device on the serve loop's block timeout instead. *)
  let polling = net <> [] && net_poll <> None in
  if polling then Vmk_hw.Irq.mask mach.Machine.irq Machine.nic_irq
  else if net <> [] then begin
    let nic_port = Hcall.irq_bind Machine.nic_irq in
    Evt_mux.on mux nic_port (fun () ->
        Counter.incr mach.Machine.counters (prefix ^ ".nic_events");
        handle_nic_all ())
  end;
  if blk <> [] then begin
    let disk_port = Hcall.irq_bind Machine.disk_irq in
    Evt_mux.on mux disk_port handle_disk
  end;
  List.iter
    (fun back ->
      Evt_mux.on mux (Netback.port back) (fun () -> Netback.handle_event back))
    netbacks;
  List.iter
    (fun back ->
      Evt_mux.on mux (Blkback.port back) (fun () -> Blkback.handle_event back))
    blkbacks;
  (* Catch anything posted before the handshakes finished. *)
  List.iter Netback.handle_event netbacks;
  if netbacks <> [] then handle_nic_all ();
  List.iter Blkback.handle_event blkbacks;
  handle_disk ();
  let rec serve () =
    (match Hcall.block ?timeout:net_poll () with
    | Hcall.Events ports ->
        Counter.add mach.Machine.counters (prefix ^ ".wakeups") 1;
        Counter.add mach.Machine.counters (prefix ^ ".events")
          (List.length ports);
        Evt_mux.dispatch mux ports;
        if polling then handle_nic_all ()
    | Hcall.Timed_out ->
        if polling then begin
          Counter.incr mach.Machine.counters (prefix ^ ".poll_ticks");
          handle_nic_all ()
        end);
    serve ()
  in
  serve ()

let net_body mach ?connect_timeout ?generation ~net () =
  service_body mach ~prefix:net_name ?connect_timeout ?generation ~net ()

let blk_body mach ?connect_timeout ?generation ~blk () =
  service_body mach ~prefix:blk_name ?connect_timeout ?generation ~blk ()

(* --- the thin toolstack Dom0 --- *)

type spec = {
  ds_name : string;
  ds_privileged : bool;
  ds_weight : int;
  ds_make : restart:int -> unit -> unit;
}

let spec ~name ?(privileged = true) ?(weight = 256) make =
  { ds_name = name; ds_privileged = privileged; ds_weight = weight; ds_make = make }

type entry = {
  e_spec : spec;
  mutable e_domid : Hcall.domid;
  mutable e_generation : int;
  mutable e_recent : int64 list;
      (** Rebuild times still inside the rate-limit window, newest
          first. *)
}

type t = {
  mutable entries : entry list;
  mutable t_restarts : (string * int64) list;  (** Newest first. *)
  t_stop : bool ref;
}

let create () = { entries = []; t_restarts = []; t_stop = ref false }
let stop t = t.t_stop := true
let restarts t = List.rev t.t_restarts

let entry_for t name =
  List.find_opt (fun e -> e.e_spec.ds_name = name) t.entries

let domid t name = Option.map (fun e -> e.e_domid) (entry_for t name)
let generation t name = Option.map (fun e -> e.e_generation) (entry_for t name)
let built t = t.entries <> []

let toolstack_body mach t ?restart_limit ~period specs () =
  let counters = mach.Machine.counters in
  t.entries <-
    List.map
      (fun s ->
        let domid =
          Hcall.dom_create ~name:s.ds_name ~privileged:s.ds_privileged
            ~weight:s.ds_weight (s.ds_make ~restart:0)
        in
        Counter.incr counters "toolstack.built";
        { e_spec = s; e_domid = domid; e_generation = 0; e_recent = [] })
      specs;
  (* Sliding-window rate limit: a crash-looping driver domain must not
     turn the toolstack into a fork bomb. A suppressed rebuild is only
     deferred — once enough of the window slides past, the next liveness
     poll rebuilds as usual. *)
  let may_restart e ~now =
    match restart_limit with
    | None -> true
    | Some (burst, window) ->
        e.e_recent <-
          List.filter
            (fun at -> Int64.compare (Int64.sub now at) window < 0)
            e.e_recent;
        List.length e.e_recent < burst
  in
  let rec loop () =
    if !(t.t_stop) then Hcall.exit ()
    else begin
      (match Hcall.block ~timeout:period () with
      | Hcall.Events _ | Hcall.Timed_out -> ());
      if !(t.t_stop) then Hcall.exit ();
      List.iter
        (fun e ->
          if not (Hcall.dom_alive e.e_domid) then begin
            let now = Engine.now mach.Machine.engine in
            if may_restart e ~now then begin
              e.e_generation <- e.e_generation + 1;
              let domid =
                Hcall.dom_create ~name:e.e_spec.ds_name
                  ~privileged:e.e_spec.ds_privileged ~weight:e.e_spec.ds_weight
                  (e.e_spec.ds_make ~restart:e.e_generation)
              in
              e.e_domid <- domid;
              e.e_recent <- now :: e.e_recent;
              t.t_restarts <-
                (e.e_spec.ds_name, now) :: t.t_restarts;
              Counter.incr counters "toolstack.restart"
            end
            else Counter.incr counters "toolstack.rate_limited"
          end)
        t.entries;
      loop ()
    end
  in
  loop ()
