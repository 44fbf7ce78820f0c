module Machine = Vmk_hw.Machine
module Frame = Vmk_hw.Frame
module Nic = Vmk_hw.Nic
module Arch = Vmk_hw.Arch
module Engine = Vmk_sim.Engine
module Counter = Vmk_trace.Counter
module Overload = Vmk_overload.Overload
module Vnet = Vmk_vnet.Vnet
module Cap = Vmk_cap.Cap

let account = "drv.net"

(* Cost of shedding a packet at the admission gate: peek at the
   descriptor, consult the bucket, repost the buffer. The livelock
   defense only works because this is far cheaper than the full
   900-cycle receive path. *)
let shed_work = 60

(* Broker bookkeeping per vnet attach/lookup (registry + table walk
   beyond the itemized flow-cache/MAC costs). *)
let vnet_attach_work = 200

(* The vnet broker half of the L4 stack: guests register their port
   here and resolve peers once; the data path then bypasses the server
   entirely (direct IPC). Lookup reuses the same flow-cache → MAC-table
   machinery the Dom0 bridge runs per packet — but here it is paid per
   {e connection}, which is the whole point of the comparison. *)
type broker = {
  mac : Vnet.Mac_table.t;
  flows : Vnet.Flow_cache.t;
  registry : (int, Sysif.tid) Hashtbl.t;  (** port -> guest kernel *)
  rev : (Sysif.tid, int) Hashtbl.t;
  svc : int;  (** Root service capability handle (E19). *)
  self : Sysif.tid;
  sessions : (int, int) Hashtbl.t;
      (** port -> broker-side session cap; revoking it severs the port's
          whole delegation chain. *)
  client_caps : (int, int) Hashtbl.t;  (** port -> client-held session cap *)
}

(* Pre-resolved counter ids for the per-packet rx path and the broker's
   per-connection lookup (E21): interned once at [body], bumped via an
   array store. Cold paths (attach/revoke, poll ticks) stay
   string-keyed. *)
type hot_ids = {
  id_rx_shed : int;
  id_shed : int;
  id_rx_drop : int;
  id_drop : int;
  id_tx_busy : int;
  id_mitig_poll_rounds : int;
  id_mitig_reenable : int;
  id_flow_hit : int;
  id_flow_miss : int;
  id_no_route : int;
  id_rx_peak : int;
  hist : Overload.batch_hist;
}

type state = {
  mach : Machine.t;
  ids : hot_ids;
  free_tx : Frame.frame Queue.t;
  admit : Overload.Token_bucket.t option;
  vnet : broker option;
  rx_packets : (int * int) Overload.Bounded_queue.t; (* tag, len *)
  rx_waiters : Sysif.tid Queue.t;
}

let reply_safely dst m =
  try Sysif.send dst m with Sysif.Ipc_error _ -> ()

let flush_rx st =
  (* Pair queued packets with waiting clients. *)
  let rec go () =
    if
      (not (Overload.Bounded_queue.is_empty st.rx_packets))
      && not (Queue.is_empty st.rx_waiters)
    then begin
      let tag, len = Option.get (Overload.Bounded_queue.pop st.rx_packets) in
      let client = Queue.take st.rx_waiters in
      reply_safely client
        (Sysif.msg Proto.ok ~items:[ Sysif.Str { bytes = len; tag } ]);
      go ()
    end
  in
  go ()

(* Shed before the expensive receive work (livelock defense). *)
let shed_rx st (ev : Nic.rx_event) =
  let counters = st.mach.Machine.counters in
  Sysif.burn shed_work;
  Counter.incr_id counters st.ids.id_rx_shed;
  Counter.incr_id counters st.ids.id_shed;
  Nic.post_rx_buffer st.mach.Machine.nic ev.Nic.frame

(* Record the packet and immediately recycle the buffer: the driver
   touches descriptor rings, costing a few cycles. *)
let accept_rx st (ev : Nic.rx_event) =
  let counters = st.mach.Machine.counters in
  Sysif.burn 900;
  (match
     Overload.Bounded_queue.push st.rx_packets
       ~now:(Engine.now st.mach.Machine.engine)
       (ev.Nic.tag, ev.Nic.len)
   with
  | Overload.Bounded_queue.Accepted -> ()
  | Overload.Bounded_queue.Rejected ->
      Counter.incr_id counters st.ids.id_rx_drop;
      Counter.incr_id counters st.ids.id_drop
  | Overload.Bounded_queue.Displaced _ ->
      (* The newest packet is kept; the oldest queued one paid
         the price. *)
      Counter.incr_id counters st.ids.id_rx_drop;
      Counter.incr_id counters st.ids.id_drop
  | Overload.Bounded_queue.Retry_until _ ->
      (* Blocking is meaningless in interrupt context; treat as
         a rejection. *)
      Counter.incr_id counters st.ids.id_rx_drop;
      Counter.incr_id counters st.ids.id_drop);
  Overload.note_queue_peak_id counters st.ids.id_rx_peak
    (Overload.Bounded_queue.length st.rx_packets);
  Nic.post_rx_buffer st.mach.Machine.nic ev.Nic.frame

let rec drain_tx st =
  match Nic.tx_done st.mach.Machine.nic with
  | Some (frame, _len) ->
      Sysif.burn 700;
      Queue.add frame st.free_tx;
      drain_tx st
  | None -> ()

let handle_irq st =
  let nic = st.mach.Machine.nic in
  let rec drain_rx () =
    match Nic.rx_ready nic with
    | Some ev ->
        let admitted =
          match st.admit with
          | None -> true
          | Some bucket ->
              Overload.Token_bucket.admit bucket
                ~now:(Engine.now st.mach.Machine.engine)
        in
        if admitted then accept_rx st ev else shed_rx st ev;
        drain_rx ()
    | None -> ()
  in
  drain_rx ();
  drain_tx st;
  flush_rx st

(* Batched flush: pair every queued packet with a waiting client and
   deliver the whole set through one Send_batch kernel entry — one
   syscall overhead however many replies go out. The clients are
   Call-blocked on us, so every message in the batch is receptive. *)
let flush_rx_batched st =
  let batch = ref [] in
  while
    (not (Overload.Bounded_queue.is_empty st.rx_packets))
    && not (Queue.is_empty st.rx_waiters)
  do
    let tag, len = Option.get (Overload.Bounded_queue.pop st.rx_packets) in
    let client = Queue.take st.rx_waiters in
    batch :=
      (client, Sysif.msg Proto.ok ~items:[ Sysif.Str { bytes = len; tag } ])
      :: !batch
  done;
  match !batch with
  | [] -> ()
  | b -> ignore (Sysif.send_batch (List.rev b))

(* One poll round: drain up to [budget] packets at one poll_batch_cost,
   admit them as a batch, queue + repost each. Returns how many the
   round produced (0 = empty round). *)
let poll_round st ~budget =
  let counters = st.mach.Machine.counters in
  match Nic.poll st.mach.Machine.nic ~budget with
  | [] -> 0
  | evs ->
      Sysif.burn st.mach.Machine.arch.Arch.poll_batch_cost;
      Counter.incr_id counters st.ids.id_mitig_poll_rounds;
      let n = List.length evs in
      Overload.note_batch_hist counters st.ids.hist n;
      let k =
        match st.admit with
        | None -> n
        | Some bucket ->
            Overload.Token_bucket.admit_n bucket
              ~now:(Engine.now st.mach.Machine.engine)
              n
      in
      List.iteri
        (fun i ev ->
          if i >= k then shed_rx st ev
          else accept_rx st ev)
        evs;
      drain_tx st;
      flush_rx_batched st;
      n

(* NAPI service: mask the line on the wake that got us here, poll until a
   round comes back empty, then one unmask (which also acknowledges the
   whole coalesced burst) re-arms interrupt delivery. The post-unmask
   recheck closes the poll/unmask race. *)
let napi_service st ~budget =
  let nic = st.mach.Machine.nic in
  let line = Nic.irq_line nic in
  let counters = st.mach.Machine.counters in
  Sysif.irq_mask line;
  let rec rounds () =
    if poll_round st ~budget > 0 then rounds ()
    else begin
      drain_tx st;
      flush_rx_batched st;
      Sysif.irq_unmask line;
      Counter.incr_id counters st.ids.id_mitig_reenable;
      if Nic.rx_pending nic > 0 || Nic.tx_completions_pending nic > 0
      then begin
        Sysif.irq_mask line;
        rounds ()
      end
    end
  in
  rounds ()

(* Polling-only service (the line stays masked forever): spin poll
   rounds until the device is dry, then pick up any tx leftovers. *)
let poll_service st ~budget =
  let rec rounds () = if poll_round st ~budget > 0 then rounds () in
  rounds ();
  drain_tx st;
  flush_rx_batched st

let handle_client st client (m : Sysif.msg) =
  if m.Sysif.label = Proto.ping then reply_safely client (Sysif.msg Proto.ok)
  else if m.Sysif.label = Proto.net_send then begin
    let bytes = Sysif.str_total m in
    let tag = Option.value (Sysif.first_str_tag m) ~default:0 in
    match Queue.take_opt st.free_tx with
    | Some frame ->
        Sysif.burn 700; (* descriptor setup + tx path *)
        Frame.set_tag frame tag;
        Nic.submit_tx st.mach.Machine.nic frame ~len:bytes;
        reply_safely client (Sysif.msg Proto.ok)
    | None ->
        (* Transient exhaustion, not failure: tell the client to back
           off and retry (E15). *)
        Counter.incr_id st.mach.Machine.counters st.ids.id_tx_busy;
        reply_safely client (Sysif.msg Proto.busy)
  end
  else if m.Sysif.label = Proto.net_recv then begin
    Queue.add client st.rx_waiters;
    flush_rx st
  end
  else if m.Sysif.label = Proto.vnet_attach then begin
    match st.vnet with
    | None -> reply_safely client (Sysif.msg Proto.error)
    | Some vb ->
        let w = Sysif.words m in
        let port = if Array.length w > 0 then w.(0) else 0 in
        if port < 1 then reply_safely client (Sysif.msg Proto.error)
        else begin
          Sysif.burn vnet_attach_work;
          Hashtbl.replace vb.registry port client;
          Hashtbl.replace vb.rev client port;
          Vnet.Mac_table.learn vb.mac
            ~now:(Engine.now st.mach.Machine.engine)
            ~mac:port ~port;
          (* Session caps (E19): a broker-side cap derived from the
             service root, and a client-side cap derived from it in turn
             — revoking the broker-side cap severs the whole port. A
             re-attach (guest-kernel restart) replaces the old chain. *)
          (match Hashtbl.find_opt vb.sessions port with
          | Some old -> (
              try ignore (Sysif.cap_revoke ~handle:old ~self:true)
              with Sysif.Ipc_error _ -> ())
          | None -> ());
          let mine =
            Sysif.cap_derive ~handle:vb.svc ~to_:vb.self ~rights:Cap.r_full
          in
          let theirs =
            Sysif.cap_derive ~handle:mine ~to_:client
              ~rights:(Cap.r_read lor Cap.r_write)
          in
          Hashtbl.replace vb.sessions port mine;
          Hashtbl.replace vb.client_caps port theirs;
          Counter.incr st.mach.Machine.counters "drv.net.vnet_attach";
          reply_safely client
            (Sysif.msg Proto.ok ~items:[ Sysif.Words [| theirs |] ])
        end
  end
  else if m.Sysif.label = Proto.vnet_revoke then begin
    match st.vnet with
    | None -> reply_safely client (Sysif.msg Proto.error)
    | Some vb -> (
        let w = Sysif.words m in
        let port = if Array.length w > 0 then w.(0) else 0 in
        match Hashtbl.find_opt vb.sessions port with
        | None -> reply_safely client (Sysif.msg Proto.error)
        | Some mine ->
            let removed =
              try Sysif.cap_revoke ~handle:mine ~self:true
              with Sysif.Ipc_error _ -> 0
            in
            Hashtbl.remove vb.sessions port;
            Hashtbl.remove vb.client_caps port;
            (match Hashtbl.find_opt vb.registry port with
            | Some tid -> Hashtbl.remove vb.rev tid
            | None -> ());
            Hashtbl.remove vb.registry port;
            Counter.incr st.mach.Machine.counters "drv.net.vnet_revoke";
            reply_safely client
              (Sysif.msg Proto.ok ~items:[ Sysif.Words [| removed |] ]))
  end
  else if m.Sysif.label = Proto.vnet_lookup then begin
    match st.vnet with
    | None -> reply_safely client (Sysif.msg Proto.error)
    | Some vb -> (
        let counters = st.mach.Machine.counters in
        let w = Sysif.words m in
        let dst = if Array.length w > 0 then w.(0) else 0 in
        (* Rights gate (E19): the requester must still be attached and
           hold its session capability — a revoked port can no longer
           resolve peers. *)
        let session_ok port tid =
          match Hashtbl.find_opt vb.client_caps port with
          | None -> true
          | Some handle ->
              Sysif.cap_check ~subject:tid ~handle ~need:Cap.r_read
        in
        let src_ok =
          match Hashtbl.find_opt vb.rev client with
          | None -> None (* revoked or never attached *)
          | Some src -> if session_ok src client then Some src else None
        in
        match src_ok with
        | None ->
            Counter.incr counters "drv.net.vnet_denied";
            reply_safely client (Sysif.msg Proto.error)
        | Some src ->
        (
        (* Allocation-free resolve (E21): [find_port]/[lookup_port]
           return [-1] for a miss instead of boxing an option. *)
        let resolved =
          let cached = Vnet.Flow_cache.find_port vb.flows ~src ~dst in
          if cached >= 0 then begin
            Sysif.burn Vnet.flow_hit_cost;
            Counter.incr_id counters st.ids.id_flow_hit;
            cached
          end
          else begin
            Sysif.burn Vnet.flow_miss_cost;
            Counter.incr_id counters st.ids.id_flow_miss;
            let port =
              Vnet.Mac_table.lookup_port vb.mac
                ~now:(Engine.now st.mach.Machine.engine)
                dst
            in
            if port >= 0 then
              Vnet.Flow_cache.insert vb.flows ~src ~dst ~port;
            port
          end
        in
        match
          if resolved < 0 then None else Hashtbl.find_opt vb.registry resolved
        with
        | Some tid when session_ok resolved tid ->
            reply_safely client
              (Sysif.msg Proto.ok ~items:[ Sysif.Words [| tid |] ])
        | Some _ ->
            (* Destination port's session was revoked: unreachable. *)
            Counter.incr counters "drv.net.vnet_denied";
            reply_safely client (Sysif.msg Proto.error)
        | None ->
            Counter.incr_id counters st.ids.id_no_route;
            reply_safely client (Sysif.msg Proto.error)))
  end
  else reply_safely client (Sysif.msg Proto.error)

let body mach ?admit ?rx_capacity ?napi ?poll ?(vnet = false) () =
  let st =
    let c = mach.Machine.counters in
    {
      mach;
      ids =
        {
          id_rx_shed = Counter.id c "drv.net.rx_shed";
          id_shed = Counter.id c Overload.shed_counter;
          id_rx_drop = Counter.id c "drv.net.rx_drop";
          id_drop = Counter.id c Overload.drop_counter;
          id_tx_busy = Counter.id c "drv.net.tx_busy";
          id_mitig_poll_rounds = Counter.id c Overload.mitig_poll_rounds_counter;
          id_mitig_reenable = Counter.id c Overload.mitig_reenable_counter;
          id_flow_hit = Counter.id c "vnet.flow_hit";
          id_flow_miss = Counter.id c "vnet.flow_miss";
          id_no_route = Counter.id c "vnet.no_route";
          id_rx_peak = Overload.queue_peak_id c ~name:"net_rx";
          hist = Overload.batch_hist c;
        };
      free_tx = Queue.create ();
      admit;
      vnet =
        (if vnet then
           Some
             {
               mac = Vnet.Mac_table.create ();
               flows = Vnet.Flow_cache.create ~capacity:64 ();
               registry = Hashtbl.create 8;
               rev = Hashtbl.create 8;
               svc = Sysif.cap_mint ~obj:0xE19 ~rights:Cap.r_full;
               self = Sysif.my_tid ();
               sessions = Hashtbl.create 8;
               client_caps = Hashtbl.create 8;
             }
         else None);
      (* [max_int] capacity = the naive unbounded queue (still tracks
         its high-water mark for the E15 report). *)
      rx_packets =
        Overload.Bounded_queue.create
          ~policy:Overload.Bounded_queue.Drop_oldest
          ~capacity:(Option.value rx_capacity ~default:max_int)
          ();
      rx_waiters = Queue.create ();
    }
  in
  let frames = mach.Machine.frames in
  for _ = 1 to 16 do
    Nic.post_rx_buffer mach.Machine.nic
      (Frame.alloc frames ~owner:account ~kind:Frame.Device_buffer ())
  done;
  for _ = 1 to 16 do
    Queue.add
      (Frame.alloc frames ~owner:account ~kind:Frame.Device_buffer ())
      st.free_tx
  done;
  Sysif.irq_attach Machine.nic_irq;
  match poll with
  | Some period ->
      (* Polling-only: the line never delivers — service the NIC on the
         receive timeout instead. *)
      let budget = Option.value napi ~default:16 in
      Sysif.irq_mask Machine.nic_irq;
      let rec loop () =
        (match Sysif.recv ~timeout:period Sysif.Any with
        | src, m ->
            if Sysif.is_irq_tid src then handle_irq st
            else handle_client st src m;
            poll_service st ~budget
        | exception Sysif.Ipc_error Sysif.Timeout ->
            Counter.incr mach.Machine.counters "drv.net.poll_ticks";
            poll_service st ~budget);
        loop ()
      in
      loop ()
  | None ->
      let rec loop () =
        let src, m = Sysif.recv Sysif.Any in
        if Sysif.is_irq_tid src then begin
          match napi with
          | Some budget -> napi_service st ~budget
          | None -> handle_irq st
        end
        else handle_client st src m;
        loop ()
      in
      loop ()
