module Machine = Vmk_hw.Machine
module Counter = Vmk_trace.Counter
module Rng = Vmk_sim.Rng
module Sysif = Vmk_ukernel.Sysif
module Proto = Vmk_ukernel.Proto
module Svc = Vmk_ukernel.Svc
module Overload = Vmk_overload.Overload

let gk_account = "guestk"

type retry = {
  attempts : int;
  timeout : int64;
  base_delay : int64;
  rng : Rng.t;
  mach : Machine.t;
}

let retry ~mach ?(attempts = 5) ?(timeout = 2_000_000L)
    ?(base_delay = 100_000L) rng =
  { attempts; timeout; base_delay; rng; mach }

(* Syscall opcodes on the wire between application and guest kernel. *)
let op_getpid = 1
let op_yield = 2
let op_net_send = 3
let op_net_recv = 4
let op_blk_write = 5
let op_blk_read = 6
let op_fs_create = 7
let op_fs_append = 8
let op_fs_read = 9
let op_exit = 10

(* --- inter-guest vnet endpoint (E17) --- *)

(* Guest-kernel work per direct-IPC packet beyond the kernel-charged
   rendezvous/transfer: queue handling, header decode. *)
let vnet_rx_work = 300

(* Pre-resolved counter ids for the per-packet direct-IPC path (E21).
   Retry/give-up and connection-setup counters stay string-keyed — they
   fire per backoff event or per peer, not per packet. *)
type vnet_ids = {
  vi_tx : int;
  vi_ecn_mark : int;
  vi_ecn_backoff : int;
  vi_vnet_drop : int;
  vi_drop : int;
}

type vnet = {
  v_mach : Machine.t;
  v_ids : vnet_ids;
  v_port : int;  (** This guest's address on the fabric. *)
  v_rx : (int * int) Overload.Bounded_queue.t;  (** (tag, len) *)
  v_peers : (int, Sysif.tid) Hashtbl.t;  (** Resolved port -> gk tid. *)
  v_opened : (int, unit) Hashtbl.t;  (** Peers with the mapping set up. *)
  v_unknown : (int, unit) Hashtbl.t;  (** Negative lookup cache. *)
  mutable v_sent : int;
}

(* Rendezvous timeout on the data path, and the sender's pause after a
   marked reply. *)
let vnet_timeout = 2_000_000L
let vnet_ecn_delay = 100_000L

let vnet ~mach ~port ?mark_at () =
  if port < 1 then invalid_arg "Port_l4.vnet: port < 1";
  let c = mach.Machine.counters in
  {
    v_mach = mach;
    v_ids =
      {
        vi_tx = Counter.id c "l4.vnet_tx";
        vi_ecn_mark = Counter.id c Overload.ecn_mark_counter;
        vi_ecn_backoff = Counter.id c Overload.ecn_backoff_counter;
        vi_vnet_drop = Counter.id c "vnet.drop";
        vi_drop = Counter.id c Overload.drop_counter;
      };
    v_port = port;
    v_rx = Overload.Bounded_queue.create ?mark_at ~capacity:64 ();
    v_peers = Hashtbl.create 8;
    v_opened = Hashtbl.create 8;
    v_unknown = Hashtbl.create 8;
    v_sent = 0;
  }

let vnet_sent v = v.v_sent

(* --- guest-kernel server --- *)

type gk_state = {
  net : unit -> Sysif.tid option;
      (** Resolved per attempt, so a watchdog rebind takes effect. *)
  blk : unit -> Sysif.tid option;
  retry : retry option;
  vnet : vnet option;
  mutable fs : Minifs.t option;
}

let kernel_work_of_op op =
  Sys.kernel_work
    (if op = op_getpid then Sys.G_getpid
     else if op = op_yield then Sys.G_yield
     else if op = op_net_send then Sys.G_net_send { len = 0; tag = 0 }
     else if op = op_net_recv then Sys.G_net_recv
     else if op = op_blk_write then Sys.G_blk_write { sector = 0; len = 0; tag = 0 }
     else if op = op_blk_read then Sys.G_blk_read { sector = 0; len = 0 }
     else if op = op_fs_create then Sys.G_fs_create ""
     else if op = op_fs_append then Sys.G_fs_append { fd = 0; tag = 0 }
     else if op = op_fs_read then Sys.G_fs_read { fd = 0; index = 0 }
     else Sys.G_exit)

let error_reply = Sysif.msg Proto.error
let ok_reply ?items () = Sysif.msg Proto.ok ?items

(* Transient outcomes worth retrying: a device fault ([error]) or the
   server shedding load ([busy], E15). *)
let retryable label = label = Proto.error || label = Proto.busy

(* One driver RPC. Without a retry policy this is the original
   fire-once call. With one, IPC failures (dead or wedged server) and
   retryable replies (transient device faults, overload sheds) are
   retried against a freshly resolved tid — picking up watchdog
   respawns — on the shared {!Overload.Backoff} schedule: exponential
   delay plus seeded jitter, itemized under [overload.retry] /
   [overload.backoff_cycles]. *)
let driver_call st resolve m =
  let once ?timeout server =
    match Sysif.call ?timeout server m with
    | _, reply -> Some reply
    | exception Sysif.Ipc_error _ -> None
  in
  match st.retry with
  | None -> Option.bind (resolve ()) (fun server -> once server)
  | Some r ->
      let counters = r.mach.Machine.counters in
      let backoff =
        Overload.Backoff.create ~attempts:r.attempts ~base:r.base_delay r.rng
      in
      let last = ref None in
      let try_once () =
        match
          Option.bind (resolve ()) (fun server -> once ~timeout:r.timeout server)
        with
        | Some reply when not (retryable reply.Sysif.label) -> Some reply
        | outcome ->
            last := outcome;
            None
      in
      let sleep d =
        Counter.incr counters "l4.retries";
        Sysif.sleep d
      in
      match Overload.Backoff.run backoff ~counters ~sleep try_once with
      | Some _ as reply -> reply
      | None ->
          Counter.incr counters "l4.gaveup";
          !last

let reply_safely dst m = try Sysif.send dst m with Sysif.Ipc_error _ -> ()

(* Receiver half of the direct channel: queue the packet, answer with
   the ECN mark — or [busy] when the bounded queue rejects (the sender
   retries under backoff, exactly like a shedding driver). *)
let vnet_accept v (m : Sysif.msg) =
  let counters = v.v_mach.Machine.counters in
  Sysif.burn vnet_rx_work;
  let len = Sysif.str_total m in
  let tag = Option.value (Sysif.first_str_tag m) ~default:0 in
  match
    Overload.Bounded_queue.push v.v_rx
      ~now:(Vmk_sim.Engine.now v.v_mach.Machine.engine)
      (tag, len)
  with
  | Overload.Bounded_queue.Accepted | Overload.Bounded_queue.Displaced _ ->
      let mark = Overload.Bounded_queue.marked v.v_rx in
      if mark then Counter.incr_id counters v.v_ids.vi_ecn_mark;
      ok_reply ~items:[ Sysif.Words [| (if mark then 1 else 0) |] ] ()
  | Overload.Bounded_queue.Rejected | Overload.Bounded_queue.Retry_until _ ->
      Counter.incr_id counters v.v_ids.vi_vnet_drop;
      Counter.incr_id counters v.v_ids.vi_drop;
      Sysif.msg Proto.busy

let vnet_open_accept v (m : Sysif.msg) =
  (* Accepting the granted fpage {e is} the channel setup; the kernel
     already charged the map transfer. *)
  ignore (Sysif.map_items m);
  Counter.incr v.v_mach.Machine.counters "l4.vnet_accepted";
  ok_reply ()

(* Resolve a destination port to its guest kernel: peer cache, then one
   broker round trip ({!Proto.vnet_lookup}); misses are cached
   negatively so unknown ports cost one lookup, not one per packet. *)
let vnet_resolve st v dst =
  match Hashtbl.find_opt v.v_peers dst with
  | Some tid -> Some tid
  | None ->
      if Hashtbl.mem v.v_unknown dst then None
      else begin
        match
          driver_call st st.net
            (Sysif.msg Proto.vnet_lookup ~items:[ Sysif.Words [| dst |] ])
        with
        | Some r
          when r.Sysif.label = Proto.ok && Array.length (Sysif.words r) > 0
          ->
            let tid = (Sysif.words r).(0) in
            Hashtbl.replace v.v_peers dst tid;
            Some tid
        | Some _ | None ->
            Hashtbl.replace v.v_unknown dst ();
            None
      end

(* First contact with a peer: grant it a page — the shared-mapping setup
   of the direct channel. Failure is not fatal; the data path still
   works and the open is retried on the next send. *)
let vnet_open_peer v peer dst =
  if not (Hashtbl.mem v.v_opened dst) then begin
    match
      Sysif.call ~timeout:vnet_timeout peer
        (Sysif.msg Proto.vnet_open
           ~items:[ Sysif.Map { fpage = Sysif.alloc_pages 1; grant = true } ])
    with
    | _, r when r.Sysif.label = Proto.ok ->
        Counter.incr v.v_mach.Machine.counters "l4.vnet_open";
        Hashtbl.replace v.v_opened dst ()
    | _, _ -> ()
    | exception Sysif.Ipc_error _ -> ()
  end

(* One data packet, gk → gk, as a Call carrying a string item; the
   reply bounces the receiver's ECN mark. [busy] and missed rendezvous
   retry on the shared backoff schedule. *)
let vnet_send st v ~len ~tag peer =
  let counters = v.v_mach.Machine.counters in
  let once () =
    match
      Sysif.call ~timeout:vnet_timeout peer
        (Sysif.msg Proto.vnet_pkt ~items:[ Sysif.Str { bytes = len; tag } ])
    with
    | _, r when r.Sysif.label = Proto.ok ->
        v.v_sent <- v.v_sent + 1;
        Counter.incr_id counters v.v_ids.vi_tx;
        let w = Sysif.words r in
        if Array.length w > 0 && w.(0) = 1 then begin
          (* Receiver past its watermark: pace before it drops. *)
          Counter.incr_id counters v.v_ids.vi_ecn_backoff;
          Sysif.sleep vnet_ecn_delay
        end;
        Some (ok_reply ())
    | _, r when r.Sysif.label = Proto.busy -> None
    | _, _ -> Some error_reply
    | exception Sysif.Ipc_error _ -> None
  in
  match st.retry with
  | None -> ( match once () with Some reply -> reply | None -> error_reply)
  | Some r -> (
      let backoff =
        Overload.Backoff.create ~attempts:r.attempts ~base:r.base_delay r.rng
      in
      let sleep d =
        Counter.incr counters "l4.retries";
        Sysif.sleep d
      in
      match Overload.Backoff.run backoff ~counters ~sleep once with
      | Some reply -> reply
      | None ->
          Counter.incr counters "l4.gaveup";
          error_reply)

(* Blocking receive off the fabric: drain the local queue, else sit in
   an open receive absorbing direct-IPC traffic (senders are
   Call-blocked on us, so a plain send always reaches them) until a
   packet lands or the timeout fires. *)
let rec vnet_recv st v =
  match Overload.Bounded_queue.pop v.v_rx with
  | Some (tag, len) -> ok_reply ~items:[ Sysif.Str { bytes = len; tag } ] ()
  | None -> (
      match Sysif.recv ~timeout:vnet_timeout Sysif.Any with
      | src, m when m.Sysif.label = Proto.vnet_pkt ->
          reply_safely src (vnet_accept v m);
          vnet_recv st v
      | src, m when m.Sysif.label = Proto.vnet_open ->
          reply_safely src (vnet_open_accept v m);
          vnet_recv st v
      | src, _ ->
          reply_safely src error_reply;
          vnet_recv st v
      | exception Sysif.Ipc_error Sysif.Timeout -> error_reply
      | exception Sysif.Ipc_error _ -> error_reply)

let gk_blk_op st ~write ~sector ~bytes ~tag =
  if write then
    driver_call st st.blk
      (Sysif.msg Proto.blk_write
         ~items:[ Sysif.Words [| sector |]; Sysif.Str { bytes; tag } ])
  else
    driver_call st st.blk
      (Sysif.msg Proto.blk_read ~items:[ Sysif.Words [| sector; bytes |] ])

let gk_fs st =
  match st.fs with
  | Some fs -> fs
  | None ->
      let read ~sector =
        match gk_blk_op st ~write:false ~sector ~bytes:Sys.block_size ~tag:0 with
        | Some reply when reply.Sysif.label = Proto.ok ->
            Sysif.first_str_tag reply
        | Some _ | None -> None
      in
      let write ~sector ~tag =
        match gk_blk_op st ~write:true ~sector ~bytes:Sys.block_size ~tag with
        | Some reply -> reply.Sysif.label = Proto.ok
        | None -> false
      in
      let fs = Minifs.create ~read ~write () in
      st.fs <- Some fs;
      fs

let serve st (m : Sysif.msg) =
  let w = Sysif.words m in
  let arg i = if Array.length w > i then w.(i) else 0 in
  let op = arg 0 in
  Sysif.burn (kernel_work_of_op op);
  if op = op_getpid then ok_reply ~items:[ Sysif.Words [| 1 |] ] ()
  else if op = op_yield then begin
    Sysif.yield ();
    ok_reply ()
  end
  else if op = op_net_send then begin
    let bytes = Sysif.str_total m in
    let tag = Option.value (Sysif.first_str_tag m) ~default:0 in
    (* On the fabric, a resolvable vnet destination goes direct
       (gk → gk IPC); everything else — broadcast, unknown ports,
       plain traffic — takes the driver path. *)
    let direct =
      match st.vnet with
      | None -> None
      | Some v ->
          let dst = Sys.vnet_dst tag in
          if dst = Sys.vnet_broadcast then None
          else
            Option.map
              (fun peer -> (v, peer, dst))
              (vnet_resolve st v dst)
    in
    match direct with
    | Some (v, peer, dst) ->
        vnet_open_peer v peer dst;
        vnet_send st v ~len:bytes ~tag peer
    | None -> (
        match
          driver_call st st.net
            (Sysif.msg Proto.net_send ~items:[ Sysif.Str { bytes; tag } ])
        with
        | Some reply when reply.Sysif.label = Proto.ok -> ok_reply ()
        | Some _ | None -> error_reply)
  end
  else if op = op_net_recv then begin
    match st.vnet with
    | Some v -> vnet_recv st v
    | None -> (
        match driver_call st st.net (Sysif.msg Proto.net_recv) with
        | Some reply when reply.Sysif.label = Proto.ok ->
            let bytes = Sysif.str_total reply in
            let tag = Option.value (Sysif.first_str_tag reply) ~default:0 in
            ok_reply ~items:[ Sysif.Str { bytes; tag } ] ()
        | Some _ | None -> error_reply)
  end
  else if op = op_blk_write then begin
    let bytes = Sysif.str_total m in
    let tag = Option.value (Sysif.first_str_tag m) ~default:0 in
    match gk_blk_op st ~write:true ~sector:(arg 1) ~bytes ~tag with
    | Some reply when reply.Sysif.label = Proto.ok -> ok_reply ()
    | Some _ | None -> error_reply
  end
  else if op = op_blk_read then begin
    match gk_blk_op st ~write:false ~sector:(arg 1) ~bytes:(arg 2) ~tag:0 with
    | Some reply when reply.Sysif.label = Proto.ok ->
        let tag = Option.value (Sysif.first_str_tag reply) ~default:0 in
        ok_reply ~items:[ Sysif.Str { bytes = arg 2; tag } ] ()
    | Some _ | None -> error_reply
  end
  else if op = op_fs_create then begin
    let fd = Minifs.open_or_create (gk_fs st) (string_of_int (arg 1)) in
    ok_reply ~items:[ Sysif.Words [| fd |] ] ()
  end
  else if op = op_fs_append then begin
    if Minifs.append (gk_fs st) ~fd:(arg 1) ~tag:(arg 2) then ok_reply ()
    else error_reply
  end
  else if op = op_fs_read then begin
    match Minifs.read_block (gk_fs st) ~fd:(arg 1) ~index:(arg 2) with
    | Some tag -> ok_reply ~items:[ Sysif.Words [| tag |] ] ()
    | None -> error_reply
  end
  else if op = op_exit then ok_reply ()
  else error_reply

let guest_kernel_body ?retry ?net_svc ?blk_svc ?vnet ~net ~blk () =
  let resolve svc fixed =
    match svc with
    | Some e -> fun () -> Some (Svc.tid e)
    | None -> fun () -> fixed
  in
  let st =
    {
      net = resolve net_svc net;
      blk = resolve blk_svc blk;
      retry;
      vnet;
      fs = None;
    }
  in
  (* Join the fabric before serving: register our port with the broker
     so peers can resolve us. *)
  (match st.vnet with
  | None -> ()
  | Some v -> (
      match
        driver_call st st.net
          (Sysif.msg Proto.vnet_attach ~items:[ Sysif.Words [| v.v_port |] ])
      with
      | Some r when r.Sysif.label = Proto.ok -> ()
      | Some _ | None ->
          Logs.warn (fun m -> m "gk: vnet attach failed (port %d)" v.v_port)));
  (* Peers on the fabric talk to this server directly, interleaved with
     the application's syscalls. *)
  let handle (m : Sysif.msg) =
    if m.Sysif.label = Proto.vnet_pkt then
      match st.vnet with Some v -> vnet_accept v m | None -> error_reply
    else if m.Sysif.label = Proto.vnet_open then
      match st.vnet with
      | Some v -> vnet_open_accept v m
      | None -> error_reply
    else serve st m
  in
  let rec loop (client, m) =
    let reply = handle m in
    match Sysif.reply_wait client reply with
    | next -> loop next
    | exception Sysif.Ipc_error _ ->
        (* Client died mid-call; serve the next one. *)
        loop (Sysif.recv Sysif.Any)
  in
  loop (Sysif.recv Sysif.Any)

(* --- application side --- *)

let gk_call gk m =
  match Sysif.call gk m with
  | _, reply -> reply
  | exception Sysif.Ipc_error _ -> raise (Sys.Sys_error "guest kernel dead")

let handler mach gk =
  let id_gsys = Counter.id mach.Machine.counters "gsys.count" in
  let name_ids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let next_name = ref 1 in
  let intern name =
    match Hashtbl.find_opt name_ids name with
    | Some id -> id
    | None ->
        let id = !next_name in
        incr next_name;
        Hashtbl.add name_ids name id;
        id
  in
  fun call ->
    match call with
    | Sys.G_burn n ->
        Sysif.burn n;
        Sys.G_unit
    | _ -> begin
        Counter.incr_id mach.Machine.counters id_gsys;
        let rpc ?items words =
          gk_call gk
            (Sysif.msg Proto.guest_syscall
               ~items:(Sysif.Words words :: Option.value items ~default:[]))
        in
        let reply =
          match call with
          | Sys.G_burn _ -> assert false
          | Sys.G_getpid -> rpc [| op_getpid |]
          | Sys.G_yield -> rpc [| op_yield |]
          | Sys.G_net_send { len; tag } ->
              rpc [| op_net_send |] ~items:[ Sysif.Str { bytes = len; tag } ]
          | Sys.G_net_drain ->
              (* Direct-IPC sends are synchronous calls: by the time
                 [vnet_send] returns the packet sits in the peer's
                 endpoint queue, so there is nothing in flight. *)
              Sysif.msg Proto.ok
          | Sys.G_net_recv -> rpc [| op_net_recv |]
          | Sys.G_blk_write { sector; len; tag } ->
              rpc
                [| op_blk_write; sector |]
                ~items:[ Sysif.Str { bytes = len; tag } ]
          | Sys.G_blk_read { sector; len } -> rpc [| op_blk_read; sector; len |]
          | Sys.G_fs_create name -> rpc [| op_fs_create; intern name |]
          | Sys.G_fs_append { fd; tag } -> rpc [| op_fs_append; fd; tag |]
          | Sys.G_fs_read { fd; index } -> rpc [| op_fs_read; fd; index |]
          | Sys.G_exit -> rpc [| op_exit |]
        in
        if reply.Sysif.label <> Proto.ok then Sys.G_error "syscall failed"
        else begin
          let w = Sysif.words reply in
          match call with
          | Sys.G_getpid | Sys.G_fs_create _ | Sys.G_fs_read _ ->
              Sys.G_int (if Array.length w > 0 then w.(0) else 0)
          | Sys.G_net_recv | Sys.G_blk_read _ ->
              let len = Sysif.str_total reply in
              let tag = Option.value (Sysif.first_str_tag reply) ~default:0 in
              Sys.G_data { len; tag }
          | Sys.G_burn _ | Sys.G_yield | Sys.G_net_send _ | Sys.G_net_drain
          | Sys.G_blk_write _ | Sys.G_fs_append _ | Sys.G_exit ->
              Sys.G_unit
        end
      end

let app_body mach ~gk app () = Sys.run_with_handler ~handler:(handler mach gk) app
