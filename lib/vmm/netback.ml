module Frame = Vmk_hw.Frame
module Arch = Vmk_hw.Arch
module Machine = Vmk_hw.Machine
module Nic = Vmk_hw.Nic
module Engine = Vmk_sim.Engine
module Counter = Vmk_trace.Counter
module Overload = Vmk_overload.Overload

(* Per-packet backend work beyond the hypercalls: ring manipulation,
   demux, softirq bookkeeping. *)
let per_packet_work = 900
let per_tx_work = 700

(* Cost of shedding a packet at the admission gate: look at the header,
   consult the bucket, recycle the buffer. An order of magnitude cheaper
   than full delivery — the whole point of the livelock defense. *)
let shed_work = 120

(* Pre-resolved counter ids for the per-packet path (E21): interned once
   at connect, bumped via an array store instead of a string hash on
   every packet. Cold paths (handshake, teardown) stay string-keyed. *)
type hot_ids = {
  id_drop : int;
  id_ring_drop : int;
  id_ring_reject : int;
  id_tx_packets : int;
  id_rx_packets : int;
  id_rx_bytes : int;
  id_rx_ring_full : int;
  id_rx_nobuf : int;
  id_rx_shed : int;
  id_shed : int;
  id_txr_ring_full : int;
  id_mitig_reenable : int;
  id_mitig_poll_rounds : int;
}

let intern_hot_ids c =
  {
    id_drop = Counter.id c Overload.drop_counter;
    id_ring_drop = Counter.id c "overload.ring_drop.net";
    id_ring_reject = Counter.id c (Overload.ring_reject_prefix ^ "net");
    id_tx_packets = Counter.id c "netback.tx_packets";
    id_rx_packets = Counter.id c "netback.rx_packets";
    id_rx_bytes = Counter.id c "netback.rx_bytes";
    id_rx_ring_full = Counter.id c "netback.rx_ring_full";
    id_rx_nobuf = Counter.id c "netback.rx_nobuf";
    id_rx_shed = Counter.id c "netback.rx_shed";
    id_shed = Counter.id c Overload.shed_counter;
    id_txr_ring_full = Counter.id c "netback.txr_ring_full";
    id_mitig_reenable = Counter.id c Overload.mitig_reenable_counter;
    id_mitig_poll_rounds = Counter.id c Overload.mitig_poll_rounds_counter;
  }

type t = {
  chan : Net_channel.t;
  mach : Machine.t;
  ids : hot_ids;
  front : Hcall.domid;
  my_port : Hcall.port;
  pool : Frame.frame Queue.t;  (** Dom0-owned buffers for NIC posting. *)
  flip_posts : Hcall.gref Queue.t;
  copy_grants : Hcall.gref Queue.t;
  tx_pending : (int, Hcall.gref) Hashtbl.t;  (** frame index -> gref *)
  admit : Overload.Token_bucket.t option;
      (** Rx admission gate; [None] admits everything (naive). *)
  napi : (int * Overload.batch_hist) option;
      (** NAPI poll budget and the batch-size histogram it feeds; [None]
          keeps the interrupt-per-packet path. *)
  attach_nic : bool;
      (** Bridge backends ([false]) keep their pool frames instead of
          posting them to the unused physical NIC. *)
  mutable tx_handler : (len:int -> tag:int -> bool) option;
      (** When set, transmits are handed here (the Dom0 bridge) instead
          of the physical NIC, completing immediately; the handler's
          result is bounced to the frontend as the ECN mark. *)
  mutable rx_delivered : int;
  mutable dirty : bool;  (** Responses pushed since the last notify. *)
}

(* Receive buffers a NIC-attached backend keeps posted. *)
let nic_buffers = 16

let restock_nic t =
  if t.attach_nic then
    while
      Nic.rx_buffers_posted t.mach.Machine.nic < nic_buffers
      && not (Queue.is_empty t.pool)
    do
      Nic.post_rx_buffer t.mach.Machine.nic (Queue.take t.pool)
    done

let pump_frontend_posts t =
  let rec drain () =
    match Ring.pop_request t.chan.Net_channel.rx_ring with
    | Some (Net_channel.Rx_post_flip { flip_gref }) ->
        Hcall.burn Net_channel.ring_cost;
        Queue.add flip_gref t.flip_posts;
        drain ()
    | Some (Net_channel.Rx_post_copy { rx_gref }) ->
        Hcall.burn Net_channel.ring_cost;
        Queue.add rx_gref t.copy_grants;
        drain ()
    | None -> ()
  in
  drain ();
  restock_nic t

(* XenBus handshake; see {!Blkback.connect_opt} for the generation
   scheme shared by both backends. *)
let connect_opt ?timeout ?(generation = 0) ?admit ?napi
    ?(attach_nic = true) chan mach () =
  let key = chan.Net_channel.key in
  let sub path =
    if generation = 0 then key ^ "/" ^ path
    else Printf.sprintf "%s/g%d/%s" key generation path
  in
  if generation > 0 then begin
    Hcall.xs_write ~path:(sub "backend-dom")
      ~value:(string_of_int (Hcall.dom_id ()));
    Hcall.xs_write ~path:(key ^ "/gen") ~value:(string_of_int generation)
  end;
  match Hcall.xs_wait_for ?timeout (sub "frontend-dom") with
  | None -> None
  | Some front_s -> (
      match Hcall.xs_wait_for ?timeout (sub "frontend-port") with
      | None -> None
      | Some offer_s -> (
          let front = int_of_string front_s in
          let offer = int_of_string offer_s in
          match Hcall.evtchn_bind ~remote_dom:front ~remote_port:offer with
          | my_port ->
              chan.Net_channel.back_port <- Some my_port;
              Hcall.xs_write ~path:(sub "backend-port")
                ~value:(string_of_int my_port);
              let ids = intern_hot_ids mach.Machine.counters in
              let t =
                {
                  chan;
                  mach;
                  ids;
                  front;
                  my_port;
                  pool = Queue.create ();
                  flip_posts = Queue.create ();
                  copy_grants = Queue.create ();
                  tx_pending = Hashtbl.create 32;
                  admit;
                  napi =
                    Option.map
                      (fun budget ->
                        (budget, Overload.batch_hist mach.Machine.counters))
                      napi;
                  attach_nic;
                  tx_handler = None;
                  rx_delivered = 0;
                  dirty = false;
                }
              in
              (* A rejected {e response} push is payload the backend
                 accepted and could not deliver — a real machine-wide
                 drop. A rejected {e request} push is producer
                 back-pressure: the frontend still holds the buffer and
                 retries under backoff, so it is itemized separately
                 (the old shared hook multi-counted every retried tx
                 attempt as a drop). *)
              let count_ring_drop () =
                Counter.incr_id mach.Machine.counters ids.id_drop;
                Counter.incr_id mach.Machine.counters ids.id_ring_drop
              in
              let count_ring_reject () =
                Counter.incr_id mach.Machine.counters ids.id_ring_reject
              in
              Ring.on_response_drop chan.Net_channel.tx_ring count_ring_drop;
              Ring.on_response_drop chan.Net_channel.rx_ring count_ring_drop;
              Ring.on_request_drop chan.Net_channel.tx_ring count_ring_reject;
              Ring.on_request_drop chan.Net_channel.rx_ring count_ring_reject;
              List.iter
                (fun f -> Queue.add f t.pool)
                (Hcall.alloc_frames nic_buffers);
              pump_frontend_posts t;
              Some t
          | exception Hcall.Hcall_error _ -> None))

let set_tx_handler t h = t.tx_handler <- Some h

let port t = t.my_port
let demux_key t = t.chan.Net_channel.demux_key

let notify t = try Hcall.evtchn_send t.my_port with Hcall.Hcall_error _ -> ()

let handle_event t =
  pump_frontend_posts t;
  let rec drain_tx () =
    match Ring.pop_request t.chan.Net_channel.tx_ring with
    | Some { Net_channel.tx_gref; tx_len } -> begin
        Hcall.burn (Net_channel.ring_cost + per_tx_work);
        match Hcall.grant_map ~dom:t.front ~gref:tx_gref with
        | frame ->
            (match t.tx_handler with
            | Some handler ->
                (* Bridge path: the packet goes to the virtual switch,
                   not the NIC. The transmit completes immediately —
                   the frame was consumed by the handler — and the
                   switch's congestion verdict rides back on the
                   response as the ECN mark. *)
                let tag = frame.Frame.tag in
                let mark = handler ~len:tx_len ~tag in
                (try Hcall.grant_unmap ~dom:t.front ~gref:tx_gref
                 with Hcall.Hcall_error _ -> ());
                Hcall.burn Net_channel.ring_cost;
                if
                  Ring.push_response t.chan.Net_channel.tx_ring
                    { Net_channel.txr_gref = tx_gref; txr_mark = mark }
                then t.dirty <- true
                else
                  Counter.incr_id t.mach.Machine.counters
                    t.ids.id_txr_ring_full
            | None ->
                Hashtbl.replace t.tx_pending frame.Frame.index tx_gref;
                Nic.submit_tx t.mach.Machine.nic frame ~len:tx_len);
            Counter.incr_id t.mach.Machine.counters t.ids.id_tx_packets;
            drain_tx ()
        | exception Hcall.Hcall_error _ -> drain_tx ()
      end
    | None -> ()
  in
  drain_tx ()

(* A full rx response ring means the frontend is not consuming: reject
   before any grant work so nothing irreversible (a flipped frame, a
   copied payload) happens for a packet that cannot be delivered. No
   push is attempted, so the ring's drop hook never fires — the
   machine-wide count below is the only one (it used to claim the hook
   had counted it too, which was never true). *)
let rx_ring_full t =
  if Ring.response_space t.chan.Net_channel.rx_ring = 0 then begin
    Counter.incr_id t.mach.Machine.counters t.ids.id_rx_ring_full;
    Counter.incr_id t.mach.Machine.counters t.ids.id_drop;
    true
  end
  else false

(* One hypercall swaps the filled NIC buffer against a page the frontend
   offered; the taken empty page refills the NIC pool. *)
let deliver_flip t (ev : Nic.rx_event) =
  if rx_ring_full t then begin
    Queue.add ev.Nic.frame t.pool;
    false
  end
  else
    match Queue.take_opt t.flip_posts with
    | None ->
        Counter.incr_id t.mach.Machine.counters t.ids.id_rx_nobuf;
        (* Accepted payload discarded: a real drop (was uncounted). *)
        Counter.incr_id t.mach.Machine.counters t.ids.id_drop;
        Queue.add ev.Nic.frame t.pool;
        false
    | Some gref -> begin
        match Hcall.grant_exchange ~dom:t.front ~gref ~give:ev.Nic.frame with
        | empty ->
            Queue.add empty t.pool;
            (* Space was checked before the exchange, so this cannot
               reject. *)
            ignore
              (Ring.push_response t.chan.Net_channel.rx_ring
                 (Net_channel.Rx_flipped
                    { full = ev.Nic.frame; len = ev.Nic.len }));
            t.rx_delivered <- t.rx_delivered + 1;
            true
        | exception Hcall.Hcall_error _ ->
            (* Frontend died: keep the frame for ourselves. *)
            Queue.add ev.Nic.frame t.pool;
            false
      end

let deliver_copy t (ev : Nic.rx_event) =
  if rx_ring_full t then begin
    Queue.add ev.Nic.frame t.pool;
    false
  end
  else
    match Queue.take_opt t.copy_grants with
    | None ->
        Counter.incr_id t.mach.Machine.counters t.ids.id_rx_nobuf;
        (* Accepted payload discarded: a real drop (was uncounted). *)
        Counter.incr_id t.mach.Machine.counters t.ids.id_drop;
        Queue.add ev.Nic.frame t.pool;
        false
    | Some gref -> begin
        (* GNTTABOP_copy: one hypercall validates the grant and moves the
           bytes — the per-byte half of the ablation, on Dom0's account. *)
        match
          Hcall.grant_copy ~dom:t.front ~gref ~bytes:ev.Nic.len ~tag:ev.Nic.tag
        with
        | () ->
            (* Space was checked before the copy, so this cannot
               reject. *)
            ignore
              (Ring.push_response t.chan.Net_channel.rx_ring
                 (Net_channel.Rx_copied { rxr_gref = gref; len = ev.Nic.len }));
            t.rx_delivered <- t.rx_delivered + 1;
            Queue.add ev.Nic.frame t.pool;
            true
        | exception Hcall.Hcall_error _ ->
            Queue.add ev.Nic.frame t.pool;
            false
      end

(* Shed at the admission gate, before the expensive per-packet work —
   the receive-livelock defense. *)
let shed_one t (ev : Nic.rx_event) =
  Hcall.burn shed_work;
  Counter.incr_id t.mach.Machine.counters t.ids.id_rx_shed;
  Counter.incr_id t.mach.Machine.counters t.ids.id_shed;
  Queue.add ev.Nic.frame t.pool

let deliver_admitted t (ev : Nic.rx_event) =
  pump_frontend_posts t;
  Hcall.burn per_packet_work;
  Counter.incr_id t.mach.Machine.counters t.ids.id_rx_packets;
  Counter.add_id t.mach.Machine.counters t.ids.id_rx_bytes ev.Nic.len;
  let ok =
    match t.chan.Net_channel.mode with
    | Net_channel.Flip -> deliver_flip t ev
    | Net_channel.Copy -> deliver_copy t ev
  in
  if ok then t.dirty <- true

let deliver_rx t (ev : Nic.rx_event) =
  let shed =
    match t.admit with
    | None -> false
    | Some bucket ->
        not
          (Overload.Token_bucket.admit bucket
             ~now:(Engine.now t.mach.Machine.engine))
  in
  if shed then shed_one t ev else deliver_admitted t ev

(* Batch admission: one bucket refill covers the whole poll batch, the
   admitted prefix is delivered, the tail is shed. *)
let deliver_batch t evs =
  let n = List.length evs in
  let k =
    match t.admit with
    | None -> n
    | Some bucket ->
        Overload.Token_bucket.admit_n bucket
          ~now:(Engine.now t.mach.Machine.engine)
          n
  in
  List.iteri
    (fun i ev ->
      if i >= k then shed_one t ev
      else deliver_admitted t ev)
    evs

(* Inject one packet into the receive path without the physical NIC:
   the bridge hands switch output here. A pool frame stands in for the
   NIC buffer; every deliver/shed branch returns it to the pool, so the
   pool count is conserved. *)
let deliver_pkt t ~len ~tag =
  match Queue.take_opt t.pool with
  | None ->
      Counter.incr_id t.mach.Machine.counters t.ids.id_rx_nobuf;
      Counter.incr_id t.mach.Machine.counters t.ids.id_drop;
      false
  | Some frame ->
      Frame.set_tag frame tag;
      let before = t.rx_delivered in
      deliver_rx t { Nic.frame; len; tag };
      t.rx_delivered > before

(* The bridge's delivery gate: [deliver_pkt] would land this packet on
   the frontend's ring rather than shed it for want of resources. The
   frontend's repost-notify wakes the bridge again, so a [false] here
   means "leave it queued at the switch", not "drop it". *)
let rx_ready t =
  pump_frontend_posts t;
  (not (Queue.is_empty t.pool))
  && Ring.response_space t.chan.Net_channel.rx_ring > 0
  &&
  match t.chan.Net_channel.mode with
  | Net_channel.Flip -> not (Queue.is_empty t.flip_posts)
  | Net_channel.Copy -> not (Queue.is_empty t.copy_grants)

let complete_tx t (frame : Frame.frame) =
  match Hashtbl.find_opt t.tx_pending frame.Frame.index with
  | Some gref ->
      Hcall.burn Net_channel.ring_cost;
      Hashtbl.remove t.tx_pending frame.Frame.index;
      (try Hcall.grant_unmap ~dom:t.front ~gref with Hcall.Hcall_error _ -> ());
      if
        Ring.push_response t.chan.Net_channel.tx_ring
          { Net_channel.txr_gref = gref; txr_mark = false }
      then t.dirty <- true
      else
        (* The frontend is not reaping tx completions; it will see the
           buffer as lost. The ring's on_drop hook counted the drop. *)
        Counter.incr_id t.mach.Machine.counters t.ids.id_txr_ring_full;
      true
  | None -> false

let flush t =
  restock_nic t;
  if t.dirty then begin
    t.dirty <- false;
    notify t
  end

let rec drain_tx_done t =
  match Nic.tx_done t.mach.Machine.nic with
  | Some (frame, _len) ->
      ignore (complete_tx t frame);
      drain_tx_done t
  | None -> ()

(* NAPI service: the IRQ that got us here masked the line (conceptually —
   we do it on entry, which is equivalent since the line stays masked for
   the whole loop). Each round drains up to [budget] packets at one
   poll_batch_cost, delivers them as one batch and sends at most one
   event-channel notify (the [flush]); the line is acknowledged and
   re-enabled only when a round comes back empty, with a post-unmask
   recheck closing the poll/unmask race. *)
let napi_service t ~budget ~hist =
  let mach = t.mach in
  let nic = mach.Machine.nic in
  let line = Nic.irq_line nic in
  let counters = mach.Machine.counters in
  Vmk_hw.Irq.mask mach.Machine.irq line;
  pump_frontend_posts t;
  let rec round () =
    match Nic.poll nic ~budget with
    | [] ->
        drain_tx_done t;
        flush t;
        Vmk_hw.Irq.ack mach.Machine.irq line;
        Vmk_hw.Irq.unmask mach.Machine.irq line;
        Counter.incr_id counters t.ids.id_mitig_reenable;
        if Nic.rx_pending nic > 0 || Nic.tx_completions_pending nic > 0
        then begin
          Vmk_hw.Irq.mask mach.Machine.irq line;
          round ()
        end
    | evs ->
        Hcall.burn mach.Machine.arch.Arch.poll_batch_cost;
        Counter.incr_id counters t.ids.id_mitig_poll_rounds;
        Overload.note_batch_hist counters hist (List.length evs);
        deliver_batch t evs;
        drain_tx_done t;
        flush t;
        round ()
  in
  round ()

let handle_nic t =
  match t.napi with
  | Some (budget, hist) -> napi_service t ~budget ~hist
  | None ->
      pump_frontend_posts t;
      let rec drain_rx () =
        match Nic.rx_ready t.mach.Machine.nic with
        | Some ev ->
            deliver_rx t ev;
            drain_rx ()
        | None -> ()
      in
      drain_rx ();
      drain_tx_done t;
      flush t

