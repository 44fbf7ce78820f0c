module Frame = Vmk_hw.Frame
module Arch = Vmk_hw.Arch

type t = {
  chan : Net_channel.t;
  mutable backend : Hcall.domid;
  mutable my_port : Hcall.port;
  mutable generation : int;
  arch : Arch.profile;
  tx_free : Frame.frame Queue.t;
  tx_inflight : (Hcall.gref, Frame.frame) Hashtbl.t;
  rx_grants : (Hcall.gref, Frame.frame) Hashtbl.t;
  delivered : (int * int) Queue.t;
  mutable tx_acked : int;
  mutable ecn_pending : bool;
      (** A tx completion carried the bridge's congestion mark and the
          sender has not yet consumed it. *)
  mutable dead : bool;
}

let guard t f = try f () with Hcall.Hcall_error _ -> t.dead <- true
let notify t = guard t (fun () -> Hcall.evtchn_send t.my_port)

(* A receive-buffer post rejected by a full rx ring revokes its grant
   rather than leaving it dangling; the frontend backs off and reposts on
   the next pump. *)
let unpost t gref =
  Hashtbl.remove t.rx_grants gref;
  try Hcall.grant_revoke gref with Hcall.Hcall_error _ -> ()

let post_rx_buffer t frame =
  match t.chan.Net_channel.mode with
  | Net_channel.Flip ->
      guard t (fun () ->
          let gref = Hcall.grant ~to_dom:t.backend ~frame ~readonly:false in
          Hashtbl.replace t.rx_grants gref frame;
          Hcall.burn Net_channel.ring_cost;
          if
            not
              (Ring.push_request t.chan.Net_channel.rx_ring
                 (Net_channel.Rx_post_flip { flip_gref = gref }))
          then unpost t gref)
  | Net_channel.Copy ->
      guard t (fun () ->
          let gref = Hcall.grant ~to_dom:t.backend ~frame ~readonly:false in
          Hashtbl.replace t.rx_grants gref frame;
          Hcall.burn Net_channel.ring_cost;
          if
            not
              (Ring.push_request t.chan.Net_channel.rx_ring
                 (Net_channel.Rx_post_copy { rx_gref = gref }))
          then unpost t gref)

(* Receive buffers a frontend posts at each (re)connect. *)
let rx_buffers = 32

let connect chan ~backend ?(arch = Arch.default) () =
  let my_dom = Hcall.dom_id () in
  chan.Net_channel.front_dom <- Some my_dom;
  let offer = Hcall.evtchn_alloc_unbound backend in
  chan.Net_channel.offer_port <- Some offer;
  chan.Net_channel.front_port <- Some offer;
  let key = chan.Net_channel.key in
  Hcall.xs_write ~path:(key ^ "/frontend-dom") ~value:(string_of_int my_dom);
  Hcall.xs_write ~path:(key ^ "/frontend-port") ~value:(string_of_int offer);
  let t =
    {
      chan;
      backend;
      my_port = offer;
      generation = 0;
      arch;
      tx_free = Queue.create ();
      tx_inflight = Hashtbl.create 16;
      rx_grants = Hashtbl.create 32;
      delivered = Queue.create ();
      tx_acked = 0;
      ecn_pending = false;
      dead = false;
    }
  in
  List.iter
    (fun f -> Queue.add f t.tx_free)
    (Hcall.alloc_frames 16);
  (* Wait for the backend to bind — the XenBus handshake: watch the
     backend-port node and block until it appears. *)
  ignore (Hcall.xs_wait_for (key ^ "/backend-port"));
  List.iter (post_rx_buffer t) (Hcall.alloc_frames rx_buffers);
  notify t;
  t

(* A frontend rebuilt from migrated state (E20): the handle starts dead
   — the source's backend is unreachable from this machine — and keeps
   the source's generation, so the ordinary [reconnect] path below picks
   up the destination backend the moment it publishes a higher
   [key/gen]. Transmit frames come from the destination's reservation;
   in-flight ring state never survives migration (exactly-once delivery
   is the application's sequence numbers, as with any reconnect). *)
let restore chan ~generation () =
  let t =
    {
      chan;
      backend = -1;
      my_port = -1;
      generation;
      arch = Arch.default;
      tx_free = Queue.create ();
      tx_inflight = Hashtbl.create 16;
      rx_grants = Hashtbl.create 32;
      delivered = Queue.create ();
      tx_acked = 0;
      ecn_pending = false;
      dead = true;
    }
  in
  List.iter (fun f -> Queue.add f t.tx_free) (Hcall.alloc_frames 16);
  t

let port t = t.my_port

let app_copy t len =
  (* One copy between the driver buffer and the "application" — the
     guest-side per-byte cost of the I/O path. *)
  Hcall.burn (Arch.copy_cost t.arch ~bytes:len)

let pump t =
  let reposted = ref false in
  let rec drain_tx () =
    match Ring.pop_response t.chan.Net_channel.tx_ring with
    | Some { Net_channel.txr_gref; txr_mark } ->
        if txr_mark then t.ecn_pending <- true;
        Hcall.burn Net_channel.ring_cost;
        (match Hashtbl.find_opt t.tx_inflight txr_gref with
        | Some frame ->
            Hashtbl.remove t.tx_inflight txr_gref;
            guard t (fun () -> Hcall.grant_revoke txr_gref);
            Queue.add frame t.tx_free
        | None -> ());
        t.tx_acked <- t.tx_acked + 1;
        drain_tx ()
    | None -> ()
  in
  let rec drain_rx () =
    match Ring.pop_response t.chan.Net_channel.rx_ring with
    | Some resp ->
        Hcall.burn Net_channel.ring_cost;
        (match resp with
        | Net_channel.Rx_flipped { full; len } ->
            app_copy t len;
            Queue.add (len, full.Frame.tag) t.delivered;
            (* The page is ours now; hand it straight back to keep the
               backend's pool stocked. *)
            post_rx_buffer t full;
            reposted := true
        | Net_channel.Rx_copied { rxr_gref; len } -> (
            match Hashtbl.find_opt t.rx_grants rxr_gref with
            | Some frame ->
                app_copy t len;
                Queue.add (len, frame.Frame.tag) t.delivered;
                    Hcall.burn Net_channel.ring_cost;
                if
                  Ring.push_request t.chan.Net_channel.rx_ring
                    (Net_channel.Rx_post_copy { rx_gref = rxr_gref })
                then reposted := true
                else unpost t rxr_gref
            | None -> ()));
        drain_rx ()
    | None -> ()
  in
  drain_tx ();
  drain_rx ();
  if !reposted then notify t

let send t ~len ~tag =
  pump t;
  if t.dead then false
  else
    match Queue.take_opt t.tx_free with
    | None -> false
    | Some frame -> (
        Frame.set_tag frame tag;
        match Hcall.grant ~to_dom:t.backend ~frame ~readonly:true with
        | gref ->
            Hcall.burn Net_channel.ring_cost;
            if
              Ring.push_request t.chan.Net_channel.tx_ring
                { Net_channel.tx_gref = gref; tx_len = len }
            then begin
              Hashtbl.replace t.tx_inflight gref frame;
              notify t;
              true
            end
            else begin
              (try Hcall.grant_revoke gref with Hcall.Hcall_error _ -> ());
              Queue.add frame t.tx_free;
              false
            end
        | exception Hcall.Hcall_error _ ->
            t.dead <- true;
            Queue.add frame t.tx_free;
            false)

let try_recv t = Queue.take_opt t.delivered

let recv_blocking t ?timeout () =
  let rec loop () =
    pump t;
    match try_recv t with
    | Some packet -> Some packet
    | None ->
        if t.dead then None
        else begin
          match Hcall.block ?timeout () with
          | Hcall.Events _ -> loop ()
          | Hcall.Timed_out ->
              pump t;
              try_recv t
          | exception Hcall.Hcall_error _ ->
              t.dead <- true;
              None
        end
  in
  loop ()

let tx_acked t = t.tx_acked
let tx_unacked t = Hashtbl.length t.tx_inflight

let take_ecn_mark t =
  let m = t.ecn_pending in
  t.ecn_pending <- false;
  m

let backend_dead t = t.dead
let generation t = t.generation

(* See {!Blkfront.probe}: spurious notify to a live backend,
   [Dead_domain] from a dead one. *)
let probe t =
  if not t.dead then begin
    try Hcall.evtchn_send t.my_port with Hcall.Hcall_error _ -> t.dead <- true
  end;
  t.dead

let reconnect t ?timeout () =
  let key = t.chan.Net_channel.key in
  let rec drain : 'a. (unit -> 'a option) -> unit =
   fun pop -> match pop () with Some _ -> drain pop | None -> ()
  in
  drain (fun () -> Ring.pop_request t.chan.Net_channel.tx_ring);
  drain (fun () -> Ring.pop_response t.chan.Net_channel.tx_ring);
  drain (fun () -> Ring.pop_request t.chan.Net_channel.rx_ring);
  drain (fun () -> Ring.pop_response t.chan.Net_channel.rx_ring);
  Hashtbl.iter
    (fun gref frame ->
      (try Hcall.grant_revoke gref with Hcall.Hcall_error _ -> ());
      Queue.add frame t.tx_free)
    t.tx_inflight;
  Hashtbl.reset t.tx_inflight;
  (* Receive buffers were offered to the corpse (flipped pages may even
     belong to it); revoke what we can and start from fresh frames. *)
  Hashtbl.iter
    (fun gref _frame ->
      try Hcall.grant_revoke gref with Hcall.Hcall_error _ -> ())
    t.rx_grants;
  Hashtbl.reset t.rx_grants;
  let newer v =
    match int_of_string_opt v with
    | Some g -> g > t.generation
    | None -> false
  in
  match Hcall.xs_wait_pred ?timeout (key ^ "/gen") newer with
  | None -> false
  | Some gen_s -> (
      let g = int_of_string gen_s in
      let sub path = Printf.sprintf "%s/g%d/%s" key g path in
      match Hcall.xs_read (sub "backend-dom") with
      | None -> false
      | Some back_s -> (
          let backend = int_of_string back_s in
          match Hcall.evtchn_alloc_unbound backend with
          | offer -> (
              let my_dom = Hcall.dom_id () in
              t.chan.Net_channel.front_dom <- Some my_dom;
              t.chan.Net_channel.offer_port <- Some offer;
              t.chan.Net_channel.front_port <- Some offer;
              t.backend <- backend;
              t.my_port <- offer;
              t.generation <- g;
              t.dead <- false;
              (* Fill the rx ring before announcing the frontend: the
                 instant the backend's handshake completes it drains the
                 NIC backlog that piled up during the outage, and
                 buffers posted after that drain would miss it — real
                 netfront likewise enters Connected only with a full rx
                 ring. *)
              List.iter (post_rx_buffer t) (Hcall.alloc_frames rx_buffers);
              Hcall.xs_write ~path:(sub "frontend-dom")
                ~value:(string_of_int my_dom);
              Hcall.xs_write ~path:(sub "frontend-port")
                ~value:(string_of_int offer);
              match Hcall.xs_wait_for ?timeout (sub "backend-port") with
              | None -> false
              | Some _ ->
                  notify t;
                  not t.dead)
          | exception Hcall.Hcall_error _ -> false))
