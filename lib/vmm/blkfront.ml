module Frame = Vmk_hw.Frame
module Arch = Vmk_hw.Arch

type t = {
  chan : Blk_channel.t;
  mutable backend : Hcall.domid;
  arch : Arch.profile;
  free : Frame.frame Queue.t;
  inflight : (int, Hcall.gref * Frame.frame) Hashtbl.t;
  completed : (int, bool) Hashtbl.t;
  mutable my_port : Hcall.port;
  mutable generation : int;
  mutable next_id : int;
  mutable dead : bool;
}

let connect chan ~backend ?(arch = Arch.default) () =
  let my_dom = Hcall.dom_id () in
  chan.Blk_channel.front_dom <- Some my_dom;
  let offer = Hcall.evtchn_alloc_unbound backend in
  chan.Blk_channel.offer_port <- Some offer;
  chan.Blk_channel.front_port <- Some offer;
  let key = chan.Blk_channel.key in
  Hcall.xs_write ~path:(key ^ "/frontend-dom") ~value:(string_of_int my_dom);
  Hcall.xs_write ~path:(key ^ "/frontend-port") ~value:(string_of_int offer);
  let t =
    {
      chan;
      backend;
      arch;
      free = Queue.create ();
      inflight = Hashtbl.create 8;
      completed = Hashtbl.create 8;
      my_port = offer;
      generation = 0;
      next_id = 0;
      dead = false;
    }
  in
  List.iter (fun f -> Queue.add f t.free) (Hcall.alloc_frames 8);
  (* Wait for the backend to bind before returning, so the first request's
     notification cannot hit an unbound port. *)
  ignore (Hcall.xs_wait_for (key ^ "/backend-port"));
  t

let port t = t.my_port

let pump t =
  let rec drain () =
    match Ring.pop_response t.chan.Blk_channel.ring with
    | Some { Blk_channel.r_id; ok } ->
        Hcall.burn Blk_channel.ring_cost;
        Hashtbl.replace t.completed r_id ok;
        drain ()
    | None -> ()
  in
  drain ()

let issue t ~op ~sector ~bytes ~tag_for_write =
  if t.dead then None
  else
    match Queue.take_opt t.free with
    | None -> None
    | Some frame -> (
        (match tag_for_write with
        | Some tag -> Frame.set_tag frame tag
        | None -> Frame.set_tag frame 0);
        let readonly = op = Blk_channel.Write in
        match Hcall.grant ~to_dom:t.backend ~frame ~readonly with
        | gref ->
            let id = t.next_id in
            t.next_id <- t.next_id + 1;
            Hcall.burn Blk_channel.ring_cost;
            if
              Ring.push_request t.chan.Blk_channel.ring
                { Blk_channel.id; op; sector; gref; bytes }
            then begin
              Hashtbl.replace t.inflight id (gref, frame);
              (try Hcall.evtchn_send t.my_port
               with Hcall.Hcall_error _ -> t.dead <- true);
              if t.dead then None else Some id
            end
            else begin
              (try Hcall.grant_revoke gref with Hcall.Hcall_error _ -> ());
              Queue.add frame t.free;
              None
            end
        | exception Hcall.Hcall_error _ ->
            t.dead <- true;
            Queue.add frame t.free;
            None)

let finish t id =
  match Hashtbl.find_opt t.inflight id with
  | Some (gref, frame) ->
      Hashtbl.remove t.inflight id;
      (try Hcall.grant_revoke gref with Hcall.Hcall_error _ -> ());
      Queue.add frame t.free;
      Some frame
  | None -> None

let await t ~mux ~id ~timeout =
  let arrived () = Hashtbl.mem t.completed id || t.dead in
  let ok = Evt_mux.wait mux ?timeout ~until:arrived () in
  if (not ok) || t.dead then begin
    ignore (finish t id);
    None
  end
  else begin
    let status = Hashtbl.find_opt t.completed id in
    Hashtbl.remove t.completed id;
    let frame = finish t id in
    match (status, frame) with
    | Some true, Some frame -> Some frame
    | _ -> None
  end

let read t ~mux ~sector ~bytes ?timeout () =
  pump t;
  match issue t ~op:Blk_channel.Read ~sector ~bytes ~tag_for_write:None with
  | None -> None
  | Some id -> (
      match await t ~mux ~id ~timeout with
      | Some frame ->
          (* Copy from the driver buffer to the application. *)
          Hcall.burn (Arch.copy_cost t.arch ~bytes);
          Some frame.Frame.tag
      | None -> None)

let write t ~mux ~sector ~bytes ~tag ?timeout () =
  pump t;
  Hcall.burn (Arch.copy_cost t.arch ~bytes);
  match
    issue t ~op:Blk_channel.Write ~sector ~bytes ~tag_for_write:(Some tag)
  with
  | None -> false
  | Some id -> await t ~mux ~id ~timeout <> None

let backend_dead t = t.dead

(* A notification to a dead backend comes back [Dead_domain]; to a live
   one it is a harmless spurious event. The cheapest liveness check a
   frontend has. *)
let probe t =
  if not t.dead then begin
    try Hcall.evtchn_send t.my_port with Hcall.Hcall_error _ -> t.dead <- true
  end;
  t.dead

let reconnect t ?timeout () =
  let key = t.chan.Blk_channel.key in
  (* Abandon everything shared with the dead backend: stale ring slots,
     in-flight grants (revoke may fail while the corpse still maps the
     page — swallow it), and completions that will never be claimed. *)
  let rec drain_req () =
    match Ring.pop_request t.chan.Blk_channel.ring with
    | Some _ -> drain_req ()
    | None -> ()
  in
  let rec drain_resp () =
    match Ring.pop_response t.chan.Blk_channel.ring with
    | Some _ -> drain_resp ()
    | None -> ()
  in
  drain_req ();
  drain_resp ();
  Hashtbl.iter
    (fun _ (gref, frame) ->
      (try Hcall.grant_revoke gref with Hcall.Hcall_error _ -> ());
      Queue.add frame t.free)
    t.inflight;
  Hashtbl.reset t.inflight;
  Hashtbl.reset t.completed;
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
              t.chan.Blk_channel.front_dom <- Some my_dom;
              t.chan.Blk_channel.offer_port <- Some offer;
              t.chan.Blk_channel.front_port <- Some offer;
              Hcall.xs_write ~path:(sub "frontend-dom")
                ~value:(string_of_int my_dom);
              Hcall.xs_write ~path:(sub "frontend-port")
                ~value:(string_of_int offer);
              match Hcall.xs_wait_for ?timeout (sub "backend-port") with
              | None -> false
              | Some _ ->
                  t.backend <- backend;
                  t.my_port <- offer;
                  t.generation <- g;
                  t.dead <- false;
                  true)
          | exception Hcall.Hcall_error _ -> false))
