module Machine = Vmk_hw.Machine
module Disk = Vmk_hw.Disk
module Counter = Vmk_trace.Counter

let per_request_work = 360

type pending = { ring_id : int; gref : Hcall.gref }

type t = {
  chan : Blk_channel.t;
  mach : Machine.t;
  front : Hcall.domid;
  my_port : Hcall.port;
  inflight : (int, pending) Hashtbl.t;  (** disk request id -> pending *)
}

(* Generation 0 is the classic handshake under [key/]. A restarted
   backend cannot rebind the old frontend port (it is Bound to the dead
   domain), so reconnects negotiate a fresh port pair under
   [key/g<n>/]: the backend publishes its domid there, bumps [key/gen]
   (the frontend's cue), and waits for the frontend's fresh offer. *)
let connect_opt ?timeout ?(generation = 0) chan mach () =
  let key = chan.Blk_channel.key in
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
              chan.Blk_channel.back_port <- Some my_port;
              Hcall.xs_write ~path:(sub "backend-port")
                ~value:(string_of_int my_port);
              (* Response rejections are lost completions (real drops);
                 request rejections are frontend back-pressure, itemized
                 separately so retried submits do not inflate the
                 machine-wide drop count. *)
              Ring.on_response_drop chan.Blk_channel.ring (fun () ->
                  Counter.incr mach.Machine.counters
                    Vmk_overload.Overload.drop_counter;
                  Counter.incr mach.Machine.counters "overload.ring_drop.blk");
              Ring.on_request_drop chan.Blk_channel.ring (fun () ->
                  Counter.incr mach.Machine.counters
                    (Vmk_overload.Overload.ring_reject_prefix ^ "blk"));
              Some
                {
                  chan;
                  mach;
                  front;
                  my_port;
                  inflight = Hashtbl.create 16;
                }
          | exception Hcall.Hcall_error _ -> None))

let port t = t.my_port

let notify t = try Hcall.evtchn_send t.my_port with Hcall.Hcall_error _ -> ()

let respond t ring_id ok =
  Hcall.burn Blk_channel.ring_cost;
  if
    not
      (Ring.push_response t.chan.Blk_channel.ring
         { Blk_channel.r_id = ring_id; ok })
  then
    (* The frontend will see the request time out rather than lose the
       completion silently; the ring's on_drop hook counted the drop. *)
    Counter.incr t.mach.Machine.counters "blkback.resp_ring_full";
  notify t

let handle_event t =
  let rec drain () =
    match Ring.pop_request t.chan.Blk_channel.ring with
    | Some { Blk_channel.id; op; sector; gref; bytes } -> begin
        Hcall.burn (Blk_channel.ring_cost + per_request_work);
        match Hcall.grant_map ~dom:t.front ~gref with
        | frame ->
            let disk_op =
              match op with
              | Blk_channel.Read -> Disk.Read
              | Blk_channel.Write -> Disk.Write
            in
            let disk_id =
              Disk.submit t.mach.Machine.disk disk_op ~sector ~frame ~bytes
            in
            Hashtbl.replace t.inflight disk_id { ring_id = id; gref };
            Counter.incr t.mach.Machine.counters "blkback.requests";
            drain ()
        | exception Hcall.Hcall_error _ ->
            respond t id false;
            drain ()
      end
    | None -> ()
  in
  drain ()

let try_complete t (request : Disk.request) =
  match Hashtbl.find_opt t.inflight request.Disk.id with
  | Some { ring_id; gref } ->
      Hashtbl.remove t.inflight request.Disk.id;
      Hcall.burn per_request_work;
      (try Hcall.grant_unmap ~dom:t.front ~gref with Hcall.Hcall_error _ -> ());
      respond t ring_id request.Disk.ok;
      true
  | None -> false
