module Machine = Vmk_hw.Machine
module Frame = Vmk_hw.Frame
module Arch = Vmk_hw.Arch
module Counter = Vmk_trace.Counter

let name = "parallax"
let virtual_disk_stride = 64
let service_work = 300
let upstream_timeout = 50_000_000L

type pending = {
  p_idx : int;
  p_client_dom : Hcall.domid;
  p_chan : Blk_channel.t;
  p_port : Hcall.port;
  p_req : Blk_channel.req;
}

let body mach ~clients ~upstream ~dom0 () =
  let mux = Evt_mux.create () in
  let arch = mach.Machine.arch in
  let front = Blkfront.connect upstream ~backend:dom0 ~arch () in
  Evt_mux.on mux (Blkfront.port front) (fun () -> Blkfront.pump front);
  (* Event handlers only enqueue; the main loop serves strictly FIFO so
     concurrent clients get fair service (nested dispatch during an
     upstream wait must not serve newer requests first). *)
  let pending : pending Queue.t = Queue.create () in
  let connect_client idx chan =
    let key = chan.Blk_channel.key in
    let client_dom =
      int_of_string (Option.get (Hcall.xs_wait_for (key ^ "/frontend-dom")))
    in
    let offer =
      int_of_string (Option.get (Hcall.xs_wait_for (key ^ "/frontend-port")))
    in
    let my_port = Hcall.evtchn_bind ~remote_dom:client_dom ~remote_port:offer in
    chan.Blk_channel.back_port <- Some my_port;
    Hcall.xs_write ~path:(key ^ "/backend-port") ~value:(string_of_int my_port);
    let handler () =
      let rec drain () =
        match Ring.pop_request chan.Blk_channel.ring with
        | Some request ->
            Hcall.burn Blk_channel.ring_cost;
            Queue.add
              {
                p_idx = idx;
                p_client_dom = client_dom;
                p_chan = chan;
                p_port = my_port;
                p_req = request;
              }
              pending;
            drain ()
        | None -> ()
      in
      drain ()
    in
    Evt_mux.on mux my_port handler;
    handler ()
  in
  List.iteri connect_client clients;
  let respond p ok =
    Hcall.burn Blk_channel.ring_cost;
    ignore
      (Ring.push_response p.p_chan.Blk_channel.ring
         { Blk_channel.r_id = p.p_req.Blk_channel.id; ok });
    try Hcall.evtchn_send p.p_port with Hcall.Hcall_error _ -> ()
  in
  let serve_one p =
    let { Blk_channel.op; sector; gref; bytes; _ } = p.p_req in
    Hcall.burn service_work;
    Counter.incr mach.Machine.counters "parallax.requests";
    let physical = (sector * virtual_disk_stride) + p.p_idx in
    match Hcall.grant_map ~dom:p.p_client_dom ~gref with
    | guest_frame ->
        let ok =
          match op with
          | Blk_channel.Read -> begin
              match
                Blkfront.read front ~mux ~sector:physical ~bytes
                  ~timeout:upstream_timeout ()
              with
              | Some tag ->
                  Hcall.burn (Arch.copy_cost arch ~bytes);
                  Frame.set_tag guest_frame tag;
                  true
              | None -> false
            end
          | Blk_channel.Write ->
              Hcall.burn (Arch.copy_cost arch ~bytes);
              Blkfront.write front ~mux ~sector:physical ~bytes
                ~tag:guest_frame.Frame.tag ~timeout:upstream_timeout ()
        in
        (try Hcall.grant_unmap ~dom:p.p_client_dom ~gref
         with Hcall.Hcall_error _ -> ());
        respond p ok
    | exception Hcall.Hcall_error _ -> respond p false
  in
  let rec serve () =
    (match Queue.take_opt pending with
    | Some p -> serve_one p
    | None -> (
        match Hcall.block () with
        | Hcall.Events ports -> Evt_mux.dispatch mux ports
        | Hcall.Timed_out -> ()));
    serve ()
  in
  serve ()
