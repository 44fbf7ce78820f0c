module Machine = Vmk_hw.Machine
module Frame = Vmk_hw.Frame
module Disk = Vmk_hw.Disk
module Counter = Vmk_trace.Counter
module Cap = Vmk_cap.Cap

let account = "drv.blk"

type inflight = { client : Sysif.tid; frame : Frame.frame; read : bool }

let reply_safely dst m =
  try Sysif.send dst m with Sysif.Ipc_error _ -> ()

let body mach () =
  let disk = mach.Machine.disk in
  let free = Queue.create () in
  for _ = 1 to 8 do
    Queue.add
      (Frame.alloc mach.Machine.frames ~owner:account
         ~kind:Frame.Device_buffer ())
      free
  done;
  let inflight : (int, inflight) Hashtbl.t = Hashtbl.create 16 in
  (* Per-client sessions off a service root cap (E19): the first request
     hands the client a derived capability; later requests are validated
     against it, so revoking the chain (or the client's death) cuts the
     client off. *)
  let svc = Sysif.cap_mint ~obj:0xB19 ~rights:Cap.r_full in
  let sessions : (Sysif.tid, int) Hashtbl.t = Hashtbl.create 16 in
  let session_ok client =
    match Hashtbl.find_opt sessions client with
    | Some handle -> Sysif.cap_check ~subject:client ~handle ~need:Cap.r_write
    | None -> (
        match
          Sysif.cap_derive ~handle:svc ~to_:client
            ~rights:(Cap.r_read lor Cap.r_write)
        with
        | h ->
            Hashtbl.replace sessions client h;
            true
        | exception Sysif.Ipc_error _ -> false)
  in
  Sysif.irq_attach Machine.disk_irq;
  let handle_completion () =
    let rec drain () =
      match Disk.completed disk with
      | Some request ->
          Sysif.burn 70;
          (match Hashtbl.find_opt inflight request.Disk.id with
          | Some entry ->
              Hashtbl.remove inflight request.Disk.id;
              let reply =
                if not request.Disk.ok then Sysif.msg Proto.error
                else if entry.read then
                  Sysif.msg Proto.ok
                    ~items:
                      [
                        Sysif.Str
                          {
                            bytes = request.Disk.bytes;
                            tag = entry.frame.Frame.tag;
                          };
                      ]
                else Sysif.msg Proto.ok
              in
              reply_safely entry.client reply;
              Queue.add entry.frame free
          | None -> ());
          drain ()
      | None -> ()
    in
    drain ()
  in
  let handle_client client (m : Sysif.msg) =
    if m.Sysif.label = Proto.ping then reply_safely client (Sysif.msg Proto.ok)
    else if not (session_ok client) then begin
      Counter.incr mach.Machine.counters "drv.blk.denied";
      reply_safely client (Sysif.msg Proto.error)
    end
    else
    let w = Sysif.words m in
    let sector = if Array.length w > 0 then w.(0) else 0 in
    match Queue.take_opt free with
    | None ->
        (* Buffer exhaustion is transient — retryable, unlike a media
           error. *)
        Counter.incr mach.Machine.counters "drv.blk.busy";
        reply_safely client (Sysif.msg Proto.busy)
    | Some frame ->
        Sysif.burn 90; (* request setup *)
        if m.Sysif.label = Proto.blk_read then begin
          let bytes = if Array.length w > 1 then w.(1) else 512 in
          let id = Disk.submit disk Disk.Read ~sector ~frame ~bytes in
          Hashtbl.add inflight id { client; frame; read = true }
        end
        else if m.Sysif.label = Proto.blk_write then begin
          let bytes = Sysif.str_total m in
          let tag = Option.value (Sysif.first_str_tag m) ~default:0 in
          Frame.set_tag frame tag;
          let id = Disk.submit disk Disk.Write ~sector ~frame ~bytes in
          Hashtbl.add inflight id { client; frame; read = false }
        end
        else begin
          Queue.add frame free;
          reply_safely client (Sysif.msg Proto.error)
        end
  in
  let rec loop () =
    let src, m = Sysif.recv Sysif.Any in
    if Sysif.is_irq_tid src then handle_completion ()
    else handle_client src m;
    loop ()
  in
  loop ()
