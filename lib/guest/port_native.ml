module Machine = Vmk_hw.Machine
module Arch = Vmk_hw.Arch
module Frame = Vmk_hw.Frame
module Nic = Vmk_hw.Nic
module Disk = Vmk_hw.Disk
module Irq = Vmk_hw.Irq
module Engine = Vmk_sim.Engine
module Counter = Vmk_trace.Counter
module Accounts = Vmk_trace.Accounts

let account = "native"

type state = {
  mach : Machine.t;
  id_gsys : int;
  id_syscall : int;  (** Pre-resolved per-syscall counters (E21). *)
  tx_free : Frame.frame Queue.t;
  blk_free : Frame.frame Queue.t;
  rx_queue : (int * int) Queue.t; (* len, tag *)
  mutable fs : Minifs.t option;
}

let ack_pending_irqs st =
  let irq = st.mach.Machine.irq in
  List.iter
    (fun line -> if Irq.is_pending irq line then Irq.ack irq line)
    [ Machine.nic_irq; Machine.disk_irq ]

let pump_nic st =
  let nic = st.mach.Machine.nic in
  let rec drain_rx () =
    match Nic.rx_ready nic with
    | Some ev ->
        Machine.burn st.mach 900; (* driver rx path *)
        Queue.add (ev.Nic.len, ev.Nic.tag) st.rx_queue;
        Nic.post_rx_buffer nic ev.Nic.frame;
        drain_rx ()
    | None -> ()
  in
  let rec drain_tx () =
    match Nic.tx_done nic with
    | Some (frame, _) ->
        Machine.burn st.mach 700;
        Queue.add frame st.tx_free;
        drain_tx ()
    | None -> ()
  in
  drain_rx ();
  drain_tx ();
  ack_pending_irqs st

(* Wait for [f] to produce a value, idling the clock to the next device
   event when nothing is ready. Returns None when the event queue runs
   dry — there is nothing left that could satisfy the wait. *)
let rec wait_for st f =
  pump_nic st;
  match f () with
  | Some v -> Some v
  | None ->
      if Engine.idle_to_next st.mach.Machine.engine then wait_for st f
      else None

let syscall_overhead st call =
  let arch = st.mach.Machine.arch in
  Counter.incr_id st.mach.Machine.counters st.id_gsys;
  Counter.incr_id st.mach.Machine.counters st.id_syscall;
  Machine.burn st.mach
    (arch.Arch.fast_syscall_cost + arch.Arch.kernel_exit_cost
   + Sys.kernel_work call)

let do_net_send st ~len ~tag =
  match
    wait_for st (fun () -> Queue.take_opt st.tx_free)
  with
  | None -> Sys.G_error "no transmit buffer"
  | Some frame ->
      Machine.burn_copy st.mach ~bytes:len;
      Frame.set_tag frame tag;
      Nic.submit_tx st.mach.Machine.nic frame ~len;
      Sys.G_unit

let do_net_recv st =
  match wait_for st (fun () -> Queue.take_opt st.rx_queue) with
  | Some (len, tag) ->
      Machine.burn_copy st.mach ~bytes:len;
      Sys.G_data { len; tag }
  | None -> Sys.G_error "network idle: no traffic left"

let do_blk st op ~sector ~len ~tag =
  match Queue.take_opt st.blk_free with
  | None -> Sys.G_error "no block buffer"
  | Some frame -> (
      Frame.set_tag frame tag;
      Machine.burn_copy st.mach ~bytes:len;
      let id = Disk.submit st.mach.Machine.disk op ~sector ~frame ~bytes:len in
      let result =
        wait_for st (fun () ->
            match Disk.completed st.mach.Machine.disk with
            | Some request when request.Disk.id = id -> Some request
            | Some _ | None -> None)
      in
      ack_pending_irqs st;
      Queue.add frame st.blk_free;
      match result with
      | Some request when request.Disk.ok -> begin
          match op with
          | Disk.Read -> Sys.G_data { len; tag = frame.Frame.tag }
          | Disk.Write -> Sys.G_unit
        end
      | Some _ -> Sys.G_error "disk request failed"
      | None -> Sys.G_error "disk never completed")

let make_fs st =
  let read ~sector =
    match do_blk st Disk.Read ~sector ~len:Sys.block_size ~tag:0 with
    | Sys.G_data { tag; _ } -> Some tag
    | Sys.G_unit | Sys.G_int _ | Sys.G_bool _ | Sys.G_error _ -> None
  in
  let write ~sector ~tag =
    match do_blk st Disk.Write ~sector ~len:Sys.block_size ~tag with
    | Sys.G_unit -> true
    | Sys.G_data _ | Sys.G_int _ | Sys.G_bool _ | Sys.G_error _ -> false
  in
  Minifs.create ~read ~write ()

let get_fs st =
  match st.fs with
  | Some fs -> fs
  | None ->
      let fs = make_fs st in
      st.fs <- Some fs;
      fs

let handler st call =
  match call with
  | Sys.G_burn n ->
      Machine.burn st.mach n;
      Sys.G_unit
  | _ -> begin
      syscall_overhead st call;
      match call with
      | Sys.G_burn _ -> assert false
      | Sys.G_getpid -> Sys.G_int 1
      | Sys.G_yield ->
          pump_nic st;
          Sys.G_unit
      | Sys.G_net_send { len; tag } -> do_net_send st ~len ~tag
      | Sys.G_net_drain ->
          pump_nic st;
          Sys.G_unit
      | Sys.G_net_recv -> do_net_recv st
      | Sys.G_blk_write { sector; len; tag } ->
          do_blk st Disk.Write ~sector ~len ~tag
      | Sys.G_blk_read { sector; len } -> do_blk st Disk.Read ~sector ~len ~tag:0
      | Sys.G_fs_create name ->
          Sys.G_int (Minifs.open_or_create (get_fs st) name)
      | Sys.G_fs_append { fd; tag } ->
          Sys.G_bool (Minifs.append (get_fs st) ~fd ~tag)
      | Sys.G_fs_read { fd; index } -> begin
          match Minifs.read_block (get_fs st) ~fd ~index with
          | Some tag -> Sys.G_int tag
          | None -> Sys.G_error "fs read failed"
        end
      | Sys.G_exit -> Sys.G_unit
    end

let run mach app =
  Accounts.switch_to mach.Machine.accounts account;
  let st =
    {
      mach;
      id_gsys = Counter.id mach.Machine.counters "gsys.count";
      id_syscall = Counter.id mach.Machine.counters "native.syscall";
      tx_free = Queue.create ();
      blk_free = Queue.create ();
      rx_queue = Queue.create ();
      fs = None;
    }
  in
  List.iter
    (fun f -> Queue.add f st.tx_free)
    (Frame.alloc_many mach.Machine.frames ~owner:account 16);
  List.iter
    (fun f -> Queue.add f st.blk_free)
    (Frame.alloc_many mach.Machine.frames ~owner:account 4);
  List.iter
    (fun f -> Nic.post_rx_buffer mach.Machine.nic f)
    (Frame.alloc_many mach.Machine.frames ~owner:account 16);
  Sys.run_with_handler ~handler:(handler st) app;
  Accounts.switch_to mach.Machine.accounts "idle"
