type rx_event = { frame : Frame.frame; len : int; tag : int }

type fault_mode = Drop | Corrupt | Duplicate

type fault = {
  f_start : int64;
  f_stop : int64;
  f_mode : fault_mode;
  f_pct : int;
  f_rng : Vmk_sim.Rng.t;
}

(* A corrupted packet keeps its length but its payload identity is
   scrambled; receivers that verify tags observe the damage. *)
let corrupt_tag tag = tag lxor 0x5A5A5A

type t = {
  engine : Vmk_sim.Engine.t;
  irq_ctrl : Irq.t;
  irq_line : int;
  rx_buffers : Frame.frame Queue.t;
  rx_queue : rx_event Queue.t;
  tx_queue : (Frame.frame * int) Queue.t;
  mutable faults : fault list;
  mutable rx_delivered : int;
  mutable rx_dropped : int;
  mutable rx_faulted : int;
  mutable tx_submitted : int;
  mutable tx_completed : int;
  mutable tx_bytes : int;
  (* Interrupt mitigation: after raising an interrupt the NIC holds off
     for [mitigation] cycles; completions landing inside the window
     coalesce into one deferred raise at window end. 0 disables. *)
  mutable mitigation : int64;
  mutable holdoff_until : int64;
  mutable holdoff_armed : bool;
  mutable irq_coalesced : int;
  mutable on_coalesce : unit -> unit;
  mutable on_rx_drop : unit -> unit;
}

(* Transmit completion latency, cycles. *)
let wire_delay = 2000L

let create engine irq_ctrl ~irq_line () =
  {
    engine;
    irq_ctrl;
    irq_line;
    rx_buffers = Queue.create ();
    rx_queue = Queue.create ();
    tx_queue = Queue.create ();
    faults = [];
    rx_delivered = 0;
    rx_dropped = 0;
    rx_faulted = 0;
    tx_submitted = 0;
    tx_completed = 0;
    tx_bytes = 0;
    mitigation = 0L;
    holdoff_until = 0L;
    holdoff_armed = false;
    irq_coalesced = 0;
    on_coalesce = ignore;
    on_rx_drop = ignore;
  }

let irq_line t = t.irq_line
let post_rx_buffer t frame = Queue.add frame t.rx_buffers
let rx_buffers_posted t = Queue.length t.rx_buffers
let set_faults t faults = t.faults <- faults

let fault_verdict t =
  let now = Vmk_sim.Engine.now t.engine in
  let active fault = now >= fault.f_start && now < fault.f_stop in
  match List.find_opt active t.faults with
  | Some fault when Vmk_sim.Rng.int fault.f_rng 100 < fault.f_pct ->
      Some fault.f_mode
  | Some _ | None -> None

let set_mitigation t cycles =
  if Int64.compare cycles 0L < 0 then
    invalid_arg "Nic.set_mitigation: negative window";
  t.mitigation <- cycles

let irq_coalesced t = t.irq_coalesced
let on_coalesce t f = t.on_coalesce <- f
let on_rx_drop t f = t.on_rx_drop <- f

(* One completion wants to interrupt the host. Outside a hold-off window:
   raise now and open a window. Inside one: absorb the edge and make sure a
   single deferred raise is armed for window end — guarded at fire time so
   an already-drained device stays quiet. *)
let rec maybe_raise_irq t =
  let now = Vmk_sim.Engine.now t.engine in
  if Int64.equal t.mitigation 0L then Irq.raise_line t.irq_ctrl t.irq_line
  else if Int64.compare now t.holdoff_until >= 0 then begin
    t.holdoff_until <- Int64.add now t.mitigation;
    Irq.raise_line t.irq_ctrl t.irq_line
  end
  else begin
    t.irq_coalesced <- t.irq_coalesced + 1;
    t.on_coalesce ();
    if not t.holdoff_armed then begin
      t.holdoff_armed <- true;
      Vmk_sim.Engine.at t.engine t.holdoff_until (fun () ->
          t.holdoff_armed <- false;
          if Queue.length t.rx_queue > 0 || Queue.length t.tx_queue > 0 then
            maybe_raise_irq t)
    end
  end

let rec deliver t ~tag ~len =
  match Queue.take_opt t.rx_buffers with
  | None ->
      t.rx_dropped <- t.rx_dropped + 1;
      t.on_rx_drop ()
  | Some frame ->
      Frame.set_tag frame tag;
      Queue.add { frame; len; tag } t.rx_queue;
      t.rx_delivered <- t.rx_delivered + 1;
      maybe_raise_irq t

and inject_rx t ~tag ~len =
  if len < 0 || len > Addr.page_size then
    invalid_arg "Nic.inject_rx: packet length out of range";
  match fault_verdict t with
  | Some Drop -> t.rx_faulted <- t.rx_faulted + 1
  | Some Corrupt ->
      t.rx_faulted <- t.rx_faulted + 1;
      deliver t ~tag:(corrupt_tag tag) ~len
  | Some Duplicate ->
      t.rx_faulted <- t.rx_faulted + 1;
      deliver t ~tag ~len;
      deliver t ~tag ~len
  | None -> deliver t ~tag ~len

let rx_ready t = Queue.take_opt t.rx_queue
let rx_pending t = Queue.length t.rx_queue

let poll t ~budget =
  if budget < 1 then invalid_arg "Nic.poll: budget < 1";
  let rec take n acc =
    if n = 0 then List.rev acc
    else
      match Queue.take_opt t.rx_queue with
      | None -> List.rev acc
      | Some ev -> take (n - 1) (ev :: acc)
  in
  take budget []

let submit_tx t frame ~len =
  t.tx_submitted <- t.tx_submitted + 1;
  Vmk_sim.Engine.after t.engine wire_delay (fun () ->
      Queue.add (frame, len) t.tx_queue;
      t.tx_completed <- t.tx_completed + 1;
      t.tx_bytes <- t.tx_bytes + len;
      maybe_raise_irq t)

let tx_done t = Queue.take_opt t.tx_queue
let tx_completions_pending t = Queue.length t.tx_queue
let rx_faulted t = t.rx_faulted
let rx_delivered t = t.rx_delivered
let rx_dropped t = t.rx_dropped
let tx_submitted t = t.tx_submitted
let tx_completed t = t.tx_completed
let tx_bytes t = t.tx_bytes
