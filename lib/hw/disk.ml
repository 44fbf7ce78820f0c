type op = Read | Write

type request = {
  id : int;
  op : op;
  sector : int;
  frame : Frame.frame;
  bytes : int;
  ok : bool;
}

type fault_mode = Fail | Drop

type fault = {
  f_start : int64;
  f_stop : int64;
  f_mode : fault_mode;
  f_pct : int;
  f_rng : Vmk_sim.Rng.t;
  f_sectors : (int * int) option;
}

type t = {
  engine : Vmk_sim.Engine.t;
  irq_ctrl : Irq.t;
  irq_line : int;
  store : (int, int) Hashtbl.t;
  done_queue : request Queue.t;
  mutable faults : fault list;
  mutable next_id : int;
  mutable in_flight : int;
  mutable reads : int;
  mutable writes : int;
  mutable faulted : int;
  mutable dropped : int;
}

(* A fast 2005 disk with cache: 40,000 cycles plus 8 cycles per byte. *)
let base_latency = 40_000L
let per_byte_c100 = 800

let create engine irq_ctrl ~irq_line () =
  {
    engine;
    irq_ctrl;
    irq_line;
    store = Hashtbl.create 256;
    done_queue = Queue.create ();
    faults = [];
    next_id = 0;
    in_flight = 0;
    reads = 0;
    writes = 0;
    faulted = 0;
    dropped = 0;
  }

let set_faults t faults = t.faults <- faults

let fault_sector_hit fault sector =
  match fault.f_sectors with
  | None -> true
  | Some (lo, hi) -> sector >= lo && sector <= hi

(* A request is judged once, at submission time, against the window that
   will be active at submission; the per-request coin flip comes from the
   window's own seeded stream so runs replay bit-for-bit. *)
let fault_verdict t ~sector =
  let now = Vmk_sim.Engine.now t.engine in
  let active fault =
    now >= fault.f_start && now < fault.f_stop && fault_sector_hit fault sector
  in
  match List.find_opt active t.faults with
  | Some fault when Vmk_sim.Rng.int fault.f_rng 100 < fault.f_pct ->
      Some fault.f_mode
  | Some _ | None -> None

let submit t op ~sector ~frame ~bytes =
  if sector < 0 then invalid_arg "Disk.submit: negative sector";
  if bytes < 0 || bytes > Addr.page_size then
    invalid_arg "Disk.submit: size out of range";
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let verdict = fault_verdict t ~sector in
  t.in_flight <- t.in_flight + 1;
  let latency =
    Int64.add base_latency (Int64.of_int (bytes * per_byte_c100 / 100))
  in
  (match verdict with
  | Some Drop ->
      (* The controller loses the request: no completion, no interrupt.
         Clients discover it only through their own timeouts. *)
      t.dropped <- t.dropped + 1;
      Vmk_sim.Engine.after t.engine latency (fun () ->
          t.in_flight <- t.in_flight - 1)
  | Some Fail ->
      t.faulted <- t.faulted + 1;
      Vmk_sim.Engine.after t.engine latency (fun () ->
          t.in_flight <- t.in_flight - 1;
          Queue.add { id; op; sector; frame; bytes; ok = false } t.done_queue;
          Irq.raise_line t.irq_ctrl t.irq_line)
  | None ->
      Vmk_sim.Engine.after t.engine latency (fun () ->
          begin
            match op with
            | Read ->
                let tag =
                  match Hashtbl.find_opt t.store sector with
                  | Some v -> v
                  | None -> 0
                in
                Frame.set_tag frame tag;
                t.reads <- t.reads + 1
            | Write ->
                Hashtbl.replace t.store sector frame.Frame.tag;
                t.writes <- t.writes + 1
          end;
          t.in_flight <- t.in_flight - 1;
          Queue.add { id; op; sector; frame; bytes; ok = true } t.done_queue;
          Irq.raise_line t.irq_ctrl t.irq_line));
  id

let completed t = Queue.take_opt t.done_queue
let in_flight t = t.in_flight

let sector_tag t sector =
  match Hashtbl.find_opt t.store sector with Some v -> v | None -> 0

let reads_total t = t.reads
let writes_total t = t.writes
let faulted_total t = t.faulted
let dropped_total t = t.dropped
