type t = {
  clock : Clock.t;
  queue : (unit -> unit) Heap.t;
  (* Tickless bookkeeping (E21): how often virtual time was jumped over
     instead of being stepped through quantum by quantum. Plain fields,
     not counters, so enabling them cannot perturb experiment dumps. *)
  mutable idle_jumps : int;
  mutable burst_jumps : int;
}

let create () =
  {
    clock = Clock.create ();
    queue = Heap.create ();
    idle_jumps = 0;
    burst_jumps = 0;
  }
let now t = Clock.now t.clock
let at t time f = Heap.push t.queue ~time f
let after t delta f = Heap.push t.queue ~time:(Int64.add (now t) delta) f

(* The heap has no removal, so cancellation is flag-based: the queued
   closure checks its handle and fires only if still armed. *)
type handle = { mutable cancelled : bool }

let at_cancellable t time f =
  let h = { cancelled = false } in
  Heap.push t.queue ~time (fun () -> if not h.cancelled then f ());
  h

let cancel h = h.cancelled <- true

let every t period f =
  if Int64.compare period 0L <= 0 then
    invalid_arg "Engine.every: period must be positive";
  (* Reschedule relative to the due time, not the (possibly later) dispatch
     time, so periods stay exact even when the clock jumps past several
     deadlines in one burn. *)
  let rec tick deadline () =
    if f () then begin
      let next = Int64.add deadline period in
      at t next (tick next)
    end
  in
  let first = Int64.add (now t) period in
  at t first (tick first)

let pending t = Heap.length t.queue
let next_due t = Heap.min_time t.queue

let[@inline] next_due_or t default = Heap.min_time_or t.queue default

let note_burst t = t.burst_jumps <- t.burst_jumps + 1
let note_idle t = t.idle_jumps <- t.idle_jumps + 1
let idle_jumps t = t.idle_jumps
let burst_jumps t = t.burst_jumps

let dispatch_due t =
  (* Allocation-free drain: no option/pair boxes on the per-event
     path (E21). [max_int] doubles as the empty sentinel; an empty
     queue can never be [<= now] because the clock never reaches it. *)
  while Int64.compare (Heap.min_time_or t.queue Int64.max_int) (now t) <= 0 do
    (Heap.pop_exn t.queue) ()
  done

let burn t cycles =
  Clock.advance t.clock cycles;
  dispatch_due t

let idle_to_next t =
  match Heap.min_time t.queue with
  | None -> false
  | Some time ->
      if Int64.compare time (now t) > 0 then note_idle t;
      Clock.advance_to t.clock time;
      dispatch_due t;
      true

let run ?until t =
  let continue () =
    match (Heap.min_time t.queue, until) with
    | None, _ -> false
    | Some time, Some limit -> Int64.compare time limit <= 0
    | Some _, None -> true
  in
  while continue () do
    ignore (idle_to_next t)
  done
