(* Preallocated circular slot buffers (E21): the old implementation put
   every request/response through a [Queue.t], allocating a list cell
   per push — on the bridge path that is four cells per forwarded
   packet. Each side is now a fixed ring of [capacity] slots, grabbed
   lazily on the first push (the element itself seeds the array, so no
   dummy value is needed for the polymorphic payload). Slots keep their
   last occupant alive after a pop — a bounded, deliberate leak, gone at
   the next wrap. *)
type 'a buf = {
  mutable slots : 'a array;  (** [[||]] until the first push. *)
  mutable head : int;  (** Index of the oldest element. *)
  mutable len : int;
}

type ('req, 'resp) t = {
  capacity : int;
  reqs : 'req buf;
  resps : 'resp buf;
  mutable req_dropped : int;
  mutable resp_dropped : int;
  mutable on_request_drop : unit -> unit;
  mutable on_response_drop : unit -> unit;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Ring.create: capacity < 1";
  {
    capacity;
    reqs = { slots = [||]; head = 0; len = 0 };
    resps = { slots = [||]; head = 0; len = 0 };
    req_dropped = 0;
    resp_dropped = 0;
    on_request_drop = (fun () -> ());
    on_response_drop = (fun () -> ());
  }

let on_request_drop t f = t.on_request_drop <- f
let on_response_drop t f = t.on_response_drop <- f

let[@inline] buf_push b ~capacity x =
  if Array.length b.slots = 0 then b.slots <- Array.make capacity x;
  let i = b.head + b.len in
  let i = if i >= capacity then i - capacity else i in
  Array.unsafe_set b.slots i x;
  b.len <- b.len + 1

let[@inline] buf_pop b =
  if b.len = 0 then None
  else begin
    let x = Array.unsafe_get b.slots b.head in
    let h = b.head + 1 in
    b.head <- (if h >= Array.length b.slots then 0 else h);
    b.len <- b.len - 1;
    Some x
  end

let push_request t req =
  if t.reqs.len >= t.capacity then begin
    t.req_dropped <- t.req_dropped + 1;
    t.on_request_drop ();
    false
  end
  else begin
    buf_push t.reqs ~capacity:t.capacity req;
    true
  end

let pop_request t = buf_pop t.reqs

let push_response t resp =
  if t.resps.len >= t.capacity then begin
    t.resp_dropped <- t.resp_dropped + 1;
    t.on_response_drop ();
    false
  end
  else begin
    buf_push t.resps ~capacity:t.capacity resp;
    true
  end

let pop_response t = buf_pop t.resps
let response_space t = t.capacity - t.resps.len
let request_dropped_total t = t.req_dropped
let response_dropped_total t = t.resp_dropped
let dropped_total t = t.req_dropped + t.resp_dropped
