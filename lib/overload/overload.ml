module Rng = Vmk_sim.Rng
module Counter = Vmk_trace.Counter

let drop_counter = "overload.drop"
let shed_counter = "overload.shed"
let retry_counter = "overload.retry"
let backoff_counter = "overload.backoff_cycles"
let queue_peak_prefix = "overload.queue_peak."
let ring_reject_prefix = "overload.ring_reject."
let fair_admit_counter = "overload.fair.admit"
let fair_shed_counter = "overload.fair.shed"
let fair_shed_prefix = "overload.fair.shed."
let ecn_mark_counter = "overload.ecn_mark"
let ecn_backoff_counter = "overload.ecn_backoff"
let mitig_coalesced_counter = "mitig.irq_coalesced"
let mitig_poll_rounds_counter = "mitig.poll_rounds"
let mitig_batch_hist_prefix = "mitig.batch_hist."
let mitig_reenable_counter = "mitig.reenable"

module Token_bucket = struct
  (* Native-int arithmetic throughout: virtual cycles fit comfortably
     in 63 bits, and a [mutable int64] field would box on every refill
     — the kind of per-admission allocation E21 removes. *)
  type t = {
    period : int;
    burst : int;
    mutable tokens : int;
    mutable last_refill : int;
    mutable admitted : int;
    mutable denied : int;
  }

  let create ~period ~burst () =
    if Int64.compare period 1L < 0 then
      invalid_arg "Token_bucket.create: period < 1";
    if burst < 1 then invalid_arg "Token_bucket.create: burst < 1";
    {
      period = Int64.to_int period;
      burst;
      tokens = burst;
      last_refill = 0;
      admitted = 0;
      denied = 0;
    }

  (* Integer refill: one token per [period] elapsed cycles, capped at
     [burst]. On cap, re-anchor at [now] so idle time is not banked
     beyond the burst. *)
  let refill t ~now =
    if now > t.last_refill then begin
      let fresh = (now - t.last_refill) / t.period in
      if t.tokens + fresh >= t.burst then begin
        t.tokens <- t.burst;
        t.last_refill <- now
      end
      else begin
        t.tokens <- t.tokens + fresh;
        t.last_refill <- t.last_refill + (fresh * t.period)
      end
    end

  let admit t ~now =
    refill t ~now:(Int64.to_int now);
    if t.tokens > 0 then begin
      t.tokens <- t.tokens - 1;
      t.admitted <- t.admitted + 1;
      true
    end
    else begin
      t.denied <- t.denied + 1;
      false
    end

  (* Batch admission: one refill, then take as many of the [n] requested
     tokens as the bucket holds. Equivalent to [n] same-cycle [admit]
     calls, minus n-1 refill computations — the admission-cost analogue of
     the NIC's per-batch poll cost. *)
  let admit_n t ~now n =
    if n < 0 then invalid_arg "Token_bucket.admit_n: negative batch";
    refill t ~now:(Int64.to_int now);
    let k = min t.tokens n in
    t.tokens <- t.tokens - k;
    t.admitted <- t.admitted + k;
    t.denied <- t.denied + (n - k);
    k

  let available t ~now =
    refill t ~now:(Int64.to_int now);
    t.tokens

  let admitted t = t.admitted
  let denied t = t.denied
end

module Bounded_queue = struct
  type policy = Reject | Drop_oldest | Block_with_deadline of int64

  type 'a outcome =
    | Accepted
    | Rejected
    | Displaced of 'a
    | Retry_until of int64

  (* Circular buffer instead of [Queue.t]: a steady-state push/pop
     cycle touches only the slot array — no list cells. The slot array
     is created on the first push (no witness of ['a] before then) and
     doubles up to [capacity] — which may be [max_int] for the "naive
     unbounded" configurations, so it is a growth bound, never a
     preallocation size. *)
  type 'a t = {
    capacity : int;
    policy : policy;
    mark_at : int;
    mutable slots : 'a array;  (* length 0 until the first push *)
    mutable head : int;  (* index of the oldest item *)
    mutable len : int;
    mutable rejected : int;
    mutable displaced : int;
    mutable peak : int;
  }

  let create ?(policy = Reject) ?mark_at ~capacity () =
    if capacity < 1 then invalid_arg "Bounded_queue.create: capacity < 1";
    (match mark_at with
    | Some m when m < 1 -> invalid_arg "Bounded_queue.create: mark_at < 1"
    | Some _ | None -> ());
    {
      capacity;
      policy;
      (* No watermark = never marked ([capacity + 1] is unreachable
         since [length <= capacity]). *)
      mark_at = Option.value mark_at ~default:(capacity + 1);
      slots = [||];
      head = 0;
      len = 0;
      rejected = 0;
      displaced = 0;
      peak = 0;
    }

  let accept t x =
    let cap = Array.length t.slots in
    if t.len = cap then begin
      (* First push, or the physical ring is full while still under the
         logical capacity: (re)build at double size, unrolled. *)
      let ncap =
        if cap = 0 then min t.capacity 16
        else if cap >= t.capacity / 2 then t.capacity
        else cap * 2
      in
      let slots = Array.make ncap x in
      for i = 0 to t.len - 1 do
        let j = t.head + i in
        slots.(i) <- t.slots.(if j >= cap then j - cap else j)
      done;
      t.slots <- slots;
      t.head <- 0
    end;
    let cap = Array.length t.slots in
    let tail = t.head + t.len in
    let tail = if tail >= cap then tail - cap else tail in
    t.slots.(tail) <- x;
    t.len <- t.len + 1;
    if t.len > t.peak then t.peak <- t.len

  let take t =
    let x = t.slots.(t.head) in
    t.head <- (if t.head + 1 >= Array.length t.slots then 0 else t.head + 1);
    t.len <- t.len - 1;
    x

  let push t ~now x =
    if t.len < t.capacity then begin
      accept t x;
      Accepted
    end
    else
      match t.policy with
      | Reject ->
          t.rejected <- t.rejected + 1;
          Rejected
      | Drop_oldest ->
          let old = take t in
          t.displaced <- t.displaced + 1;
          accept t x;
          Displaced old
      | Block_with_deadline window ->
          t.rejected <- t.rejected + 1;
          Retry_until (Int64.add now window)

  let pop t = if t.len = 0 then None else Some (take t)

  let length t = t.len
  let is_empty t = t.len = 0
  let rejected t = t.rejected
  let displaced t = t.displaced
  let peak t = t.peak

  (* ECN-style early notification: the congestion signal fires while
     there is still room, so the producer can back off before anything
     is dropped. *)
  let marked t = t.len >= t.mark_at

end

(* Per-client fair-share admission: one token bucket per demux key, the
   key's weight scaling its refill rate (weight 2 = twice the tokens).
   An aggressive client exhausts only its own bucket — the victim's
   share survives the overload (the E15 follow-up the ROADMAP names). *)
module Weighted_buckets = struct
  (* The per-key shed counter id is resolved when the bucket is built,
     so the admit path never concatenates a key into a counter name. *)
  type slot = { tb : Token_bucket.t; shed_id : int }

  (* Demux keys are small non-negative ints (guest/port ids); a dense
     array lookup beats a Hashtbl probe and allocates nothing. Keys
     outside the dense range fall back to a Hashtbl. *)
  let dense_limit = 4096

  type t = {
    period : int64;  (** Refill period at weight 1. *)
    burst : int;
    counters : Counter.set option;
    fair_admit_id : int;  (* -1 when no counter set *)
    fair_shed_id : int;
    weights : (int, int) Hashtbl.t;
    mutable dense : slot option array;
    others : (int, slot) Hashtbl.t;
    mutable admitted : int;
  }

  let create ?counters ~period ~burst () =
    if Int64.compare period 1L < 0 then
      invalid_arg "Weighted_buckets.create: period < 1";
    if burst < 1 then invalid_arg "Weighted_buckets.create: burst < 1";
    let cid name =
      match counters with None -> -1 | Some c -> Counter.id c name
    in
    {
      period;
      burst;
      counters;
      fair_admit_id = cid fair_admit_counter;
      fair_shed_id = cid fair_shed_counter;
      weights = Hashtbl.create 8;
      dense = Array.make 16 None;
      others = Hashtbl.create 8;
      admitted = 0;
    }

  let weight t ~key = Option.value (Hashtbl.find_opt t.weights key) ~default:1

  let set_weight t ~key w =
    if w < 1 then invalid_arg "Weighted_buckets.set_weight: weight < 1";
    Hashtbl.replace t.weights key w;
    (* Any existing bucket was built at the old rate; rebuild lazily. *)
    if key >= 0 && key < Array.length t.dense then t.dense.(key) <- None
    else Hashtbl.remove t.others key

  let build t key =
    let w = weight t ~key in
    let period =
      let p = Int64.div t.period (Int64.of_int w) in
      if Int64.compare p 1L < 0 then 1L else p
    in
    let shed_id =
      match t.counters with
      | None -> -1
      | Some c -> Counter.id c (fair_shed_prefix ^ string_of_int key)
    in
    { tb = Token_bucket.create ~period ~burst:t.burst (); shed_id }

  let bucket_for t key =
    if key >= 0 && key < dense_limit then begin
      if key >= Array.length t.dense then begin
        let cap = ref (Array.length t.dense) in
        while key >= !cap do
          cap := !cap * 2
        done;
        let dense = Array.make !cap None in
        Array.blit t.dense 0 dense 0 (Array.length t.dense);
        t.dense <- dense
      end;
      match t.dense.(key) with
      | Some s -> s
      | None ->
          let s = build t key in
          t.dense.(key) <- Some s;
          s
    end
    else
      match Hashtbl.find_opt t.others key with
      | Some s -> s
      | None ->
          let s = build t key in
          Hashtbl.add t.others key s;
          s

  let admit t ~key ~now =
    let slot = bucket_for t key in
    let ok = Token_bucket.admit slot.tb ~now in
    (match t.counters with
    | None -> ()
    | Some c ->
        if ok then Counter.incr_id c t.fair_admit_id
        else begin
          Counter.incr_id c t.fair_shed_id;
          Counter.incr_id c slot.shed_id
        end);
    if ok then t.admitted <- t.admitted + 1;
    ok

  let admitted t = t.admitted
end

module Backoff = struct
  type t = {
    attempts : int;
    base : int64;
    cap : int64;
    jitter : int;
    rng : Rng.t;
  }

  let create ?(attempts = 5) ?(base = 100_000L) ?(cap = 3_200_000L)
      ?(jitter = 1_000) rng =
    if attempts < 1 then invalid_arg "Backoff.create: attempts < 1";
    if Int64.compare base 0L < 0 then invalid_arg "Backoff.create: base < 0";
    if jitter < 0 then invalid_arg "Backoff.create: jitter < 0";
    { attempts; base; cap; jitter; rng }

  let delay t ~attempt =
    let rec scale d n =
      if n <= 0 then d
      else
        let next = Int64.mul d 2L in
        if Int64.compare next t.cap >= 0 then t.cap else scale next (n - 1)
    in
    let backoff =
      if Int64.compare t.base t.cap >= 0 then t.cap else scale t.base attempt
    in
    let jitter = if t.jitter = 0 then 0L else Int64.of_int (Rng.int t.rng t.jitter) in
    Int64.add backoff jitter

  (* Retry loop shared by the client ports: [try_once] returns [Some _]
     on success; between failed attempts the caller-supplied [sleep]
     spends the backoff delay (IPC sleep, blocked hypercall, ...).
     Retries and cycles spent backing off are itemized machine-wide. *)
  let run t ~counters ~sleep try_once =
    let rec attempt n =
      match try_once () with
      | Some _ as result -> result
      | None ->
          if n + 1 >= t.attempts then None
          else begin
            let d = delay t ~attempt:n in
            Counter.incr counters retry_counter;
            Counter.add counters backoff_counter (Int64.to_int d);
            sleep d;
            attempt (n + 1)
          end
    in
    attempt 0
end

let note_queue_peak counters ~name depth =
  let key = queue_peak_prefix ^ name in
  if depth > Counter.get counters key then
    Counter.add counters key (depth - Counter.get counters key)

let queue_peak_id counters ~name = Counter.id counters (queue_peak_prefix ^ name)

let note_queue_peak_id counters id depth =
  let cur = Counter.get_id counters id in
  if depth > cur then Counter.add_id counters id (depth - cur)

(* Power-of-two poll-batch histogram. The bucket ids are interned once
   per counter set ([batch_hist]) so the per-batch note is an array
   store, not a [string_of_int] concat. *)
type batch_hist = int array

let batch_hist counters =
  Array.init 31 (fun k ->
      Counter.id counters (mitig_batch_hist_prefix ^ string_of_int (1 lsl k)))

let note_batch_hist counters (h : batch_hist) n =
  if n > 0 then begin
    let rec log2 b k = if b * 2 <= n then log2 (b * 2) (k + 1) else k in
    Counter.incr_id counters h.(log2 1 0)
  end
