type region = { base : int; lines : int }

(* Key 0 is the LRU list's sentinel; regions own the keys after it. The
   counter only sizes each cache's arrays. *)
let next_key = ref 1

let region ~lines =
  if lines < 1 then invalid_arg "Cache.region: lines < 1";
  let r = { base = !next_key; lines } in
  next_key := !next_key + lines;
  r

let region_lines r = r.lines
let absent = -1

(* The resident keys form a doubly-linked list through [prev] and [next],
   most recently used at [next.(0)], next victim at [prev.(0)]; a key that
   is not resident has [prev.(k) = absent]. *)
type t = {
  capacity : int;
  line_bytes : int;
  refill_cost : int;
  mutable prev : int array;
  mutable next : int array;
  mutable resident : int;
  mutable misses : int;
  mutable miss_cycles : int;
}

(* The arrays hold only the sentinel until the first touch: the SMP cells
   build eight cores' caches and never touch one. *)
let create ~lines ~line_bytes ~refill_cost =
  if lines < 1 || line_bytes < 1 || refill_cost < 1 then
    invalid_arg "Cache.create: parameters must be >= 1";
  {
    capacity = lines;
    line_bytes;
    refill_cost;
    prev = [| 0 |];
    next = [| 0 |];
    resident = 0;
    misses = 0;
    miss_cycles = 0;
  }

let of_profile (p : Arch.profile) =
  create ~lines:p.Arch.icache_lines ~line_bytes:p.Arch.cacheline_bytes
    ~refill_cost:p.Arch.tlb_refill_cost

let grow t =
  let extend a = Array.append a (Array.make (!next_key - Array.length a) absent) in
  t.prev <- extend t.prev;
  t.next <- extend t.next

let unlink t k =
  let p = t.prev.(k) and n = t.next.(k) in
  t.next.(p) <- n;
  t.prev.(n) <- p

let push_front t k =
  let h = t.next.(0) in
  t.prev.(k) <- 0;
  t.next.(k) <- h;
  t.prev.(h) <- k;
  t.next.(0) <- k

let touch_line t k =
  if t.prev.(k) <> absent then begin
    unlink t k;
    push_front t k;
    0
  end
  else begin
    if t.resident = t.capacity then begin
      let lru = t.prev.(0) in
      unlink t lru;
      t.prev.(lru) <- absent
    end
    else t.resident <- t.resident + 1;
    push_front t k;
    t.misses <- t.misses + 1;
    t.miss_cycles <- t.miss_cycles + t.refill_cost;
    t.refill_cost
  end

let touch t r =
  if r.base + r.lines > Array.length t.prev then grow t;
  let cost = ref 0 in
  for k = r.base to r.base + r.lines - 1 do
    cost := !cost + touch_line t k
  done;
  !cost

let footprint_bytes t r =
  let n = ref 0 in
  for k = r.base to min (r.base + r.lines) (Array.length t.prev) - 1 do
    if t.prev.(k) <> absent then incr n
  done;
  t.line_bytes * !n

let resident_lines t = t.resident
let misses t = t.misses
let miss_cycles t = t.miss_cycles

let flush t =
  t.prev <- [| 0 |];
  t.next <- [| 0 |];
  t.resident <- 0
