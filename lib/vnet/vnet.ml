module Counter = Vmk_trace.Counter
module Overload = Vmk_overload.Overload

(* Packet addressing shares the machine-wide demux convention
   (tag = dst·10⁶ + src·10⁴ + seq, see {!Vmk_guest.Sys}): the switch
   never parses tags itself — callers hand it a decoded packet.

   E21: every structure on the forwarding path is an int array — open
   addressing instead of [Hashtbl] (whose [find_opt] allocates an
   option per probe), circular int rings instead of [Queue] cells,
   native-int timestamps instead of boxed [int64] fields — so a
   steady-state forward touches nothing on the OCaml heap. *)
type pkt = { src : int; dst : int; len : int; tag : int }

let broadcast = 0

(* Cycle prices of the forwarding decision, charged through the
   caller-supplied [burn] so each stack bills the right account (Dom0
   for the bridge, the net server for the broker). A flow-cache hit
   skips the MAC-table walk — the gap the E17 hit-ratio sweep
   measures. *)
let flow_hit_cost = 40
let flow_miss_cost = 180
let enqueue_cost = 25

(* Fibonacci-style int hash, good enough to spread small dense ids. *)
(* Fibonacci hash; probe sites inline the multiply and fold the
   [land max_int] into their power-of-two slot mask. *)
let _hash_int k = (k * 0x9E3779B1) land max_int

(* --- learning MAC table with aging ------------------------------- *)

module Mac_table = struct
  (* Open-addressing with linear probing and tombstones; slot states
     live in a byte string (0 empty, 1 used, 2 dead). Capacity is a
     power of two, resized at 3/4 fill. *)
  let empty = '\000'
  let used = '\001'
  let dead = '\002'

  type t = {
    ttl : int;
    mutable keys : int array;  (* mac *)
    mutable ports : int array;
    mutable seen : int array;  (* last activity, virtual cycles *)
    mutable state : Bytes.t;
    mutable filled : int;  (* live + tombstones *)
    mutable moves : int;
    mutable expiries : int;
    (* Bumped on every structural change (insert, move, expiry,
       resize) — NOT on [seen] refreshes. A cached (slot, binding)
       pair is valid exactly while this is unchanged; the switch's
       per-port route memo keys on it. *)
    mutable gen : int;
  }

  let create ?(ttl = 1_000_000_000L) () =
    if Int64.compare ttl 1L < 0 then invalid_arg "Mac_table.create: ttl < 1";
    {
      ttl = Int64.to_int ttl;
      keys = Array.make 16 0;
      ports = Array.make 16 0;
      seen = Array.make 16 0;
      state = Bytes.make 16 empty;
      filled = 0;
      moves = 0;
      expiries = 0;
      gen = 0;
    }

  (* Find [mac]'s slot, or the insertion slot when absent. Returns the
     slot index; [Bytes.get t.state i <> used] means absent. *)
  let[@inline] probe t mac =
    let mask = Array.length t.keys - 1 in
    (* [land mask] with a positive mask already clears the sign bit,
       so the extra [land max_int] inside {!hash_int} is redundant —
       the slot is identical. *)
    let i = ref (mac * 0x9E3779B1 land mask) in
    let free = ref (-1) in
    let result = ref (-1) in
    while !result < 0 do
      let s = Bytes.unsafe_get t.state !i in
      if s = empty then result := (if !free >= 0 then !free else !i)
      else if s = dead then begin
        if !free < 0 then free := !i;
        i := (!i + 1) land mask
      end
      else if Array.unsafe_get t.keys !i = mac then result := !i
      else i := (!i + 1) land mask
    done;
    !result

  let resize t =
    let okeys = t.keys and oports = t.ports and oseen = t.seen in
    let ostate = t.state in
    let ncap = 2 * Array.length okeys in
    t.keys <- Array.make ncap 0;
    t.ports <- Array.make ncap 0;
    t.seen <- Array.make ncap 0;
    t.state <- Bytes.make ncap empty;
    t.filled <- 0;
    t.gen <- t.gen + 1;
    Array.iteri
      (fun i mac ->
        if Bytes.get ostate i = used then begin
          let j = probe t mac in
          t.keys.(j) <- mac;
          t.ports.(j) <- oports.(i);
          t.seen.(j) <- oseen.(i);
          Bytes.set t.state j used;
          t.filled <- t.filled + 1
        end)
      okeys

  let learn_slow t now mac port =
    let i = probe t mac in
    if Bytes.get t.state i = used then begin
      if t.ports.(i) <> port then begin
        (* Station moved (or the guest was replugged): rebind. *)
        t.ports.(i) <- port;
        t.moves <- t.moves + 1;
        t.gen <- t.gen + 1
      end;
      t.seen.(i) <- now
    end
    else begin
      if Bytes.get t.state i = empty then t.filled <- t.filled + 1;
      t.keys.(i) <- mac;
      t.ports.(i) <- port;
      t.seen.(i) <- now;
      Bytes.set t.state i used;
      t.gen <- t.gen + 1;
      if 4 * t.filled > 3 * Array.length t.keys then resize t
    end

  (* Bounded resident scan for the hot paths: the slot holding [mac],
     [-1] when it is definitely absent (the probe chain ended at an
     empty slot), [-2] when a tombstone makes absence ambiguous —
     callers fall back to the general probe. No statistics touched, so
     using it never perturbs counter dumps. Unlike a single home-slot
     check, this keeps entries displaced by a hash collision on the
     fast path (small tables make such collisions routine). *)
  let[@inline] hit_slot t mac =
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let i = ref (mac * 0x9E3779B1 land mask) in
    let r = ref min_int in
    while !r = min_int do
      let s = Bytes.unsafe_get t.state !i in
      if s = used then
        if Array.unsafe_get keys !i = mac then r := !i
        else i := (!i + 1) land mask
      else if s = empty then r := -1
      else r := -2
    done;
    !r

  (* Steady state is a same-port refresh: a short resident scan and
     three word ops. Everything else (moves, inserts, tombstoned
     tables) falls through to the general probe. *)
  let[@inline] learn t ~now ~mac ~port =
    let now = Int64.to_int now in
    let i = hit_slot t mac in
    if i >= 0 && Array.unsafe_get t.ports i = port then
      Array.unsafe_set t.seen i now
    else learn_slow t now mac port

  (* Allocation-free resolve: [-1] = miss. Expired entries are removed
     and miss — the packet floods like an unknown destination. *)
  let lookup_port t ~now mac =
    let now = Int64.to_int now in
    let i = probe t mac in
    if Bytes.get t.state i <> used then -1
    else if now - t.seen.(i) > t.ttl then begin
      Bytes.set t.state i dead;
      t.expiries <- t.expiries + 1;
      t.gen <- t.gen + 1;
      -1
    end
    else t.ports.(i)

  let lookup t ~now mac =
    match lookup_port t ~now mac with -1 -> None | p -> Some p

  let moves t = t.moves
  let expiries t = t.expiries
end

(* --- bounded flow cache with hit/miss accounting ----------------- *)

module Flow_cache = struct
  let empty = '\000'
  let used = '\001'
  let dead = '\002'

  type t = {
    capacity : int;
    mutable srcs : int array;
    mutable dsts : int array;
    mutable ports : int array;
    mutable state : Bytes.t;
    mutable live : int;
    mutable filled : int;
    table_limit : int;  (* table size that holds [capacity] at 3/4 *)
    (* FIFO eviction order: a circular ring of (src, dst) pairs, at
       most [capacity] deep; grown geometrically on demand. *)
    mutable fifo_src : int array;
    mutable fifo_dst : int array;
    mutable fifo_head : int;
    mutable fifo_len : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    (* Bumped on every structural change (insert, remove, rebuild,
       invalidate) — NOT on hit/miss accounting. See
       {!Mac_table.t.gen}. *)
    mutable gen : int;
  }

  let table_cap capacity =
    let c = ref 16 in
    (* Keep the table under 3/4 full at capacity so probes stay short
       and no resize is ever needed. *)
    while 3 * !c < 4 * capacity do
      c := 2 * !c
    done;
    !c

  let create ~capacity () =
    if capacity < 1 then invalid_arg "Flow_cache.create: capacity < 1";
    (* Start minimal and grow toward [table_limit] as flows install —
       creating a switch must not pay for a worst-case table. 16 holds
       a dozen flows without a mid-burst rebuild. *)
    let cap = min 16 (table_cap capacity) in
    let fcap = min capacity 8 in
    {
      capacity;
      srcs = Array.make cap 0;
      dsts = Array.make cap 0;
      ports = Array.make cap 0;
      state = Bytes.make cap empty;
      live = 0;
      filled = 0;
      table_limit = table_cap capacity;
      fifo_src = Array.make fcap 0;
      fifo_dst = Array.make fcap 0;
      fifo_head = 0;
      fifo_len = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      gen = 0;
    }

  let[@inline] probe t src dst =
    let mask = Array.length t.srcs - 1 in
    (* Same slot as hashing through {!hash_int}: the sign bit the
       inner [land max_int] would clear dies under [land mask]. *)
    let i = ref ((src * 0x9E3779B1 lxor (dst * 0x85EBCA6B)) land mask) in
    let free = ref (-1) in
    let result = ref (-1) in
    while !result < 0 do
      let s = Bytes.unsafe_get t.state !i in
      if s = empty then result := (if !free >= 0 then !free else !i)
      else if s = dead then begin
        if !free < 0 then free := !i;
        i := (!i + 1) land mask
      end
      else if Array.unsafe_get t.srcs !i = src && Array.unsafe_get t.dsts !i = dst
      then result := !i
      else i := (!i + 1) land mask
    done;
    !result

  (* Rehash into a table of [ncap] slots: grows toward [table_limit]
     as flows install, or compacts tombstones away in place. *)
  let rebuild t ncap =
    let osrcs = t.srcs and odsts = t.dsts and oports = t.ports in
    let ostate = t.state in
    t.gen <- t.gen + 1;
    t.srcs <- Array.make ncap 0;
    t.dsts <- Array.make ncap 0;
    t.ports <- Array.make ncap 0;
    t.state <- Bytes.make ncap empty;
    t.filled <- 0;
    t.live <- 0;
    for i = 0 to Array.length osrcs - 1 do
      if Bytes.get ostate i = used then begin
        let j = probe t osrcs.(i) odsts.(i) in
        t.srcs.(j) <- osrcs.(i);
        t.dsts.(j) <- odsts.(i);
        t.ports.(j) <- oports.(i);
        Bytes.set t.state j used;
        t.filled <- t.filled + 1;
        t.live <- t.live + 1
      end
    done

  let find_port_slow t src dst =
    let i = probe t src dst in
    if Bytes.get t.state i = used then begin
      t.hits <- t.hits + 1;
      t.ports.(i)
    end
    else begin
      t.misses <- t.misses + 1;
      -1
    end

  (* Bounded resident scan, mirror of {!Mac_table.hit_slot}: the hit
     slot, [-1] on a definite miss, [-2] when tombstones make absence
     ambiguous. Touches no hit/miss statistics. *)
  let[@inline] hit_slot t ~src ~dst =
    let srcs = t.srcs in
    let mask = Array.length srcs - 1 in
    let i = ref ((src * 0x9E3779B1 lxor (dst * 0x85EBCA6B)) land mask) in
    let r = ref min_int in
    while !r = min_int do
      let s = Bytes.unsafe_get t.state !i in
      if s = used then
        if
          Array.unsafe_get srcs !i = src && Array.unsafe_get t.dsts !i = dst
        then r := !i
        else i := (!i + 1) land mask
      else if s = empty then r := -1
      else r := -2
    done;
    !r

  (* Allocation-free lookup: [-1] = miss (ports are non-negative).
     Steady state is a short resident scan; tombstoned tables fall
     through to the general probe. *)
  let[@inline] find_port t ~src ~dst =
    match hit_slot t ~src ~dst with
    | -2 -> find_port_slow t src dst
    | -1 ->
        t.misses <- t.misses + 1;
        -1
    | i ->
        t.hits <- t.hits + 1;
        Array.unsafe_get t.ports i

  let find t ~src ~dst =
    match find_port t ~src ~dst with -1 -> None | p -> Some p

  let remove t src dst =
    let i = probe t src dst in
    if Bytes.get t.state i = used then begin
      Bytes.set t.state i dead;
      t.live <- t.live - 1;
      t.gen <- t.gen + 1
    end

  (* Double the FIFO ring (capped at [capacity]), unrolling to 0. *)
  let grow_fifo t =
    let cap = Array.length t.fifo_src in
    let ncap = min (2 * cap) t.capacity in
    let nsrc = Array.make ncap 0 and ndst = Array.make ncap 0 in
    for k = 0 to t.fifo_len - 1 do
      let j = t.fifo_head + k in
      let j = if j >= cap then j - cap else j in
      nsrc.(k) <- t.fifo_src.(j);
      ndst.(k) <- t.fifo_dst.(j)
    done;
    t.fifo_src <- nsrc;
    t.fifo_dst <- ndst;
    t.fifo_head <- 0

  let insert t ~src ~dst ~port =
    let i = probe t src dst in
    if Bytes.get t.state i <> used then begin
      if t.live >= t.capacity then begin
        (* FIFO eviction: the oldest installed flow goes. *)
        let h = t.fifo_head in
        remove t t.fifo_src.(h) t.fifo_dst.(h);
        t.fifo_head <-
          (if h + 1 >= Array.length t.fifo_src then 0 else h + 1);
        t.fifo_len <- t.fifo_len - 1;
        t.evictions <- t.evictions + 1
      end;
      (* The eviction may have freed this very slot chain; re-probe. *)
      let i = probe t src dst in
      if Bytes.get t.state i = empty then t.filled <- t.filled + 1;
      t.srcs.(i) <- src;
      t.dsts.(i) <- dst;
      t.ports.(i) <- port;
      Bytes.set t.state i used;
      t.live <- t.live + 1;
      t.gen <- t.gen + 1;
      if t.fifo_len >= Array.length t.fifo_src then grow_fifo t;
      let fcap = Array.length t.fifo_src in
      let tail = t.fifo_head + t.fifo_len in
      let tail = if tail >= fcap then tail - fcap else tail in
      t.fifo_src.(tail) <- src;
      t.fifo_dst.(tail) <- dst;
      t.fifo_len <- t.fifo_len + 1;
      (* Keep an empty slot reachable: grow toward [table_limit] while
         flows install, then compact tombstones in place (the old
         [9 * filled > 10 * cap] trigger could never fire — [filled]
         never exceeds [cap] — letting tombstones fill the table). *)
      let cap = Array.length t.srcs in
      if 4 * t.filled > 3 * cap then
        rebuild t (if cap < t.table_limit then 2 * cap else cap)
    end

  let invalidate t ~mac =
    (* A station moved: every cached flow naming it (either side) is
       wrong now. Compacting the FIFO keeps eviction order coherent. *)
    let removed = ref 0 in
    for i = 0 to Array.length t.srcs - 1 do
      if Bytes.get t.state i = used && (t.srcs.(i) = mac || t.dsts.(i) = mac)
      then begin
        Bytes.set t.state i dead;
        t.live <- t.live - 1;
        incr removed
      end
    done;
    if !removed > 0 then begin
      t.gen <- t.gen + 1;
      let n = t.fifo_len in
      let keep = ref 0 in
      let fcap = Array.length t.fifo_src in
      for k = 0 to n - 1 do
        let j = t.fifo_head + k in
        let j = if j >= fcap then j - fcap else j in
        let s = t.fifo_src.(j) and d = t.fifo_dst.(j) in
        if not (s = mac || d = mac) then begin
          let dst_k = !keep in
          t.fifo_src.(dst_k) <- s;
          t.fifo_dst.(dst_k) <- d;
          incr keep
        end
      done;
      t.fifo_head <- 0;
      t.fifo_len <- !keep
    end

  let hits t = t.hits
  let misses t = t.misses
  let evictions t = t.evictions

  let hit_ratio t =
    let total = t.hits + t.misses in
    if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total
end

(* --- the switch --------------------------------------------------- *)

module Switch = struct
  (* Per-port rx queue: one interleaved int ring (src, dst, len, tag
     at stride 4 — a queued packet is four stores into one cache
     line), grown geometrically on demand up to [port_capacity]. The
     policy logic is inlined from {!Overload.Bounded_queue} (semantics
     and counters identical). *)
  type port = {
    id : int;
    mutable q_buf : int array;  (* length = 4 * slot count *)
    mutable q_head : int;  (* slot index *)
    mutable q_count : int;
    (* Per-source-port route memo (flow pinning): the last resolved
       (src, dst) -> destination port, plus the source's MAC slot, all
       valid only while both tables' [gen] counters still match the
       snapshot below. In steady state this turns forwarding into a
       handful of compares — no hash, no probe. [m_src = -1] = empty;
       [m_out] is the destination's port id (an int, not the record,
       so refilling the memo allocates nothing). *)
    mutable m_src : int;
    mutable m_dst : int;
    mutable m_out : int;
    mutable m_mi : int;  (* src's slot in the MAC table *)
    mutable m_mgen : int;
    mutable m_fgen : int;
  }

  let[@inline] q_slots p = Array.length p.q_buf lsr 2

  type delivery = { mutable enqueued : int; mutable marked : bool; mutable flood : bool }

  type t = {
    counters : Counter.set option;
    (* Hot counter ids, interned once at create (-1 when no set). *)
    id_drop : int;
    id_overload_drop : int;
    id_flood : int;
    id_flow_hit : int;
    id_flow_miss : int;
    id_no_route : int;
    id_ecn_mark : int;
    burn : int -> unit;
    has_burn : bool;  (* skip the indirect call when [burn] is free *)
    mac : Mac_table.t;
    flows : Flow_cache.t;
    port_capacity : int;
    mark_at : int;  (* capacity + 1 = never marks *)
    fair : Overload.Weighted_buckets.t option;
    mutable by_id : port option array;  (* dense port table *)
    scratch : delivery;  (* reused result of [forward] *)
    mutable dropped : int;
  }

  let no_burn (_ : int) = ()

  let create ?counters ?(burn = no_burn) ?(flow_capacity = 64)
      ?(port_capacity = 64) ?mark_at ?fair () =
    if port_capacity < 1 then invalid_arg "Switch.create: port_capacity < 1";
    (match mark_at with
    | Some m when m < 1 -> invalid_arg "Switch.create: mark_at < 1"
    | Some _ | None -> ());
    let cid name =
      match counters with None -> -1 | Some c -> Counter.id c name
    in
    {
      counters;
      id_drop = cid "vnet.drop";
      id_overload_drop = cid Overload.drop_counter;
      id_flood = cid "vnet.flood";
      id_flow_hit = cid "vnet.flow_hit";
      id_flow_miss = cid "vnet.flow_miss";
      id_no_route = cid "vnet.no_route";
      id_ecn_mark = cid Overload.ecn_mark_counter;
      burn;
      has_burn = burn != no_burn;
      mac = Mac_table.create ();
      flows = Flow_cache.create ~capacity:flow_capacity ();
      port_capacity;
      mark_at = Option.value mark_at ~default:(port_capacity + 1);
      fair;
      by_id = Array.make 16 None;
      scratch = { enqueued = 0; marked = false; flood = false };
      dropped = 0;
    }

  let[@inline] note t id =
    match t.counters with None -> () | Some c -> Counter.incr_id c id

  let add_port t ~id =
    if id = broadcast then invalid_arg "Switch.add_port: 0 is broadcast";
    if id < 0 || id > 0xFF_FFFF then
      invalid_arg "Switch.add_port: id out of range";
    if id < Array.length t.by_id && t.by_id.(id) <> None then
      invalid_arg "Switch.add_port: duplicate id";
    if id >= Array.length t.by_id then begin
      let cap = ref (Array.length t.by_id) in
      while id >= !cap do
        cap := 2 * !cap
      done;
      let by_id = Array.make !cap None in
      Array.blit t.by_id 0 by_id 0 (Array.length t.by_id);
      t.by_id <- by_id
    end;
    let cap = min t.port_capacity 4 in
    let p =
      { id; q_buf = Array.make (4 * cap) 0; q_head = 0; q_count = 0;
        m_src = -1; m_dst = -1; m_out = 0;
        m_mi = 0; m_mgen = -1; m_fgen = -1 }
    in
    t.by_id.(id) <- Some p;
    id

  let port_fail id = invalid_arg (Printf.sprintf "Switch: unknown port %d" id)

  let[@inline] port_exn t id =
    if id >= 0 && id < Array.length t.by_id then
      match Array.unsafe_get t.by_id id with
      | Some p -> p
      | None -> port_fail id
    else port_fail id

  let q_marked t p = p.q_count >= t.mark_at

  let[@inline] q_store p ~at ~src ~dst ~len ~tag =
    let buf = p.q_buf in
    let slots = Array.length buf lsr 2 in
    let at = if at >= slots then at - slots else at in
    let b = at lsl 2 in
    Array.unsafe_set buf b src;
    Array.unsafe_set buf (b + 1) dst;
    Array.unsafe_set buf (b + 2) len;
    Array.unsafe_set buf (b + 3) tag

  (* One destination-port enqueue under the port policy. Mirrors
     [Bounded_queue.push]: Reject refuses the fresh packet,
     Drop_oldest displaces the head (the fresh packet gets in; the
     displaced head is the loss), Block_with_deadline degrades to a
     refusal here — the switch has nobody to park. *)
  (* Double the ring (capped at [port_capacity]), unrolling to 0. *)
  let grow_ring t p =
    let cap = q_slots p in
    let ncap = min (2 * cap) t.port_capacity in
    let nbuf = Array.make (4 * ncap) 0 in
    for k = 0 to p.q_count - 1 do
      let j = p.q_head + k in
      let j = if j >= cap then j - cap else j in
      Array.blit p.q_buf (4 * j) nbuf (4 * k) 4
    done;
    p.q_buf <- nbuf;
    p.q_head <- 0

  let[@inline] enqueue t port ~src ~dst ~len ~tag =
    if t.has_burn then t.burn enqueue_cost;
    if port.q_count < t.port_capacity then begin
      if port.q_count >= q_slots port then grow_ring t port;
      q_store port ~at:(port.q_head + port.q_count) ~src ~dst ~len ~tag;
      port.q_count <- port.q_count + 1;
      true
    end
    else begin
      t.dropped <- t.dropped + 1;
      note t t.id_drop;
      note t t.id_overload_drop;
      false
    end

  (* One forwarding decision: learn the source, admit (fair-share,
     keyed on the in-port), resolve via flow cache then MAC table,
     flood on broadcast/unknown, enqueue on the destination port(s).
     The result carries the destination's ECN mark so the caller can
     bounce it to the sender.

     The returned [delivery] record is the switch's reusable scratch —
     read it before the next [forward] on this switch. *)
  let forward_general t ~now ~in_port ~src ~dst ~len ~tag =
    ignore (port_exn t in_port : port);
    Mac_table.learn t.mac ~now ~mac:src ~port:in_port;
    let r = t.scratch in
    r.enqueued <- 0;
    r.marked <- false;
    r.flood <- false;
    let admitted =
      match t.fair with
      | None -> true
      | Some fair -> Overload.Weighted_buckets.admit fair ~key:in_port ~now
    in
    if not admitted then begin
      (* Shed at the gate, before any lookup work (livelock defense). *)
      if t.has_burn then t.burn enqueue_cost
    end
    else if dst = broadcast then begin
      (* Flood: every port but the source. *)
      if t.has_burn then t.burn flow_miss_cost;
      note t t.id_flood;
      r.flood <- true;
      let by_id = t.by_id in
      for id = 1 to Array.length by_id - 1 do
        if id <> in_port then
          match by_id.(id) with
          | None -> ()
          | Some out ->
              if enqueue t out ~src ~dst ~len ~tag then
                r.enqueued <- r.enqueued + 1;
              if q_marked t out then r.marked <- true
      done
    end
    else begin
      let out_id =
        match Flow_cache.find_port t.flows ~src ~dst with
        | -1 -> (
            if t.has_burn then t.burn flow_miss_cost;
            note t t.id_flow_miss;
            match Mac_table.lookup_port t.mac ~now dst with
            | -1 -> -1
            | port ->
                Flow_cache.insert t.flows ~src ~dst ~port;
                port)
        | port ->
            if t.has_burn then t.burn flow_hit_cost;
            note t t.id_flow_hit;
            port
      in
      if out_id = -1 || out_id = in_port then begin
        (* Unknown unicast destination (the guest never attached) or a
           hairpin to self (the bridge does not reflect): count and
           drop. *)
        note t t.id_no_route
      end
      else begin
        let out = port_exn t out_id in
        if enqueue t out ~src ~dst ~len ~tag then r.enqueued <- 1;
        let marked = q_marked t out in
        r.marked <- marked;
        if marked then note t t.id_ecn_mark
      end
    end;
    r

  (* The steady-state fast path: a resident unicast flow sitting in
     both hash home slots, room in the destination ring, no fair gate.
     All-or-nothing — no counter, timestamp or queue effect is
     committed until every condition has held, so falling back to
     [forward_general] never double-counts. The general path remains
     the semantic reference; this is the same decision sequence with
     the misses compiled out. *)
  (* Commit one fast-path delivery: exactly the side effects the
     general path would have produced for a resident unicast flow-hit
     with room in the destination ring. [mi] is the source's MAC slot
     (its [seen] refresh is the [learn]). *)
  let[@inline] fast_commit t (mt : Mac_table.t) mi (fc : Flow_cache.t) out
      ~now ~src ~dst ~len ~tag =
    Array.unsafe_set mt.Mac_table.seen mi (Int64.to_int now);
    fc.Flow_cache.hits <- fc.Flow_cache.hits + 1;
    if t.has_burn then begin
      t.burn flow_hit_cost;
      t.burn enqueue_cost
    end;
    note t t.id_flow_hit;
    q_store out ~at:(out.q_head + out.q_count) ~src ~dst ~len ~tag;
    out.q_count <- out.q_count + 1;
    let r = t.scratch in
    r.enqueued <- 1;
    r.flood <- false;
    let marked = out.q_count >= t.mark_at in
    r.marked <- marked;
    if marked then note t t.id_ecn_mark;
    r

  (* The slower half of the fast path: scan both tables, and on
     success refill [sp]'s route memo before committing. All-or-
     nothing — no counter, timestamp or queue effect is committed
     until every condition has held, so falling back to
     [forward_general] never double-counts. *)
  let fast_scan t sp ~now ~in_port ~src ~dst ~len ~tag =
    let by_id = t.by_id in
    let mt = t.mac in
    let mi = Mac_table.hit_slot mt src in
    if mi >= 0 && Array.unsafe_get mt.Mac_table.ports mi = in_port then begin
      let fc = t.flows in
      let fi = Flow_cache.hit_slot fc ~src ~dst in
      if fi >= 0 then begin
        let out_id = Array.unsafe_get fc.Flow_cache.ports fi in
        if
          out_id <> in_port
          && out_id > 0
          && out_id < Array.length by_id
        then
          match Array.unsafe_get by_id out_id with
          | Some out when out.q_count lsl 2 < Array.length out.q_buf ->
              sp.m_src <- src;
              sp.m_dst <- dst;
              sp.m_out <- out_id;
              sp.m_mi <- mi;
              sp.m_mgen <- mt.Mac_table.gen;
              sp.m_fgen <- fc.Flow_cache.gen;
              fast_commit t mt mi fc out ~now ~src ~dst ~len ~tag
          | Some _ | None ->
              forward_general t ~now ~in_port ~src ~dst ~len ~tag
        else forward_general t ~now ~in_port ~src ~dst ~len ~tag
      end
      else forward_general t ~now ~in_port ~src ~dst ~len ~tag
    end
    else forward_general t ~now ~in_port ~src ~dst ~len ~tag

  (* The steady-state fast path: a resident unicast flow, room in the
     destination ring, no fair gate. The per-port route memo short-
     circuits both table scans while the tables' [gen] counters are
     unchanged; any structural change anywhere invalidates every memo
     at once. The general path remains the semantic reference; this is
     the same decision sequence with the misses compiled out. *)
  let forward_to t ~now ~in_port ~src ~dst ~len ~tag =
    let by_id = t.by_id in
    if
      (match t.fair with None -> true | Some _ -> false)
      && dst <> broadcast
      && in_port > 0
      && in_port < Array.length by_id
    then
      match Array.unsafe_get by_id in_port with
      | None -> forward_general t ~now ~in_port ~src ~dst ~len ~tag
      | Some sp -> (
          if
            sp.m_src = src
            && sp.m_dst = dst
            && sp.m_mgen = t.mac.Mac_table.gen
            && sp.m_fgen = t.flows.Flow_cache.gen
          then
            (* [m_out] was in bounds at fill time and [by_id] only
               grows (indices preserved), so the unsafe read is safe;
               slot 0 (broadcast) is always [None]. *)
            match Array.unsafe_get by_id sp.m_out with
            | Some out when out.q_count lsl 2 < Array.length out.q_buf ->
                fast_commit t t.mac sp.m_mi t.flows out ~now ~src ~dst ~len
                  ~tag
            | Some _ | None ->
                forward_general t ~now ~in_port ~src ~dst ~len ~tag
          else fast_scan t sp ~now ~in_port ~src ~dst ~len ~tag)
    else forward_general t ~now ~in_port ~src ~dst ~len ~tag

  let forward t ~now ~in_port (p : pkt) =
    forward_to t ~now ~in_port ~src:p.src ~dst:p.dst ~len:p.len ~tag:p.tag

  let pop t ~port =
    let p = port_exn t port in
    if p.q_count = 0 then None
    else begin
      let b = p.q_head lsl 2 in
      let buf = p.q_buf in
      let pkt =
        { src = buf.(b); dst = buf.(b + 1); len = buf.(b + 2); tag = buf.(b + 3) }
      in
      p.q_head <- (if p.q_head + 1 >= q_slots p then 0 else p.q_head + 1);
      p.q_count <- p.q_count - 1;
      Some pkt
    end

  let discard t ~port =
    let p = port_exn t port in
    if p.q_count = 0 then false
    else begin
      p.q_head <- (if p.q_head + 1 >= q_slots p then 0 else p.q_head + 1);
      p.q_count <- p.q_count - 1;
      true
    end

  let pending t ~port = (port_exn t port).q_count

  let port_marked t ~port = q_marked t (port_exn t port)

  let mac_table t = t.mac
  let flow_cache t = t.flows
  let dropped t = t.dropped
end
