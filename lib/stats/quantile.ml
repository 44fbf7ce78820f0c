(* A streaming quantile sketch for datacenter-scale runs (E22).

   [Sketch] is an HDR-histogram-style log-linear bucket sketch over
   non-negative integer samples (cycle latencies): fixed memory, O(1)
   add, bounded *relative* error 2^-bits, and — crucially for per-core
   shards — *exact* mergeability: merging shard sketches is elementwise
   bucket addition, so merge-of-shards is bit-identical to feeding one
   sketch the concatenated stream in any order. That property is what
   lets Exp_e22 keep one sketch per SMP core with no cross-core locks
   and still report global p50/p99/p999. *)

module Sketch = struct
  (* Subbucket (mantissa) bits: relative error <= 2^-bits. *)
  let bits = 7

  type t = {
    counts : int array;
    mutable count : int;
    mutable min : int;
    mutable max : int;
  }

  (* Values below 2^bits get exact unit buckets; above, each power-of-two
     decade [2^p, 2^(p+1)) splits into 2^bits subbuckets. p ranges up to 62
     on a 63-bit native int, so (64 - bits) decades cover everything. *)
  let nbuckets = (64 - bits) lsl bits

  let create () =
    {
      counts = Array.make nbuckets 0;
      count = 0;
      min = max_int;
      max = 0;
    }

  let[@inline] msb v =
    (* Position of the highest set bit of [v >= 1], branch-light. *)
    let v = ref v and p = ref 0 in
    if !v lsr 32 <> 0 then (p := !p + 32; v := !v lsr 32);
    if !v lsr 16 <> 0 then (p := !p + 16; v := !v lsr 16);
    if !v lsr 8 <> 0 then (p := !p + 8; v := !v lsr 8);
    if !v lsr 4 <> 0 then (p := !p + 4; v := !v lsr 4);
    if !v lsr 2 <> 0 then (p := !p + 2; v := !v lsr 2);
    if !v lsr 1 <> 0 then p := !p + 1;
    !p

  let[@inline] index v =
    if v < 1 lsl bits then v
    else
      let shift = msb v - bits in
      ((shift + 1) lsl bits) + ((v lsr shift) - (1 lsl bits))

  (* Midpoint representative of bucket [i]; exact for the unit buckets. *)
  let repr i =
    if i < 1 lsl bits then i
    else
      let shift = (i lsr bits) - 1 in
      let mant = i land ((1 lsl bits) - 1) in
      let lo = ((1 lsl bits) + mant) lsl shift in
      lo + ((1 lsl shift) / 2)

  let add t v =
    if v < 0 then invalid_arg "Quantile.Sketch.add: negative sample";
    t.counts.(index v) <- t.counts.(index v) + 1;
    t.count <- t.count + 1;
    if v < t.min then t.min <- v;
    if v > t.max then t.max <- v

  let count t = t.count
  let min_value t = if t.count = 0 then 0 else t.min
  let max_value t = t.max

  let quantile t q =
    if q < 0.0 || q > 1.0 then invalid_arg "Quantile.Sketch.quantile: q";
    if t.count = 0 then 0.0
    else begin
      (* Nearest-rank: smallest bucket whose cumulative count reaches
         ceil(q * n); clamp to the exact observed [min, max] so degenerate
         streams (all-equal samples) come back exact. *)
      let target =
        let r = int_of_float (ceil (q *. float_of_int t.count)) in
        if r < 1 then 1 else if r > t.count then t.count else r
      in
      let n = Array.length t.counts in
      let cum = ref 0 and i = ref 0 and found = ref 0 in
      (try
         while !i < n do
           cum := !cum + t.counts.(!i);
           if !cum >= target then begin
             found := !i;
             raise Exit
           end;
           incr i
         done
       with Exit -> ());
      let v = repr !found in
      let v = if v < t.min then t.min else if v > t.max then t.max else v in
      float_of_int v
    end

  let merge_into ~into src =
    Array.iteri
      (fun i c -> if c > 0 then into.counts.(i) <- into.counts.(i) + c)
      src.counts;
    into.count <- into.count + src.count;
    if src.count > 0 then begin
      if src.min < into.min then into.min <- src.min;
      if src.max > into.max then into.max <- src.max
    end

  let fingerprint t =
    let h = ref (Hashtbl.hash (bits, t.count, t.min, t.max)) in
    Array.iteri
      (fun i c -> if c > 0 then h := Hashtbl.hash (!h, i, c))
      t.counts;
    !h
end
