(* PCG32 (Melissa O'Neill): 64-bit LCG state, xorshift-rotate output. *)

type t = { mutable state : int64; inc : int64 }

let multiplier = 6364136223846793005L
let default_seed = 0x853c49e6748fea9bL

let next_state t = t.state <- Int64.add (Int64.mul t.state multiplier) t.inc

let create ?(seed = default_seed) () =
  let t = { state = 0L; inc = 0xda3e39cb94b95bdbL } in
  next_state t;
  t.state <- Int64.add t.state seed;
  next_state t;
  t

let output state =
  let xorshifted =
    Int64.to_int32
      (Int64.shift_right_logical
         (Int64.logxor (Int64.shift_right_logical state 18) state)
         27)
  in
  let rot = Int64.to_int (Int64.shift_right_logical state 59) land 31 in
  if rot = 0 then xorshifted
  else
    Int32.logor
      (Int32.shift_right_logical xorshifted rot)
      (Int32.shift_left xorshifted (32 - rot))

let int32 t =
  let state = t.state in
  next_state t;
  output state

let split t =
  let seed = Int64.logxor t.state 0x9e3779b97f4a7c15L in
  next_state t;
  create ~seed ()

let uint_of_int32 x = Int32.to_int x land 0xffffffff

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let limit = 0x100000000 - (0x100000000 mod bound) in
  let rec draw () =
    let x = uint_of_int32 (int32 t) in
    if x < limit then x mod bound else draw ()
  in
  draw ()

let int64_range t lo hi =
  if Int64.compare lo hi > 0 then invalid_arg "Rng.int64_range: lo > hi";
  let span = Int64.add (Int64.sub hi lo) 1L in
  if Int64.compare span 0L <= 0 then
    (* Span overflowed: full 64-bit range. *)
    Int64.logor
      (Int64.shift_left (Int64.of_int32 (int32 t)) 32)
      (Int64.of_int (uint_of_int32 (int32 t)))
  else begin
    let hi32 = Int64.of_int (uint_of_int32 (int32 t)) in
    let lo32 = Int64.of_int (uint_of_int32 (int32 t)) in
    let raw = Int64.logor (Int64.shift_left hi32 32) lo32 in
    let r = Int64.rem raw span in
    let r = if Int64.compare r 0L < 0 then Int64.add r span else r in
    Int64.add lo r
  end

let float t bound = bound *. (float_of_int (uint_of_int32 (int32 t)) /. 4294967296.0)

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = ref (float t 1.0) in
  if !u = 0.0 then u := 1e-12;
  -.mean *. log !u

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
