type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
  mutable samples : float array;
  mutable sorted : bool;
}

let create () =
  {
    count = 0;
    mean = 0.0;
    m2 = 0.0;
    min = infinity;
    max = neg_infinity;
    total = 0.0;
    samples = [||];
    sorted = true;
  }

let add t x =
  if t.count = Array.length t.samples then begin
    let capacity = Stdlib.max 16 (2 * Array.length t.samples) in
    let samples = Array.make capacity 0.0 in
    Array.blit t.samples 0 samples 0 t.count;
    t.samples <- samples
  end;
  t.samples.(t.count) <- x;
  t.sorted <- false;
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.total <- t.total +. x

let add_int64 t x = add t (Int64.to_float x)
let count t = t.count
let mean t = if t.count = 0 then 0.0 else t.mean
let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)
let stddev t = sqrt (variance t)
let min t = if t.count = 0 then 0.0 else t.min
let max t = if t.count = 0 then 0.0 else t.max
let total t = t.total

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.samples 0 t.count in
    Array.sort compare live;
    Array.blit live 0 t.samples 0 t.count;
    t.sorted <- true
  end

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: p not in [0,100]";
  if t.count = 0 then 0.0
  else begin
    ensure_sorted t;
    let rank = p /. 100.0 *. float_of_int (t.count - 1) in
    let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
    let frac = rank -. floor rank in
    t.samples.(lo) +. (frac *. (t.samples.(hi) -. t.samples.(lo)))
  end

let median t = percentile t 50.0

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let merge a b =
  let t = create () in
  for i = 0 to a.count - 1 do
    add t a.samples.(i)
  done;
  for i = 0 to b.count - 1 do
    add t b.samples.(i)
  done;
  t
