type t = { mutable now : int64 }

let create () = { now = 0L }
let now t = t.now

let advance t cycles =
  if Int64.compare cycles 0L < 0 then
    invalid_arg "Clock.advance: negative cycle count";
  t.now <- Int64.add t.now cycles

let advance_to t deadline =
  if Int64.compare deadline t.now > 0 then t.now <- deadline

let reset t = t.now <- 0L
