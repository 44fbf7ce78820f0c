(* Minor-heap words allocated while [f ()] runs, read from
   [Gc.minor_words] (exact on every allocation, unlike
   [Gc.quick_stat]'s [minor_words], which only moves at a minor
   collection). The two reads may box their floats; that constant is
   measured with an empty bracket and subtracted, so allocation-free
   code reads exactly [0.0]. Build [f] outside the call: a partial
   application inside it, such as [Array.iter (Sketch.add s) data],
   allocates a closure of its own. *)
let minor_words f =
  let c0 = Gc.minor_words () in
  let c1 = Gc.minor_words () in
  let probe = c1 -. c0 in
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0 -. probe
