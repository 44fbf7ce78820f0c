(* Tests for summaries, regression, quantile sketches and table rendering. *)

open Vmk_stats

let check_int = Alcotest.(check int)
let check_float msg = Alcotest.(check (float 1e-9)) msg
let check_floatish msg = Alcotest.(check (float 1e-6)) msg

(* --- Summary --- *)

let test_summary_empty () =
  let s = Summary.create () in
  check_int "count" 0 (Summary.count s);
  check_float "mean" 0.0 (Summary.mean s);
  check_float "stddev" 0.0 (Summary.stddev s);
  check_float "percentile" 0.0 (Summary.percentile s 50.0)

let test_summary_basics () =
  let s = Summary.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check_int "count" 8 (Summary.count s);
  check_floatish "mean" 5.0 (Summary.mean s);
  check_floatish "variance (unbiased)" (32.0 /. 7.0) (Summary.variance s);
  check_float "min" 2.0 (Summary.min s);
  check_float "max" 9.0 (Summary.max s);
  check_float "total" 40.0 (Summary.total s)

let test_summary_percentiles () =
  let s = Summary.of_list (List.init 101 float_of_int) in
  check_floatish "p0" 0.0 (Summary.percentile s 0.0);
  check_floatish "p50" 50.0 (Summary.percentile s 50.0);
  check_floatish "p100" 100.0 (Summary.percentile s 100.0);
  check_floatish "p25 interpolates" 25.0 (Summary.percentile s 25.0)

let test_summary_percentile_out_of_range () =
  let s = Summary.of_list [ 1.0 ] in
  Alcotest.check_raises "p>100"
    (Invalid_argument "Summary.percentile: p not in [0,100]") (fun () ->
      ignore (Summary.percentile s 101.0))

let test_summary_single_observation () =
  let s = Summary.of_list [ 42.0 ] in
  check_float "mean" 42.0 (Summary.mean s);
  check_float "variance" 0.0 (Summary.variance s);
  check_float "median" 42.0 (Summary.median s)

let test_summary_merge () =
  let a = Summary.of_list [ 1.0; 2.0 ] and b = Summary.of_list [ 3.0; 4.0 ] in
  let m = Summary.merge a b in
  check_int "count" 4 (Summary.count m);
  check_floatish "mean" 2.5 (Summary.mean m)

let test_summary_interleaved_percentile_add () =
  (* percentile must re-sort after later adds *)
  let s = Summary.create () in
  Summary.add s 10.0;
  ignore (Summary.percentile s 50.0);
  Summary.add s 0.0;
  check_floatish "median re-sorted" 5.0 (Summary.median s)

let prop_summary_mean_bounds =
  QCheck.Test.make ~name:"summary mean lies within [min,max]" ~count:300
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Summary.of_list xs in
      Summary.mean s >= Summary.min s -. 1e-9
      && Summary.mean s <= Summary.max s +. 1e-9)

let prop_summary_welford_matches_naive =
  QCheck.Test.make ~name:"Welford variance matches two-pass" ~count:200
    QCheck.(list_of_size Gen.(2 -- 40) (float_bound_exclusive 100.0))
    (fun xs ->
      let s = Summary.of_list xs in
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let ss =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
      in
      let naive = ss /. (n -. 1.0) in
      abs_float (naive -. Summary.variance s) < 1e-6 *. (1.0 +. naive))

(* --- Regression --- *)

let test_regression_exact_line () =
  let points = List.init 10 (fun i -> (float_of_int i, (3.0 *. float_of_int i) +. 7.0)) in
  let f = Regression.fit points in
  check_floatish "slope" 3.0 f.Regression.slope;
  check_floatish "intercept" 7.0 f.Regression.intercept;
  check_floatish "r2" 1.0 f.Regression.r2

let test_regression_predict () =
  let f = Regression.fit [ (0.0, 1.0); (1.0, 3.0) ] in
  check_floatish "predict" 5.0 (Regression.predict f 2.0)

let test_regression_flat_line () =
  let f = Regression.fit [ (0.0, 5.0); (1.0, 5.0); (2.0, 5.0) ] in
  check_floatish "slope" 0.0 f.Regression.slope;
  check_floatish "r2 of constant y" 1.0 f.Regression.r2

let test_regression_rejects_degenerate () =
  Alcotest.check_raises "single point"
    (Invalid_argument "Regression.fit: need >= 2 points") (fun () ->
      ignore (Regression.fit [ (1.0, 1.0) ]));
  Alcotest.check_raises "vertical line"
    (Invalid_argument "Regression.fit: x values are all equal") (fun () ->
      ignore (Regression.fit [ (1.0, 1.0); (1.0, 2.0) ]))

let test_regression_noisy_r2_below_one () =
  let points = [ (0.0, 0.0); (1.0, 2.0); (2.0, 1.0); (3.0, 4.0); (4.0, 2.5) ] in
  let f = Regression.fit points in
  Alcotest.(check bool) "0 < r2 < 1" true (f.Regression.r2 > 0.0 && f.Regression.r2 < 1.0)

let test_pearson_signs () =
  let up = List.init 10 (fun i -> (float_of_int i, float_of_int (2 * i))) in
  let down = List.init 10 (fun i -> (float_of_int i, float_of_int (-i))) in
  check_floatish "perfect positive" 1.0 (Regression.pearson up);
  check_floatish "perfect negative" (-1.0) (Regression.pearson down);
  check_floatish "degenerate" 0.0 (Regression.pearson [ (1.0, 1.0) ])

let prop_regression_residuals_sum_zero =
  QCheck.Test.make ~name:"OLS residuals sum to ~0" ~count:200
    QCheck.(list_of_size Gen.(3 -- 30) (pair (float_bound_exclusive 100.0) (float_bound_exclusive 100.0)))
    (fun points ->
      let xs = List.map fst points in
      let distinct = List.sort_uniq compare xs in
      QCheck.assume (List.length distinct > 1);
      let f = Regression.fit points in
      let residual_sum =
        List.fold_left
          (fun acc (x, y) -> acc +. (y -. Regression.predict f x))
          0.0 points
      in
      abs_float residual_sum < 1e-6 *. float_of_int (List.length points))

(* --- Table --- *)

let string_contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else scan (i + 1)
  in
  nl = 0 || scan 0

let test_table_renders_aligned () =
  let t = Table.create ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let out = Table.to_string t in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 4 = "name");
  Alcotest.(check bool) "contains row" true (string_contains out "alpha")

let test_table_pads_short_rows () =
  let t = Table.create ~header:[ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  check_int "row count" 1 (Table.row_count t);
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: too many cells") (fun () ->
      Table.add_row t [ "1"; "2"; "3"; "4" ])

let test_table_cellf () =
  Alcotest.(check string) "formats" "12.50" (Table.cellf "%.2f" 12.5)

(* --- Quantile (E22 streaming sketches) --- *)

let exact_nearest_rank xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let r = int_of_float (ceil (q *. float_of_int n)) in
  let r = max 1 (min n r) in
  a.(r - 1)

let test_sketch_empty_and_single () =
  let s = Quantile.Sketch.create () in
  check_int "count" 0 (Quantile.Sketch.count s);
  check_float "empty quantile" 0.0 (Quantile.Sketch.quantile s 0.5);
  Quantile.Sketch.add s 42;
  check_float "single p50" 42.0 (Quantile.Sketch.quantile s 0.5);
  check_float "single p999" 42.0 (Quantile.Sketch.quantile s 0.999);
  check_int "min" 42 (Quantile.Sketch.min_value s);
  check_int "max" 42 (Quantile.Sketch.max_value s)

let test_sketch_constant_stream () =
  (* Degenerate input: every sample equal. The [min,max] clamp must make
     all quantiles exact even when the value lands mid-bucket. *)
  let s = Quantile.Sketch.create () in
  for _ = 1 to 1000 do
    Quantile.Sketch.add s 123_457
  done;
  List.iter
    (fun q -> check_float "constant" 123_457.0 (Quantile.Sketch.quantile s q))
    [ 0.0; 0.5; 0.99; 0.999; 1.0 ]

let test_sketch_bounded_error () =
  (* Mixed-magnitude stream: sketch quantiles stay within the advertised
     relative error (2^-7 at the default bits=7; allow 2^-6 slack for
     nearest-rank rounding at bucket edges). *)
  let rng = Vmk_sim.Rng.create ~seed:99L () in
  let xs = ref [] in
  let s = Quantile.Sketch.create () in
  for _ = 1 to 5000 do
    let v =
      let base = 1 lsl Vmk_sim.Rng.int rng 18 in
      base + Vmk_sim.Rng.int rng base
    in
    xs := v :: !xs;
    Quantile.Sketch.add s v
  done;
  List.iter
    (fun q ->
      let exact = float_of_int (exact_nearest_rank !xs q) in
      let est = Quantile.Sketch.quantile s q in
      let rel = abs_float (est -. exact) /. exact in
      if rel > 1.0 /. 64.0 then
        Alcotest.failf "q=%.3f exact=%.0f est=%.0f rel=%.4f" q exact est rel)
    [ 0.5; 0.9; 0.99; 0.999 ]

let test_sketch_add_allocates_nothing () =
  let rng = Vmk_sim.Rng.create ~seed:42L () in
  let data = Array.init 1_000 (fun _ -> Vmk_sim.Rng.int rng 1_000_000) in
  let s = Quantile.Sketch.create () in
  let words =
    Alloc.minor_words (fun () ->
        for i = 0 to Array.length data - 1 do
          Quantile.Sketch.add s data.(i)
        done)
  in
  Alcotest.(check (float 0.0)) "words for 1000 adds" 0.0 words;
  check_int "all counted" 1_000 (Quantile.Sketch.count s)

let test_sketch_negative_rejected () =
  let s = Quantile.Sketch.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Quantile.Sketch.add: negative sample") (fun () ->
      Quantile.Sketch.add s (-1))

let prop_sketch_merge_equals_single_stream =
  (* The load-bearing E22 property: merging per-shard sketches must be
     *bit-identical* to one sketch over the concatenated stream — that is
     what makes lock-free per-core collection sound. *)
  QCheck.Test.make ~name:"sketch: merge of shards == single stream" ~count:200
    QCheck.(list_of_size Gen.(1 -- 5) (list_of_size Gen.(0 -- 60) (0 -- 1_000_000)))
    (fun shards ->
      let merged = Quantile.Sketch.create () in
      List.iter
        (fun shard ->
          let s = Quantile.Sketch.create () in
          List.iter (Quantile.Sketch.add s) shard;
          Quantile.Sketch.merge_into ~into:merged s)
        shards;
      let single = Quantile.Sketch.create () in
      List.iter (Quantile.Sketch.add single) (List.concat shards);
      Quantile.Sketch.fingerprint merged = Quantile.Sketch.fingerprint single
      && List.for_all
           (fun q ->
             Quantile.Sketch.quantile merged q
             = Quantile.Sketch.quantile single q)
           [ 0.5; 0.99; 0.999 ])

let suite =
  [
    Alcotest.test_case "summary: empty" `Quick test_summary_empty;
    Alcotest.test_case "summary: basics" `Quick test_summary_basics;
    Alcotest.test_case "summary: percentiles" `Quick test_summary_percentiles;
    Alcotest.test_case "summary: percentile bounds" `Quick
      test_summary_percentile_out_of_range;
    Alcotest.test_case "summary: single observation" `Quick
      test_summary_single_observation;
    Alcotest.test_case "summary: merge" `Quick test_summary_merge;
    Alcotest.test_case "summary: re-sorts after add" `Quick
      test_summary_interleaved_percentile_add;
    QCheck_alcotest.to_alcotest prop_summary_mean_bounds;
    QCheck_alcotest.to_alcotest prop_summary_welford_matches_naive;
    Alcotest.test_case "regression: exact line" `Quick test_regression_exact_line;
    Alcotest.test_case "regression: predict" `Quick test_regression_predict;
    Alcotest.test_case "regression: flat line" `Quick test_regression_flat_line;
    Alcotest.test_case "regression: degenerate inputs" `Quick
      test_regression_rejects_degenerate;
    Alcotest.test_case "regression: noisy r2" `Quick
      test_regression_noisy_r2_below_one;
    Alcotest.test_case "regression: pearson signs" `Quick test_pearson_signs;
    QCheck_alcotest.to_alcotest prop_regression_residuals_sum_zero;
    Alcotest.test_case "table: renders" `Quick test_table_renders_aligned;
    Alcotest.test_case "table: padding and limits" `Quick
      test_table_pads_short_rows;
    Alcotest.test_case "table: cellf" `Quick test_table_cellf;
    Alcotest.test_case "quantile: empty/single" `Quick
      test_sketch_empty_and_single;
    Alcotest.test_case "quantile: constant stream exact" `Quick
      test_sketch_constant_stream;
    Alcotest.test_case "quantile: bounded relative error" `Quick
      test_sketch_bounded_error;
    Alcotest.test_case "quantile: rejects negatives" `Quick
      test_sketch_negative_rejected;
    Alcotest.test_case "sketch: add allocates nothing" `Quick
      test_sketch_add_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_sketch_merge_equals_single_stream;
  ]
