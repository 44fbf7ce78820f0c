(* Bechamel timings for the two CI regression gates: the virtual
   switch's steady-state forward (against BENCH_e17.json) and the E22
   scenario engine's hot pieces (against BENCH_e22.json).

     dune exec bench/main.exe
     dune exec bench/main.exe -- --only e22 --baseline BENCH_e22.json

   [--only SUBSTR] restricts the run to entries whose name contains the
   substring; [--json PATH] additionally writes the measured table as a
   small JSON document (the committed baselines are produced this way);
   [--baseline PATH] fails when an entry runs more than 15% slower than
   that file records. The gates compare host ns, so they depend on the
   machine. The allocs/run column is bechamel's [minor_allocated],
   which reads [Gc.quick_stat]; on OCaml 5 its minor words move only at
   a minor collection, so the column is not an allocation measurement.
   The zero-allocation claims are exact tests under [dune runtest]. *)

open Bechamel
open Toolkit

(* The switch forwarding hot path at [guests] attached ports: pairwise
   flows over pre-learned stations, popping after each forward so the
   port queues stay shallow (steady state, flow-cache hits dominating).
   Setup (switch creation, port attach, MAC learning) is staged outside
   the timed closure. *)
let switch_forward guests packets =
  let module Vnet = Vmk_vnet.Vnet in
  let s = Vnet.Switch.create () in
  let mt = Vnet.Switch.mac_table s in
  for id = 1 to guests do
    ignore (Vnet.Switch.add_port s ~id);
    Vnet.Mac_table.learn mt ~now:0L ~mac:id ~port:id
  done;
  fun () ->
    (* Wrap-around source cycling — same pairwise sequence as
       [(i mod guests) + 1] without paying an integer division per
       packet in the driver. *)
    let cur = ref 0 in
    for _ = 0 to packets - 1 do
      let src = !cur + 1 in
      let dst = (if src >= guests then 0 else src) + 1 in
      cur := (if src >= guests then 0 else src);
      ignore
        (Vnet.Switch.forward_to s ~now:0L ~in_port:src ~src ~dst ~len:512
           ~tag:((dst * 1_000_000) + (src * 10_000)));
      ignore (Vnet.Switch.discard s ~port:dst)
    done

(* E22: the scenario engine's hot pieces — streaming sketch ingest, the
   cross-shard merge, schedule generation, and a small end-to-end day
   slice through [run_cell] on each stack. *)
let sketch_add samples =
  let module Sk = Vmk_stats.Quantile.Sketch in
  let rng = Vmk_sim.Rng.create ~seed:42L () in
  let data = Array.init samples (fun _ -> Vmk_sim.Rng.int rng 1_000_000) in
  fun () ->
    let sk = Sk.create () in
    for i = 0 to samples - 1 do
      Sk.add sk data.(i)
    done;
    ignore (Sk.quantile sk 0.999)

let sketch_merge shards samples =
  let module Sk = Vmk_stats.Quantile.Sketch in
  let rng = Vmk_sim.Rng.create ~seed:43L () in
  let sks =
    Array.init shards (fun _ ->
        let sk = Sk.create () in
        for _ = 1 to samples do
          Sk.add sk (Vmk_sim.Rng.int rng 1_000_000)
        done;
        sk)
  in
  fun () ->
    let into = Sk.create () in
    Array.iter (fun s -> Sk.merge_into ~into s) sks;
    ignore (Sk.quantile into 0.999)

let scenario_generate () =
  let module S = Vmk_workloads.Scenario in
  ignore
    (S.generate ~seed:44L
       {
         S.tenants = 8;
         guests = 8;
         mean_flow_gap = 20_000.0;
         zipf_alpha = 2.6;
         size_min = 1;
         size_max = 256;
         on_mean = 80_000.0;
         off_mean = 40_000.0;
         ramp = S.diurnal;
         horizon = 4_000_000L;
       })

(* --- the entries the CI gates select --- *)

let entries =
  [
    ("e17_vnet_switch_fwd_2g_x200", Staged.stage (switch_forward 2 200));
    ("e22_sketch_add_x1000", Staged.stage (sketch_add 1000));
    ("e22_sketch_merge_8x1000", Staged.stage (sketch_merge 8 1000));
    ("e22_scenario_gen_8t", Staged.stage scenario_generate);
    ( "e22_day_slice_vmm",
      Staged.stage (fun () ->
          ignore (Vmk_core.Exp_e22.bench_slice ~stack:Vmk_core.Exp_e22.Vmm ())) );
    ( "e22_day_slice_uk",
      Staged.stage (fun () ->
          ignore (Vmk_core.Exp_e22.bench_slice ~stack:Vmk_core.Exp_e22.Uk ())) );
  ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let parse_args () =
  let only = ref None and json = ref None and baseline = ref None in
  let rec go = function
    | [] -> ()
    | "--only" :: v :: rest ->
        only := Some v;
        go rest
    | "--json" :: v :: rest ->
        json := Some v;
        go rest
    | "--baseline" :: v :: rest ->
        baseline := Some v;
        go rest
    | a :: _ ->
        Printf.eprintf "bench: unknown argument %s\n" a;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  (!only, !json, !baseline)

(* Read the "results" object of a committed BENCH_*.json — the same
   vmk-bench-v1 shape [write_json] emits. A tiny line-oriented parse is
   enough: one ["name": value] pair per line. *)
let load_baseline path =
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "bench: cannot read baseline %s: %s\n" path msg;
      exit 2
  in
  let rows = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       (* Only the ns/run section is a baseline; the alloc section of a
          v2 file repeats the same entry names. *)
       if line = "\"minor_words_per_run\": {" then raise End_of_file;
       match String.index_opt line '"' with
       | Some q1 -> (
           match String.index_from_opt line (q1 + 1) '"' with
           | Some q2 -> (
               let name = String.sub line (q1 + 1) (q2 - q1 - 1) in
               match String.index_from_opt line q2 ':' with
               | Some colon -> (
                   let v =
                     String.trim
                       (String.sub line (colon + 1)
                          (String.length line - colon - 1))
                   in
                   let v =
                     match String.index_opt v ',' with
                     | Some c -> String.sub v 0 c
                     | None -> v
                   in
                   match float_of_string_opt v with
                   | Some f -> rows := (name, f) :: !rows
                   | None -> ())
               | None -> ())
           | None -> ())
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  !rows

let benchmark ~only =
  let selected =
    match only with
    | None -> entries
    | Some sub -> List.filter (fun (name, _) -> contains ~sub name) entries
  in
  let tests =
    Test.make_grouped ~name:"vmk" ~fmt:"%s/%s"
      (List.map (fun (name, staged) -> Test.make ~name staged) selected)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  (* [minor_allocated] rides along (E21): words of minor heap per run,
     the "allocs/run" column that keeps hot paths honestly
     allocation-free. *)
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json path rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"vmk-bench-v1\",\n  \"unit\": \"ns/run\",\n  \"results\": {\n";
  List.iteri
    (fun i (name, (value, _)) ->
      Printf.fprintf oc "    \"%s\": %s%s\n" (json_escape name)
        (match value with
        | Some v -> Printf.sprintf "%.1f" v
        | None -> "null")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  },\n  \"minor_words_per_run\": {\n";
  List.iteri
    (fun i (name, (_, words)) ->
      Printf.fprintf oc "    \"%s\": %s%s\n" (json_escape name)
        (match words with
        | Some v -> Printf.sprintf "%.1f" v
        | None -> "null")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  }\n}\n";
  close_out oc

(* Compare measured ns/run against a committed baseline: print the
   speedup per entry and fail (non-zero exit) when anything regressed
   more than 15% — the CI guard that keeps the E21 win locked in. *)
let regression_threshold = 1.15

let compare_baseline base rows =
  let regressions = ref [] in
  Printf.printf "\n%-42s %12s %12s %9s\n" "vs baseline" "base ns" "now ns"
    "speedup";
  Printf.printf "%s\n" (String.make 78 '-');
  List.iter
    (fun (name, (value, _)) ->
      match (value, List.assoc_opt name base) with
      | Some now, Some was when now > 0.0 ->
          let speedup = was /. now in
          Printf.printf "%-42s %12.0f %12.0f %8.2fx\n" name was now speedup;
          if now > was *. regression_threshold then
            regressions := (name, speedup) :: !regressions
      | _ -> ())
    rows;
  match !regressions with
  | [] -> ()
  | rs ->
      List.iter
        (fun (name, speedup) ->
          Printf.eprintf "bench: REGRESSION %s is %.2fx the baseline (>%.0f%%)\n"
            name (1.0 /. speedup)
            ((regression_threshold -. 1.0) *. 100.0))
        rs;
      exit 1

let () =
  let only, json, baseline = parse_args () in
  let results = benchmark ~only in
  let estimates label =
    match Hashtbl.find_opt results label with
    | None -> fun _ -> None
    | Some tbl -> (
        fun name ->
          match Hashtbl.find_opt tbl name with
          | None -> None
          | Some ols -> (
              match Analyze.OLS.estimates ols with
              | Some (v :: _) -> Some v
              | Some [] | None -> None))
  in
  let clock = estimates (Measure.label Instance.monotonic_clock) in
  let words = estimates (Measure.label Instance.minor_allocated) in
  match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> print_endline "bench: no results"
  | Some tbl ->
      let rows =
        List.sort compare
          (Hashtbl.fold
             (fun name _ acc -> (name, (clock name, words name)) :: acc)
             tbl [])
      in
      Printf.printf "%-42s %16s %12s\n" "benchmark" "ns/run" "allocs/run";
      Printf.printf "%s\n" (String.make 72 '-');
      List.iter
        (fun (name, (value, w)) ->
          let ws =
            match w with
            | Some v when Float.abs v < 0.5 -> "0"
            | Some v -> Printf.sprintf "%.0fw" v
            | None -> "n/a"
          in
          match value with
          | Some v -> Printf.printf "%-42s %16.0f %12s\n" name v ws
          | None -> Printf.printf "%-42s %16s %12s\n" name "n/a" ws)
        rows;
      Option.iter (fun path -> write_json path rows) json;
      Option.iter
        (fun path -> compare_baseline (load_baseline path) rows)
        baseline
