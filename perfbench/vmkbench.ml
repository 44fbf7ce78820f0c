(* Host-cost benchmark for the simulator.

   Drives the simulator's public entry points from outside, one workload
   per invocation, and reports what running the simulator costs the host:
   throughput, allocation, memory and set-up. Every cell's virtual
   results are reduced to a digest (see Cell) that must repeat from round
   to round, and match the committed values at the default seed, because
   a change that moves a virtual cycle is measuring a different program.

     vmkbench --workload io_day --seed 1 --seconds 40 --trace 0 \
       --digests perfbench/expected_digests

   The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}. With --trace 0 the metrics are
   the end-to-end ones; with --trace 1 they are the per-layer ones, and
   the spans go to a Chrome trace-event file under --out. *)

module Sc = Vmk_workloads.Scenario
module Traffic = Vmk_workloads.Traffic
module Testbed = Vmk_core.Scenario
module Machine = Vmk_hw.Machine
module Nic = Vmk_hw.Nic
module Engine = Vmk_sim.Engine
module Rng = Vmk_sim.Rng
module Sys_g = Vmk_guest.Sys
module Svmm = Vmk_vmm.Smp_vmm
module Cluster = Vmk_ukernel.Smp_cluster
module Summary = Vmk_stats.Summary

let default_seed = 1

(* --- run sizes --- *)

let sat_packets = 4_000 (* saturated Single_dom0 cell; its backlog grows all run *)
let paced_packets = 50_000 (* per paced cell *)
let mix_blocks = 100 (* 117-op blocks of guest ops per stack; see [mix_program] *)
let day_pkt_gap = 20_000 (* cycles between packets of one flow *)

(* --- per-round accounting --- *)

type smp_cell = { sc_name : string; sc_ops : int; sc_ns : int; sc_words : float }

type round = {
  mutable cells : Cell.t list;
  mutable attempted : int;
  mutable failed : int;
  mutable setup_ns : int;
  mutable timed_ns : int;
  mutable cell_ns : (string * int) list;  (** Timed phase of each cell. *)
  mutable words : float;
  mutable promoted : float;
  mutable minor_gcs : int;
  mutable idle_jumps : int;
  mutable burst_jumps : int;
  mutable nic_drops : int;
  mutable lock_acq : int;
  mutable lock_cont : int;
  mutable smp : smp_cell list;
}

let new_round () =
  {
    cells = [];
    attempted = 0;
    failed = 0;
    setup_ns = 0;
    timed_ns = 0;
    cell_ns = [];
    words = 0.0;
    promoted = 0.0;
    minor_gcs = 0;
    idle_jumps = 0;
    burst_jumps = 0;
    nic_drops = 0;
    lock_acq = 0;
    lock_cont = 0;
    smp = [];
  }

let ops r = List.fold_left (fun a c -> a + c.Cell.ops) 0 r.cells

type mark = { t : int; minor : float; promoted : float; gcs : int }

let mark () =
  let s = Gc.quick_stat () in
  {
    t = Span.now_ns ();
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    gcs = s.Gc.minor_collections;
  }

(* Charge the interval [a, b] to the round's timed phase, as [cell]'s. *)
let charge r ~cell a b =
  r.timed_ns <- r.timed_ns + (b.t - a.t);
  r.cell_ns <- (cell, b.t - a.t) :: r.cell_ns;
  r.words <- r.words +. (b.minor -. a.minor);
  r.promoted <- r.promoted +. (b.promoted -. a.promoted);
  r.minor_gcs <- r.minor_gcs + (b.gcs - a.gcs)

let note_machine r (m : Machine.t) =
  r.idle_jumps <- r.idle_jumps + Engine.idle_jumps m.Machine.engine;
  r.burst_jumps <- r.burst_jumps + Engine.burst_jumps m.Machine.engine;
  r.nic_drops <- r.nic_drops + Nic.rx_dropped m.Machine.nic

let median_int l = int_of_float (Summary.median (Summary.of_list (List.map float_of_int l)))

(* --- the real single-core stacks (Core.Scenario) --- *)

type stack = Xen | L4

let stack_name = function Xen -> "xen" | L4 -> "l4"

(* Run [body] as the guest's app on one stack. Set-up ends when the app
   body starts; within it, build ends when the testbed calls the traffic
   hook, boot when the app starts. The hook is also how the benchmark
   gets the cell's Machine.t. *)
let testbed_cell r tr ~cell ~seed ~stack ~traffic ~body =
  let t_call = Span.now_ns () in
  let run_sp =
    Span.enter tr (match stack with Xen -> "core.run_xen" | L4 -> "core.run_l4")
  in
  let build_sp = Span.enter tr "core.build" in
  let boot_sp = ref (-1) and mach = ref None and start = ref None in
  let hook m ~gate =
    Span.leave tr build_sp;
    mach := Some m;
    let sp = Span.enter tr "workloads.traffic" in
    let src = traffic m ~gate in
    Span.leave tr sp;
    boot_sp := Span.enter tr "core.boot";
    src
  in
  let app () =
    Span.leave tr !boot_sp;
    start := Some (mark ());
    match !mach with Some m -> body m | None -> ()
  in
  let seed = Int64.of_int seed in
  ignore
    (match stack with
    | Xen -> Testbed.run_xen ~seed ~traffic:hook ~app ()
    | L4 -> Testbed.run_l4 ~seed ~traffic:hook ~app ());
  let stop = mark () in
  Span.leave tr run_sp;
  (match !start with
  | Some a ->
      r.setup_ns <- r.setup_ns + (a.t - t_call);
      charge r ~cell a stop
  | None -> r.setup_ns <- r.setup_ns + (stop.t - t_call));
  let m = Option.get !mach in
  note_machine r m;
  m

(* --- io_day: seeded open-loop day replayed into both stacks --- *)

(* The generator's diurnal shape behind a near-silent first 0.1% of the
   day (400k cycles): Traffic.replay is open-loop with no gate, so no
   packet may arrive before either stack has posted receive buffers. *)
let day_ramp =
  Array.append
    [| (0.0, 1e-9) |]
    (Array.mapi (fun i (s, m) -> ((if i = 0 then 0.001 else s), m)) Sc.diurnal)

let day_config =
  {
    Sc.tenants = 4;
    guests = 1;
    mean_flow_gap = 400_000.0;
    zipf_alpha = 2.6;
    size_min = 1;
    size_max = 64;
    on_mean = 3e6;
    off_mean = 1e6;
    ramp = day_ramp;
    horizon = 400_000_000L;
  }

(* Every packet's scheduled due time, ascending. Replay injects in due
   order, so the k-th injected packet (tag k) was due at [dues.(k-1)]. *)
let due_times sched =
  let d = Array.make (Sc.total_packets sched) 0 and k = ref 0 in
  Sc.iter sched (fun ~flow:_ ~at ~tenant:_ ~src:_ ~dst:_ ~size ->
      for s = 0 to size - 1 do
        d.(!k) <- at + (s * day_pkt_gap);
        incr k
      done);
  Array.sort compare d;
  d

let day_schedule tr ~seed =
  let sp = Span.enter tr "workloads.generate" in
  let sched = Sc.generate ~seed:(Int64.of_int seed) day_config in
  Span.leave tr sp;
  (sched, due_times sched)

let io_day_cell r tr ~seed ~stack sched dues =
  let total = Array.length dues in
  let lat = Array.make total 0 and seen = Bytes.make total '\000' in
  (* An injection before its due time would mean the tag-to-due mapping
     of [due_times] is wrong; it counts as a failure. *)
  let ok = ref 0 and before_due = ref 0 in
  let recv_span = "guest.net_recv." ^ stack_name stack in
  let index tag = (tag mod 1_000_000) - 1 in
  let traffic m ~gate:_ =
    Traffic.replay m sched ~len:512
      ~pkt_gap:(Int64.of_int day_pkt_gap)
      ~on_inject:(fun ~tag ~at ->
        if Int64.to_int at < dues.(index tag) then incr before_due)
      ()
  in
  let body m =
    for i = 0 to total - 1 do
      let sp = Span.enter ~op:i tr recv_span in
      match Sys_g.net_recv () with
      | _len, tag ->
          Span.leave tr sp;
          let k = index tag in
          if k >= 0 && k < total && Bytes.get seen k = '\000' then begin
            Bytes.set seen k '\001';
            lat.(k) <- Int64.to_int (Machine.now m) - dues.(k);
            incr ok
          end
      | exception Sys_g.Sys_error _ -> Span.leave tr sp
    done
  in
  let cell = "io_day/" ^ stack_name stack in
  let m = testbed_cell r tr ~cell ~seed ~stack ~traffic ~body in
  r.attempted <- r.attempted + total;
  r.failed <- r.failed + (total - !ok) + !before_due;
  r.cells <- Cell.of_machine ~name:cell ~ops:!ok ~latencies:lat m :: r.cells

let io_day_round r tr ~seed =
  let t0 = Span.now_ns () in
  let sched, dues = day_schedule tr ~seed in
  r.setup_ns <- r.setup_ns + (Span.now_ns () - t0);
  List.iter (fun stack -> io_day_cell r tr ~seed ~stack sched dues) [ Xen; L4 ]

(* --- guest_mix: a seed-drawn sequence of guest syscalls --- *)

(* The op mix of the repository's own mixed guest workload, [Apps.mixed]
   at its defaults (the E1, E5 and E9 app): per round, 10 [getpid], one
   2,000-cycle [burn], a 512-byte [net_send] every 2nd round and a block
   write plus verified read every 5th. Ten such rounds are one block of
   100 + 10 + 5 + 2 ops; the program is [mix_blocks] blocks. The seed
   draws the order of the ops and each block op's sector (0-127, the
   range [Apps.mixed] cycles through); the counts and arguments are fixed,
   so per-op costs do not drift with the seed.

   One int per op: the kind in the low two bits (0 getpid, 1 burn,
   2 net_send, 3 blk_write + blk_read), its argument above (cycles, bytes,
   sector). *)
let mix_program ~seed =
  let rng = Rng.create ~seed:(Int64.of_int seed) () in
  let block =
    List.concat
      [
        List.init 100 (fun _ -> 0);
        List.init 10 (fun _ -> 1 lor (2_000 lsl 2));
        List.init 5 (fun _ -> 2 lor (512 lsl 2));
        List.init 2 (fun _ -> 3);
      ]
  in
  let prog = Array.of_list (List.concat (List.init mix_blocks (fun _ -> block))) in
  Array.iteri (fun i op -> if op = 3 then prog.(i) <- 3 lor (Rng.int rng 128 lsl 2)) prog;
  Rng.shuffle rng prog;
  prog

let guest_mix_cell r tr ~seed ~stack prog =
  let n = Array.length prog in
  let lat = Array.make n 0 and ok = ref 0 and drain_failed = ref 0 in
  let sfx = "." ^ stack_name stack in
  let names =
    Array.map (fun s -> "guest." ^ s ^ sfx) [| "getpid"; "burn"; "net_send"; "blk_write"; "blk_read" |]
  in
  let traffic m ~gate =
    (* No load: the hook only hands over the machine. *)
    Traffic.constant_rate m ~gate ~period:1L ~len:64 ~count:0 ()
  in
  let call i kind f =
    let sp = Span.enter ~op:i tr names.(kind) in
    match f () with
    | v ->
        Span.leave tr sp;
        Some v
    | exception Sys_g.Sys_error _ ->
        Span.leave tr sp;
        None
  in
  let body m =
    Array.iteri
      (fun i op ->
        let t0 = Machine.now m and arg = op lsr 2 in
        let done_ =
          match op land 3 with
          | 0 -> call i 0 (fun () -> ignore (Sys_g.getpid ())) <> None
          | 1 -> call i 1 (fun () -> Sys_g.burn arg) <> None
          | 2 -> call i 2 (fun () -> Sys_g.net_send ~len:arg ~tag:i) <> None
          | _ -> (
              let len = Sys_g.block_size in
              match call i 3 (fun () -> Sys_g.blk_write ~sector:arg ~len ~tag:(i + 1)) with
              | None -> false
              | Some () ->
                  call i 4 (fun () -> Sys_g.blk_read ~sector:arg ~len) = Some (i + 1))
        in
        if done_ then begin
          lat.(i) <- Int64.to_int (Int64.sub (Machine.now m) t0);
          incr ok
        end)
      prog;
    try Sys_g.net_drain () with Sys_g.Sys_error _ -> incr drain_failed
  in
  let cell = "guest_mix/" ^ stack_name stack in
  let m = testbed_cell r tr ~cell ~seed ~stack ~traffic ~body in
  r.attempted <- r.attempted + n;
  r.failed <- r.failed + (n - !ok) + !drain_failed;
  r.cells <- Cell.of_machine ~name:cell ~ops:!ok ~latencies:lat m :: r.cells

let guest_mix_round r tr ~seed =
  let t0 = Span.now_ns () in
  let prog = mix_program ~seed in
  r.setup_ns <- r.setup_ns + (Span.now_ns () - t0);
  List.iter (fun stack -> guest_mix_cell r tr ~seed ~stack prog) [ Xen; L4 ]

(* --- smp_storm: the 8-core SMP stacks --- *)

type smp_kind = Single_dom0 | Driver_domains | Colocated

let smp_cells =
  [
    ("single_dom0", Single_dom0, sat_packets);
    ("driver_domains", Driver_domains, paced_packets);
    ("colocated", Colocated, paced_packets);
  ]

type smp_result = {
  completed : int;
  mach : Machine.t;
  acquisitions : int;  (** Of the model's shared lock. *)
  contended : int;
  lock_stats : (string * int64) list;  (** Go into the cell's digest. *)
}

(* The E14 period saturates the single Dom0; the paced cells run at a
   period their backends keep up with, so their backlogs stay short. The
   models return no per-packet latency, so these cells are pinned by
   clock, counters, accounts and lock statistics only. *)
let smp_run ~seed ~packets kind =
  let seed = Int64.of_int seed in
  match kind with
  | Single_dom0 | Driver_domains ->
      let backend, period =
        match kind with
        | Single_dom0 -> (Svmm.Single_dom0, 400L)
        | _ -> (Svmm.Driver_domains, 800L)
      in
      let cfg = { (Svmm.default ~backend ~cores:8 ()) with Svmm.packets; period } in
      let res = Svmm.run ~seed cfg in
      {
        completed = res.Svmm.completed;
        mach = res.Svmm.mach;
        acquisitions = res.Svmm.gnt_acquisitions;
        contended = res.Svmm.gnt_contended;
        lock_stats =
          [
            ("gnt_acquisitions", Int64.of_int res.Svmm.gnt_acquisitions);
            ("gnt_contended", Int64.of_int res.Svmm.gnt_contended);
            ("gnt_spin", res.Svmm.gnt_spin);
          ];
      }
  | Colocated ->
      let cfg =
        { (Cluster.default ~placement:Cluster.Colocated ~cores:8 ()) with
          Cluster.packets;
          period = 800L;
        }
      in
      let res = Cluster.run ~seed cfg in
      {
        completed = res.Cluster.completed;
        mach = res.Cluster.mach;
        acquisitions = res.Cluster.mapdb_acquisitions;
        contended = res.Cluster.mapdb_contended;
        lock_stats =
          [
            ("mapdb_acquisitions", Int64.of_int res.Cluster.mapdb_acquisitions);
            ("mapdb_contended", Int64.of_int res.Cluster.mapdb_contended);
            ("mapdb_spin", res.Cluster.mapdb_spin);
          ];
      }

let smp_span = function
  | Single_dom0 | Driver_domains -> "vmm.smp_vmm_run"
  | Colocated -> "ukernel.smp_cluster_run"

(* One timed SMP cell: (host ns, minor words, the model's result). *)
let smp_timed r tr ~cell ~seed ~packets kind =
  let a = mark () in
  let sp = Span.enter tr (smp_span kind) in
  let res = smp_run ~seed ~packets kind in
  Span.leave tr sp;
  let b = mark () in
  charge r ~cell a b;
  note_machine r res.mach;
  r.lock_acq <- r.lock_acq + res.acquisitions;
  r.lock_cont <- r.lock_cont + res.contended;
  (b.t - a.t, b.minor -. a.minor, res)

let smp_storm_round r tr ~seed =
  (* The models build their machine inside [run], so set-up is measured
     as a zero-packet run of each cell: construction and boot only. *)
  List.iter
    (fun (_, kind, _) ->
      let once () =
        let t0 = Span.now_ns () in
        ignore (smp_run ~seed ~packets:0 kind);
        Span.now_ns () - t0
      in
      r.setup_ns <- r.setup_ns + median_int (List.init 3 (fun _ -> once ())))
    smp_cells;
  List.iter
    (fun (name, kind, packets) ->
      let cell = "smp_storm/" ^ name in
      let ns, words, res = smp_timed r tr ~cell ~seed ~packets kind in
      let completed = res.completed in
      r.smp <- { sc_name = name; sc_ops = completed; sc_ns = ns; sc_words = words } :: r.smp;
      r.attempted <- r.attempted + packets;
      r.failed <- r.failed + (packets - completed);
      r.cells <-
        Cell.of_machine ~results:res.lock_stats ~name:cell ~ops:completed ~latencies:[||]
          res.mach
        :: r.cells)
    smp_cells

let workloads =
  [ ("smp_storm", smp_storm_round); ("io_day", io_day_round); ("guest_mix", guest_mix_round) ]

(* --- digest checks --- *)

let load_expected path =
  let tbl = Hashtbl.create 16 in
  (match open_in path with
  | ic ->
      (try
         while true do
           match String.split_on_char ' ' (String.trim (input_line ic)) with
           | [ cell; hex ] when cell.[0] <> '#' -> Hashtbl.replace tbl cell hex
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic
  | exception Sys_error msg -> prerr_endline ("vmkbench: " ^ msg));
  tbl

type checker = {
  expected : (string, string) Hashtbl.t option;  (** Only at the default seed. *)
  first : (string, string) Hashtbl.t;  (** Each cell's digest in its first round. *)
  mutable mismatches : string list;
}

(* A mismatching cell's completed ops count as failed too, so failed_frac
   sees it; the cell's other ops were already counted. *)
let check ck tr r =
  let sp = Span.enter tr "trace.digest" in
  List.iter
    (fun c ->
      let d = Cell.digest c in
      let same_as_first =
        match Hashtbl.find_opt ck.first c.Cell.name with
        | Some d0 -> String.equal d d0
        | None ->
            Hashtbl.add ck.first c.Cell.name d;
            true
      in
      let as_committed =
        match ck.expected with
        | None -> true
        | Some tbl -> Hashtbl.find_opt tbl c.Cell.name = Some d
      in
      if not (same_as_first && as_committed) then begin
        r.failed <- r.failed + c.Cell.ops;
        ck.mismatches <- Printf.sprintf "%s %s" c.Cell.name d :: ck.mismatches
      end)
    r.cells;
  (* Only the counters are needed after the check; keeping the rest would
     make the heap grow with the number of rounds. *)
  r.cells <- List.map (fun c -> { c with Cell.latencies = [||]; accounts = [] }) r.cells;
  Span.leave tr sp

(* --- statistics --- *)

(* Order statistics of a sample; 0 when it is empty. *)
let percentile a p = Summary.percentile (Summary.of_list (Array.to_list a)) p
let median a = percentile a 50.0
let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let per_op rounds v = v /. float_of_int (isum ops rounds)
let ops_per_s r = float_of_int (ops r) /. (float_of_int r.timed_ns /. 1e9)

(* Throughput over a run: a round's ops over the sum, across its cells, of
   each cell's median timed phase. Rounds are identical work, so any
   round's op count will do; per-cell medians keep one slow or lucky
   round from moving the figure. *)
let median_ops_per_s rounds =
  let cells = Hashtbl.create 8 in
  List.iter
    (fun r ->
      List.iter
        (fun (c, ns) ->
          let l = Option.value (Hashtbl.find_opt cells c) ~default:[] in
          Hashtbl.replace cells c (float_of_int ns :: l))
        r.cell_ns)
    rounds;
  let ns = Hashtbl.fold (fun _ l acc -> acc +. median (Array.of_list l)) cells 0.0 in
  match rounds with [] -> nan | r :: _ -> float_of_int (ops r) /. (ns /. 1e9)

let words_per_op r = r.words /. float_of_int (ops r)

(* --- the untraced run: end-to-end metrics --- *)

(* Peak major heap at the end of the first round. The process starts
   fresh and the GC is deterministic, so it repeats exactly for a seed;
   later rounds only add slack from fragmentation. *)
let first_round_heap_mb = ref nan

let drive ~seconds ~ck ~seed ~f tr_of =
  let t0 = Span.now_ns () and rounds = ref [] and n = ref 0 in
  while !n < 2 || Span.now_ns () - t0 < int_of_float (seconds *. 1e9) do
    Gc.full_major ();
    let tr = tr_of !n in
    let r = new_round () in
    f r tr ~seed;
    if Float.is_nan !first_round_heap_mb then
      first_round_heap_mb :=
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
    check ck tr r;
    Printf.printf "round %d: %d ops in %.3f s, %.0f ops/s, %.1f words/op, set-up %.2f ms\n" !n
      (ops r) (float_of_int r.timed_ns /. 1e9) (ops_per_s r) (words_per_op r)
      (float_of_int r.setup_ns /. 1e6);
    rounds := r :: !rounds;
    incr n
  done;
  List.rev !rounds

(* Times and counts are medians over the run's rounds. *)
let end_to_end rounds =
  let arr f = Array.of_list (List.map f rounds) in
  [
    ("sim_ops_per_s", median_ops_per_s rounds, "1/s");
    ("minor_words_per_op", median (arr words_per_op), "words");
    ("peak_heap_mb", !first_round_heap_mb, "MB");
    ("setup_s", median (arr (fun r -> float_of_int r.setup_ns /. 1e9)), "s");
  ]

(* --- the traced run: per-layer metrics --- *)

(* Replays io_day's packet due times on a bare Engine ([at], then [run]),
   once per repetition; each sample is host ns per event. *)
let engine_probe tr ~seed =
  let dues = snd (day_schedule Span.off ~seed) in
  let n = Array.length dues in
  Array.init 21 (fun _ ->
      let e = Engine.create () and fired = ref 0 in
      let tick () = incr fired in
      let t0 = Span.now_ns () in
      let sp = Span.enter tr "sim.engine_at" in
      Array.iter (fun d -> Engine.at e (Int64.of_int d) tick) dues;
      Span.leave tr sp;
      let sp = Span.enter tr "sim.engine_run" in
      Engine.run e;
      Span.leave tr sp;
      if !fired <> n then failwith "engine probe: events lost";
      float_of_int (Span.now_ns () - t0) /. float_of_int n)

(* A span the traced workload never entered reads 0 with n = 0. *)
let span_stats name unit fs =
  [
    (name ^ ".p50", percentile fs 50.0, unit);
    (name ^ ".p99", percentile fs 99.0, unit);
    (name ^ ".n", float_of_int (Array.length fs), "count");
  ]

let count rounds name = isum (fun r -> isum (fun c -> Cell.counter c name) r.cells) rounds
let count_of rounds f = per_op rounds (float_of_int (isum f rounds))

(* Every per-layer figure comes from the traced workload's own rounds,
   except [sim.event_ns], a fixed probe run in every traced run. A layer
   the workload does not reach reads 0 (spans: n = 0). *)
let per_layer ~rounds ~untraced ~traced ~half_words ~event_ns recorders =
  let durations name =
    Array.map float_of_int
      (Array.concat (List.map (fun (_, t) -> Span.durations t name) recorders))
  in
  let counter name = per_op rounds (float_of_int (count rounds name)) in
  let smp_cells names =
    List.concat_map (fun r -> List.filter (fun c -> List.mem c.sc_name names) r.smp) rounds
  in
  let smp_ratio num cells =
    median (Array.of_list (List.map (fun c -> num c /. float_of_int c.sc_ops) cells))
  in
  let sat = smp_cells [ "single_dom0" ] and paced = smp_cells [ "driver_domains"; "colocated" ] in
  let ns c = float_of_int c.sc_ns and words c = c.sc_words in
  let smp_ops = isum (fun r -> isum (fun c -> c.sc_ops) r.smp) rounds in
  let lock_acq = isum (fun r -> r.lock_acq) rounds
  and lock_cont = isum (fun r -> r.lock_cont) rounds in
  let words_growth =
    match half_words with Some h -> smp_ratio words sat /. h | None -> 0.0
  in
  let guest_spans =
    List.concat_map
      (fun call ->
        List.concat_map
          (fun stack ->
            span_stats
              (Printf.sprintf "guest.%s_ns.%s" call stack)
              "ns"
              (durations (Printf.sprintf "guest.%s.%s" call stack)))
          [ "xen"; "l4" ])
      [ "net_recv"; "getpid"; "burn"; "net_send"; "blk_write"; "blk_read" ]
  in
  let median_ms name = median (durations name) /. 1e6 in
  let attempted = isum (fun r -> r.attempted) rounds
  and failed = isum (fun r -> r.failed) rounds in
  span_stats "sim.event_ns" "ns" event_ns
  @ [
      ("sim.idle_jumps_per_op", count_of rounds (fun r -> r.idle_jumps), "count");
      ("sim.burst_jumps_per_op", count_of rounds (fun r -> r.burst_jumps), "count");
      ("smp.backlog_ns_per_op", smp_ratio ns sat, "ns");
      ("smp.backlog_words_per_op", smp_ratio words sat, "words");
      ("smp.paced_ns_per_op", smp_ratio ns paced, "ns");
      ("smp.paced_words_per_op", smp_ratio words paced, "words");
      ("smp.words_growth", words_growth, "ratio");
      ("smp.lock_contended_frac", float_of_int lock_cont /. float_of_int (max 1 lock_acq), "ratio");
      ("smp.ipi_per_op", float_of_int (count rounds "smp.ipi") /. float_of_int (max 1 smp_ops), "count");
      ("vmm.hypercall_per_op", counter "vmm.hypercall", "count");
      ("vmm.world_switch_per_op", counter "vmm.world_switch", "count");
      ("vmm.page_flip_per_op", counter "vmm.page_flip", "count");
      ("cap.minted_per_op", counter "cap.minted", "count");
      ("ukernel.ipc_per_op", counter "uk.ipc.rendezvous", "count");
      ("ukernel.space_switch_per_op", counter "uk.space_switch", "count");
      ("hw.nic_drop", float_of_int (isum (fun r -> r.nic_drops) rounds), "count");
    ]
  @ guest_spans
  @ [
      ("workloads.generate_ms", median_ms "workloads.generate", "ms");
      ("core.build_ms", median_ms "core.build", "ms");
      ("core.boot_ms", median_ms "core.boot", "ms");
      ( "gc.minor_collections_per_kop",
        1000.0 *. count_of untraced (fun r -> r.minor_gcs),
        "count" );
      ("gc.promoted_words_per_op", per_op untraced (fsum (fun (r : round) -> r.promoted) untraced), "words");
      ( "trace.overhead_frac",
        (median_ops_per_s traced /. median_ops_per_s untraced) -. 1.0,
        "ratio" );
      ("failed_frac", float_of_int failed /. float_of_int (max 1 attempted), "ratio");
    ]

(* --- output --- *)

let print_table rows =
  List.iter (fun (name, v, unit) -> Printf.printf "  %-34s %16.4f %s\n" name v unit) rows

let print_self_times recorders =
  List.iter
    (fun (label, t) ->
      let rows = Span.self_by_layer t in
      let total = isum (fun (_, _, s) -> s) rows in
      Printf.printf "per-layer self time, %s (%d spans):\n" label t.Span.len;
      List.iter
        (fun (layer, n, s) ->
          Printf.printf "  %-10s %8d spans %10.2f ms %6.1f%%\n" layer n
            (float_of_int s /. 1e6)
            (100.0 *. float_of_int s /. float_of_int (max 1 total)))
        rows)
    recorders

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " m)

(* --- main --- *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 in
  let trace = ref 0 and digests = ref "perfbench/expected_digests" and out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME smp_storm | io_day | guest_mix");
      ("--seed", Arg.Set_int seed, "N input seed (default 1, the seed with committed digests)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--digests", Arg.Set_string digests, "FILE committed digests for the default seed");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its span file");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "vmkbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let f =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("vmkbench: unknown workload " ^ !workload);
        exit 2
  in
  let seed = !seed and seconds = !seconds in
  let expected = if seed = default_seed then Some (load_expected !digests) else None in
  let ck = { expected; first = Hashtbl.create 16; mismatches = [] } in
  let rounds, metrics =
    if !trace = 0 then begin
      let rounds = drive ~seconds ~ck ~seed ~f (fun _ -> Span.off) in
      (rounds, end_to_end rounds)
    end
    else begin
      (* Untraced and traced rounds alternate, so the tracing overhead is
         measured under the same conditions. *)
      let tr = Span.create () in
      let rounds =
        drive ~seconds ~ck ~seed ~f (fun i ->
            if i mod 2 = 0 then Span.off else tr)
      in
      let untraced = List.filteri (fun i _ -> i mod 2 = 0) rounds
      and traced = List.filteri (fun i _ -> i mod 2 = 1) rounds in
      let probe = Span.create () in
      let event_ns = engine_probe probe ~seed in
      (* The half-size saturated cell behind smp.words_growth. *)
      let half_words =
        if String.equal !workload "smp_storm" then begin
          let _, words, res =
            smp_timed (new_round ()) probe ~cell:"probe" ~seed ~packets:(sat_packets / 2)
              Single_dom0
          in
          Some (words /. float_of_int res.completed)
        end
        else None
      in
      let recorders = [ (!workload, tr); ("probes", probe) ] in
      let metrics = per_layer ~rounds ~untraced ~traced ~half_words ~event_ns recorders in
      print_self_times recorders;
      (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
      let path = Filename.concat !out (Printf.sprintf "trace_%s.json" !workload) in
      Span.write_chrome path recorders;
      Printf.printf "span file: %s\n" path;
      (rounds, metrics)
    end
  in
  let attempted = isum (fun r -> r.attempted) rounds
  and failed = isum (fun r -> r.failed) rounds in
  let mismatches = ck.mismatches in
  Printf.printf "workload %s, seed %d, %d rounds\n" !workload seed (List.length rounds);
  List.iter
    (fun c -> Printf.printf "digest %s %s\n" c.Cell.name (Hashtbl.find ck.first c.Cell.name))
    (List.rev (List.hd rounds).cells);
  List.iter (fun m -> Printf.printf "DIGEST MISMATCH %s\n" m) mismatches;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let failed_frac = float_of_int failed /. float_of_int (max 1 attempted) in
  print_table (metrics @ if !trace = 0 then [ ("failed_frac", failed_frac, "ratio") ] else []);
  let correct = failed = 0 && mismatches = [] && finite && attempted > 0 in
  print_json ~correct ~attempted ~failed
    (List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.0), u)) metrics);
  exit (if correct then 0 else 1)
