(* E15: end-to-end overload robustness. Sweep offered network load from
   0.25x to 8x of the admission-policy capacity on both structures, with
   and without the overload policies of [lib/overload], and measure how
   goodput degrades past saturation.

   The metric is TIMELY goodput: a packet counts only if it reaches the
   application within [latency_budget] cycles of hitting the wire. Raw
   delivery counts hide the failure mode of an unpoliced stack — nothing
   is dropped, the backlog is simply delivered arbitrarily late — so the
   latency budget is what turns queueing-delay blowup into measurable
   collapse, mirroring how [MR96] diagnose receive livelock.

   Naive configurations: the VMM runs a CPU-boosted Dom0 (the backend
   monopolizes the processor under load, starving the guest that must
   consume the packets) and the microkernel net server queues received
   packets without bound. Policied configurations add token-bucket
   admission at the backend/server IRQ path (shed cheap, before the
   expensive per-packet work), a bounded drop-oldest receive queue, and
   client-side retry with seeded exponential backoff. *)

module Table = Vmk_stats.Table
module Machine = Vmk_hw.Machine
module Nic = Vmk_hw.Nic
module Counter = Vmk_trace.Counter
module Overload = Vmk_overload.Overload

type stack = Vmm | Uk
type mode = Naive | Policied

let stacks = [ Vmm; Uk ]
let modes = [ Naive; Policied ]
let stack_label = function Vmm -> "vmm" | Uk -> "uk"
let mode_label = function Naive -> "naive" | Policied -> "policied"

let config_label stack mode =
  Printf.sprintf "%s/%s" (stack_label stack) (mode_label mode)

(* 1x capacity: one packet per [capacity_period] cycles, which is also
   the token-bucket refill period of the policied configurations. The
   capacities differ per structure because the per-packet I/O path costs
   differ (the E3 result): the VMM's world switches, grant operations
   and page flips make its sustainable rate roughly half the
   microkernel's, and admission control is always provisioned against
   the stack's own measured capacity. The saturation-knee comparison
   between structures is therefore made in absolute offered load. *)
let capacity_period = function Vmm -> 60_000L | Uk -> 30_000L

let latency_budget = Scenario.rx_latency_budget
let admit_burst = 16
let rx_queue_cap = 64

(* Offered-load multipliers as exact rationals num/den of the stack's
   capacity rate. The injection count scales with the rate so every run
   offers load for the same virtual window
   (count x period = base_count x capacity_period). *)
let mults = [ (1, 4); (1, 2); (1, 1); (2, 1); (4, 1); (8, 1) ]
let mult_value (n, d) = float_of_int n /. float_of_int d

let mult_label (n, d) =
  if d = 1 then Printf.sprintf "%dx" n else Printf.sprintf "%.2fx" (mult_value (n, d))

let period_of stack (n, d) =
  Int64.div
    (Int64.mul (capacity_period stack) (Int64.of_int d))
    (Int64.of_int n)

let count_of ~base (n, d) = base * n / d

type run = {
  rx : Scenario.rx_storm;
  nic_drops : int;
  drops : int;
  sheds : int;
  retries : int;
  backoff_cycles : int;
  queue_peak : int;
}

(* The receive-storm rig is the naive configuration; policied adds the
   policies described above (retry with up to 4 attempts). *)
let run stack mode ~period ~count =
  let policied x = match mode with Naive -> None | Policied -> Some x in
  let admit =
    policied
      (Overload.Token_bucket.create ~period:(capacity_period stack)
         ~burst:admit_burst ())
  in
  let mach, rx =
    match stack with
    | Vmm -> Scenario.rx_storm_xen ?net_admit:admit ~period ~count ()
    | Uk ->
        Scenario.rx_storm_l4 ?admit ?rx_capacity:(policied rx_queue_cap)
          ?retry_attempts:(policied 4) ~period ~count ()
  in
  let c = mach.Machine.counters in
  let nic_drops = Nic.rx_dropped mach.Machine.nic in
  {
    rx;
    nic_drops;
    drops = Counter.get c Overload.drop_counter + nic_drops;
    sheds = Counter.get c Overload.shed_counter;
    retries = Counter.get c Overload.retry_counter;
    backoff_cycles = Counter.get c Overload.backoff_counter;
    queue_peak = Counter.sum_matching c ~prefix:Overload.queue_peak_prefix;
  }

let run_one stack mode ~base m =
  run stack mode ~period:(period_of stack m) ~count:(count_of ~base m)

(* The capacity sweep above is in multiples of each stack's own
   provisioned capacity, so the knees it finds are not comparable
   between structures. The knee probe drives the two NAIVE stacks at a
   common ladder of absolute rates spanning the gap the coarse sweep
   leaves between "fine at 4x" and "collapsed at 8x". *)
let probe_periods = [ 15_000L; 12_500L; 10_000L; 8_750L; 7_500L ]

let probe_runs stack ~base =
  Scenario.rx_probe ~base ~periods:probe_periods (fun ~period ~count ->
      (run stack Naive ~period ~count).rx)

let peak_goodput curve =
  List.fold_left (fun acc (_, r) -> Float.max acc r.rx.Scenario.goodput) 0.0 curve

let experiment =
  {
    Experiment.id = "e15";
    title = "Overload robustness: admission control and graceful degradation";
    paper_claim =
      "A structured system should degrade gracefully under overload: with \
       backpressure and admission control, goodput plateaus at capacity \
       instead of collapsing (receive livelock, [MR96]), and the \
       microkernel's multi-server I/O path should saturate later than the \
       VMM's centralized Dom0 backend.";
    run =
      (fun ~quick ->
        let base = if quick then 60 else 150 in
        let results =
          List.map
            (fun stack ->
              ( stack,
                List.map
                  (fun mode ->
                    ( mode,
                      List.map (fun m -> (m, run_one stack mode ~base m)) mults
                    ))
                  modes ))
            stacks
        in
        let curve stack mode = List.assoc mode (List.assoc stack results) in
        let get stack mode m = List.assoc m (curve stack mode) in
        let top = List.nth mults (List.length mults - 1) in
        (* --- one degradation table per stack --- *)
        let degradation stack =
          let t =
            Table.create
              ~header:
                [
                  "load";
                  "offered pkt/Mcyc";
                  "naive good";
                  "naive p99 kcyc";
                  "naive eff";
                  "pol good";
                  "pol p99 kcyc";
                  "pol eff";
                ]
          in
          List.iter
            (fun m ->
              let n = (get stack Naive m).rx and p = (get stack Policied m).rx in
              Table.add_row t
                [
                  mult_label m;
                  Table.cellf "%.1f" n.offered;
                  Table.cellf "%.1f" n.goodput;
                  Table.cellf "%.0f" (n.p99 /. 1e3);
                  Table.cellf "%.2f" (Scenario.rx_efficiency n);
                  Table.cellf "%.1f" p.goodput;
                  Table.cellf "%.0f" (p.p99 /. 1e3);
                  Table.cellf "%.2f" (Scenario.rx_efficiency p);
                ])
            mults;
          t
        in
        (* --- overload itemization at the top multiplier --- *)
        let itemized =
          Table.create
            ~header:
              [
                "config";
                "injected";
                "received";
                "timely";
                "nic drop";
                "drops";
                "sheds";
                "retries";
                "backoff cyc";
                "queue peak";
              ]
        in
        List.iter
          (fun stack ->
            List.iter
              (fun mode ->
                let r = get stack mode top in
                Table.add_row itemized
                  [
                    config_label stack mode;
                    string_of_int r.rx.injected;
                    string_of_int r.rx.received;
                    string_of_int r.rx.timely;
                    string_of_int r.nic_drops;
                    string_of_int r.drops;
                    string_of_int r.sheds;
                    string_of_int r.retries;
                    string_of_int r.backoff_cycles;
                    string_of_int r.queue_peak;
                  ])
              modes)
          stacks;
        (* --- verdicts --- *)
        let naive_collapse stack =
          let c = curve stack Naive in
          let r = (get stack Naive top).rx in
          r.goodput < 0.8 *. peak_goodput c
          && r.p99 > Int64.to_float latency_budget
        in
        let policied_graceful stack =
          let c = curve stack Policied in
          let r = (get stack Policied top).rx in
          r.goodput >= 0.8 *. peak_goodput c
          && r.p99 <= Int64.to_float latency_budget
        in
        let vmm_probe = probe_runs Vmm ~base in
        let uk_probe = probe_runs Uk ~base in
        let vmm_knee = Scenario.rx_knee vmm_probe in
        let uk_knee = Scenario.rx_knee uk_probe in
        let probe_table =
          let t =
            Table.create
              ~header:
                [
                  "offered pkt/Mcyc";
                  "vmm eff";
                  "vmm p99 kcyc";
                  "uk eff";
                  "uk p99 kcyc";
                ]
          in
          List.iter2
            (fun (v : Scenario.rx_storm) (u : Scenario.rx_storm) ->
              Table.add_row t
                [
                  Table.cellf "%.0f" v.offered;
                  Table.cellf "%.2f" (Scenario.rx_efficiency v);
                  Table.cellf "%.0f" (v.p99 /. 1e3);
                  Table.cellf "%.2f" (Scenario.rx_efficiency u);
                  Table.cellf "%.0f" (u.p99 /. 1e3);
                ])
            vmm_probe uk_probe;
          t
        in
        let fmt_knee k =
          if k = infinity then ">133" else Printf.sprintf "%.0f" k
        in
        let verdicts =
          [
            Experiment.verdict
              ~claim:"Unpoliced stacks collapse past saturation [MR96]"
              ~expected:
                "naive goodput at 8x < 0.8x its peak and p99 > 1M cycles, on \
                 both structures"
              ~measured:
                (Printf.sprintf
                   "vmm %.1f vs peak %.1f (p99 %.0fk); uk %.1f vs peak %.1f \
                    (p99 %.0fk)"
                   (get Vmm Naive top).rx.goodput
                   (peak_goodput (curve Vmm Naive))
                   ((get Vmm Naive top).rx.p99 /. 1e3)
                   (get Uk Naive top).rx.goodput
                   (peak_goodput (curve Uk Naive))
                   ((get Uk Naive top).rx.p99 /. 1e3))
              (naive_collapse Vmm && naive_collapse Uk);
            Experiment.verdict
              ~claim:"Admission control + backpressure degrade gracefully"
              ~expected:
                "policied goodput at 8x >= 0.8x its peak and p99 <= 1M \
                 cycles, on both structures"
              ~measured:
                (Printf.sprintf
                   "vmm %.1f/%.1f p99 %.0fk; uk %.1f/%.1f p99 %.0fk"
                   (get Vmm Policied top).rx.goodput
                   (peak_goodput (curve Vmm Policied))
                   ((get Vmm Policied top).rx.p99 /. 1e3)
                   (get Uk Policied top).rx.goodput
                   (peak_goodput (curve Uk Policied))
                   ((get Uk Policied top).rx.p99 /. 1e3))
              (policied_graceful Vmm && policied_graceful Uk);
            Experiment.verdict
              ~claim:"The centralized Dom0 saturates before the multi-server \
                      microkernel"
              ~expected:
                "naive vmm knee at a lower absolute offered load than naive uk"
              ~measured:
                (Printf.sprintf "vmm knee at %s pkt/Mcyc, uk at %s pkt/Mcyc"
                   (fmt_knee vmm_knee) (fmt_knee uk_knee))
              (vmm_knee < uk_knee);
          ]
        in
        {
          Experiment.tables =
            [
              ("VMM degradation under offered load", degradation Vmm);
              ("Microkernel degradation under offered load", degradation Uk);
              ("Naive saturation knee probe (common absolute rates)", probe_table);
              ( Printf.sprintf "Overload itemization at %s" (mult_label top),
                itemized );
              Experiment.digests
                (List.map
                   (fun (stack, mode) ->
                     ( Printf.sprintf "%s at %s" (config_label stack mode)
                         (mult_label top),
                       (get stack mode top).rx.digest ))
                   [ (Vmm, Naive); (Uk, Policied) ]);
            ];
          verdicts;
        });
  }
