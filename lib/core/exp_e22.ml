(* E22 — the million-flow day: datacenter-scale open-loop traffic on
   both stacks.

   Every earlier experiment swept 2-8 guests with uniform closed-loop
   load. The paper's structural argument — one privileged Dom0 bridge
   versus a multi-server microkernel with per-core net servers — only
   bites at scale, and there it is the *tail* that separates the two
   architectures long before the means do. This experiment offers both
   stacks the same heavy-tailed day:

   - a Scenario schedule (Zipf flow sizes x Poisson arrivals x on/off
     tenants x diurnal ramp) generated once per seed and replayed
     OPEN-LOOP: arrival times never back off when the fabric congests,
     so overload lands as queueing delay and loss at the sink;
   - an 8-core Smp machine where the VMM funnels every packet through a
     single Dom0 netback shard on core 0 (grant check + page flip under
     the global grant lock), while the microkernel runs one net-server
     shard per core, paying IPC per packet plus a shared mapdb lock —
     the same cost recipes as the E14 storm models;
   - per-shard streaming quantile sketches (fixed memory, exactly
     mergeable) for per-packet latency and per-flow completion excess,
     merged at the end for the global p50/p99/p999 — no O(n) sample
     buffers anywhere on the hot path;
   - E15 admission (per-shard token bucket) and E17 weighted fair share
     (per-tenant buckets) composed in the "policied" mode, which also
     closes the ROADMAP carry-over: the E15 admission shapes rerun on
     the 8-core SMP machine as the knee-sweep axis below.

   Server/doorbell protocol: each shard owns a bounded ingress queue
   (plain data, no Smp mailbox per packet — mailbox insertion is O(n)).
   The injector posts a doorbell IPI only when the shard was parked in
   [recv] with an empty queue, so interrupts coalesce exactly like the
   E16 NAPI path; parking is race-free because no engine event can fire
   between the empty-check and the recv (both happen inside the fiber
   with no intervening effect). *)

module Machine = Vmk_hw.Machine
module Cpu = Vmk_hw.Cpu
module Arch = Vmk_hw.Arch
module Engine = Vmk_sim.Engine
module Table = Vmk_stats.Table
module Sketch = Vmk_stats.Quantile.Sketch
module Smp = Vmk_smp.Smp
module Scenario = Vmk_workloads.Scenario
module Vnet = Vmk_vnet.Vnet
module Token_bucket = Vmk_overload.Overload.Token_bucket
module Bounded_queue = Vmk_overload.Overload.Bounded_queue
module Weighted_buckets = Vmk_overload.Overload.Weighted_buckets
module Vcosts = Vmk_vmm.Costs
module Ucosts = Vmk_ukernel.Costs

type stack = Vmm | Uk

let stack_name = function Vmm -> "vmm" | Uk -> "uk"

type mode = Naive | Policied

let mode_name = function Naive -> "naive" | Policied -> "policied"

(* --- per-packet fabric costs (the E14 smp storm models' recipes) --- *)

let service_batch = 16 (* packets serviced per dispatch (E16 batching) *)

type costs = {
  c_free : int; (* per-packet work outside any shared lock *)
  c_locked : int; (* per-packet critical section under the shared lock *)
  c_irq : int; (* doorbell interrupt billed to the serving core *)
}

let costs_of ~stack (arch : Arch.profile) =
  match stack with
  | Vmm ->
      (* netback + event channel outside the lock; grant check + page
         flip (two PT updates) under the global grant-table lock. *)
      let flip = Vcosts.page_flip_fixed + (2 * arch.Arch.pt_update_cost) in
      {
        c_free = Vmk_vmm.Smp_vmm.netback_work + Vcosts.evtchn_send;
        c_locked = Vcosts.grant_check + flip;
        c_irq = arch.Arch.irq_entry_cost + Vcosts.irq_route;
      }
  | Uk ->
      (* driver + IPC + map on the shard's own core; only the mapdb
         update is under the shared lock. *)
      {
        c_free =
          Vmk_ukernel.Smp_cluster.driver_work + Ucosts.ipc_path
          + arch.Arch.page_map_cost;
        c_locked = 2 * arch.Arch.pt_update_cost;
        c_irq = arch.Arch.irq_entry_cost + Ucosts.irq_to_ipc;
      }

let decision_cost = Vnet.flow_hit_cost + Vnet.enqueue_cost

let svc_cycles ~stack arch =
  let c = costs_of ~stack arch in
  c.c_free + c.c_locked + decision_cost

(* The VMM's single-core cycles/packet is the capacity anchor all
   scenario rates are expressed against ("1.3x" = 30% over what one
   Dom0 core can forward). *)
let vmm_cap_cycles arch = svc_cycles ~stack:Vmm arch

(* --- scenario sizing helpers --- *)

let mean_mult ramp =
  let n = Array.length ramp in
  let acc = ref 0.0 in
  Array.iteri
    (fun i (start, mult) ->
      let stop = if i + 1 < n then fst ramp.(i + 1) else 1.0 in
      acc := !acc +. ((stop -. start) *. mult))
    ramp;
  !acc

(* Mean of the discretised bounded power law on [lo, hi] (alpha <> 1, 2):
   the closed form of the continuous truncated Pareto, good enough for
   rate budgeting (the verdicts measure, they do not assume). *)
let pareto_mean ~alpha ~lo ~hi =
  let flo = float_of_int lo and fhi = float_of_int (hi + 1) in
  let a1 = 1.0 -. alpha and a2 = 2.0 -. alpha in
  let c = a1 /. ((fhi ** a1) -. (flo ** a1)) in
  c *. ((fhi ** a2) -. (flo ** a2)) /. a2

(* --- one cell: a schedule run against one stack in one mode --- *)

type cell = {
  l_stack : stack;
  l_mode : mode;
  l_flows : int;
  l_injected : int; (* packets offered at the ingress *)
  l_delivered : int;
  l_fair_shed : int; (* per-tenant weighted-bucket sheds (E17) *)
  l_tb_shed : int; (* per-shard token-bucket sheds (E15) *)
  l_drops : int; (* bounded-queue rejects (ring overflow) *)
  l_pkt : Sketch.t; (* merged per-packet latency *)
  l_peak : Sketch.t; (* same, packets injected during peak segments *)
  l_flow : Sketch.t; (* merged per-flow completion excess *)
  l_timely_pkts : int;
  l_flows_done : int;
  l_flows_timely : int;
  l_flows_failed : int; (* >= 1 packet shed or dropped *)
  l_tenant_flows : int array;
  l_tenant_timely : int array;
  l_tenant_sk : Sketch.t array; (* per-tenant flow excess *)
  l_wall : int64;
  l_lock_contended : int;
  l_lock_spin : int64;
  l_clean : bool; (* run went Idle (drained), not Rounds *)
  l_digest : string; (* bit-for-bit replay digest *)
}

type shard = {
  sh_q : int Bounded_queue.t;
  sh_tb : Token_bucket.t option;
  sh_sw : Vnet.Switch.t;
  sh_sw_burn : int ref;
  sh_scratch : int array;
  sh_cpu : Cpu.t;
  mutable sh_tid : Smp.tid;
  mutable sh_parked : bool;
  sh_pkt : Sketch.t;
  sh_peak : Sketch.t;
  sh_flow : Sketch.t;
  mutable sh_delivered : int;
}

let flow_bits = 22
let flow_mask = (1 lsl flow_bits) - 1

let run_cell ~stack ~mode ~sched ?(seed = 220L) ?(pkt_gap = 400)
    ?(budget = 100_000) ?(weights = []) () =
  let cfg = Scenario.config sched in
  let guests = cfg.Scenario.guests and tenants = cfg.Scenario.tenants in
  let mach = Machine.create ~cpus:8 ~seed () in
  let engine = mach.Machine.engine in
  let arch = mach.Machine.arch in
  let smp = Smp.create mach in
  let nshards = match stack with Vmm -> 1 | Uk -> Machine.ncpus mach in
  let c = costs_of ~stack arch in
  let svc = svc_cycles ~stack arch in
  let lock = Smp.lock_create smp in
  (* Admission (Policied): per-tenant fair share provisioned at ~90% of
     aggregate fabric capacity, plus a per-shard token bucket at ~95% of
     the shard's service rate — the E15/E17 shapes on the SMP machine. *)
  let fair =
    match mode with
    | Naive -> None
    | Policied ->
        let period =
          Int64.of_int (max 1 (tenants * svc * 110 / (100 * nshards)))
        in
        let fb =
          Weighted_buckets.create ~counters:mach.Machine.counters ~period
            ~burst:32 ()
        in
        List.iter (fun (tn, w) -> Weighted_buckets.set_weight fb ~key:tn w) weights;
        Some fb
  in
  let qcap = match mode with Naive -> 1 lsl 19 | Policied -> 512 in
  let nflows = Scenario.flows sched in
  let rem = Array.make nflows 0 in
  for f = 0 to nflows - 1 do
    rem.(f) <- Scenario.size sched f
  done;
  let horizon_f = Int64.to_float cfg.Scenario.horizon in
  let peak_of t0 =
    Scenario.ramp_mult cfg ~frac:(float_of_int t0 /. horizon_f) >= 0.95
  in
  let timely_pkts = ref 0
  and flows_done = ref 0
  and flows_timely = ref 0
  and flows_failed = ref 0 in
  let tenant_flows = Array.make tenants 0
  and tenant_timely = Array.make tenants 0 in
  let tenant_sk = Array.init tenants (fun _ -> Sketch.create ()) in
  for f = 0 to nflows - 1 do
    let tn = Scenario.tenant sched f in
    tenant_flows.(tn) <- tenant_flows.(tn) + 1
  done;
  let make_shard i =
    let sw_burn = ref 0 in
    let sw =
      Vnet.Switch.create ~counters:mach.Machine.counters
        ~burn:(fun cy -> sw_burn := !sw_burn + cy)
        ()
    in
    for p = 1 to guests do
      ignore (Vnet.Switch.add_port sw ~id:p)
    done;
    (* Learn every source MAC up front so the measured path is the
       flow-cache fast path, then drain the warm-up deliveries. *)
    for src = 1 to guests do
      let dst = (src mod guests) + 1 in
      ignore (Vnet.Switch.forward_to sw ~now:0L ~in_port:src ~src ~dst ~len:512 ~tag:0)
    done;
    for p = 1 to guests do
      while Vnet.Switch.discard sw ~port:p do
        ()
      done
    done;
    sw_burn := 0;
    let tb =
      match mode with
      | Naive -> None
      | Policied ->
          Some
            (Token_bucket.create
               ~period:(Int64.of_int (svc * 105 / 100))
               ~burst:16 ())
    in
    {
      sh_q = Bounded_queue.create ~capacity:qcap ();
      sh_tb = tb;
      sh_sw = sw;
      sh_sw_burn = sw_burn;
      sh_scratch = Array.make service_batch 0;
      sh_cpu = Machine.cpu mach i;
      sh_tid = -1;
      sh_parked = false;
      sh_pkt = Sketch.create ();
      sh_peak = Sketch.create ();
      sh_flow = Sketch.create ();
      sh_delivered = 0;
    }
  in
  let shards = Array.init nshards make_shard in
  let record_delivery s now_i packed =
    let t0 = packed lsr flow_bits and f = packed land flow_mask in
    let lat = now_i - t0 in
    Sketch.add s.sh_pkt lat;
    if peak_of t0 then Sketch.add s.sh_peak lat;
    if lat <= budget then incr timely_pkts;
    s.sh_delivered <- s.sh_delivered + 1;
    let r = rem.(f) in
    if r > 0 then begin
      rem.(f) <- r - 1;
      if r = 1 then begin
        let tn = Scenario.tenant sched f in
        let ideal =
          Scenario.at sched f + ((Scenario.size sched f - 1) * pkt_gap)
        in
        let excess = max 0 (now_i - ideal) in
        Sketch.add s.sh_flow excess;
        Sketch.add tenant_sk.(tn) excess;
        incr flows_done;
        if excess <= budget then begin
          incr flows_timely;
          tenant_timely.(tn) <- tenant_timely.(tn) + 1
        end
      end
    end
  in
  let rec serve s =
    let n = ref 0 in
    s.sh_sw_burn := 0;
    while !n < service_batch && not (Bounded_queue.is_empty s.sh_q) do
      match Bounded_queue.pop s.sh_q with
      | Some packed ->
          s.sh_scratch.(!n) <- packed;
          let f = packed land flow_mask in
          let src = Scenario.src sched f and dst = Scenario.dst sched f in
          ignore
            (Vnet.Switch.forward_to s.sh_sw ~now:s.sh_cpu.Cpu.now ~in_port:src
               ~src ~dst ~len:512 ~tag:f);
          ignore (Vnet.Switch.discard s.sh_sw ~port:dst);
          incr n
      | None -> ()
    done;
    if !n = 0 then begin
      (* Queue empty. No engine event can run between this check and the
         recv (no effect in between), so the doorbell cannot be lost. *)
      s.sh_parked <- true;
      ignore (Smp.recv ());
      s.sh_parked <- false
    end
    else begin
      Smp.burn ((!n * c.c_free) + !(s.sh_sw_burn));
      Smp.locked lock ~cycles:(!n * c.c_locked);
      let now_i = Int64.to_int s.sh_cpu.Cpu.now in
      for k = 0 to !n - 1 do
        record_delivery s now_i s.sh_scratch.(k)
      done
    end;
    serve s
  in
  Array.iteri
    (fun i s ->
      let name =
        match stack with
        | Vmm -> "dom0.netback"
        | Uk -> Printf.sprintf "net%d" i
      in
      s.sh_tid <- Smp.spawn smp ~name ~cpu:i (fun () -> serve s))
    shards;
  (* --- open-loop injection: replay the schedule's absolute times --- *)
  let injected = ref 0
  and drops = ref 0
  and tb_shed = ref 0
  and fair_shed = ref 0 in
  let fail_flow f =
    if rem.(f) > 0 then begin
      rem.(f) <- -1;
      incr flows_failed
    end
  in
  let inject_pkt f =
    incr injected;
    let now = Engine.now engine in
    let ok_fair =
      match fair with
      | None -> true
      | Some fb -> Weighted_buckets.admit fb ~key:(Scenario.tenant sched f) ~now
    in
    if not ok_fair then begin
      incr fair_shed;
      fail_flow f
    end
    else begin
      let dst = Scenario.dst sched f in
      let s =
        shards.(match stack with Vmm -> 0 | Uk -> (dst - 1) mod nshards)
      in
      let ok_tb =
        match s.sh_tb with
        | None -> true
        | Some tb -> Token_bucket.admit tb ~now
      in
      if not ok_tb then begin
        incr tb_shed;
        fail_flow f
      end
      else
        match
          Bounded_queue.push s.sh_q ~now
            ((Int64.to_int now lsl flow_bits) lor f)
        with
        | Bounded_queue.Accepted ->
            if s.sh_parked && Bounded_queue.length s.sh_q = 1 then
              Smp.post smp ~irq_cost:c.c_irq ~dst:s.sh_tid 0
        | Bounded_queue.Rejected ->
            incr drops;
            fail_flow f
        | Bounded_queue.Displaced _ | Bounded_queue.Retry_until _ ->
            assert false (* Reject policy only *)
    end
  in
  let gap64 = Int64.of_int pkt_gap in
  let rec chain f seq at =
    Engine.at engine at (fun () ->
        inject_pkt f;
        if seq + 1 < Scenario.size sched f then
          chain f (seq + 1) (Int64.add at gap64))
  in
  let rec walk i =
    if i < nflows then
      Engine.at engine
        (Int64.of_int (Scenario.at sched i))
        (fun () ->
          inject_pkt i;
          if Scenario.size sched i > 1 then
            chain i 1 (Int64.add (Int64.of_int (Scenario.at sched i)) gap64);
          walk (i + 1))
  in
  walk 0;
  let max_rounds =
    (Int64.to_int cfg.Scenario.horizon / 1000 * 8) + 4_000_000
  in
  let stop = Smp.run ~max_rounds smp in
  (* --- merge the per-shard sketches (the mergeability payoff) --- *)
  let pkt = Sketch.create ()
  and peak = Sketch.create ()
  and flow = Sketch.create () in
  Array.iter
    (fun s ->
      Sketch.merge_into ~into:pkt s.sh_pkt;
      Sketch.merge_into ~into:peak s.sh_peak;
      Sketch.merge_into ~into:flow s.sh_flow)
    shards;
  let delivered = Array.fold_left (fun a s -> a + s.sh_delivered) 0 shards in
  let wall = Machine.now mach in
  let digest =
    Machine.digest mach
      [
        Printf.sprintf "packets injected %d delivered %d timely %d" !injected
          delivered !timely_pkts;
        Printf.sprintf "shed fair %d bucket %d drops %d" !fair_shed !tb_shed
          !drops;
        Printf.sprintf "flows done %d timely %d failed %d" !flows_done
          !flows_timely !flows_failed;
        Printf.sprintf "sketch pkt %d peak %d flow %d" (Sketch.fingerprint pkt)
          (Sketch.fingerprint peak) (Sketch.fingerprint flow);
        Printf.sprintf "schedule %d" (Scenario.fingerprint sched);
      ]
  in
  {
    l_stack = stack;
    l_mode = mode;
    l_flows = nflows;
    l_injected = !injected;
    l_delivered = delivered;
    l_fair_shed = !fair_shed;
    l_tb_shed = !tb_shed;
    l_drops = !drops;
    l_pkt = pkt;
    l_peak = peak;
    l_flow = flow;
    l_timely_pkts = !timely_pkts;
    l_flows_done = !flows_done;
    l_flows_timely = !flows_timely;
    l_flows_failed = !flows_failed;
    l_tenant_flows = tenant_flows;
    l_tenant_timely = tenant_timely;
    l_tenant_sk = tenant_sk;
    l_wall = wall;
    l_lock_contended = Smp.lock_contended lock;
    l_lock_spin = Smp.lock_spin_cycles lock;
    l_clean = (match stop with Smp.Rounds -> false | _ -> true);
    l_digest = digest;
  }

(* --- scenario builders --- *)

let day_sched ~quick ?(seed = 22L) () =
  let flows_target = if quick then 20_000 else 1_050_000 in
  let tenants = 32 and guests = 8 in
  let alpha = 2.6 and size_min = 1 and size_max = 2048 in
  let on_mean = 300_000.0 and off_mean = 100_000.0 in
  let duty = on_mean /. (on_mean +. off_mean) in
  let ramp = Scenario.diurnal in
  let msize = pareto_mean ~alpha ~lo:size_min ~hi:size_max in
  let cap = float_of_int (vmm_cap_cycles Arch.default) in
  (* Peak offered load = 1.3x the single Dom0 core's forwarding
     capacity — well inside what eight microkernel shards absorb. *)
  let peak_flow_rate = 1.3 /. cap /. msize in
  let gap = float_of_int tenants *. duty /. peak_flow_rate in
  let mm = mean_mult ramp in
  let horizon =
    float_of_int flows_target *. gap /. (float_of_int tenants *. duty *. mm)
  in
  Scenario.generate ~seed
    {
      Scenario.tenants;
      guests;
      mean_flow_gap = gap;
      zipf_alpha = alpha;
      size_min;
      size_max;
      on_mean;
      off_mean;
      ramp;
      horizon = Int64.of_float horizon;
    }

let knee_sched ~quick ~ratio ?(seed = 23L) () =
  let tenants = 8 and guests = 8 in
  let alpha = 2.6 and size_min = 1 and size_max = 256 in
  let msize = pareto_mean ~alpha ~lo:size_min ~hi:size_max in
  let pkts = if quick then 10_000 else 40_000 in
  let flows = max 200 (int_of_float (float_of_int pkts /. msize)) in
  let cap = float_of_int (vmm_cap_cycles Arch.default) in
  let flow_rate = ratio /. cap /. msize in
  let gap = float_of_int tenants /. flow_rate in
  let horizon = float_of_int flows *. gap /. float_of_int tenants in
  Scenario.generate ~seed
    {
      Scenario.tenants;
      guests;
      mean_flow_gap = gap;
      zipf_alpha = alpha;
      size_min;
      size_max;
      on_mean = 1e15 (* effectively always ON: pure Poisson at the rung rate *);
      off_mean = 1.0;
      ramp = Scenario.flat;
      horizon = Int64.of_float horizon;
    }

let fairness_sched ~quick ?(seed = 24L) () =
  let tenants = 2 and guests = 2 in
  let alpha = 2.6 and size_min = 1 and size_max = 512 in
  let msize = pareto_mean ~alpha ~lo:size_min ~hi:size_max in
  let flows_target = if quick then 6_000 else 40_000 in
  let cap = float_of_int (vmm_cap_cycles Arch.default) in
  (* Victim paced at 0.25x Dom0 capacity; aggressor floods at 1.3x. *)
  let victim_rate = 0.25 /. cap /. msize in
  let aggr_mult = 1.3 /. 0.25 in
  let gap = 1.0 /. victim_rate in
  let horizon = float_of_int flows_target /. ((1.0 +. aggr_mult) *. victim_rate) in
  Scenario.generate ~seed
    ~tenant_rate:(fun tn -> if tn = 0 then aggr_mult else 1.0)
    {
      Scenario.tenants;
      guests;
      mean_flow_gap = gap;
      zipf_alpha = alpha;
      size_min;
      size_max;
      on_mean = 1e15;
      off_mean = 1.0;
      ramp = Scenario.flat;
      horizon = Int64.of_float horizon;
    }

(* A small fixed-size day slice for the bench harness: enough traffic to
   exercise the queues, doorbells and sketches end-to-end, small enough
   for a timed loop. The schedule is generated once (lazily) so the
   bench times the machine run, not Zipf sampling. 0.8x keeps even the
   single Dom0 shard below saturation, bounding per-run backlog. *)
let bench_sched = lazy (knee_sched ~quick:true ~ratio:0.8 ~seed:25L ())

let bench_slice ~stack () =
  let cell = run_cell ~stack ~mode:Naive ~sched:(Lazy.force bench_sched) () in
  cell.l_delivered

(* --- reporting helpers --- *)

let kcyc v = Printf.sprintf "%.1f" (v /. 1000.0)
let q sk p = Sketch.quantile sk p
let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let timely_rate_per_mcyc cell horizon =
  float_of_int cell.l_timely_pkts *. 1e6 /. Int64.to_float horizon

(* --- the experiment --- *)

let run ~quick =
  let budget = 100_000 in
  (* Intra-flow packet gap for the day: above one uk shard's per-packet
     service cost (a lone elephant flow must not overload its shard —
     the architecture question is aggregate funnelling, not pacing), yet
     the aggregate rate still saturates the single Dom0 core at peak. *)
  let day_gap = 1200 in
  (* Phase 1: the million-flow day, one schedule, four cells. *)
  let day = day_sched ~quick () in
  let day_cells =
    List.map
      (fun (stack, mode) ->
        run_cell ~stack ~mode ~sched:day ~pkt_gap:day_gap ~budget ())
      [ (Vmm, Naive); (Vmm, Policied); (Uk, Naive); (Uk, Policied) ]
  in
  let day_table =
    Table.create
      ~header:
        [
          "stack/mode";
          "flows";
          "pkts";
          "deliv";
          "shed";
          "drop";
          "p50 kc";
          "p99 kc";
          "p999 kc";
          "peak p999 kc";
          "flow p999 kc";
          "timely flows %";
          "timely pkts %";
        ]
  in
  List.iter
    (fun l ->
      Table.add_row day_table
        [
          Printf.sprintf "%s/%s" (stack_name l.l_stack) (mode_name l.l_mode);
          string_of_int l.l_flows;
          string_of_int l.l_injected;
          string_of_int l.l_delivered;
          string_of_int (l.l_fair_shed + l.l_tb_shed);
          string_of_int l.l_drops;
          kcyc (q l.l_pkt 0.5);
          kcyc (q l.l_pkt 0.99);
          kcyc (q l.l_pkt 0.999);
          kcyc (q l.l_peak 0.999);
          kcyc (q l.l_flow 0.999);
          Printf.sprintf "%.1f" (pct l.l_flows_timely l.l_flows);
          Printf.sprintf "%.1f" (pct l.l_timely_pkts l.l_injected);
        ])
    day_cells;
  let find stack mode =
    List.find (fun l -> l.l_stack = stack && l.l_mode = mode) day_cells
  in
  let vmm_naive = find Vmm Naive
  and vmm_pol = find Vmm Policied
  and uk_naive = find Uk Naive in
  (* Phase 2: the offered-load knee sweep (E15 admission shapes x SMP).
     Common absolute rungs, expressed as multiples of the single-Dom0
     capacity, against both stacks in both modes. *)
  let rungs =
    if quick then [ 0.6; 1.3; 3.0; 10.0 ]
    else [ 0.5; 0.9; 1.3; 2.0; 3.0; 4.5; 7.0; 10.0 ]
  in
  let sweep =
    List.map
      (fun ratio ->
        let sched = knee_sched ~quick ~ratio () in
        let cell stack mode = run_cell ~stack ~mode ~sched ~budget () in
        (ratio, sched, cell Vmm Naive, cell Vmm Policied, cell Uk Naive,
         cell Uk Policied))
      rungs
  in
  let knee_table =
    Table.create
      ~header:
        [
          "offered (x dom0 cap)";
          "vmm naive p999 kc";
          "vmm naive timely %";
          "vmm pol goodput/Mc";
          "uk naive p999 kc";
          "uk naive timely %";
          "uk pol goodput/Mc";
        ]
  in
  List.iter
    (fun (ratio, sched, vn, vp, un, up) ->
      let horizon = (Scenario.config sched).Scenario.horizon in
      Table.add_row knee_table
        [
          Printf.sprintf "%.1f" ratio;
          kcyc (q vn.l_pkt 0.999);
          Printf.sprintf "%.1f" (pct vn.l_timely_pkts vn.l_injected);
          Printf.sprintf "%.0f" (timely_rate_per_mcyc vp horizon);
          kcyc (q un.l_pkt 0.999);
          Printf.sprintf "%.1f" (pct un.l_timely_pkts un.l_injected);
          Printf.sprintf "%.0f" (timely_rate_per_mcyc up horizon);
        ])
    sweep;
  let naive_knee pick =
    List.find_opt
      (fun (_, _, vn, _, un, _) ->
        let cell = pick (vn, un) in
        pct cell.l_timely_pkts cell.l_injected < 90.0)
      sweep
    |> Option.map (fun (r, _, _, _, _, _) -> r)
  in
  let vmm_knee = naive_knee fst and uk_knee = naive_knee snd in
  let knee_str = function
    | Some r -> Printf.sprintf "%.1fx" r
    | None -> "none <= 10.0x"
  in
  (* Policied plateau: timely goodput at the top rung vs the best rung,
     per stack — the E15 "plateau vs collapse" shape on 8 cores. *)
  let plateau pick =
    let rates =
      List.map
        (fun (_, sched, _, vp, _, up) ->
          timely_rate_per_mcyc (pick (vp, up))
            (Scenario.config sched).Scenario.horizon)
        sweep
    in
    let best = List.fold_left max 0.0 rates in
    let last = List.nth rates (List.length rates - 1) in
    (best, last)
  in
  let naive_collapse pick =
    let rates =
      List.map
        (fun (_, sched, vn, _, un, _) ->
          timely_rate_per_mcyc (pick (vn, un))
            (Scenario.config sched).Scenario.horizon)
        sweep
    in
    let best = List.fold_left max 0.0 rates in
    let last = List.nth rates (List.length rates - 1) in
    (best, last)
  in
  let vp_best, vp_last = plateau fst
  and up_best, up_last = plateau snd
  and vn_best, vn_last = naive_collapse fst
  and un_best, un_last = naive_collapse snd in
  (* Phase 3: fairness under an aggressor tenant (vmm, the contended
     fabric): FIFO vs weighted fair share, victim tenant 1. *)
  let fsched = fairness_sched ~quick () in
  let f_fifo = run_cell ~stack:Vmm ~mode:Naive ~sched:fsched ~budget () in
  let f_fair =
    run_cell ~stack:Vmm ~mode:Policied ~sched:fsched ~budget
      ~weights:[ (1, 2) ] ()
  in
  let fair_table =
    Table.create
      ~header:
        [
          "mode";
          "tenant";
          "flows";
          "timely %";
          "flow p99 kc";
          "shed";
        ]
  in
  List.iter
    (fun (label, l) ->
      List.iter
        (fun tn ->
          Table.add_row fair_table
            [
              label;
              (if tn = 0 then "aggressor" else "victim");
              string_of_int l.l_tenant_flows.(tn);
              Printf.sprintf "%.1f" (pct l.l_tenant_timely.(tn) l.l_tenant_flows.(tn));
              kcyc (q l.l_tenant_sk.(tn) 0.99);
              string_of_int (l.l_fair_shed + l.l_tb_shed);
            ])
        [ 0; 1 ])
    [ ("fifo", f_fifo); ("weighted", f_fair) ];
  (* --- verdicts --- *)
  let flows_floor = if quick then 15_000 else 1_000_000 in
  let all_clean =
    List.for_all (fun l -> l.l_clean) (day_cells @ [ f_fifo; f_fair ])
  in
  let sustained =
    vmm_naive.l_flows >= flows_floor
    && uk_naive.l_flows >= flows_floor
    && vmm_naive.l_injected = Scenario.total_packets day
    && uk_naive.l_injected = Scenario.total_packets day
    && all_clean
  in
  let vmm_p999 = q vmm_naive.l_pkt 0.999
  and uk_p999 = q uk_naive.l_pkt 0.999 in
  let tail_first =
    vmm_p999 > float_of_int budget
    && uk_p999 <= float_of_int budget
    && q vmm_naive.l_peak 0.999 > 10.0 *. q uk_naive.l_peak 0.999
  in
  let knee_ordered =
    match (vmm_knee, uk_knee) with
    | Some v, Some u -> v < u
    | Some _, None -> true
    | None, _ -> false
  in
  let admission_holds =
    vp_last >= 0.8 *. vp_best
    && up_last >= 0.8 *. up_best
    && vn_last < 0.5 *. vn_best
    && up_last >= un_last
    && q vmm_pol.l_pkt 0.999 <= float_of_int budget
  in
  let victim_fifo = pct f_fifo.l_tenant_timely.(1) f_fifo.l_tenant_flows.(1)
  and victim_fair = pct f_fair.l_tenant_timely.(1) f_fair.l_tenant_flows.(1) in
  let fairness_holds = victim_fair >= 90.0 && victim_fifo < 60.0 in
  let verdicts =
    [
      Experiment.verdict
        ~claim:
          (Printf.sprintf
             "both stacks sustain a %s-flow open-loop day (schedule replayed \
              verbatim, no source backoff)"
             (if quick then "20k" else "million"))
        ~expected:
          (Printf.sprintf ">= %d flows, every scheduled packet offered, runs \
                           drain to idle" flows_floor)
        ~measured:
          (Printf.sprintf "%d flows, %d pkts offered on each stack, clean=%b"
             vmm_naive.l_flows vmm_naive.l_injected all_clean)
        sustained;
      Experiment.verdict
        ~claim:"the single Dom0's tail degrades first at datacenter scale (§3)"
        ~expected:
          (Printf.sprintf
             "vmm day p999 blows the %dk-cycle budget while uk stays inside; \
              peak-hour p999 separates by > 10x" (budget / 1000))
        ~measured:
          (Printf.sprintf
             "vmm p999 = %.0fk, uk p999 = %.1fk, peak p999 %.0fk vs %.1fk"
             (vmm_p999 /. 1000.0) (uk_p999 /. 1000.0)
             (q vmm_naive.l_peak 0.999 /. 1000.0)
             (q uk_naive.l_peak 0.999 /. 1000.0))
        tail_first;
      Experiment.verdict
        ~claim:"the offered-load knee: Dom0 knees near 1x its capacity, the \
                multi-server fabric several multiples later"
        ~expected:"vmm naive knee at a strictly lower rung than uk"
        ~measured:
          (Printf.sprintf "vmm knee %s, uk knee %s" (knee_str vmm_knee)
             (knee_str uk_knee))
        knee_ordered;
      Experiment.verdict
        ~claim:
          "E15 admission shapes hold on the 8-core machine (carry-over): \
           policied goodput plateaus where naive collapses, and the admitted \
           tail stays bounded"
        ~expected:
          "policied timely goodput at the top rung >= 80% of its best on both \
           stacks; vmm naive goodput collapses past its knee; uk policied >= \
           uk naive at the top rung; vmm policied day p999 <= budget"
        ~measured:
          (Printf.sprintf
             "vmm pol %.0f->%.0f/Mc, uk pol %.0f->%.0f/Mc, vmm naive \
              %.0f->%.0f/Mc, uk naive %.0f->%.0f/Mc, vmm pol day p999 %.1fk"
             vp_best vp_last up_best up_last vn_best vn_last un_best un_last
             (q vmm_pol.l_pkt 0.999 /. 1000.0))
        admission_holds;
      Experiment.verdict
        ~claim:"weighted fair share restores the victim tenant under an \
                open-loop aggressor (E17 composition)"
        ~expected:"victim timely >= 90% weighted vs < 60% FIFO"
        ~measured:
          (Printf.sprintf "victim timely %.1f%% weighted vs %.1f%% fifo \
                           (aggressor shed %d)"
             victim_fair victim_fifo (f_fair.l_fair_shed + f_fair.l_tb_shed))
        fairness_holds;
    ]
  in
  {
    Experiment.tables =
      [
        ("Million-flow day (diurnal ramp, open loop)", day_table);
        ("Offered-load knee sweep (x single-Dom0 capacity)", knee_table);
        ("Fairness under an aggressor tenant (vmm)", fair_table);
        (* Each digest covers the schedule, the latency sketches, the
           counters and the accounts of one day cell. *)
        Experiment.digests
          (List.map
             (fun l ->
               ( Printf.sprintf "%s/%s day" (stack_name l.l_stack)
                   (mode_name l.l_mode),
                 l.l_digest ))
             day_cells);
      ];
    verdicts;
  }

let experiment =
  {
    Experiment.id = "e22";
    title = "The million-flow day: open-loop tails at datacenter scale";
    paper_claim =
      "At scale the paper's structural difference surfaces in the tail: \
       the VMM's single privileged Dom0 bridge saturates at its one-core \
       capacity and its p999 explodes during peak hours of a heavy-tailed \
       open-loop day, while the microkernel's per-core net servers absorb \
       the same offered load with a flat tail until many multiples later; \
       admission control and weighted fair share (E15/E17) bound the \
       admitted tail either way.";
    run;
  }
