module Table = Vmk_stats.Table
module Machine = Vmk_hw.Machine
module Accounts = Vmk_trace.Accounts
module Counter = Vmk_trace.Counter
module Cluster = Vmk_ukernel.Smp_cluster
module Svmm = Vmk_vmm.Smp_vmm

let uk_colocated = Scenario.Smp_uk Cluster.Colocated
let vmm_dom0 = Scenario.Smp_vmm Svmm.Single_dom0
let vmm_drivers = Scenario.Smp_vmm Svmm.Driver_domains

let kinds =
  [ uk_colocated; Scenario.Smp_uk Cluster.Pinned; vmm_dom0; vmm_drivers ]

let run_case kind ~cores ~packets =
  Scenario.run_smp ~seed:14L kind ~cores ~packets

let experiment =
  {
    Experiment.id = "e14";
    title = "SMP scalability: multi-server vs. centralized Dom0";
    paper_claim =
      "[CG05] measured Dom0 as a centralized I/O bottleneck; the paper's \
       multi-server architecture (and Xen's own driver-domain \
       disaggregation) should instead scale I/O throughput with cores.";
    run =
      (fun ~quick ->
        let packets = if quick then 240 else 640 in
        let core_counts = if quick then [ 1; 2; 4; 8 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
        let results =
          List.map
            (fun cores ->
              (cores, List.map (fun kind -> (kind, run_case kind ~cores ~packets)) kinds))
            core_counts
        in
        let tput ~cores ~kind =
          let row = List.assoc cores results in
          Scenario.throughput (List.assoc kind row)
        in
        (* --- throughput scaling table --- *)
        let scaling =
          Table.create
            ~header:("cores" :: List.map (fun k -> Scenario.smp_label k ^ " pkt/Mcyc") kinds)
        in
        List.iter
          (fun (cores, row) ->
            Table.add_row scaling
              (string_of_int cores
              :: List.map (fun (_, r) -> Table.cellf "%.1f" (Scenario.throughput r)) row))
          results;
        (* --- cross-CPU overhead itemization at max cores --- *)
        let max_cores = List.fold_left max 1 core_counts in
        let top = List.assoc max_cores results in
        let overhead =
          Table.create
            ~header:
              [
                "config";
                "IPIs";
                "shootdowns";
                "acks";
                "lock contended";
                "spin cyc";
                "ipi cyc";
                "shootdown cyc";
              ]
        in
        List.iter
          (fun (kind, r) ->
            let c = r.Scenario.mach.Machine.counters in
            let a = r.Scenario.mach.Machine.accounts in
            Table.add_row overhead
              [
                Scenario.smp_label kind;
                string_of_int (Counter.get c "smp.ipi");
                string_of_int (Counter.get c "smp.shootdown");
                string_of_int (Counter.get c "smp.shootdown.acks");
                string_of_int r.Scenario.contended;
                Int64.to_string r.Scenario.spin;
                Int64.to_string (Accounts.balance a "smp.ipi");
                Int64.to_string (Accounts.balance a "smp.shootdown");
              ])
          top;
        (* --- per-CPU account breakdown for the bottleneck config --- *)
        let dom0_run = List.assoc vmm_dom0 top in
        let acc = dom0_run.Scenario.mach.Machine.accounts in
        let ncpu = Machine.ncpus dom0_run.Scenario.mach in
        let breakdown =
          Table.create
            ~header:
              ("account" :: "total cyc"
              :: List.init ncpu (fun i -> Printf.sprintf "cpu%d" i))
        in
        let accounts_of_interest =
          "dom0"
          :: List.filter
               (fun n -> String.length n >= 4 && String.sub n 0 4 = "smp.")
               (List.map fst (Accounts.to_list acc))
        in
        List.iter
          (fun name ->
            Table.add_row breakdown
              (name
              :: Int64.to_string (Accounts.balance acc name)
              :: List.init ncpu (fun i ->
                     Int64.to_string (Accounts.cpu_balance acc ~cpu:i name))))
          accounts_of_interest;
        (* --- verdicts --- *)
        let plateau_ratio = tput ~cores:max_cores ~kind:vmm_dom0 /. tput ~cores:4 ~kind:vmm_dom0 in
        let scale8 kind = tput ~cores:max_cores ~kind /. tput ~cores:1 ~kind in
        let scale84 kind = tput ~cores:max_cores ~kind /. tput ~cores:4 ~kind in
        let verdicts =
          [
            Experiment.verdict
              ~claim:"A single Dom0 serializes backend I/O [CG05]"
              ~expected:
                (Printf.sprintf
                   "vmm/single-dom0 throughput plateaus: tput(%d)/tput(4) < 1.25"
                   max_cores)
              ~measured:(Printf.sprintf "ratio %.2f" plateau_ratio)
              (plateau_ratio < 1.25);
            Experiment.verdict
              ~claim:"Multi-server microkernel I/O scales with cores"
              ~expected:
                (Printf.sprintf
                   "uk/colocated: tput(%d)/tput(1) > 4 and tput(%d)/tput(4) > 1.6"
                   max_cores max_cores)
              ~measured:
                (Printf.sprintf "%.2fx over 1 core, %.2fx over 4"
                   (scale8 uk_colocated) (scale84 uk_colocated))
              (scale8 uk_colocated > 4.0 && scale84 uk_colocated > 1.6);
            Experiment.verdict
              ~claim:"Driver-domain disaggregation recovers VMM scaling"
              ~expected:
                (Printf.sprintf
                   "vmm/driver-domains: tput(%d)/tput(1) > 4 and beats \
                    single-dom0 at %d cores"
                   max_cores max_cores)
              ~measured:
                (Printf.sprintf "%.2fx over 1 core; %.1f vs %.1f pkt/Mcyc"
                   (scale8 vmm_drivers)
                   (tput ~cores:max_cores ~kind:vmm_drivers)
                   (tput ~cores:max_cores ~kind:vmm_dom0))
              (scale8 vmm_drivers > 4.0
              && tput ~cores:max_cores ~kind:vmm_drivers
                 > tput ~cores:max_cores ~kind:vmm_dom0);
          ]
        in
        {
          Experiment.tables =
            [
              ("Throughput vs. cores (packets per Mcycle)", scaling);
              ( Printf.sprintf "Cross-CPU overheads at %d cores" max_cores,
                overhead );
              ( Printf.sprintf
                  "Per-CPU cycle accounts, vmm/single-dom0 at %d cores"
                  max_cores,
                breakdown );
              Experiment.digests
                [
                  ( Printf.sprintf "%s, %d cores" (Scenario.smp_label vmm_dom0)
                      max_cores,
                    Scenario.smp_digest dom0_run );
                ];
            ];
          verdicts;
        });
  }
