(* Tests for the comparison framework: taxonomy, IPC-equivalence
   counting, the audit inventory, the scenario builder and selected
   experiment invariants. *)

module Counter = Vmk_trace.Counter
module Taxonomy = Vmk_core.Taxonomy
module Ipc_equiv = Vmk_core.Ipc_equiv
module Audit = Vmk_core.Audit
module Scenario = Vmk_core.Scenario
module Experiment = Vmk_core.Experiment
module Registry = Vmk_core.Registry
module Exp_e3 = Vmk_core.Exp_e3
module Exp_e4 = Vmk_core.Exp_e4
module Apps = Vmk_workloads.Apps
module Net_channel = Vmk_vmm.Net_channel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- taxonomy --- *)

let test_taxonomy_ipc_has_all_roles () =
  Alcotest.(check int) "rendezvous is control transfer" 1
    (List.length (Taxonomy.roles_of_counter Taxonomy.Microkernel "uk.ipc.rendezvous"));
  check_bool "page flip is data + delegation" true
    (Taxonomy.roles_of_counter Taxonomy.Vmm "vmm.page_flip"
    = [ Taxonomy.Data_transfer; Taxonomy.Resource_delegation ]);
  check_bool "bookkeeping unclassified" true
    (Taxonomy.roles_of_counter Taxonomy.Vmm "vmm.world_switch" = []);
  check_bool "unknown unclassified" true
    (Taxonomy.roles_of_counter Taxonomy.Vmm "nonsense" = [])

let test_taxonomy_role_counts () =
  let counters = Counter.create_set () in
  Counter.add counters "uk.ipc.rendezvous" 10;
  Counter.add counters "uk.ipc.map_pages" 4;
  Counter.add counters "uk.syscall" 99;
  let counts = Taxonomy.role_counts Taxonomy.Microkernel counters in
  check_int "control" 10 (List.assoc Taxonomy.Control_transfer counts);
  check_int "delegation" 4 (List.assoc Taxonomy.Resource_delegation counts)

(* --- ipc_equiv --- *)

let test_ipc_equiv_microkernel_rules () =
  let counters = Counter.create_set () in
  Counter.add counters "uk.ipc.rendezvous" 20;
  Counter.add counters "uk.irq.delivered" 5;
  Counter.add counters "uk.ipc.map_pages" 3;
  Counter.add counters "uk.ipc.bytes" 4096 (* volume, not ops *);
  let b = Ipc_equiv.of_microkernel_run counters in
  check_int "control" 25 b.Ipc_equiv.control;
  check_int "delegation" 3 b.Ipc_equiv.delegation;
  check_int "total" 28 b.Ipc_equiv.total

let test_ipc_equiv_vmm_rules () =
  let counters = Counter.create_set () in
  Counter.add counters "vmm.syscall_bounce" 50;
  Counter.add counters "vmm.evtchn_send" 10;
  Counter.add counters "vmm.upcall" 8;
  Counter.add counters "vmm.page_flip" 7;
  Counter.add counters "vmm.grant_map" 2;
  Counter.add counters "vmm.hypercall" 999 (* excluded: entry bookkeeping *);
  let b = Ipc_equiv.of_vmm_run counters in
  check_int "control" 68 b.Ipc_equiv.control;
  check_int "data (flips)" 7 b.Ipc_equiv.data;
  check_int "delegation" 2 b.Ipc_equiv.delegation;
  (* each operation counts once even when it carries several roles *)
  check_int "total" 77 b.Ipc_equiv.total

let test_ipc_equiv_per_unit () =
  let counters = Counter.create_set () in
  Counter.add counters "uk.ipc.rendezvous" 30;
  let b = Ipc_equiv.of_microkernel_run counters in
  Alcotest.(check (float 1e-9)) "per unit" 3.0 (Ipc_equiv.per_unit b ~units:10);
  Alcotest.(check (float 1e-9)) "zero units" 0.0 (Ipc_equiv.per_unit b ~units:0)

(* --- audit --- *)

let test_audit_shapes () =
  check_int "vmm lists the ten primitives" 10 (List.length Audit.vmm);
  check_int "one combined microkernel primitive" 1
    (List.length (Audit.central_primitives Audit.microkernel));
  check_int "no combined vmm primitive carries all three roles" 0
    (List.length
       (List.filter
          (fun (e : Audit.entry) -> List.length e.Audit.roles >= 3)
          Audit.vmm));
  check_bool "vmm checks dominate" true
    (Audit.total_checks Audit.vmm > Audit.total_checks Audit.microkernel);
  check_bool "vmm footprint dominates" true
    (Audit.total_icache_lines Audit.vmm
    > Audit.total_icache_lines Audit.microkernel)

let test_audit_coverage_flags () =
  let counters = Counter.create_set () in
  Counter.add counters "vmm.page_flip" 1;
  let coverage = Audit.coverage counters Audit.vmm in
  let hit =
    List.filter_map
      (fun ((e : Audit.entry), hit) -> if hit then Some e.Audit.name else None)
      coverage
  in
  check_bool "only page-flipping covered" true (hit = [ "page-flipping" ])

(* --- scenario --- *)

let test_scenarios_complete_and_account () =
  let app () = Apps.null_syscalls ~iterations:20 () () in
  let native = Scenario.run_native ~app () in
  let xen = Scenario.run_xen ~net:false ~blk:false ~app () in
  let l4 = Scenario.run_l4 ~net:false ~blk:false ~app () in
  check_bool "native completed" true native.Scenario.completed;
  check_bool "xen completed" true xen.Scenario.completed;
  check_bool "l4 completed" true l4.Scenario.completed;
  check_int "same syscalls everywhere" (Scenario.counter native "gsys.count")
    (Scenario.counter xen "gsys.count");
  check_int "same syscalls everywhere (l4)"
    (Scenario.counter native "gsys.count")
    (Scenario.counter l4 "gsys.count");
  check_bool "xen has dom-separated accounts" true
    (Scenario.account_cycles xen "guest1" > 0L);
  check_bool "l4 kernel account present" true
    (Scenario.account_cycles l4 "ukernel" > 0L);
  check_bool "ordering: native cheapest" true
    (native.Scenario.busy_cycles < xen.Scenario.busy_cycles
    && native.Scenario.busy_cycles < l4.Scenario.busy_cycles)

let test_scenario_determinism () =
  let app () = Apps.mixed ~rounds:15 () () in
  let a = Scenario.run_xen ~app () and b = Scenario.run_xen ~app () in
  Alcotest.(check int64) "bit-identical cycles" a.Scenario.cycles b.Scenario.cycles;
  check_bool "identical counters" true
    (a.Scenario.counters = b.Scenario.counters)

(* --- experiment-level invariants (quick runs) --- *)

let test_e3_sweep_one_flip_per_packet () =
  let points =
    Exp_e3.sweep ~mode:Net_channel.Flip ~packets:30 ~period:15_000L
      ~sizes:[ 256 ]
  in
  match points with
  | [ p ] ->
      check_int "packets" 30 p.Exp_e3.packets;
      check_int "one flip per packet" p.Exp_e3.packets p.Exp_e3.flips
  | _ -> Alcotest.fail "expected one point"

let test_e4_measure_ordering () =
  let rows = Exp_e4.measure ~iterations:200 () in
  let cost config =
    (List.find (fun (r : Exp_e4.row) -> r.Exp_e4.config = config) rows)
      .Exp_e4.cycles_per_syscall
  in
  check_bool "native cheapest" true
    (cost "native" < cost "xen (trap-gate shortcut valid)");
  check_bool "shortcut beats bounce" true
    (cost "xen (trap-gate shortcut valid)"
    < cost "xen (glibc TLS loaded: shortcut broken)")

let test_e4_quick_report_holds () =
  match Registry.find "e4" with
  | Some e -> check_bool "e4 verdicts hold" true
      (Experiment.all_hold (e.Experiment.run ~quick:true))
  | None -> Alcotest.fail "e4 missing"

let test_quick_verdicts_hold id =
  match Registry.find id with
  | Some e ->
      let report = e.Experiment.run ~quick:true in
      List.iter
        (fun (v : Experiment.verdict) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s [%s]" id v.Experiment.claim
               v.Experiment.measured)
            true v.Experiment.holds)
        report.Experiment.verdicts
  | None -> Alcotest.fail (id ^ " missing")

(* --- the whole quick suite: golden output and in-process replay --- *)

(* The committed [vmk all --quick] stdout; regenerate it with
   [dune exec bin/vmk.exe -- all --quick > test/golden/vmk_all_quick.txt]. *)
let golden_quick = "golden/vmk_all_quick.txt"

(* Split [vmk all] output into (ID, block) pairs. A block runs from its
   "== ID: title ==" header to the next header, the last one to the
   blank line before the summary: exactly what [render] prints. *)
let blocks_of_output text =
  let rec scan pos current acc =
    let close stop =
      match current with
      | None -> acc
      | Some (id, start) -> (id, String.sub text start (stop - start)) :: acc
    in
    if pos >= String.length text then List.rev (close pos)
    else
      let nl =
        Option.value ~default:(String.length text)
          (String.index_from_opt text pos '\n')
      in
      let line = String.sub text pos (nl - pos) in
      if line = "=== Summary ===" then List.rev (close (pos - 1))
      else if String.starts_with ~prefix:"== " line then
        let id = String.sub line 3 (String.index line ':' - 3) in
        scan (nl + 1) (Some (id, pos)) (close pos)
      else scan (nl + 1) current acc
  in
  scan 0 None []

let header_id (e : Experiment.t) = String.uppercase_ascii e.Experiment.id

(* One experiment's quick block as [vmk all --quick] prints it; every
   verdict must hold. *)
let render (e : Experiment.t) =
  let report = e.Experiment.run ~quick:true in
  List.iter
    (fun (v : Experiment.verdict) ->
      check_bool
        (Printf.sprintf "%s: %s [%s]" e.Experiment.id v.Experiment.claim
           v.Experiment.measured)
        true v.Experiment.holds)
    report.Experiment.verdicts;
  Format.asprintf "%a@." Experiment.pp_report (e, report)

(* Fail naming the experiment and the first line where [got] differs
   from [want]. *)
let check_block ~against (e : Experiment.t) ~want got =
  if got <> want then begin
    let rec first n = function
      | a :: want, b :: got when a = b -> first (n + 1) (want, got)
      | a :: _, b :: _ -> (n, a, b)
      | a :: _, [] -> (n, a, "<end of block>")
      | [], b :: _ -> (n, "<end of block>", b)
      | [], [] -> (n, "", "")
    in
    let n, a, b =
      first 1 (String.split_on_char '\n' want, String.split_on_char '\n' got)
    in
    Alcotest.failf "%s differs from %s at line %d:\n  want: %s\n  got:  %s"
      (header_id e) against n a b
  end

(* Forward in registry order against the golden file, then in reverse
   order in the same process against the forward pass: a run that reads
   state an earlier run left behind prints a different block. *)
let test_suite_golden_forward_reverse () =
  let golden =
    blocks_of_output (In_channel.with_open_bin golden_quick In_channel.input_all)
  in
  Alcotest.(check (list string))
    "golden experiments" (List.map header_id Registry.all) (List.map fst golden);
  let forward =
    List.map
      (fun e ->
        let block = render e in
        check_block ~against:golden_quick e
          ~want:(List.assoc (header_id e) golden)
          block;
        (e, block))
      Registry.all
  in
  List.iter
    (fun e ->
      check_block ~against:"the forward pass" e ~want:(List.assq e forward)
        (render e))
    (List.rev Registry.all)

let test_registry_complete () =
  check_int "27 experiments" 27 (List.length Registry.all);
  check_bool "find is case-insensitive" true (Registry.find "E3" <> None);
  check_bool "unknown is None" true (Registry.find "zz" = None);
  let ids = Registry.ids () in
  check_int "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_verdict_helpers () =
  let v = Experiment.verdict ~claim:"c" ~expected:"e" ~measured:"m" true in
  check_bool "holds" true v.Experiment.holds;
  let report = { Experiment.tables = []; verdicts = [ v ] } in
  check_bool "all_hold" true (Experiment.all_hold report)

let suite =
  [
    Alcotest.test_case "taxonomy: roles" `Quick test_taxonomy_ipc_has_all_roles;
    Alcotest.test_case "taxonomy: role counts" `Quick test_taxonomy_role_counts;
    Alcotest.test_case "ipc_equiv: microkernel rules" `Quick
      test_ipc_equiv_microkernel_rules;
    Alcotest.test_case "ipc_equiv: vmm rules" `Quick test_ipc_equiv_vmm_rules;
    Alcotest.test_case "ipc_equiv: per unit" `Quick test_ipc_equiv_per_unit;
    Alcotest.test_case "audit: inventory shapes" `Quick test_audit_shapes;
    Alcotest.test_case "audit: coverage flags" `Quick test_audit_coverage_flags;
    Alcotest.test_case "scenario: three ports complete" `Quick
      test_scenarios_complete_and_account;
    Alcotest.test_case "scenario: deterministic" `Quick test_scenario_determinism;
    Alcotest.test_case "e3: one flip per packet" `Quick
      test_e3_sweep_one_flip_per_packet;
    Alcotest.test_case "e4: cost ordering" `Quick test_e4_measure_ordering;
    Alcotest.test_case "e4: quick verdicts hold" `Slow test_e4_quick_report_holds;
    Alcotest.test_case "e10: quick verdicts hold" `Slow (fun () ->
        test_quick_verdicts_hold "e10");
    Alcotest.test_case "e12: quick verdicts hold" `Slow (fun () ->
        test_quick_verdicts_hold "e12");
    Alcotest.test_case "a6: quick verdicts hold" `Slow (fun () ->
        test_quick_verdicts_hold "a6");
    Alcotest.test_case "e22: quick verdicts hold" `Slow (fun () ->
        test_quick_verdicts_hold "e22");
    Alcotest.test_case "a4: quick verdicts hold" `Slow (fun () ->
        test_quick_verdicts_hold "a4");
    Alcotest.test_case "suite: golden, forward and reverse" `Slow
      test_suite_golden_forward_reverse;
    Alcotest.test_case "registry: complete" `Quick test_registry_complete;
    Alcotest.test_case "experiment: verdict helpers" `Quick test_verdict_helpers;
  ]
