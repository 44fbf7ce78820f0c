(* SMP executor: determinism, cross-core costs, per-CPU accounting. *)

module Machine = Vmk_hw.Machine
module Arch = Vmk_hw.Arch
module Accounts = Vmk_trace.Accounts
module Counter = Vmk_trace.Counter
module Smp = Vmk_smp.Smp

let check = Alcotest.check
let int = Alcotest.int
let int64 = Alcotest.int64

(* --- machine / accounts plumbing --- *)

let test_machine_cpu_bank () =
  let mach = Machine.create ~cpus:4 ~seed:1L () in
  check int "ncpus" 4 (Machine.ncpus mach);
  check Alcotest.bool "core0 tlb aliased" true
    ((Machine.cpu mach 0).Vmk_hw.Cpu.tlb == mach.Machine.tlb);
  let single = Machine.create ~seed:1L () in
  check int "default is one cpu" 1 (Machine.ncpus single)

let test_accounts_per_cpu () =
  let a = Accounts.create () in
  Accounts.charge_on a ~cpu:0 "srv" 100L;
  Accounts.charge_on a ~cpu:3 "srv" 40L;
  Accounts.charge a "srv" 5L;
  check int64 "total sums cores" 145L (Accounts.balance a "srv");
  check int64 "cpu0 bucket" 105L (Accounts.cpu_balance a ~cpu:0 "srv");
  check int64 "cpu3 bucket" 40L (Accounts.cpu_balance a ~cpu:3 "srv");
  check int64 "untouched cpu" 0L (Accounts.cpu_balance a ~cpu:2 "srv");
  check int "cpus_seen" 4 (Accounts.cpus_seen a);
  Accounts.reset a;
  check int64 "reset clears buckets" 0L (Accounts.cpu_balance a ~cpu:3 "srv")

(* --- executor behaviour --- *)

let test_cross_core_pingpong () =
  let mach = Machine.create ~cpus:2 ~seed:1L () in
  let smp = Smp.create mach in
  let rounds = 20 in
  let got = ref 0 in
  let pong = ref 0 in
  let server =
    Smp.spawn smp ~name:"server" ~cpu:1 (fun () ->
        for _ = 1 to rounds do
          let tag = Smp.recv () in
          Smp.send ~dst:tag ~tag:0 ~cycles:100
        done)
  in
  let client_tid = ref 0 in
  let client =
    Smp.spawn smp ~name:"client" ~cpu:0 (fun () ->
        for _ = 1 to rounds do
          Smp.send ~dst:server ~tag:!client_tid ~cycles:100;
          ignore (Smp.recv ());
          incr got
        done;
        pong := 1)
  in
  client_tid := client;
  let reason = Smp.run smp in
  check Alcotest.bool "went idle" true (reason = Smp.Idle);
  check int "all round trips" rounds !got;
  check int "client finished" 1 !pong;
  (* Both directions target a blocked receiver on the other core. *)
  check Alcotest.bool "ipis happened" true
    (Counter.get mach.Machine.counters "smp.ipi" >= rounds);
  check Alcotest.bool "ipi cycles on target cores" true
    (Int64.compare (Accounts.balance mach.Machine.accounts "smp.ipi") 0L > 0)

let test_spinlock_contention () =
  let run () =
    let mach = Machine.create ~cpus:4 ~seed:7L () in
    let smp = Smp.create mach in
    let lk = Smp.lock_create smp in
    for cpu = 0 to 3 do
      ignore
        (Smp.spawn smp
           ~name:(Printf.sprintf "w%d" cpu)
           ~cpu
           (fun () ->
             for _ = 1 to 10 do
               Smp.locked lk ~cycles:400
             done))
    done;
    ignore (Smp.run smp);
    (lk, mach)
  in
  let lk, mach = run () in
  check int "all acquisitions" 40 (Smp.lock_acquisitions lk);
  check Alcotest.bool "some contention" true (Smp.lock_contended lk > 0);
  check Alcotest.bool "spin cycles itemized" true
    (Int64.compare
       (Accounts.balance mach.Machine.accounts "smp.spin")
       (Smp.lock_spin_cycles lk)
    = 0);
  (* Same seed, same program: identical contention profile. *)
  let lk2, mach2 = run () in
  check int "contended deterministic" (Smp.lock_contended lk)
    (Smp.lock_contended lk2);
  check int64 "spin cycles deterministic" (Smp.lock_spin_cycles lk)
    (Smp.lock_spin_cycles lk2);
  check int64 "machine time deterministic" (Machine.now mach) (Machine.now mach2)

let test_shootdown_costs () =
  let mach = Machine.create ~cpus:4 ~seed:1L () in
  let smp = Smp.create mach in
  ignore
    (Smp.spawn smp ~name:"mapper" ~cpu:0 (fun () ->
         Smp.shootdown ~pages:16;
         Smp.shootdown ~pages:16));
  (* Remote cores must run to absorb their ack work. *)
  for cpu = 1 to 3 do
    ignore
      (Smp.spawn smp ~name:(Printf.sprintf "busy%d" cpu) ~cpu (fun () ->
           Smp.burn 5_000))
  done;
  ignore (Smp.run smp);
  let c = mach.Machine.counters in
  check int "broadcasts" 2 (Counter.get c "smp.shootdown");
  check int "acks = (ncpus-1) per broadcast" 6 (Counter.get c "smp.shootdown.acks");
  let ack = mach.Machine.arch.Arch.shootdown_ack_cost in
  check int64 "remote ack cycles charged" (Int64.of_int (6 * ack))
    (Accounts.balance mach.Machine.accounts "smp.shootdown")

let test_equal_due_time_ordering () =
  (* Two senders on different cores fire at the same virtual instant; the
     receiver must see them in a stable, reproducible order. *)
  let observe () =
    let mach = Machine.create ~cpus:3 ~seed:3L () in
    let smp = Smp.create mach in
    let seen = ref [] in
    let sink =
      Smp.spawn smp ~name:"sink" ~cpu:0 (fun () ->
          for _ = 1 to 2 do
            seen := Smp.recv () :: !seen
          done)
    in
    ignore
      (Smp.spawn smp ~name:"a" ~cpu:1 (fun () ->
           Smp.send ~dst:sink ~tag:101 ~cycles:100));
    ignore
      (Smp.spawn smp ~name:"b" ~cpu:2 (fun () ->
           Smp.send ~dst:sink ~tag:202 ~cycles:100));
    ignore (Smp.run smp);
    List.rev !seen
  in
  let first = observe () in
  check int "both arrived" 2 (List.length first);
  for _ = 1 to 5 do
    check (Alcotest.list int) "stable order across reruns" first (observe ())
  done

let test_burn_is_preemptible () =
  (* A long burn must not monopolize its core: with a 1000-cycle quantum,
     a competing same-core thread interleaves. *)
  let mach = Machine.create ~cpus:1 ~seed:1L () in
  let smp = Smp.create mach in
  let order = ref [] in
  ignore
    (Smp.spawn smp ~name:"hog" ~cpu:0 (fun () ->
         Smp.burn 10_000;
         order := `Hog :: !order));
  ignore
    (Smp.spawn smp ~name:"quick" ~cpu:0 (fun () ->
         Smp.burn 500;
         order := `Quick :: !order));
  ignore (Smp.run smp);
  match List.rev !order with
  | [ `Quick; `Hog ] -> ()
  | _ -> Alcotest.fail "short burn should finish before the 10k hog"

let test_e14_same_seed_identical () =
  (* Two runs of an E14 configuration with the same seed must agree on
     every counter, every account and every per-CPU bucket. *)
  let module E = Vmk_core.Exp_e14 in
  List.iter
    (fun kind ->
      let digest () =
        Vmk_core.Scenario.smp_digest (E.run_case kind ~cores:4 ~packets:96)
      in
      let a = digest () and b = digest () in
      Alcotest.(check bool) "bit-for-bit identical" true (a = b))
    E.kinds

(* --- E21: tickless equivalence --- *)

(* The tickless round loop (jump straight across an all-blocked gap to
   the next engine event or message visibility) must be observationally
   identical to the quantum-stepped reference ([~tickless:false]): same
   stop reason, final clock, counters, accounts (total and per-CPU) and
   the same messages received in the same order. Randomized multi-core
   workloads of burns, sends, receives, yields and delayed device
   interrupts; the interrupts arm engine events tens of quanta out so
   real idle gaps get jumped. *)

let run_random_workload ~tickless ~cpus ~ops =
  let mach = Machine.create ~cpus ~seed:42L () in
  let smp = Smp.create mach in
  let nthreads = cpus + 1 in
  let tids = Array.make nthreads 0 in
  let trace = ref [] in
  let per_thread = Array.make nthreads [] in
  List.iteri
    (fun i op ->
      let slot = i mod nthreads in
      per_thread.(slot) <- op :: per_thread.(slot))
    ops;
  for i = 0 to nthreads - 1 do
    let script = List.rev per_thread.(i) in
    tids.(i) <-
      Smp.spawn smp
        ~name:(Printf.sprintf "w%d" i)
        ~cpu:(i mod cpus)
        (fun () ->
          List.iter
            (fun (kind, dst, amount) ->
              match kind with
              | 0 -> Smp.burn (100 + amount)
              | 1 ->
                  Smp.send
                    ~dst:tids.(dst mod nthreads)
                    ~tag:((i * 10_000) + amount)
                    ~cycles:(50 + amount)
              | 2 ->
                  (* Bind first: [!trace] must be read after the fiber
                     resumes, or receipts logged meanwhile are lost. *)
                  let tag = Smp.recv () in
                  trace := (i, tag) :: !trace
              | _ -> Smp.yield ())
            script)
  done;
  let eng = mach.Machine.engine in
  for j = 0 to (2 * cpus) - 1 do
    Vmk_sim.Engine.after eng
      (Int64.of_int ((j + 1) * 37_500))
      (fun () -> Smp.post smp ~dst:tids.(j mod nthreads) (900 + j))
  done;
  let reason = Smp.run ~tickless smp in
  ( reason,
    Machine.now mach,
    Counter.to_list mach.Machine.counters,
    Accounts.to_list mach.Machine.accounts,
    List.init cpus (fun c -> Accounts.to_cpu_list mach.Machine.accounts ~cpu:c),
    List.rev !trace )

let prop_tickless_equivalence =
  QCheck.Test.make
    ~name:"smp: tickless run bit-identical to quantum-stepped reference"
    ~count:40
    QCheck.(
      pair (int_range 2 4)
        (list_of_size
           Gen.(10 -- 50)
           (triple (int_bound 3) (int_bound 7) (int_bound 900))))
    (fun (cpus, ops) ->
      run_random_workload ~tickless:true ~cpus ~ops
      = run_random_workload ~tickless:false ~cpus ~ops)

(* A shrunk case with an idle gap of several quanta: unless the jump
   pays the credit refills of the quanta it skips, the scheduler picks
   differently and thread 1's third receive is 10428 tickless against
   718 stepped. *)
let test_tickless_pays_skipped_refills () =
  let ops =
    [ (2, 0, 394); (2, 4, 27); (2, 6, 469); (0, 1, 656); (2, 0, 208);
      (0, 2, 509); (2, 5, 289); (1, 7, 428); (3, 4, 508); (3, 2, 467);
      (3, 2, 549); (1, 6, 420); (1, 7, 809); (2, 1, 497); (0, 2, 488);
      (1, 7, 718); (1, 6, 638); (0, 7, 830); (3, 7, 735); (0, 5, 508);
      (0, 6, 184); (3, 0, 314); (0, 2, 708); (2, 6, 413); (1, 4, 707) ]
  in
  Alcotest.(check bool) "tickless = stepped" true
    (run_random_workload ~tickless:true ~cpus:2 ~ops
    = run_random_workload ~tickless:false ~cpus:2 ~ops)

(* A thread that raises ends alone: it is counted, marked done, and the
   thread on the other core runs to completion. *)
let test_crash_is_contained () =
  let mach = Machine.create ~cpus:2 ~seed:1L () in
  let smp = Smp.create mach in
  let crasher =
    Smp.spawn smp ~name:"crasher" ~cpu:0 (fun () ->
        Smp.yield ();
        failwith "bug")
  in
  let finished = ref false in
  let other =
    Smp.spawn smp ~name:"other" ~cpu:1 (fun () ->
        for _ = 1 to 5 do
          Smp.burn 2_000
        done;
        finished := true)
  in
  check Alcotest.bool "went idle" true (Smp.run smp = Smp.Idle);
  check int "crash counted" 1
    (Counter.get mach.Machine.counters "smp.thread.crashed");
  check Alcotest.bool "crasher done" true (Smp.is_done smp crasher);
  check Alcotest.bool "other core completes" true
    (!finished && Smp.is_done smp other)

let test_e14_shapes () =
  let module E = Vmk_core.Exp_e14 in
  let module S = Vmk_core.Scenario in
  let tput kind cores = S.throughput (E.run_case kind ~cores ~packets:240) in
  let dom0 = S.Smp_vmm Vmk_vmm.Smp_vmm.Single_dom0 in
  let colocated = S.Smp_uk Vmk_ukernel.Smp_cluster.Colocated in
  Alcotest.(check bool) "single-dom0 plateaus 4->8" true
    (tput dom0 8 /. tput dom0 4 < 1.25);
  Alcotest.(check bool) "colocated microkernel scales 1->8" true
    (tput colocated 8 /. tput colocated 1 > 4.0)

let suite =
  [
    Alcotest.test_case "machine cpu bank" `Quick test_machine_cpu_bank;
    Alcotest.test_case "accounts per cpu" `Quick test_accounts_per_cpu;
    Alcotest.test_case "cross-core pingpong + ipis" `Quick
      test_cross_core_pingpong;
    Alcotest.test_case "spinlock contention deterministic" `Quick
      test_spinlock_contention;
    Alcotest.test_case "shootdown broadcast costs" `Quick test_shootdown_costs;
    Alcotest.test_case "equal due-time ordering stable" `Quick
      test_equal_due_time_ordering;
    Alcotest.test_case "burn preemptible by quantum" `Quick
      test_burn_is_preemptible;
    Alcotest.test_case "e14 same seed identical" `Quick
      test_e14_same_seed_identical;
    Alcotest.test_case "e14 scaling shapes" `Quick test_e14_shapes;
    QCheck_alcotest.to_alcotest prop_tickless_equivalence;
    Alcotest.test_case "tickless pays skipped credit refills" `Quick
      test_tickless_pays_skipped_refills;
    Alcotest.test_case "crash is contained" `Quick test_crash_is_contained;
  ]
