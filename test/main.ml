let () =
  Alcotest.run "vmk"
    [
      ("sim", Test_sim.suite);
      ("stats", Test_stats.suite);
      ("trace", Test_trace.suite);
      ("hw", Test_hw.suite);
      ("ukernel", Test_ukernel.suite);
      ("mach", Test_mach.suite);
      ("vmm", Test_vmm.suite);
      ("exec", Test_exec.suite);
      ("guest", Test_guest.suite);
      ("workloads", Test_workloads.suite);
      ("faults", Test_faults.suite);
      ("overload", Test_overload.suite);
      ("vnet", Test_vnet.suite);
      ("smp", Test_smp.suite);
      ("mitig", Test_mitig.suite);
      ("cap", Test_cap.suite);
      ("core", Test_core.suite);
      ("properties", Test_properties.suite);
      ("arch-matrix", Test_arch_matrix.suite);
      ("migrate", Test_migrate.suite);
    ]
