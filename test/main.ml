let () =
  Alcotest.run "ninja"
    [ Test_util.suite;
      Test_vm.suite;
      Test_fastpath.suite;
      Test_compile.suite;
      Test_fuzz_cee.suite;
      Test_arch.suite;
      Test_lang.suite;
      Test_lang2.suite;
      Test_diag.suite;
      Test_verify.suite;
      Test_analysis.suite;
      Test_deps.suite;
      Test_report.suite;
      Test_kernels.suite;
      Test_profile.suite;
      Test_sched.suite;
      Test_store.suite;
      Test_serve.suite;
      Test_tuner.suite;
      Test_core.suite;
      Test_workloads.suite ]
