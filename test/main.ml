let () =
  Gen_common.init_seed ();
  Alcotest.run "lisim"
    [
      ("memory", Test_memory.suite);
      ("regfile", Test_regfile.suite);
      ("semir", Test_semir.suite);
      ("alloc", Test_alloc.suite);
      ("lis", Test_lis.suite);
      ("synth", Test_synth.suite);
      ("plan", Test_plan.suite);
      ("alpha", Test_alpha.suite);
      ("arm", Test_arm.suite);
      ("ppc", Test_ppc.suite);
      ("riscv", Test_riscv.suite);
      ("workload", Test_workload.suite);
      ("hostile", Test_hostile.suite);
      ("timing", Test_timing.suite);
      ("manual", Test_manual.suite);
      ("specul", Test_specul.suite);
      ("os_emu", Test_os_emu.suite);
      ("core_units", Test_core_units.suite);
      ("vir", Test_vir.suite);
      ("pretty", Test_pretty.suite);
      ("isa_props", Test_isa_props.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("inject", Test_inject.suite);
      ("obs", Test_obs.suite);
      ("analysis", Test_analysis.suite);
      ("absint", Test_absint.suite);
      ("dispatch", Test_dispatch.suite);
      ("front", Test_front.suite);
      ("export", Test_export.suite);
      ("fuzz", Test_fuzz.suite);
      ("super", Test_super.suite);
      ("prof", Test_prof.suite);
      ("fleet", Test_fleet.suite);
    ]
