(* Benchmark harness: the experiments of the paper's evaluation (Penry,
   ISPASS 2011) that the performance ledger does not measure.

     dune exec bench/main.exe              -- every section
     dune exec bench/main.exe -- --quick   -- smaller budgets
     dune exec bench/main.exe -- table1    -- a single section

   Sections: table1 fig1 fig24 inject fleet overhead absint validate; an
   unknown name exits 2. [--gate-profiler] exits nonzero when the
   overhead section's profile-only overhead exceeds its budget.
   [--jobs=N] makes the fleet section measure jobs 1 and N only.

   Table II/III, the translation-cache and footnote-5 ablations,
   sampling accuracy, fuzz and supervision throughput and the hostile
   corpus are the ledger's (ledger/README.md): `ledger.exe tables`, the
   end-to-end metrics of its four workloads and the per-layer metrics
   of a traced run.

   Absolute numbers are host- and substrate-dependent; the reproduction
   targets are the *shapes*: which interface wins, by roughly what factor,
   and where the costs come from. See EXPERIMENTS.md.

   Alongside the text tables, a machine-readable BENCH_results.json is
   written to the working directory: fleet scaling, the absint
   visibility dogfood, the observability overhead measurements, and a
   full counter snapshot per interface. *)

let quick = ref false
let only : string list ref = ref []

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                  *)
(* ------------------------------------------------------------------ *)

(* Drive an interface the way its semantic level intends: block calls,
   single calls, or seven step calls per instruction. *)
let drive (iface : Specsim.Iface.t) budget =
  let n_eps = Specsim.Iface.n_entrypoints iface in
  if n_eps = 1 then Specsim.Iface.run_n iface budget
  else begin
    let st = iface.st in
    let start = st.instr_count in
    let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
    let executed () = Int64.to_int (Int64.sub st.instr_count start) in
    while (not st.halted) && executed () < budget do
      di.pc <- st.pc;
      di.instr_index <- -1;
      di.fault <- None;
      let k = ref 0 in
      while !k < n_eps && not st.halted do
        iface.step di !k;
        incr k
      done;
      if not st.halted then iface.retire di
    done;
    executed ()
  end

(* Machine-readable results, accumulated per experiment and written as
   one JSON document at the end of the run. *)
let json_sections : (string * Obs.Export.json) list ref = ref []

let add_json name j =
  json_sections := (name, j) :: List.remove_assoc name !json_sections

(* A partial run (e.g. `bench absint`) must not clobber the sections an
   earlier full run wrote: merge over whatever is already on disk. *)
let write_json_results () =
  if !json_sections <> [] then begin
    let existing =
      match
        let ic = open_in "BENCH_results.json" in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Obs.Export.parse_opt s
      with
      | Some (Obs.Export.Obj kvs) -> kvs
      | Some _ | None -> []
      | exception Sys_error _ -> []
    in
    let fresh = List.rev !json_sections in
    let kept =
      List.filter (fun (name, _) -> not (List.mem_assoc name fresh)) existing
    in
    let merged = kept @ fresh in
    let oc = open_out "BENCH_results.json" in
    Obs.Export.to_channel oc (Obs.Export.Obj merged);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote BENCH_results.json (%d sections, %d updated)\n"
      (List.length merged) (List.length fresh)
  end

(* ------------------------------------------------------------------ *)
(* Table I: instruction-set characteristics                             *)
(* ------------------------------------------------------------------ *)

let paper_table1 =
  (* ISA lines, OS lines, buildset lines, lines/buildset, #instrs *)
  [
    ("alpha", (1656, 317, 308, 13., 200));
    ("arm", (2047, 225, 308, 13., 240));
    ("ppc", (3805, 182, 327, 14., 327));
  ]

let table1 () =
  print_endline "=== Table I: instruction-set characteristics ===";
  print_endline
    "                      ----------- measured -----------    ------- paper -------";
  Printf.printf "%-6s %9s %8s %9s %8s %7s | %6s %5s %7s %7s\n" "ISA" "ISA-lines"
    "OS-lines" "bs-lines" "lines/bs" "instrs" "ISA" "OS" "per-bs" "instrs";
  List.iter
    (fun (t : Workload.target) ->
      let spec = Lazy.force t.spec in
      let s = spec.line_stats in
      let paper =
        (* riscv post-dates the paper's evaluation: no reference row *)
        match List.assoc_opt t.tname paper_table1 with
        | Some (p_isa, p_os, _, p_per, p_n) ->
          Printf.sprintf "%6d %5d %7.0f %7d" p_isa p_os p_per p_n
        | None -> Printf.sprintf "%6s %5s %7s %7s" "-" "-" "-" "-"
      in
      Printf.printf "%-6s %9d %8d %9d %8.1f %7d | %s\n" t.tname s.isa_lines
        s.os_lines s.buildset_lines
        (Lis.Count.lines_per_buildset s)
        (Array.length spec.instrs)
        paper)
    Workload.targets;
  print_endline
    "(our subsets are smaller than the full ISAs, but the structure matches:\n\
    \ an OS-support file of a few dozen lines and ~6-12 lines per buildset)\n"

(* ------------------------------------------------------------------ *)
(* Figure 1: the five decoupled organizations, demonstrated             *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  print_endline
    "=== Figure 1: decoupled simulator organizations (demonstrators) ===";
  let t = Workload.alpha in
  let kernel = List.nth Vir.Kernels.test_suite 3 in
  let budget = 10_000_000 in
  Printf.printf "%-28s %-12s %-10s %-8s %s\n" "organization" "interface" "instrs"
    "IPC" "notes";
  (* functional-first *)
  let l = Workload.load t ~buildset:"one_decode" kernel.program in
  let ff = Timing.Funcfirst.create l.iface in
  let r = Timing.Funcfirst.run ff ~budget in
  Printf.printf "%-28s %-12s %-10Ld %-8.3f mispredict %.1f%%, d$ miss %.1f%%\n"
    "functional-first" "One/Decode" r.instructions r.ipc
    (100. *. r.mispredict_rate)
    (100. *. r.dcache_miss_rate);
  (* timing-directed *)
  let l = Workload.load t ~buildset:"step_all" kernel.program in
  let r = Timing.Directed.run l.iface ~budget in
  Printf.printf "%-28s %-12s %-10Ld %-8.3f RAW stalls %Ld, flushes %Ld\n"
    "timing-directed" "Step/All" r.instructions r.ipc r.raw_stall_cycles
    r.branch_flushes;
  (* timing-first *)
  let lt = Workload.load t ~buildset:"one_min" kernel.program in
  let lc = Workload.load t ~buildset:"one_min" kernel.program in
  let count = ref 0 in
  let bug (st : Machine.State.t) _ =
    incr count;
    if !count mod 991 = 0 then
      Machine.Regfile.write st.regs ~cls:0 ~idx:2
        (Int64.add (Machine.Regfile.read st.regs ~cls:0 ~idx:2) 1L)
  in
  let r =
    Timing.Timingfirst.run ~bug ~timing:lt.iface ~checker:lc.iface ~budget ()
  in
  Printf.printf "%-28s %-12s %-10Ld %-8.3f %Ld mismatches caught\n"
    "timing-first (buggy model)" "One/Min" r.instructions r.ipc r.mismatches;
  (* speculative functional-first *)
  let l = Workload.load t ~buildset:"one_decode_spec" kernel.program in
  let r = Timing.Specff.run l.iface ~budget in
  Printf.printf "%-28s %-12s %-10Ld %-8.3f %Ld rollbacks\n"
    "speculative functional-first" "One/Dec/spec" r.instructions r.ipc
    r.rollbacks;
  (* sampling *)
  let spec = Lazy.force t.spec in
  let st = Lis.Spec.make_machine spec in
  let detailed = Specsim.Synth.make ~st spec "one_decode" in
  let fast = Specsim.Synth.make ~st spec "block_min" in
  let os = Machine.Os_emu.create () in
  (match spec.abi with Some abi -> Machine.Os_emu.install os abi st | None -> ());
  let words = t.encode ~base:0x1000L kernel.program in
  List.iteri
    (fun i w ->
      Machine.Memory.write st.mem
        ~addr:(Int64.add 0x1000L (Int64.of_int (4 * i)))
        ~width:4 w)
    words;
  Machine.State.reset st ~pc:0x1000L;
  let r = Timing.Sampling.run ~detailed ~fast ~budget () in
  Printf.printf "%-28s %-12s %-10Ld %-8.3f sampled %.1f%% of instructions\n\n"
    "sampling (two interfaces)" "Dec + B/Min" r.instructions r.estimated_ipc
    (100. *. r.sampled_fraction)

(* ------------------------------------------------------------------ *)
(* Figures 2-4: manual vs synthesized (ablation)                        *)
(* ------------------------------------------------------------------ *)

let demo_loop_program =
  (* long-running loop for the demo ISA: ~240k dynamic instructions *)
  Demo_isa.
    [
      addi ~ra:31 ~imm:30000 ~rc:1;
      addi ~ra:31 ~imm:0 ~rc:2;
      add ~ra:2 ~rb:1 ~rc:2;
      mul ~ra:2 ~rb:2 ~rc:3;
      stq ~ra:31 ~imm:0x100 ~rb:3;
      ldq ~ra:31 ~imm:0x100 ~rc:4;
      addi ~ra:1 ~imm:(-1) ~rc:1;
      beqz ~ra:1 ~off:1;
      br ~off:(-7);
      addi ~ra:31 ~imm:0 ~rc:0;
      add ~ra:2 ~rb:31 ~rc:1;
      sys;
    ]

let run_demo_manual mode =
  let st = Manual.Manual_sim.make_machine () in
  let os = Machine.Os_emu.create () in
  let abi =
    { Machine.Os_emu.nr = (0, 0); args = [| (0, 1); (0, 2); (0, 3) |]; ret = (0, 0) }
  in
  Machine.Os_emu.install os abi st;
  List.iteri
    (fun i w ->
      Machine.Memory.write st.mem
        ~addr:(Int64.add 0x1000L (Int64.of_int (4 * i)))
        ~width:4 w)
    demo_loop_program;
  Machine.State.reset st ~pc:0x1000L;
  let t0 = Unix.gettimeofday () in
  (match mode with
  | `Full ->
    let di = Manual.Manual_sim.Fig2.create () in
    while not st.halted do
      Manual.Manual_sim.do_in_one st di
    done
  | `Min ->
    let di = Manual.Manual_sim.min_di () in
    while not st.halted do
      Manual.Manual_sim.do_in_one_less_info st di
    done);
  let dt = Unix.gettimeofday () -. t0 in
  (Int64.to_float st.instr_count /. dt /. 1e6, st.instr_count)

let run_demo_synth buildset =
  let spec = Lazy.force Demo_isa.spec in
  let iface = Specsim.Synth.make spec buildset in
  let st = iface.st in
  let os = Machine.Os_emu.create () in
  (match spec.abi with Some abi -> Machine.Os_emu.install os abi st | None -> ());
  Demo_isa.load_program st ~base:0x1000L demo_loop_program;
  let t0 = Unix.gettimeofday () in
  let n = Specsim.Iface.run_n iface max_int in
  let dt = Unix.gettimeofday () -. t0 in
  (float_of_int n /. dt /. 1e6, Int64.of_int n)

let fig24 () =
  print_endline
    "=== Figures 2-4: manual single-specification structuring vs ADL synthesis ===";
  let m_full, n = run_demo_manual `Full in
  let m_min, _ = run_demo_manual `Min in
  let s_full, _ = run_demo_synth "one_all" in
  let s_min, _ = run_demo_synth "one_min" in
  Printf.printf "demo ISA, %Ld dynamic instructions:\n" n;
  Printf.printf "  manual Fig.3 (one call, all info)     %7.2f MIPS\n" m_full;
  Printf.printf "  manual Fig.4 (one call, less info)    %7.2f MIPS\n" m_min;
  Printf.printf "  synthesized one_all                   %7.2f MIPS\n" s_full;
  Printf.printf "  synthesized one_min                   %7.2f MIPS\n" s_min;
  Printf.printf
    "  info-detail speedup: manual %.2fx, synthesized %.2fx\n\
     (the synthesizer derives Fig.4's locals automatically; by hand it is\n\
    \ a per-instruction-step rewrite — the paper's §IV-A tedium)\n\n"
    (m_min /. m_full) (s_min /. s_full)

(* ------------------------------------------------------------------ *)
(* Fault injection: detection coverage/latency vs rate, checker cost    *)
(* ------------------------------------------------------------------ *)

let inject () =
  print_endline
    "=== Fault injection: timing-first checker as a divergence detector ===";
  let budget = if !quick then 100_000 else 300_000 in
  let spec_trials = if !quick then 4 else 16 in
  Printf.printf "%-8s %10s %10s %10s %9s %9s %9s\n" "rate" "injected"
    "detected" "coverage" "latency" "repairs" "restores";
  List.iter
    (fun rate ->
      let cfg =
        { Inject.Campaign.default_config with rate; budget; spec_trials }
      in
      let reports =
        Inject.Campaign.run ~isas:[ "alpha"; "arm"; "ppc"; "riscv" ] cfg
      in
      let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
      let arch = sum (fun r -> r.Inject.Campaign.r_architectural) in
      let det = sum (fun r -> r.Inject.Campaign.r_detected) in
      let lat =
        List.fold_left
          (fun a (r : Inject.Campaign.report) -> Int64.add a r.r_latency_sum)
          0L reports
      in
      Printf.printf "%-8g %10d %10d %9.1f%% %9.2f %9d %9d\n" rate arch det
        (if arch = 0 then 100.0 else 100. *. float_of_int det /. float_of_int arch)
        (if det = 0 then 0.0 else Int64.to_float lat /. float_of_int det)
        (sum (fun r -> r.Inject.Campaign.r_repairs))
        (sum (fun r -> r.Inject.Campaign.r_restores)))
    [ 1e-5; 1e-4; 1e-3; 5e-3 ];
  (* what the hardened checker costs: timing-first MIPS with no injection,
     as a function of how often memory digests are compared *)
  let t = Workload.alpha in
  let k = List.nth Vir.Kernels.bench_suite 3 in
  print_endline "\nchecker overhead (no faults injected, alpha/sort):";
  List.iter
    (fun interval ->
      let lt = Workload.load t ~buildset:"one_min" k.program in
      let lc = Workload.load t ~buildset:"one_min" k.program in
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      let r =
        Timing.Timingfirst.run ~mem_check_interval:interval ~timing:lt.iface
          ~checker:lc.iface ~budget ()
      in
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf
        "  memory digest every %6d instrs: %6.2f MIPS (%Ld mismatches)\n"
        interval
        (Int64.to_float r.instructions /. dt /. 1e6)
        r.mismatches)
    [ 16; 64; 1024; max_int ];
  print_endline
    "(coverage stays high as rates rise; repairs dominate at low rates and\n\
    \ checkpoint restores appear once divergence storms set in)\n"

(* ------------------------------------------------------------------ *)
(* Observation overhead: off, profile-only and full, side by side      *)
(* ------------------------------------------------------------------ *)

(* Observation is compiled in at synthesis time, so each context is its
   own simulator. Four sides of one interface run the same kernel:
   off A and off B (identical machine code: with obs omitted,
   Specsim.Synth.make hands out the plain closures), profile-only
   (Obs.profile_only: the plain closures plus the profiler's
   cached-region compare-and-add — per block inside the chained loop on
   block_min, per retirement on one_all and step_all) and full
   (Obs.create: exact counters, 1-in-N sampled latency histograms,
   chained dispatch kept).

   The comparison chases a <=2% effect on a possibly-shared host, which
   coarse back-to-back runs cannot resolve: co-tenant load swings whole
   runs by more than that. So each round times one chunk per side
   back-to-back, starting from a different side each round, and each
   overhead is the MEDIAN over rounds of the per-round paired ratio
   against the mean of A and B: load drifting between rounds cancels
   within a round, and spikes land in the tails the median ignores. The
   A/B pair runs identical code, so the median of its per-round spread
   is the noise floor of the same estimator. [--gate-profiler] turns the
   profiler's 2% budget into an exit status for CI on the interfaces it
   has always gated (block_min and step_all), with the noise floor as
   the tolerance when the host is too noisy to resolve 2%. Every
   interface's counter snapshot also goes into BENCH_results.json. *)
let gate_profiler = ref false
let profiler_worst = ref 0.
let profiler_floor = ref 0.

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let overhead () =
  print_endline "=== Observation overhead: off vs profile-only vs full ===";
  let t = Workload.alpha in
  let k = List.nth Vir.Kernels.bench_suite 4 (* hash_loop *) in
  let warm = if !quick then 5_000 else 20_000 in
  let rows =
    List.map
      (fun (bs, mult, gated) ->
        let chunk = (if !quick then 10_000 else 20_000) * mult in
        let rounds = if !quick then 60 else 120 in
        (* one side = one prebuilt simulator; a call times one chunk and
           returns its throughput (instructions per second) *)
        let side obs =
          let fresh () = Workload.load ?obs t ~buildset:bs k.program in
          let l : Workload.loaded ref = ref (fresh ()) in
          ignore (drive !l.iface warm);
          fun () ->
            if !l.iface.st.halted then l := fresh ();
            (* GC work happens outside the timed window *)
            Gc.minor ();
            let t0 = Unix.gettimeofday () in
            let c = drive !l.iface chunk in
            let dt = Unix.gettimeofday () -. t0 in
            if c > 0 && dt > 0. then float_of_int c /. dt else 0.
        in
        let sides =
          [| side None; side None; side (Some (Obs.profile_only ()));
             side (Some (Obs.create ())) |]
        in
        let n = Array.length sides in
        Gc.full_major ();
        let per_round = ref [] in
        for i = 1 to rounds do
          let r = Array.make n 0. in
          for j = 0 to n - 1 do
            let s = (i + j) mod n in
            r.(s) <- sides.(s) ()
          done;
          if Array.for_all (fun x -> x > 0.) r then per_round := r :: !per_round
        done;
        let rs = !per_round in
        let off r = (r.(0) +. r.(1)) /. 2. in
        let mips f = median (List.map (fun r -> f r /. 1e6) rs) in
        let over s = median (List.map (fun r -> 100. *. ((off r /. r.(s)) -. 1.)) rs) in
        let spread =
          median
            (List.map
               (fun r -> 100. *. Float.abs (r.(0) -. r.(1)) /. Float.max r.(0) r.(1))
               rs)
        in
        let m =
          [
            ("mips_off", mips off);
            ("off_spread_pct", spread);
            ("mips_profile_only", mips (fun r -> r.(2)));
            ("profile_only_overhead_pct", over 2);
            ("mips_full", mips (fun r -> r.(3)));
            ("full_overhead_pct", over 3);
          ]
        in
        let v name = List.assoc name m in
        Printf.printf
          "  %-10s off %6.2f MIPS (A/B spread %4.1f%%)   profile-only %6.2f \
           (%+5.1f%%)   full %6.2f (%+5.1f%%)\n"
          bs (v "mips_off") spread (v "mips_profile_only")
          (v "profile_only_overhead_pct") (v "mips_full") (v "full_overhead_pct");
        (bs, gated, m))
      [ ("block_min", 8, true); ("one_all", 1, false); ("step_all", 1, true) ]
  in
  let worst name =
    List.fold_left
      (fun a (_, gated, m) -> if gated then Float.max a (List.assoc name m) else a)
      0. rows
  in
  profiler_worst := worst "profile_only_overhead_pct";
  profiler_floor := worst "off_spread_pct";
  Printf.printf
    "worst profile-only overhead %.1f%% (A/B noise floor %.1f%%) %s the 2%% \
     budget\n"
    !profiler_worst !profiler_floor
    (if !profiler_worst <= Float.max 2.0 !profiler_floor then "is within"
     else "EXCEEDS");
  add_json "overhead"
    (Obs.Export.Obj
       (List.map
          (fun (bs, _, m) ->
            (bs, Obs.Export.Obj (List.map (fun (n, x) -> (n, Obs.Export.Float x)) m)))
          rows));
  (* one counter snapshot per interface, for the machine-readable output *)
  let snap_budget = if !quick then 20_000 else 60_000 in
  add_json "counters"
    (Obs.Export.Obj
       (List.map
          (fun bs ->
            let o = Obs.create () in
            let l = Workload.load ~obs:o t ~buildset:bs k.program in
            ignore (drive l.iface snap_budget);
            (bs, Obs.Export.json_of_snapshot (Obs.snapshot o)))
          (Lis.Spec.buildset_names (Lazy.force t.spec))));
  (* sanity: the profiler finds the kernel's hot loop *)
  let prof = Obs.Prof.create () in
  let l =
    Workload.load ~obs:(Obs.profile_only ~prof ()) t ~buildset:"one_all"
      k.program
  in
  ignore (drive l.iface (if !quick then 50_000 else 200_000));
  match Obs.Prof.report ~top:1 prof with
  | r :: _ ->
    Printf.printf
      "hot region (one_all, %s): 0x%Lx-0x%Lx with %.1f%% of instructions\n\n"
      k.kname r.Obs.Prof.rg_lo r.Obs.Prof.rg_hi (100. *. r.Obs.Prof.rg_share)
  | [] -> print_newline ()

(* ------------------------------------------------------------------ *)
(* Fleet scaling: oracle execs/s across domain counts                  *)
(* ------------------------------------------------------------------ *)

(* How the parallel campaign driver scales with --jobs. Honest numbers:
   [host_cores] is recorded alongside, and levels above the core count
   are expected to run slower than jobs 1: their domains time-slice the
   cores and every minor GC synchronizes all of them (the fleet is then
   purely a correctness construct). The digest check at the end runs the
   same seeded-defect campaign at jobs 1 and jobs 4 and compares the
   quarantined reproducers byte for byte. *)
let jobs_override : int option ref = ref None

let fleet_bench () =
  print_endline "=== Fleet scaling: parallel campaign driver ===";
  let host_cores = Domain.recommended_domain_count () in
  let levels =
    let base = match !jobs_override with Some n -> [ 1; n ] | None -> [ 1; 2; 4; host_cores ] in
    List.sort_uniq compare (List.filter (fun n -> n >= 1) base)
  in
  Printf.printf "host cores: %d; jobs levels: %s\n" host_cores
    (String.concat " " (List.map string_of_int levels));
  let budget = if !quick then 200 else 600 in
  let hunt_rate ~isa ~jobs =
    Fleet.with_pool ~jobs (fun fleet ->
        let t0 = Unix.gettimeofday () in
        let o = Fuzz.Driver.hunt ~isa ~seed:42L ~budget ~fleet () in
        let dt = Unix.gettimeofday () -. t0 in
        assert (o.Fuzz.Driver.o_found = None);
        float_of_int o.Fuzz.Driver.o_execs /. dt)
  in
  Printf.printf "%-6s %s\n" "isa"
    (String.concat " "
       (List.map (fun n -> Printf.sprintf "%11s" (Printf.sprintf "jobs=%d/s" n)) levels));
  let isa_sections =
    List.map
      (fun isa ->
        let rates = List.map (fun jobs -> (jobs, hunt_rate ~isa ~jobs)) levels in
        Printf.printf "%-6s %s\n" isa
          (String.concat " "
             (List.map (fun (_, r) -> Printf.sprintf "%11.0f" r) rates));
        ( isa,
          Obs.Export.Obj
            (List.map
               (fun (jobs, r) ->
                 (Printf.sprintf "jobs_%d_execs_per_sec" jobs, Obs.Export.Float r))
               rates) ))
      [ "tiny"; "alpha"; "ppc" ]
  in
  (* scaling efficiency at the widest level, averaged over ISAs — the
     number the CI summary quotes *)
  let widest = List.fold_left max 1 levels in
  let eff =
    let per_isa =
      List.filter_map
        (fun (_, s) ->
          match s with
          | Obs.Export.Obj kvs -> (
            match
              ( List.assoc_opt "jobs_1_execs_per_sec" kvs,
                List.assoc_opt
                  (Printf.sprintf "jobs_%d_execs_per_sec" widest)
                  kvs )
            with
            | Some (Obs.Export.Float a), Some (Obs.Export.Float b) when a > 0. ->
              Some (b /. a)
            | _ -> None)
          | _ -> None)
        isa_sections
    in
    match per_isa with
    | [] -> 1.
    | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  Printf.printf
    "fleet scaling: %.2fx at %d jobs on a %d-core host (%.0f%% efficiency)\n"
    eff widest host_cores
    (100. *. eff /. float_of_int (min widest host_cores));
  if widest > host_cores then
    print_endline
      "(jobs exceed host cores: domains time-slice one core and every minor\n\
      \ GC is a stop-the-world handshake across all of them, so levels above\n\
      \ the core count slow down rather than break even — --jobs defaults to\n\
      \ the core count for exactly this reason)";
  (* parallel-vs-sequential digest check: a seeded defect must
     quarantine byte-identical reproducers at every jobs level *)
  let quarantine_digest ~jobs =
    let tag = Printf.sprintf "fleet-bench-j%d-%d" jobs (Unix.getpid ()) in
    let dir = Filename.concat (Filename.get_temp_dir_name ()) tag in
    let journal = dir ^ ".jsonl" in
    if Sys.file_exists journal then Sys.remove journal;
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    let cfg =
      {
        Fuzz.Oracle.default_config with
        mutate = Some Specsim.Synth.Stride4;
        buildsets = [ "block_min" ];
      }
    in
    Fleet.with_pool ~jobs (fun fleet ->
        ignore
          (Fuzz.Campaign.run ~cfg ~fleet ~isa:"tiny" ~seed:0xBEEFL ~budget:10
             ~journal ~quarantine:dir ()));
    let files = List.sort String.compare (Array.to_list (Sys.readdir dir)) in
    let d =
      Digest.string
        (String.concat "\x00"
           (List.map
              (fun f ->
                let ic = open_in_bin (Filename.concat dir f) in
                let s = really_input_string ic (in_channel_length ic) in
                close_in ic;
                f ^ "\x01" ^ s)
              files))
    in
    Sys.remove journal;
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir;
    (List.length files, Digest.to_hex d)
  in
  let n1, d1 = quarantine_digest ~jobs:1 in
  let n4, d4 = quarantine_digest ~jobs:4 in
  let digest_match = n1 = n4 && String.equal d1 d4 in
  Printf.printf
    "digest check: jobs=1 %d reproducer(s) %s, jobs=4 %d reproducer(s) %s — %s\n\n"
    n1 d1 n4 d4
    (if digest_match then "MATCH" else "MISMATCH");
  add_json "fleet"
    (Obs.Export.Obj
       [
         ("host_cores", Obs.Export.Int (Int64.of_int host_cores));
         ( "scaling",
           Obs.Export.Obj
             [
               ("widest_jobs", Obs.Export.Int (Int64.of_int widest));
               ("speedup", Obs.Export.Float eff);
             ] );
         ("isas", Obs.Export.Obj isa_sections);
         ( "digest_check",
           Obs.Export.Obj
             [
               ("reproducers", Obs.Export.Int (Int64.of_int n1));
               ("jobs1", Obs.Export.Str d1);
               ("jobs4", Obs.Export.Str d4);
               ("match", Obs.Export.Bool digest_match);
             ] );
       ]);
  if not digest_match then begin
    print_endline "fleet digest check: FAIL";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Abstract interpretation: visibility dogfood, 4 ISAs x 12 buildsets *)
(* ------------------------------------------------------------------ *)

let absint_bench () =
  print_endline "=== Abstract interpretation: visibility dogfood ===";
  (* dogfood: L08x across every shipped buildset, plus how far each
     visible set is from the computed minimum *)
  let visibility =
    List.map
      (fun (t : Workload.target) ->
        let spec = Lazy.force t.spec in
        let sums = Analysis.Absint.summarize spec in
        let l08x =
          match Analysis.Lint.run spec with
          | Ok ds ->
            List.length
              (List.filter
                 (fun (d : Analysis.Diag.t) ->
                   d.code = "L080" || d.code = "L081")
                 ds)
          | Error _ -> -1
        in
        let per_bs =
          Array.to_list spec.buildsets
          |> List.map (fun (bs : Lis.Spec.buildset) ->
                 let shown =
                   Array.fold_left
                     (fun n v -> if v then n + 1 else n)
                     0 bs.bs_visible
                 in
                 let minimal =
                   Semir.Absint.Iset.cardinal
                     (Analysis.Absint.minimal_visible spec sums bs)
                 in
                 let tightened =
                   Analysis.Absint.suggest_buildset spec sums bs <> None
                 in
                 ( bs.bs_name,
                   Obs.Export.Obj
                     [
                       ("shown_cells", Obs.Export.Int (Int64.of_int shown));
                       ("minimal_cells", Obs.Export.Int (Int64.of_int minimal));
                       ("tightened", Obs.Export.Bool tightened);
                     ] ))
        in
        let tightened_n =
          List.length
            (List.filter
               (fun (_, j) ->
                 match j with
                 | Obs.Export.Obj kvs ->
                   List.assoc "tightened" kvs = Obs.Export.Bool true
                 | _ -> false)
               per_bs)
        in
        Printf.printf
          "  %-6s L08x diagnostics: %d; %d of %d buildsets can be tightened \
           (see lisim check --suggest-buildset)\n"
          t.tname l08x tightened_n (List.length per_bs);
        ( t.tname,
          Obs.Export.Obj
            (("l08x_diagnostics", Obs.Export.Int (Int64.of_int l08x))
            :: per_bs) ))
      Workload.targets
  in
  add_json "absint"
    (Obs.Export.Obj [ ("visibility", Obs.Export.Obj visibility) ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Validation (paper §V-D)                                              *)
(* ------------------------------------------------------------------ *)

let validate () =
  print_endline "=== Validation: rotating interfaces over all kernels (§V-D) ===";
  List.iter
    (fun (t : Workload.target) ->
      let spec = Lazy.force t.spec in
      let buildsets = Lis.Spec.buildset_names spec in
      List.iter
        (fun (k : Vir.Kernels.sized) ->
          let expected = Workload.reference k.program in
          let got = Workload.run_rotating t ~buildsets k.program in
          Printf.printf "  %-6s %-12s %s (%Ld instructions, %d interfaces)\n"
            t.tname k.kname
            (if Workload.agrees expected got then "OK" else "MISMATCH!")
            got.instructions (List.length buildsets))
        Vir.Kernels.test_suite)
    Workload.targets;
  print_newline ()

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("fig1", fig1);
    ("fig24", fig24);
    ("inject", inject);
    ("fleet", fleet_bench);
    ("overhead", overhead);
    ("absint", absint_bench);
    ("validate", validate);
  ]

let () =
  Array.iteri
    (fun i a ->
      if i > 0 then
        match a with
        | "--quick" -> quick := true
        | "--gate-profiler" -> gate_profiler := true
        | a
          when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
          let v = String.sub a 7 (String.length a - 7) in
          (match int_of_string_opt v with
          | Some n when n > 0 -> jobs_override := Some n
          | _ ->
            prerr_endline "bench: --jobs=N requires a positive integer";
            exit 2)
        | name -> only := name :: !only)
    Sys.argv;
  (* a name that selects nothing must not pass for a run that measured it *)
  (match List.filter (fun n -> not (List.mem_assoc n sections)) !only with
  | [] -> ()
  | unknown ->
    Printf.eprintf "bench: unknown section %s; sections are: %s\n"
      (String.concat ", " (List.rev unknown))
      (String.concat " " (List.map fst sections));
    exit 2);
  List.iter
    (fun (name, run) -> if !only = [] || List.mem name !only then run ())
    sections;
  write_json_results ();
  if !gate_profiler then begin
    let budget = Float.max 2.0 !profiler_floor in
    if !profiler_worst > budget then begin
      Printf.printf
        "profiler gate: FAIL — overhead %.1f%% exceeds budget %.1f%%\n"
        !profiler_worst budget;
      exit 1
    end
    else
      Printf.printf "profiler gate: OK (%.1f%% <= %.1f%%)\n" !profiler_worst
        budget
  end
