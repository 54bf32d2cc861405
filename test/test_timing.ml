(** Timing-simulator tests: substrates (cache, predictor) and all five
    decoupled organizations running real kernels. *)

let kernel = List.nth Vir.Kernels.test_suite 3 (* sort: branchy *)
let mem_kernel = List.hd Vir.Kernels.test_suite (* vec_sum: streaming *)

(* ----------------------------------------------------------------- *)
(* Cache                                                               *)
(* ----------------------------------------------------------------- *)

let test_cache_basic () =
  let c =
    Timing.Cache.create
      { size_bytes = 1024; ways = 2; line_bytes = 64; hit_latency = 1; miss_penalty = 10 }
  in
  Alcotest.(check bool) "cold miss" false (Timing.Cache.access c 0);
  Alcotest.(check bool) "hit same line" true (Timing.Cache.access c 63);
  Alcotest.(check bool) "miss next line" false (Timing.Cache.access c 64);
  Alcotest.(check int) "hit latency" 1 (Timing.Cache.latency c 0);
  Alcotest.(check int) "miss latency" 11 (Timing.Cache.latency c 0x10000)

let test_cache_lru () =
  (* 2 ways, 8 sets of 64B: addresses 0, 1024, 2048 map to set 0 *)
  let c =
    Timing.Cache.create
      { size_bytes = 1024; ways = 2; line_bytes = 64; hit_latency = 1; miss_penalty = 10 }
  in
  ignore (Timing.Cache.access c 0);
  ignore (Timing.Cache.access c 1024);
  ignore (Timing.Cache.access c 0) (* touch 0: now 1024 is LRU *);
  ignore (Timing.Cache.access c 2048) (* evicts 1024 *);
  Alcotest.(check bool) "0 still resident" true (Timing.Cache.access c 0);
  Alcotest.(check bool) "1024 evicted" false (Timing.Cache.access c 1024)

let test_cache_bad_config () =
  Alcotest.(check bool) "rejects non-power-of-two sets" true
    (match
       Timing.Cache.create
         { size_bytes = 1000; ways = 3; line_bytes = 64; hit_latency = 1; miss_penalty = 1 }
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Property: hits, misses and statistics agree with a reference
   true-LRU model (per set, its resident lines, most recent first) on
   random accesses that conflict in 1-, 2- and 4-way sets. *)
let prop_cache_lru =
  QCheck.Test.make ~name:"cache matches a reference LRU model" ~count:200
    QCheck.(pair (oneofl [ 1; 2; 4 ]) (list_of_size Gen.(int_range 1 300) (int_bound 8191)))
    (fun (ways, addrs) ->
      let sets = 4 in
      let c =
        Timing.Cache.create
          { size_bytes = sets * ways * 64; ways; line_bytes = 64; hit_latency = 1; miss_penalty = 10 }
      in
      let model = Array.make sets [] and misses = ref 0 in
      List.for_all
        (fun a ->
          let line = a lsr 6 in
          let set = line land (sets - 1) in
          let hit = List.mem line model.(set) in
          if not hit then incr misses;
          model.(set) <-
            List.filteri (fun i _ -> i < ways) (line :: List.filter (( <> ) line) model.(set));
          Bool.equal hit (Timing.Cache.access c a))
        addrs
      && Timing.Cache.stats c = (Int64.of_int (List.length addrs), Int64.of_int !misses))

(* ----------------------------------------------------------------- *)
(* Predictor                                                           *)
(* ----------------------------------------------------------------- *)

let test_predictor_learns () =
  let p = Timing.Predictor.create (Timing.Predictor.Bimodal 10) in
  (* always-taken branch at one pc: after warmup, predictions correct *)
  for _ = 1 to 4 do
    ignore (Timing.Predictor.update p ~pc:0x1000L ~taken:true)
  done;
  Alcotest.(check bool) "learned taken" true (Timing.Predictor.predict p ~pc:0x1000L);
  for _ = 1 to 4 do
    ignore (Timing.Predictor.update p ~pc:0x1000L ~taken:false)
  done;
  Alcotest.(check bool) "learned not-taken" false
    (Timing.Predictor.predict p ~pc:0x1000L)

let test_predictor_static () =
  let p = Timing.Predictor.create Timing.Predictor.Static_taken in
  Alcotest.(check bool) "static taken" true (Timing.Predictor.predict p ~pc:0L)

(* ----------------------------------------------------------------- *)
(* Functional-first                                                    *)
(* ----------------------------------------------------------------- *)

let test_funcfirst () =
  let l = Workload.load Workload.alpha ~buildset:"one_decode" kernel.program in
  let ff = Timing.Funcfirst.create l.iface in
  let r = Timing.Funcfirst.run ff ~budget:10_000_000 in
  Alcotest.(check bool) "ran" true (Int64.to_int r.instructions > 1000);
  Alcotest.(check bool) "cycles >= instructions" true
    (Int64.compare r.cycles r.instructions >= 0);
  Alcotest.(check bool) "ipc sane" true (r.ipc > 0.05 && r.ipc <= 1.0);
  Alcotest.(check bool) "dcache modelled at Decode" true r.dcache_modelled;
  Alcotest.(check bool) "program finished correctly" true l.iface.st.halted

let test_funcfirst_min_detail () =
  (* at Min detail the D-cache cannot be modelled; the model reports it *)
  let l = Workload.load Workload.alpha ~buildset:"one_min" kernel.program in
  let ff = Timing.Funcfirst.create l.iface in
  let r = Timing.Funcfirst.run ff ~budget:10_000_000 in
  Alcotest.(check bool) "dcache not modelled at Min" false r.dcache_modelled;
  Alcotest.(check bool) "still runs" true (Int64.to_int r.instructions > 1000)

let test_funcfirst_block () =
  let l = Workload.load Workload.ppc ~buildset:"block_decode" kernel.program in
  let ff = Timing.Funcfirst.create l.iface in
  let r = Timing.Funcfirst.run ff ~budget:10_000_000 in
  Alcotest.(check bool) "block stream consumed" true
    (Int64.to_int r.instructions > 1000)

(* ----------------------------------------------------------------- *)
(* Timing-directed                                                     *)
(* ----------------------------------------------------------------- *)

let check_directed (t : Workload.target) () =
  let expected = Workload.reference kernel.program in
  let l = Workload.load t ~buildset:"step_all" kernel.program in
  let r = Timing.Directed.run l.iface ~budget:10_000_000 in
  (* functional correctness is driven by the timing model *)
  Alcotest.(check bool) "halted" true l.iface.st.halted;
  (match Machine.State.exit_status l.iface.st with
  | Some s -> Alcotest.(check int) "exit status" expected.exit_status (s land 0xff)
  | None -> Alcotest.fail "no exit status");
  Alcotest.(check string) "output" expected.output (Machine.Os_emu.output l.os);
  Alcotest.(check bool) "pipeline slower than 1 IPC" true (r.ipc < 1.0);
  Alcotest.(check bool) "some RAW stalls" true (Int64.to_int r.raw_stall_cycles > 0);
  Alcotest.(check bool) "some branch flushes" true (Int64.to_int r.branch_flushes > 0)

(* ----------------------------------------------------------------- *)
(* Timing-first                                                        *)
(* ----------------------------------------------------------------- *)

let test_timingfirst_clean () =
  let lt = Workload.load Workload.alpha ~buildset:"one_min" kernel.program in
  let lc = Workload.load Workload.alpha ~buildset:"one_min" kernel.program in
  let r =
    Timing.Timingfirst.run ~timing:lt.iface ~checker:lc.iface
      ~budget:10_000_000 ()
  in
  Alcotest.(check int64) "no mismatches without bugs" 0L r.mismatches;
  Alcotest.(check bool) "finished" true lt.iface.st.halted

(* A buggy timing model: every 997th instruction corrupts register r1. *)
let buggy () =
  let count = ref 0 in
  fun (st : Machine.State.t) (_ : Specsim.Di.t) ->
    incr count;
    if !count mod 997 = 0 then
      Machine.Regfile.write st.regs ~cls:0 ~idx:1
        (Int64.add (Machine.Regfile.read st.regs ~cls:0 ~idx:1) 1L)

let test_timingfirst_buggy () =
  let expected = Workload.reference kernel.program in
  let lt = Workload.load Workload.alpha ~buildset:"one_min" kernel.program in
  let lc = Workload.load Workload.alpha ~buildset:"one_min" kernel.program in
  let r =
    Timing.Timingfirst.run ~bug:(buggy ()) ~timing:lt.iface ~checker:lc.iface
      ~budget:10_000_000 ()
  in
  Alcotest.(check bool) "mismatches detected" true (Int64.to_int r.mismatches > 0);
  (* the checker keeps the run architecturally correct *)
  (match Machine.State.exit_status lc.iface.st with
  | Some s -> Alcotest.(check int) "exit status" expected.exit_status (s land 0xff)
  | None -> Alcotest.fail "checker did not exit");
  Alcotest.(check string) "output correct despite bugs" expected.output
    (Machine.Os_emu.output lc.os)

(* ----------------------------------------------------------------- *)
(* Speculative functional-first                                        *)
(* ----------------------------------------------------------------- *)

let test_specff_no_divergence () =
  let expected = Workload.reference kernel.program in
  let l = Workload.load Workload.alpha ~buildset:"one_decode_spec" kernel.program in
  let r = Timing.Specff.run l.iface ~budget:10_000_000 in
  Alcotest.(check int64) "no timer loads, no rollbacks" 0L r.rollbacks;
  (match Machine.State.exit_status l.iface.st with
  | Some s -> Alcotest.(check int) "exit" expected.exit_status (s land 0xff)
  | None -> Alcotest.fail "did not exit");
  Alcotest.(check string) "output" expected.output (Machine.Os_emu.output l.os)

(* a program that polls the timer MMIO location *)
let timer_program =
  Vir.Lang.
    [
      Li (8, 0x000F0000l) (* timer address *);
      Li (9, 2000l);
      Li (10, 0l);
      Li (4, 0l);
      Label "loop";
      Ldw (11, 8, 0) (* timing-dependent load *);
      Add (4, 4, 11);
      Addi (10, 10, 1);
      Bcond (Ne, 10, 9, "loop");
      Andi (4, 4, 255);
      Li (0, 0l);
      Mv (1, 4);
      Sys;
    ]

let test_specff_rollbacks () =
  let l = Workload.load Workload.alpha ~buildset:"one_decode_spec" timer_program in
  let r = Timing.Specff.run l.iface ~budget:10_000_000 in
  Alcotest.(check bool) "some rollbacks happened" true
    (Int64.to_int r.rollbacks > 0);
  Alcotest.(check bool) "program completed" true l.iface.st.halted

(* ----------------------------------------------------------------- *)
(* Sampling                                                            *)
(* ----------------------------------------------------------------- *)

let test_sampling () =
  let expected = Workload.reference mem_kernel.program in
  let spec = Lazy.force Workload.alpha.spec in
  let st = Lis.Spec.make_machine spec in
  let detailed = Specsim.Synth.make ~st spec "one_decode" in
  let fast = Specsim.Synth.make ~st spec "block_min" in
  let os = Machine.Os_emu.create () in
  (match spec.abi with Some abi -> Machine.Os_emu.install os abi st | None -> ());
  let words = Isa_alpha.Alpha_asm.encode ~base:0x1000L mem_kernel.program in
  List.iteri
    (fun i w ->
      Machine.Memory.write st.mem
        ~addr:(Int64.add 0x1000L (Int64.of_int (4 * i)))
        ~width:4 w)
    words;
  Machine.State.reset st ~pc:0x1000L;
  let r = Timing.Sampling.run ~detailed ~fast ~budget:10_000_000 () in
  Alcotest.(check bool) "finished" true st.halted;
  (match Machine.State.exit_status st with
  | Some s -> Alcotest.(check int) "exit" expected.exit_status (s land 0xff)
  | None -> Alcotest.fail "no exit");
  Alcotest.(check string) "output" expected.output (Machine.Os_emu.output os);
  Alcotest.(check bool) "only a fraction measured" true
    (r.sampled_fraction < 0.5 && r.sampled_fraction > 0.0);
  Alcotest.(check bool) "ipc estimated" true (r.estimated_ipc > 0.0)

(* ----------------------------------------------------------------- *)
(* Exact statistics                                                    *)
(* ----------------------------------------------------------------- *)

(* Every organization's simulated statistics on sort, and Specff's on
   the timer-polling program, pinned per ISA. A changed timing model, or
   a changed interface report, fails here rather than only in the
   ledger's golden file. Rates print as hex floats, so they compare bit
   for bit. *)

let pf = Printf.sprintf

let org_stats (t : Workload.target) =
  let load bs p = (Workload.load t ~buildset:bs p).iface in
  let funcfirst bs =
    let r =
      Timing.Funcfirst.run
        (Timing.Funcfirst.create (load bs kernel.program))
        ~budget:max_int
    in
    pf "i=%Ld c=%Ld i$=%h d$=%h bp=%h" r.instructions r.cycles
      r.icache_miss_rate r.dcache_miss_rate r.mispredict_rate
  in
  let directed () =
    let r = Timing.Directed.run (load "step_all" kernel.program) ~budget:max_int in
    pf "i=%Ld c=%Ld raw=%Ld flush=%Ld i$=%h d$=%h" r.instructions r.cycles
      r.raw_stall_cycles r.branch_flushes r.icache_miss_rate r.dcache_miss_rate
  in
  let specff p =
    let r = Timing.Specff.run (load "one_decode_spec" p) ~budget:max_int in
    pf "i=%Ld c=%Ld rollbacks=%Ld" r.instructions r.cycles r.rollbacks
  in
  let timingfirst () =
    let timing = load "one_min" kernel.program
    and checker = load "one_min" kernel.program in
    let r =
      Timing.Timingfirst.run ~bug:(buggy ()) ~timing ~checker ~budget:max_int ()
    in
    pf "i=%Ld c=%Ld mismatches=%Ld repairs=%d restores=%d" r.instructions
      r.cycles r.mismatches r.repairs r.restores
  in
  let sampling () =
    let spec = Lazy.force t.spec in
    let st = Lis.Spec.make_machine spec in
    let detailed = Specsim.Synth.make ~st spec "one_decode" in
    let fast = Specsim.Synth.make ~st spec "block_min" in
    ignore (Workload.load_image t kernel.program st);
    let r = Timing.Sampling.run ~detailed ~fast ~budget:max_int () in
    pf "i=%Ld measured=%Ld c=%Ld" r.instructions r.measured_instructions
      r.measured_cycles
  in
  [
    ("funcfirst", funcfirst "one_decode");
    ("funcfirst_block", funcfirst "block_decode");
    ("directed", directed ());
    ("specff", specff kernel.program);
    ("specff_timer", specff timer_program);
    ("timingfirst", timingfirst ());
    ("sampling", sampling ());
  ]

let pinned =
  [
    ( "alpha",
      [
        ("funcfirst", "i=20109 c=23473 i$=0x1.6d0324fb818f4p-12 d$=0x1.7639604c03a79p-11 bp=0x1.6acfc9381268fp-4");
        ("funcfirst_block", "i=20109 c=23473 i$=0x1.6d0324fb818f4p-12 d$=0x1.7639604c03a79p-11 bp=0x1.6acfc9381268fp-4");
        ("directed", "i=20109 c=43667 raw=19455 flush=3968 i$=0x1.30d80b65cab64p-12 d$=0x1.7639604c03a79p-11");
        ("specff", "i=20110 c=23474 rollbacks=0");
        ("specff_timer", "i=10021 c=10178 rollbacks=9");
        ("timingfirst", "i=20110 c=23426 mismatches=20 repairs=20 restores=0");
        ("sampling", "i=20109 measured=2104 c=3012");
      ] );
    ( "arm",
      [
        ("funcfirst", "i=20026 c=23402 i$=0x1.a2e2c6f5e6b06p-13 d$=0x1.7639604c03a79p-11 bp=0x1.7033305384be3p-4");
        ("funcfirst_block", "i=20026 c=23402 i$=0x1.a2e2c6f5e6b06p-13 d$=0x1.7639604c03a79p-11 bp=0x1.7033305384be3p-4");
        ("directed", "i=20026 c=34274 raw=10184 flush=3968 i$=0x1.5d99216cf61c2p-13 d$=0x1.7639604c03a79p-11");
        ("specff", "i=20027 c=23403 rollbacks=0");
        ("specff_timer", "i=10008 c=10153 rollbacks=9");
        ("timingfirst", "i=20027 c=23355 mismatches=20 repairs=20 restores=0");
        ("sampling", "i=20026 measured=2024 c=2864");
      ] );
    ( "ppc",
      [
        ("funcfirst", "i=19894 c=23266 i$=0x1.078a6fa4feff1p-12 d$=0x1.7639604c03a79p-11 bp=0x1.6e67634a5ea1cp-4");
        ("funcfirst_block", "i=19894 c=23266 i$=0x1.078a6fa4feff1p-12 d$=0x1.7639604c03a79p-11 bp=0x1.6e67634a5ea1cp-4");
        ("directed", "i=19894 c=33875 raw=9905 flush=3968 i$=0x1.b76a3d0ab21adp-13 d$=0x1.7639604c03a79p-11");
        ("specff", "i=19895 c=23267 rollbacks=0");
        ("specff_timer", "i=10013 c=10170 rollbacks=9");
        ("timingfirst", "i=19895 c=23219 mismatches=19 repairs=19 restores=0");
        ("sampling", "i=19894 measured=2000 c=2764");
      ] );
    ( "riscv",
      [
        ("funcfirst", "i=15429 c=18741 i$=0x1.0fd871c1729a1p-12 d$=0x1.7639604c03a79p-11 bp=0x1.6903fc2eec4c9p-4");
        ("funcfirst_block", "i=15429 c=18741 i$=0x1.0fd871c1729a1p-12 d$=0x1.7639604c03a79p-11 bp=0x1.6903fc2eec4c9p-4");
        (* 8739 flushes = alpha's 3968 + one per retired 2-byte RVC
           instruction (4771): the pipeline's pc + 4 assumption *)
        ("directed", "i=15429 c=31850 raw=7600 flush=8739 i$=0x1.5b14d03d84d07p-13 d$=0x1.7639604c03a79p-11");
        ("specff", "i=15430 c=18742 rollbacks=0");
        ("specff_timer", "i=8013 c=8156 rollbacks=7");
        ("timingfirst", "i=15430 c=18694 mismatches=15 repairs=15 restores=0");
        ("sampling", "i=15429 measured=2000 c=2716");
      ] );
  ]

let test_exact_stats (t : Workload.target) () =
  let expected = List.assoc t.tname pinned in
  List.iter2
    (fun (org, want) (org', got) ->
      assert (org = org');
      Alcotest.(check string) (t.tname ^ " " ^ org) want got)
    expected (org_stats t)

let suite =
  [
    Alcotest.test_case "cache basic" `Quick test_cache_basic;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru;
    Alcotest.test_case "cache bad config" `Quick test_cache_bad_config;
    QCheck_alcotest.to_alcotest prop_cache_lru;
    Alcotest.test_case "predictor learns" `Quick test_predictor_learns;
    Alcotest.test_case "predictor static" `Quick test_predictor_static;
    Alcotest.test_case "functional-first" `Quick test_funcfirst;
    Alcotest.test_case "functional-first at Min" `Quick test_funcfirst_min_detail;
    Alcotest.test_case "functional-first on blocks" `Quick test_funcfirst_block;
    Alcotest.test_case "timing-directed alpha" `Quick (check_directed Workload.alpha);
    Alcotest.test_case "timing-directed arm" `Quick (check_directed Workload.arm);
    Alcotest.test_case "timing-directed ppc" `Quick (check_directed Workload.ppc);
    Alcotest.test_case "timing-directed riscv" `Quick (check_directed Workload.riscv);
    Alcotest.test_case "timing-first clean" `Quick test_timingfirst_clean;
    Alcotest.test_case "timing-first buggy" `Quick test_timingfirst_buggy;
    Alcotest.test_case "spec-ff no divergence" `Quick test_specff_no_divergence;
    Alcotest.test_case "spec-ff rollbacks" `Quick test_specff_rollbacks;
    Alcotest.test_case "sampling" `Quick test_sampling;
  ]
  @ List.map
      (fun (t : Workload.target) ->
        Alcotest.test_case ("exact statistics: " ^ t.tname) `Quick
          (test_exact_stats t))
      Workload.targets
