(** Tests for the block engine's translation-cache machinery: direct
    block chaining, the shared per-(instruction, encoding) site cache,
    per-site memory fast paths, self-modifying-code invalidation, and
    the stride handling of block construction (via {!Fuzz.Tiny}, the
    2-byte-instruction toy ISA — a spec whose [instrsize] differs from
    the demo's 4). Program harnesses live in {!Gen_common}. *)

let run_demo = Gen_common.run_demo

(* ----------------------------------------------------------------- *)
(* Chaining and site-cache A/B                                         *)
(* ----------------------------------------------------------------- *)

(* A counted loop whose back edge re-enters the middle of the entry
   block, so the loop-head block is a strict suffix of the entry block:
   its sites must come from the shared site cache, and after the first
   iteration every block-to-block transfer should ride a chain link. *)
let loop_program =
  Demo_isa.
    [
      addi ~ra:31 ~imm:10 ~rc:1 (* r1 = n *);
      addi ~ra:31 ~imm:0 ~rc:2 (* r2 = acc *);
      (* loop: *)
      add ~ra:2 ~rb:1 ~rc:2 (* acc += r1 *);
      addi ~ra:1 ~imm:(-1) ~rc:1;
      beqz ~ra:1 ~off:1 (* done when r1 == 0 *);
      br ~off:(-4) (* back to loop *);
      addi ~ra:31 ~imm:0 ~rc:0 (* nr = sys_exit *);
      add ~ra:2 ~rb:31 ~rc:1 (* arg0 = acc *);
      sys;
    ]

let test_chain_and_site_cache () =
  let iface, status, count = run_demo "block_min" loop_program in
  Alcotest.(check (option int)) "exit status" (Some 55) status;
  let s = iface.stats in
  Alcotest.(check bool)
    "chain links taken" true
    (s.Specsim.Iface.chain_taken > 0);
  Alcotest.(check bool)
    "some chain misses (cold edges)" true
    (s.Specsim.Iface.chain_miss > 0);
  Alcotest.(check bool)
    "site cache reused compiled sites" true
    (s.Specsim.Iface.site_cache_hits >= 3);
  (* Disabling both caches must reproduce the same architectural run,
     with the new counters pinned at zero. *)
  let iface', status', count' =
    run_demo ~chain:false ~site_cache:false "block_min" loop_program
  in
  Alcotest.(check (option int)) "exit status (caches off)" (Some 55) status';
  Alcotest.(check int64) "instruction counts agree" count count';
  let s' = iface'.stats in
  Alcotest.(check int) "no chain hits when disabled" 0
    s'.Specsim.Iface.chain_taken;
  Alcotest.(check int) "no chain misses when disabled" 0
    s'.Specsim.Iface.chain_miss;
  Alcotest.(check int) "no site-cache hits when disabled" 0
    s'.Specsim.Iface.site_cache_hits

(* One-mode interfaces must never touch the block machinery. *)
let test_one_mode_counters_stay_zero () =
  let iface, status, _ = run_demo "one_all" loop_program in
  Alcotest.(check (option int)) "exit status" (Some 55) status;
  let s = iface.stats in
  Alcotest.(check int) "no chaining in One mode" 0 s.Specsim.Iface.chain_taken;
  Alcotest.(check int) "no site cache in One mode" 0
    s.Specsim.Iface.site_cache_hits

(* ----------------------------------------------------------------- *)
(* Self-modifying code                                                 *)
(* ----------------------------------------------------------------- *)

(* The program stores over one of its own loop-body instructions and
   must observe the new semantics on the next iteration. The
   replacement pair (the rewritten ADDI plus the unchanged ADD that
   shares its 8-byte store) is staged at 0x800 by the harness.

     0x1000  addi r5 = 2            loop counter
     0x1004  ldq  r7 = [0x800]      replacement pair
     0x1008  addi r2 = 5            <- rewritten to addi r2 = 99
     0x100c  add  r3 += r2
     0x1010  stq  [0x1008] = r7     the self-modifying store
     0x1014  addi r5 -= 1
     0x1018  beqz r5, +1
     0x101c  br   -7                back to 0x1004
     0x1020  addi r0 = 0            sys_exit
     0x1024  add  r1 = r3
     0x1028  sys

   Iteration 1 adds 5, rewrites; iteration 2 must add 99: exit 104.
   A stale translation cache would add 5 twice and exit 10. *)
let smc_program =
  Demo_isa.
    [
      addi ~ra:31 ~imm:2 ~rc:5;
      ldq ~ra:31 ~imm:0x800 ~rc:7;
      addi ~ra:31 ~imm:5 ~rc:2;
      add ~ra:3 ~rb:2 ~rc:3;
      stq ~ra:31 ~imm:0x1008 ~rb:7;
      addi ~ra:5 ~imm:(-1) ~rc:5;
      beqz ~ra:5 ~off:1;
      br ~off:(-7);
      addi ~ra:31 ~imm:0 ~rc:0;
      add ~ra:3 ~rb:31 ~rc:1;
      sys;
    ]

let smc_patch (st : Machine.State.t) =
  let repl =
    Int64.logor
      (Demo_isa.addi ~ra:31 ~imm:99 ~rc:2)
      (Int64.shift_left (Demo_isa.add ~ra:3 ~rb:2 ~rc:3) 32)
  in
  Machine.Memory.write st.mem ~addr:0x800L ~width:8 repl

let test_smc_block_mode () =
  let iface, status, _ = run_demo ~patch:smc_patch "block_min" smc_program in
  Alcotest.(check (option int)) "rewritten instruction observed" (Some 104)
    status;
  Alcotest.(check bool) "code writes invalidated blocks" true
    (iface.stats.Specsim.Iface.block_invalidations > 0)

let test_smc_matches_one_mode () =
  let _, block_status, block_count =
    run_demo ~patch:smc_patch "block_min" smc_program
  in
  let _, one_status, one_count =
    run_demo ~patch:smc_patch "one_all" smc_program
  in
  Alcotest.(check (option int)) "modes agree on exit" one_status block_status;
  Alcotest.(check int64) "modes agree on count" one_count block_count

(* ----------------------------------------------------------------- *)
(* Stride regression: the tiny16 2-byte-instruction ISA                *)
(* ----------------------------------------------------------------- *)

(* Block construction used to advance the recorded per-site PCs by a
   hard-coded 4 bytes; any spec with a different [instrsize] then
   resumed at the wrong address after a block. The fuzzer's tiny16
   target (3-bit opcode in bits 13..15) exercises that path end to
   end — the same defect survives as the deliberate
   {!Specsim.Synth.Stride4} mutation. *)

(* Sum 5..1 with a backward branch: 15. R7 is the zero register. *)
let tiny_program =
  Fuzz.Tiny.
    [
      addi ~ra:7 ~imm:5 ~rc:1 (* r1 = 5 *);
      addi ~ra:7 ~imm:0 ~rc:2 (* r2 = 0 *);
      (* loop: *)
      add ~ra:2 ~rb:1 ~rc:2;
      addi ~ra:1 ~imm:(-1) ~rc:1;
      beqz ~ra:1 ~off:1 (* done when r1 == 0 *);
      beqz ~ra:7 ~off:(-4) (* always taken: back to loop *);
      addi ~ra:7 ~imm:0 ~rc:0 (* nr = sys_exit *);
      add ~ra:2 ~rb:7 ~rc:1 (* arg0 = sum *);
      sys;
    ]

let run_tiny bs =
  let spec = Lazy.force Fuzz.Tiny.spec in
  let iface = Specsim.Synth.make spec bs in
  let st = iface.st in
  let os = Machine.Os_emu.create () in
  (match spec.abi with
  | Some abi -> Machine.Os_emu.install os abi st
  | None -> Alcotest.fail "tiny16 has no abi");
  List.iteri
    (fun i w ->
      Machine.Memory.write st.mem
        ~addr:(Int64.add 0x1000L (Int64.of_int (2 * i)))
        ~width:2 w)
    tiny_program;
  Machine.State.reset st ~pc:0x1000L;
  let executed = Specsim.Iface.run_n iface 100_000 in
  if not st.halted then Alcotest.fail "tiny16 program did not terminate";
  (Machine.State.exit_status st, Int64.to_int st.instr_count, executed)

let test_tiny_stride () =
  let one_status, one_count, _ = run_tiny "one_all" in
  Alcotest.(check (option int)) "One-mode sum" (Some 15) one_status;
  let block_status, block_count, _ = run_tiny "block_min" in
  Alcotest.(check (option int)) "Block-mode sum" (Some 15) block_status;
  Alcotest.(check int) "modes agree on count" one_count block_count

(* ----------------------------------------------------------------- *)
(* Watchdog preemption of chained dispatch                             *)
(* ----------------------------------------------------------------- *)

(* Chained dispatch transfers block-to-block without returning to the
   driver, so a tight infinite loop is the worst case: the watchdog can
   only trip if run_n still honours its slice bound. *)
let test_watchdog_preempts_chained_loop () =
  let spin =
    List.find
      (fun (k : Vir.Kernels.sized) -> String.equal k.kname "spin")
      Vir.Kernels.pathological
  in
  let l = Workload.load Workload.alpha ~buildset:"block_min" spin.program in
  let config =
    {
      Inject.Watchdog.max_instructions = 50_000;
      max_seconds = Some 30.;
      deadline = None;
      check_interval = 4096;
    }
  in
  match Inject.Watchdog.run_guarded ~config l.iface with
  | () -> Alcotest.fail "spin loop terminated?!"
  | exception Machine.Sim_error.Error _ ->
    Alcotest.(check bool) "chained loop stayed preemptible" true true

(* ----------------------------------------------------------------- *)
(* Property: Block mode == One mode on random workloads, all ISAs      *)
(* ----------------------------------------------------------------- *)

let prop_block_equals_one =
  QCheck.Test.make ~count:20
    ~name:"Block mode matches One mode on random VIR loops (all ISAs)"
    QCheck.(pair (list_of_size (Gen.int_range 1 10) (int_bound (1 lsl 22)))
              (int_range 1 12))
    (fun (choices, iters) ->
      let program = Gen_common.vir_of_choices choices ~iters in
      List.for_all
        (fun t ->
          let block =
            Workload.run t ~buildset:"block_min" ~budget:1_000_000 program
          in
          let one =
            Workload.run t ~buildset:"one_all" ~budget:1_000_000 program
          in
          Gen_common.outcome_pair block = Gen_common.outcome_pair one)
        Workload.targets)

(* A store that targets the program's own code pages (rewriting an
   instruction word with its own value) forces invalidation and block
   rebuild on every iteration; Block and One mode must still agree. *)
let self_store_program : Vir.Lang.program =
  let open Vir.Lang in
  [
    Li (2, 0x1000l) (* code base *);
    Li (4, 0l);
    Li (5, 3l);
    Li (8, 0l);
    Label "loop";
    Ldw (3, 2, 0);
    Stw (3, 2, 0) (* rewrite first instruction with itself *);
    Addi (4, 4, 1);
    Bcond (Lt, 4, 5, "loop");
    Li (0, 0l);
    Li (1, 42l);
    Sys;
  ]

let test_self_store_equivalence () =
  List.iter
    (fun t ->
      let block =
        Workload.run t ~buildset:"block_min" ~budget:1_000_000
          self_store_program
      in
      let one =
        Workload.run t ~buildset:"one_all" ~budget:1_000_000 self_store_program
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: exit status" t.Workload.tname)
        one.Workload.exit_status block.Workload.exit_status;
      Alcotest.(check int)
        (Printf.sprintf "%s: exits 42" t.Workload.tname)
        42 block.Workload.exit_status)
    Workload.targets

(* ----------------------------------------------------------------- *)
(* Decoded-instruction cache coherence                                 *)
(* ----------------------------------------------------------------- *)

(* One-entrypoint interfaces run [run_one] through a pc-indexed cache of
   decoded instructions, whose entries a hit trusts only for the window
   they were decoded from: nothing invalidates them. block_min is driven
   through [run_one] here, never through its block loop. *)
let dcache_buildsets = [ "one_min"; "one_all_spec"; "block_min" ]

let kernel name =
  List.find
    (fun (k : Vir.Kernels.sized) -> k.kname = name)
    Vir.Kernels.test_suite

(* Run to the halt through [run_one]; the outcome, and the register
   digest as a string for the checks. *)
let run_one_outcome (iface : Specsim.Iface.t) os =
  let st = iface.st in
  let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
  let budget = ref 10_000_000 in
  while (not st.halted) && !budget > 0 do
    iface.run_one di;
    decr budget
  done;
  let exit_status =
    match Machine.State.exit_status st with
    | Some s -> s land 0xff
    | None -> Alcotest.failf "%s did not exit" iface.bs.bs_name
  in
  ( {
      Workload.exit_status;
      output = Machine.Os_emu.output os;
      instructions = st.instr_count;
    },
    Printf.sprintf "%Lx" (Inject.Watchdog.regs_digest st.regs) )

let outcome_string (o : Workload.outcome) =
  Printf.sprintf "exit=%d instructions=%Ld output=%S" o.exit_status
    o.instructions o.output

(* Kernel B loaded over kernel A at the same base, on the same interface,
   after [Memory.clear]: the cache still holds A's entries at B's pcs,
   and must run B exactly as a fresh interface does. *)
let test_dcache_reload (t : Workload.target) () =
  let spec = Lazy.force t.spec in
  let ka = kernel "vec_sum" and kb = kernel "sort" in
  List.iter
    (fun bs ->
      let fresh = Workload.load t ~buildset:bs kb.program in
      let want, want_regs = run_one_outcome fresh.iface fresh.os in
      let l = Workload.load t ~buildset:bs ka.program in
      ignore (run_one_outcome l.iface l.os);
      let st = l.iface.st in
      Machine.Memory.clear st.mem;
      Machine.Regfile.blit ~src:(Lis.Spec.make_machine spec).regs ~dst:st.regs;
      let os = Workload.load_image t kb.program st in
      let got, got_regs = run_one_outcome l.iface os in
      Alcotest.(check string)
        (bs ^ ": sort over vec_sum = fresh sort")
        (outcome_string want) (outcome_string got);
      Alcotest.(check string) (bs ^ ": register digest") want_regs got_regs)
    dcache_buildsets

(* A loop body of 600 straight-line instructions, more code than the
   cache's slots span, so every iteration evicts the last one's
   entries. *)
let long_loop_program : Vir.Lang.program =
  let open Vir.Lang in
  let body =
    List.init 600 (fun i ->
        match i mod 4 with
        | 0 -> Addi (4, 4, (i mod 97) + 1)
        | 1 -> Xor_ (5, 5, 4)
        | 2 -> Shli (6, 5, i mod 7)
        | _ -> Add (4, 4, 6))
  in
  [ Li (4, 0l); Li (5, 0l); Li (7, 3l); Li (8, 0l); Label "loop" ]
  @ body
  @ [ Addi (7, 7, -1); Bcond (Ne, 7, 8, "loop") ]
  @ Vir.Kernels.epilogue

let test_dcache_long_loop (t : Workload.target) () =
  let reference = Workload.reference long_loop_program in
  let step = Workload.run t ~buildset:"step_all" long_loop_program in
  Alcotest.(check bool) "step_all agrees with the reference" true
    (Workload.agrees reference step);
  List.iter
    (fun bs ->
      let l = Workload.load t ~buildset:bs long_loop_program in
      let got, _ = run_one_outcome l.iface l.os in
      Alcotest.(check string) (bs ^ " = step_all") (outcome_string step)
        (outcome_string got))
    dcache_buildsets

(* One-entrypoint interfaces run translated sites from [run_one], and
   build their generic items, with the plan's per-segment IR, on a first
   [step]. A copy driven by [step di 0] + [retire] must match a twin
   driven by [run_one] after every instruction, in the DI record's
   information bytes and header, and at the halt in the whole
   architectural state. *)
let step_buildsets =
  [ "one_min"; "one_all"; "one_all_spec"; "block_decode"; "block_all" ]

let test_one_entrypoint_step (t : Workload.target) () =
  let k = kernel "sort" in
  List.iter
    (fun bs ->
      let a = (Workload.load t ~buildset:bs k.program).iface
      and b = (Workload.load t ~buildset:bs k.program).iface in
      let da = Specsim.Di.create ~info_slots:a.slots.di_size
      and db = Specsim.Di.create ~info_slots:b.slots.di_size in
      let n = ref 0 in
      while (not (a.st.halted && b.st.halted)) && !n < 1_000_000 do
        da.pc <- a.st.pc;
        da.instr_index <- -1;
        da.fault <- None;
        a.step da 0;
        if not a.st.halted then a.retire da;
        b.run_one db;
        let agree =
          Bool.equal a.st.halted b.st.halted
          && Bytes.equal da.info db.info
          && da.instr_index = db.instr_index
          && Int64.equal da.encoding db.encoding
          && Int64.equal da.next_pc db.next_pc
        in
        if not agree then
          Alcotest.failf
            "%s %s: step and run_one differ at instruction %d (pc 0x%Lx): \
             index %d/%d, encoding 0x%Lx/0x%Lx, next pc 0x%Lx/0x%Lx"
            t.tname bs !n da.pc da.instr_index db.instr_index da.encoding
            db.encoding da.next_pc db.next_pc;
        incr n
      done;
      Alcotest.(check bool) (bs ^ ": halted") true a.st.halted;
      Alcotest.(check int64) (bs ^ ": retired") b.st.instr_count
        a.st.instr_count;
      Alcotest.(check bool) (bs ^ ": registers") true
        (Machine.Regfile.equal a.st.regs b.st.regs);
      Alcotest.(check bool) (bs ^ ": memory") true
        (Machine.Memory.equal_contents a.st.mem b.st.mem))
    step_buildsets

(* [run_block] returns the ring's records on a block's first dispatch
   and the block's own after that; either way each record must hold what
   [run_one] reports for the same instruction. A One twin runs beside the
   Block interface, one instruction per record. Its record starts from
   the Block record's information bytes, so a slot that neither writes
   compares equal and every slot [run_one] writes must match. The kernel
   runs twice, reloaded at the same base in between: the rewrite
   invalidates the blocks, and the rebuilt ones pass through the ring
   again. *)
let block_one_pairs =
  [
    ("block_decode", "one_decode");
    ("block_all", "one_all");
    ("block_all_spec", "one_all_spec");
  ]

let test_block_dis_equal_one (t : Workload.target) () =
  let k = kernel "sort" in
  List.iter
    (fun (bb, bo) ->
      let a = (Workload.load t ~buildset:bb k.program).iface
      and b = (Workload.load t ~buildset:bo k.program).iface in
      let db = Specsim.Di.create ~info_slots:b.slots.di_size in
      let n = ref 0 in
      let same (da : Specsim.Di.t) =
        Bytes.blit da.info 0 db.info 0 (Bytes.length db.info);
        b.run_one db;
        let agree =
          Int64.equal da.pc db.pc
          && Int64.equal da.encoding db.encoding
          && Int64.equal da.next_pc db.next_pc
          && da.instr_index = db.instr_index
          && da.fault = db.fault
          && Bytes.equal da.info db.info
        in
        if not agree then
          Alcotest.failf
            "%s %s: record %d differs from %s's (pc 0x%Lx/0x%Lx, encoding \
             0x%Lx/0x%Lx, next pc 0x%Lx/0x%Lx, index %d/%d, info %s)"
            t.tname bb !n bo da.pc db.pc da.encoding db.encoding da.next_pc
            db.next_pc da.instr_index db.instr_index
            (if Bytes.equal da.info db.info then "equal" else "differs");
        incr n
      in
      for round = 1 to 2 do
        if round = 2 then begin
          ignore (Workload.load_image t k.program a.st);
          ignore (Workload.load_image t k.program b.st)
        end;
        while not a.st.halted do
          let dis, m = a.run_block () in
          for i = 0 to m - 1 do
            same dis.(i)
          done;
          (* the halting instruction's record follows the counted ones *)
          if a.st.halted then same dis.(m)
        done;
        Alcotest.(check bool) (bb ^ ": One twin halted") true b.st.halted;
        Alcotest.(check int64) (bb ^ ": retired") b.st.instr_count
          a.st.instr_count
      done;
      Alcotest.(check bool) (bb ^ ": blocks rebuilt") true
        (a.stats.blocks_compiled > 0 && a.stats.block_invalidations > 0))
    block_one_pairs

(* A halting instruction retires nothing, and every interface leaves
   the fetch pc at it: a Block interface through [run_block] and through
   [run_n] (chained for block_min, the generic loop for the journaled
   block_decode_spec) stops where a One twin does. *)
let test_halted_block_pc (t : Workload.target) () =
  let k = kernel "sort" in
  let load bs = (Workload.load t ~buildset:bs k.program).iface in
  let twin = load "one_all" in
  let di = Specsim.Di.create ~info_slots:twin.slots.di_size in
  while not twin.st.halted do
    twin.run_one di
  done;
  let check what (i : Specsim.Iface.t) =
    Alcotest.(check bool) (what ^ ": halted") true i.st.halted;
    Alcotest.(check int64) (what ^ ": retired") twin.st.instr_count
      i.st.instr_count;
    Alcotest.(check string)
      (what ^ ": pc")
      (Printf.sprintf "0x%Lx" twin.st.pc)
      (Printf.sprintf "0x%Lx" i.st.pc)
  in
  List.iter
    (fun bs ->
      let a = load bs in
      while not a.st.halted do
        ignore (a.run_block ())
      done;
      check (bs ^ " run_block") a;
      let b = load bs in
      ignore (Specsim.Iface.run_n b 50_000_000);
      check (bs ^ " run_n") b)
    [ "block_min"; "block_decode_spec" ]

(* ----------------------------------------------------------------- *)
(* One trust rule for both block loops                                 *)
(* ----------------------------------------------------------------- *)

(* The DI-free loop behind [run_n] and the [run_block] loop dispatch,
   recheck a block mid-run and invalidate by the same rule, seeded
   defects included: driven to halt on the same program, they retire
   the same instructions and count the same engine events. *)
let engine_stats (s : Specsim.Iface.stats) =
  Printf.sprintf
    "compiled=%d hits=%d invalidations=%d sites=%d site_hits=%d chain=%d/%d \
     instrs=%d"
    s.blocks_compiled s.block_hits s.block_invalidations s.sites_compiled
    s.site_cache_hits s.chain_taken s.chain_miss s.instrs_executed

let test_block_loops_agree () =
  List.iter
    (fun mutate ->
      List.iter
        (fun (pname, program, patch) ->
          List.iter
            (fun chain ->
              let what =
                Printf.sprintf "%s, %s, chain %b"
                  (match mutate with
                  | None -> "none"
                  | Some m -> Specsim.Synth.mutation_to_string m)
                  pname chain
              in
              let run block_loop =
                let iface, status, count =
                  run_demo ~chain ?mutate ~block_loop ~patch "block_min" program
                in
                (status, count, engine_stats iface.stats)
              in
              let s_n, n_n, stats_n = run false
              and s_b, n_b, stats_b = run true in
              Alcotest.(check (option int)) (what ^ ": exit status") s_n s_b;
              Alcotest.(check int64) (what ^ ": retired") n_n n_b;
              Alcotest.(check string) (what ^ ": engine stats") stats_n stats_b)
            [ true; false ])
        [
          ("smc", smc_program, smc_patch);
          ("loop", loop_program, fun _ -> ());
        ])
    Specsim.Synth.[ None; Some Stale_chain; Some Skip_invalidate; Some Stride4 ]

let suite =
  [
    Alcotest.test_case "chain + site cache A/B" `Quick
      test_chain_and_site_cache;
    Alcotest.test_case "One mode keeps block counters at zero" `Quick
      test_one_mode_counters_stay_zero;
    Alcotest.test_case "SMC: rewritten instruction observed" `Quick
      test_smc_block_mode;
    Alcotest.test_case "SMC: Block matches One" `Quick test_smc_matches_one_mode;
    Alcotest.test_case "2-byte-instruction ISA stride" `Quick test_tiny_stride;
    Alcotest.test_case "watchdog preempts chained loop" `Quick
      test_watchdog_preempts_chained_loop;
    QCheck_alcotest.to_alcotest prop_block_equals_one;
    Alcotest.test_case "self-store equivalence (all ISAs)" `Quick
      test_self_store_equivalence;
  ]
  @ List.concat_map
      (fun (t : Workload.target) ->
        [
          Alcotest.test_case
            ("decoded cache: reload at the same base: " ^ t.tname)
            `Quick (test_dcache_reload t);
          Alcotest.test_case
            ("decoded cache: loop longer than the table: " ^ t.tname)
            `Quick (test_dcache_long_loop t);
          Alcotest.test_case
            ("one-entrypoint step = run_one: " ^ t.tname)
            `Quick (test_one_entrypoint_step t);
        ])
      Workload.targets
  @ List.map
      (fun (t : Workload.target) ->
        Alcotest.test_case ("run_block DIs = run_one DIs: " ^ t.tname) `Quick
          (test_block_dis_equal_one t))
      Workload.targets
  @ List.map
      (fun (t : Workload.target) ->
        Alcotest.test_case
          ("a halted block leaves the pc at the halting instruction: "
         ^ t.tname)
          `Quick (test_halted_block_pc t))
      Workload.targets
  @ [
      Alcotest.test_case "run_n and run_block agree under every mutation"
        `Quick test_block_loops_agree;
    ]
