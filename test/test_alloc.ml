(** Allocation guard: compiled semantics and the block engine must not
    box. [Gc.minor_words] is deterministic, so a refactor that brings
    boxing back fails here instead of silently costing MIPS. *)

open Semir

(* Minor words allocated per call of [f], over [n] calls after one
   warm-up call (which fills per-site page caches). *)
let words_per ?(n = 1000) f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Statement shapes                                                    *)
(* ------------------------------------------------------------------ *)

let classes =
  [
    {
      Machine.Regfile.cname = "R";
      count = 32;
      width = 64;
      hardwired_zero = Some 31;
    };
  ]

(* cells 0 and 2 hidden, 1 and 3 visible *)
let loc = Frame.[| In_scratch 0; In_di 0; In_scratch 1; In_di 1 |]
let reg i = Ir.Reg_read { cls = 0; index = Const (Int64.of_int i) }

let shapes =
  Ir.
    [
      ( "reg <- reg op reg",
        [ Reg_write { cls = 0; index = Const 3L; value = Bin (Xor, reg 1, reg 2) } ]
      );
      ( "reg <- reg + imm",
        [ Reg_write { cls = 0; index = Const 4L; value = Bin (Add, reg 1, Const 12L) } ]
      );
      ( "cell <- load (TLB hit)",
        [
          Set_cell
            (0, Load { width = W8; signed = false; addr = Bin (Add, reg 5, Const 8L) });
          Set_cell
            (2, Load { width = W4; signed = true; addr = Bin (Add, reg 5, Const 4L) });
        ] );
      ( "store (TLB hit)",
        [
          Store { width = W4; addr = Bin (Add, reg 5, Const 16L); value = reg 1 };
          Store { width = W8; addr = reg 5; value = Bin (Add, reg 2, Const 1L) };
        ] );
      ("DI <- expr", [ Set_cell (1, Bin (Add, Bin (Shl, reg 2, Const 3L), Cell 0)) ]);
      ("next_pc <- pc + imm", [ Set_next_pc (Bin (Add, Pc, Const 64L)) ]);
      ( "if",
        [
          If
            ( Bin (Ltu, reg 1, reg 2),
              [ Set_next_pc (Bin (Add, Pc, Const 8L)) ],
              [ Set_cell (2, Bin (Eq, reg 1, Const 0L)) ] );
        ] );
      ( "reg[cell] <- reg[cell] + enc field",
        [
          Set_cell (0, Enc { lo = 21; len = 5; signed = false });
          Reg_write
            {
              cls = 0;
              index = Cell 0;
              value =
                Bin
                  ( Add,
                    Reg_read { cls = 0; index = Cell 2 },
                    Enc { lo = 0; len = 16; signed = true } );
            };
        ] );
    ]

let test_shape (name, p) () =
  let st = Machine.State.create ~endian:Machine.Memory.Little classes in
  List.iter
    (fun (i, v) -> Machine.Regfile.write st.regs ~cls:0 ~idx:i v)
    [ (1, 7L); (2, 9L); (5, 0x2000L) ];
  let fr = Frame.create ~st ~hooks:Hooks.none ~di_slots:2 ~scratch_slots:2 in
  Frame.set_pc fr 0x1000L;
  Frame.set_next_pc fr 0x1004L;
  Frame.set_enc fr 0x2C5F_0123L;
  let code = Compile.program ~layout:st.regs ~mem_fast_path:true ~loc p in
  let w = words_per (fun () -> code fr) in
  if w > 0.01 then Alcotest.failf "%s: %.2f minor words per execution" name w

(* ------------------------------------------------------------------ *)
(* The block engine                                                    *)
(* ------------------------------------------------------------------ *)

(* Minor words per instruction of a block_min run whose blocks are all
   translated: run the kernel once, reload the same image (clearing
   memory first, so the rewrite does not invalidate the cached blocks)
   and measure the second run, driven as the ledger's Block cells are. *)
let block_words ?obs (t : Workload.target) (k : Vir.Kernels.sized) =
  let l = Workload.load ?obs t ~buildset:"block_min" k.program in
  let iface = l.iface and st = l.iface.st in
  let drive () =
    while not st.halted do
      ignore (iface.run_block ())
    done
  in
  drive ();
  let compiled = iface.stats.blocks_compiled in
  Machine.Memory.clear st.mem;
  ignore (Workload.load_image t k.program st);
  let w0 = Gc.minor_words () in
  drive ();
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check int) "no block retranslated" compiled
    iface.stats.blocks_compiled;
  w /. Int64.to_float st.instr_count

(* The same for a per-instruction interface, driven by [run_one] or by
   [step] per entrypoint plus [retire]. What remains on a Step interface
   is the accepted floor: boxing the DI record's new encoding and next
   pc, and [st.instr_count] — three boxes, nine words. *)
let per_instr_words ?obs (t : Workload.target) (k : Vir.Kernels.sized) bs =
  let l = Workload.load ?obs t ~buildset:bs k.program in
  let iface = l.iface and st = l.iface.st in
  let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
  let n = Specsim.Iface.n_entrypoints iface in
  let drive () =
    while not st.halted do
      if n = 1 then iface.run_one di
      else begin
        di.pc <- st.pc;
        di.instr_index <- -1;
        di.fault <- None;
        let k = ref 0 in
        while !k < n && not st.halted do
          iface.step di !k;
          incr k
        done;
        if not st.halted then iface.retire di
      end
    done
  in
  drive ();
  Machine.Memory.clear st.mem;
  ignore (Workload.load_image t k.program st);
  let w0 = Gc.minor_words () in
  drive ();
  (Gc.minor_words () -. w0) /. Int64.to_float st.instr_count

let sort = List.find (fun k -> k.Vir.Kernels.kname = "sort") Vir.Kernels.test_suite

let test_per_instr_run t () =
  List.iter
    (fun bs ->
      let w = per_instr_words t sort bs in
      if w >= 15.0 then
        Alcotest.failf "%s %s: %.2f minor words per instruction" t.tname bs w)
    [ "one_all"; "one_decode_spec"; "step_all" ]

(* One-entrypoint interfaces run [run_one] through the decoded-
   instruction cache, which holds the DI header's boxes: on the second
   run every entry hits, and [st.instr_count]'s box is most of what
   remains. *)
let test_one_run t () =
  List.iter
    (fun bs ->
      let w = per_instr_words t sort bs in
      if w >= 4.5 then
        Alcotest.failf "%s %s: %.2f minor words per instruction" t.tname bs w)
    [ "one_min"; "one_all"; "one_decode_spec"; "block_min" ]

let test_block_run t () =
  let w = block_words t sort in
  if w >= 3.0 then
    Alcotest.failf "%s block_min: %.2f minor words per instruction" t.tname w

(* Full observation counts every crossing but reads the clock on a
   sample of them only, so an observed interface stays within the plain
   bounds. *)
let test_observed_run t () =
  let w = block_words ~obs:(Obs.create ()) t sort in
  if w >= 3.0 then
    Alcotest.failf "%s observed block_min: %.2f minor words per instruction"
      t.tname w;
  List.iter
    (fun bs ->
      let w = per_instr_words ~obs:(Obs.create ()) t sort bs in
      if w >= 15.0 then
        Alcotest.failf "%s observed %s: %.2f minor words per instruction"
          t.tname bs w)
    [ "one_all"; "step_all" ]

(* ------------------------------------------------------------------ *)
(* Synthesis                                                           *)
(* ------------------------------------------------------------------ *)

(* Minor words of the first [make] of [bs] through a cache that already
   planned block_min and step_all, as a fuzz campaign's cache has after
   its first oracle execution. *)
let cold_make_words (t : Workload.target) bs =
  let spec = Lazy.force t.spec in
  let cache = Specsim.Synth.cache spec in
  List.iter
    (fun b -> ignore (Specsim.Synth.make ~cache spec b))
    [ "block_min"; "step_all" ];
  let w0 = Gc.minor_words () in
  ignore (Specsim.Synth.make ~cache spec bs);
  Gc.minor_words () -. w0

(* A One or Block interface runs translated sites, so its first [make]
   neither runs the liveness pass (one entrypoint has no crossing) nor
   builds the per-segment IR. step_all_spec takes step_all's IR but
   compiles its shape's hooked items, which no interface has built yet
   (a later [make] takes them from the cache: [test_warm_make]). *)
let test_cold_make (t : Workload.target) step_all_spec_bound () =
  List.iter
    (fun bs ->
      let w = cold_make_words t bs in
      if w >= 10_000. then
        Alcotest.failf "%s %s: first make allocates %.0f minor words" t.tname
          bs w)
    [ "one_min"; "one_all"; "block_decode"; "one_all_spec" ];
  let w = cold_make_words t "step_all_spec" in
  if w > step_all_spec_bound then
    Alcotest.failf "%s step_all_spec: first make allocates %.0f minor words"
      t.tname w

(* ------------------------------------------------------------------ *)
(* The timing layer                                                    *)
(* ------------------------------------------------------------------ *)

(* The first [n] dynamic instructions of sort on [iface], each in its own
   record. *)
let first_dis (iface : Specsim.Iface.t) n =
  Array.init n (fun _ ->
      let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
      iface.run_one di;
      di)

let test_timing_calls () =
  let l = Workload.load Workload.alpha ~buildset:"one_decode" sort.program in
  let dis = first_dis l.iface 1024 in
  let kinds = Specsim.Classify.of_spec l.iface.spec in
  let some f =
    Array.exists
      (fun (di : Specsim.Di.t) -> di.instr_index >= 0 && f kinds.(di.instr_index))
      dis
  in
  Alcotest.(check bool) "loads, stores and branches consumed" true
    (some (fun k -> k.is_load) && some (fun k -> k.is_store)
    && some (fun k -> k.is_branch));
  let ff = Timing.Funcfirst.create l.iface in
  let w =
    words_per (fun () ->
        for i = 0 to Array.length dis - 1 do
          Timing.Funcfirst.consume ff dis.(i)
        done)
  in
  if w > 0.01 then Alcotest.failf "Funcfirst.consume: %.2f words per call" (w /. 1024.);
  (* hits and misses in every set *)
  let c = Timing.Cache.create Timing.Cache.l1d_default in
  let w =
    words_per (fun () ->
        for a = 0 to 255 do
          ignore (Timing.Cache.latency c (a * 4160))
        done)
  in
  if w > 0.01 then Alcotest.failf "Cache.latency: %.2f words per call" (w /. 256.);
  let p = Timing.Predictor.create (Timing.Predictor.Gshare 12) in
  let w =
    words_per (fun () ->
        for i = 0 to Array.length dis - 1 do
          ignore (Timing.Predictor.update p ~pc:dis.(i).pc ~taken:(i land 3 <> 0))
        done)
  in
  if w > 0.01 then Alcotest.failf "Predictor.update: %.2f words per call" (w /. 1024.)

(* [i] with the minor words its engine calls allocate added up in
   [engine.(0)] ([Gc.minor_words] returns an unboxed float, and a float
   array stores one unboxed, so the tally allocates nothing). *)
let metered (i : Specsim.Iface.t) (engine : float array) =
  {
    i with
    run_one =
      (fun di ->
        let w0 = Gc.minor_words () in
        i.run_one di;
        engine.(0) <- engine.(0) +. (Gc.minor_words () -. w0));
    run_block =
      (fun () ->
        let w0 = Gc.minor_words () in
        let r = i.run_block () in
        engine.(0) <- engine.(0) +. (Gc.minor_words () -. w0);
        r);
    step =
      (fun di k ->
        let w0 = Gc.minor_words () in
        i.step di k;
        engine.(0) <- engine.(0) +. (Gc.minor_words () -. w0));
    retire =
      (fun di ->
        let w0 = Gc.minor_words () in
        i.retire di;
        engine.(0) <- engine.(0) +. (Gc.minor_words () -. w0));
  }

(* Minor words per instruction of an organization's whole run on sort,
   and the part its engine calls allocated, measured on a second run as
   [per_instr_words] does; per instruction the last interface retires.
   The engine's part is the same interfaces driven bare, call for call:
   a separate bare drive would miss the wrong-path fetches and decodes
   Directed makes. *)
let org_words (t : Workload.target) bss run =
  let engine = [| 0. |] in
  let ifaces =
    List.map
      (fun bs -> metered (Workload.load t ~buildset:bs sort.program).iface engine)
      bss
  in
  run ifaces;
  List.iter
    (fun (i : Specsim.Iface.t) ->
      Machine.Memory.clear i.st.mem;
      ignore (Workload.load_image t sort.program i.st))
    ifaces;
  engine.(0) <- 0.;
  let w0 = Gc.minor_words () in
  run ifaces;
  let w = Gc.minor_words () -. w0 in
  let n = Int64.to_float (List.nth ifaces (List.length ifaces - 1)).st.instr_count in
  (w /. n, engine.(0) /. n)

let funcfirst = function
  | [ i ] -> ignore (Timing.Funcfirst.run (Timing.Funcfirst.create i) ~budget:max_int)
  | _ -> assert false

(* Each organization on the interfaces it runs on in the ledger. What a
   run allocates outside its engine calls is the timing model's: per-run
   set-up (instruction classes, caches, DI records, the checker's
   checkpoints) and Timingfirst's memory comparison every 64
   instructions, but nothing per instruction. On sort's 15-20k
   instructions that is 0.4-0.8 words per instruction, 1.3 for
   Timingfirst; a model that boxes a counter or builds a list per
   instruction adds 2 or more. *)
let slack = 1.5

let organizations =
  [
    ("funcfirst", [ "one_decode" ], funcfirst);
    ("funcfirst_block", [ "block_decode" ], funcfirst);
    ( "directed",
      [ "step_all" ],
      function
      | [ i ] -> ignore (Timing.Directed.run i ~budget:max_int)
      | _ -> assert false );
    ( "specff",
      [ "one_decode_spec" ],
      function
      | [ i ] -> ignore (Timing.Specff.run i ~budget:max_int)
      | _ -> assert false );
    ( "timingfirst",
      [ "one_min"; "one_min" ],
      function
      | [ timing; checker ] ->
        ignore (Timing.Timingfirst.run ~timing ~checker ~budget:max_int ())
      | _ -> assert false );
  ]

let test_timing_runs t () =
  List.iter
    (fun (name, bss, run) ->
      let w, engine = org_words t bss run in
      if w -. engine > slack then
        Alcotest.failf
          "%s %s: %.2f minor words per instruction, %.2f of them in engine calls"
          t.Workload.tname name w engine)
    organizations

(* ------------------------------------------------------------------ *)
(* Cold set-up                                                         *)
(* ------------------------------------------------------------------ *)

(* Each description, with bounds in minor words on loading it and on
   the first [make] of block_min through a fresh cache. *)
let descriptions =
  [
    ("alpha", Isa_alpha.Alpha.sources, 125_000., 108_000.);
    ("arm", Isa_arm.Arm.sources, 125_000., 206_000.);
    ("ppc", Isa_ppc.Ppc.sources, 100_000., 76_000.);
    ("riscv", Isa_riscv.Riscv.sources, 60_000., 40_000.);
  ]

let words_of f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. w0, r)

(* A token is an array slot and two offsets, outside the minor heap
   once a file has a few hundred tokens; what remains is an
   identifier's or a literal's payload. *)
let test_lex_words (isa, sources, _, _) () =
  let words, tokens =
    List.fold_left
      (fun (words, tokens) (s : Lis.Ast.source) ->
        let w, toks =
          words_of (fun () -> Lis.Lexer.lex ~file:s.src_name s.src_text)
        in
        (words +. w, tokens + Lis.Lexer.length toks))
      (0., 0) sources
  in
  let per_token = words /. float_of_int tokens in
  if per_token > 6. then
    Alcotest.failf "%s: lexing allocates %.1f minor words per token" isa
      per_token

(* Parsing builds the tree, and lexing's words count here too: no
   closure per precedence level, and a span without a search. *)
let test_parse_words (isa, sources, _, _) () =
  let tokens =
    List.fold_left
      (fun n (s : Lis.Ast.source) ->
        n + Lis.Lexer.length (Lis.Lexer.lex ~file:s.src_name s.src_text))
      0 sources
  in
  let words, _ = words_of (fun () -> Lis.Parser.parse_sources sources) in
  let per_token = words /. float_of_int tokens in
  if per_token > 15. then
    Alcotest.failf "%s: parsing allocates %.1f minor words per token" isa
      per_token

(* Table I's line count is one pass over each file's bytes. *)
let test_code_lines_words () =
  List.iter
    (fun (isa, sources, _, _) ->
      List.iter
        (fun (s : Lis.Ast.source) ->
          let w, _ = words_of (fun () -> Lis.Count.code_lines s.src_text) in
          if w > 0. then
            Alcotest.failf "%s: counting %s's code lines allocates %.0f words"
              isa s.src_name w)
        sources)
    descriptions

(* Loading a description from source, and the first interface made
   through a fresh cache, as every cold ledger cell does. *)
let test_cold_setup (isa, sources, load_bound, make_bound) () =
  let w, spec = words_of (fun () -> Lis.Sema.load sources) in
  if w > load_bound then
    Alcotest.failf "%s: Sema.load allocates %.0f minor words" isa w;
  let w, _ =
    words_of (fun () ->
        Specsim.Synth.make ~cache:(Specsim.Synth.cache spec) spec "block_min")
  in
  if w > make_bound then
    Alcotest.failf "%s: first make of block_min allocates %.0f minor words" isa
      w

let suite =
  List.map
    (fun ((name, _) as s) -> Alcotest.test_case name `Quick (test_shape s))
    shapes
  @ [
      Alcotest.test_case "block_min run: alpha" `Quick
        (test_block_run Workload.alpha);
      Alcotest.test_case "block_min run: riscv" `Quick
        (test_block_run Workload.riscv);
      Alcotest.test_case "one/step runs: alpha" `Quick
        (test_per_instr_run Workload.alpha);
      Alcotest.test_case "one/step runs: riscv" `Quick
        (test_per_instr_run Workload.riscv);
      Alcotest.test_case "one runs: alpha" `Quick (test_one_run Workload.alpha);
      Alcotest.test_case "one runs: riscv" `Quick (test_one_run Workload.riscv);
      Alcotest.test_case "observed runs: alpha" `Quick
        (test_observed_run Workload.alpha);
      Alcotest.test_case "observed runs: riscv" `Quick
        (test_observed_run Workload.riscv);
      Alcotest.test_case "cold make: alpha" `Quick
        (test_cold_make Workload.alpha 95_000.);
      Alcotest.test_case "cold make: arm" `Quick
        (test_cold_make Workload.arm 195_000.);
      Alcotest.test_case "cold make: riscv" `Quick
        (test_cold_make Workload.riscv 35_000.);
      Alcotest.test_case "timing calls" `Quick test_timing_calls;
      Alcotest.test_case "timing runs: alpha" `Quick
        (test_timing_runs Workload.alpha);
      Alcotest.test_case "timing runs: riscv" `Quick
        (test_timing_runs Workload.riscv);
    ]
  @ List.map
      (fun ((isa, _, _, _) as d) ->
        Alcotest.test_case ("lexing: " ^ isa) `Quick (test_lex_words d))
      descriptions
  @ List.map
      (fun ((isa, _, _, _) as d) ->
        Alcotest.test_case ("cold set-up: " ^ isa) `Quick (test_cold_setup d))
      descriptions
  @ List.map
      (fun ((isa, _, _, _) as d) ->
        Alcotest.test_case ("parse: " ^ isa) `Quick (test_parse_words d))
      descriptions
  @ [
      Alcotest.test_case "line statistics allocate nothing" `Quick
        test_code_lines_words;
    ]

(* ------------------------------------------------------------------ *)
(* Translation                                                         *)
(* ------------------------------------------------------------------ *)

(* Minor words {!Semir.Opt.optimize} allocates per site, over the paper
   kernels' sites with block_min's keep set: a site should cost about
   its output tree. The four-pass optimizer (encoding substitution,
   folding, propagation and DCE over [Set]/[Map] cell sets) read
   417 / 1770 / 536 / 406 words per site on alpha / arm / ppc / riscv;
   each bound is 60% of that. *)
let site_bounds =
  [
    (Workload.alpha, 250.);
    (Workload.arm, 1062.);
    (Workload.ppc, 322.);
    (Workload.riscv, 244.);
  ]

let test_site_words ((t : Workload.target), bound) () =
  let plan = Specsim.Plan.create (Lazy.force t.spec) in
  let { Specsim.Plan.chain_ir; _ } = Specsim.Plan.block_plan plan in
  let sites = Gen_common.image_sites plan t Gen_common.paper_kernels in
  let keep = Gen_common.site_keep plan "block_min" in
  let w, () =
    words_of (fun () ->
        List.iter
          (fun (idx, enc) ->
            let ir = chain_ir.(idx) in
            ignore (Sys.opaque_identity (Semir.Opt.optimize ~enc ~keep ir)))
          sites)
  in
  let per_site = w /. float_of_int (List.length sites) in
  if per_site > bound then
    Alcotest.failf "%s: translating a site allocates %.1f minor words" t.tname
      per_site

let suite =
  suite
  @ List.map
      (fun (((t : Workload.target), _) as b) ->
        Alcotest.test_case ("translate a site: " ^ t.tname) `Quick
          (test_site_words b))
      site_bounds

(* ------------------------------------------------------------------ *)
(* The fuzz oracle                                                     *)
(* ------------------------------------------------------------------ *)

(* Laying out a riscv program decodes each code word for its width with
   the decoder of the caller's synthesis cache: 80-110 minor words,
   where building a decoder costs about 2750. *)
let test_load_image_words () =
  let spec = Fuzz.Driver.spec_of_isa "riscv" in
  let cx = Fuzz.Gen.make_ctx ~isa:"riscv" spec in
  let decoder = Specsim.Synth.decoder (Specsim.Synth.cache spec) in
  for index = 0 to 3 do
    let tc = Fuzz.Gen.generate cx ~seed:42L ~index in
    let st = Lis.Spec.make_machine spec in
    let w, () =
      words_of (fun () -> Fuzz.Oracle.load_image spec decoder tc st)
    in
    if w > 400. then
      Alcotest.failf "riscv program %d: load_image allocates %.0f minor words"
        index w
  done

(* Per replayed unit, lockstep builds no tuple and boxes no record slot:
   what remains is the int64 pc and count the two machines store and,
   every 16 instructions, the memory compare. That is 10.75 minor
   words, where a tuple per unit and a boxed slot per record read made
   23.75. A tiny16 loop (add, store, branch back) at one_min, one
   unit per instruction, through one record: the words of a
   3072-instruction check less those of a 1024-instruction one. *)
let test_lockstep_words () =
  let spec = Fuzz.Driver.spec_of_isa "tiny" in
  let tc =
    {
      Fuzz.Gen.tc_isa = "tiny";
      tc_seed = 0L;
      tc_regs = [| (0, 2, 0x4000L) |];
      tc_mem = [||];
      tc_code =
        Fuzz.Tiny.
          [|
            addi ~ra:1 ~imm:1 ~rc:1; stw ~ra:2 ~rb:1 ~imm:0; beqz ~ra:7 ~off:(-3);
          |];
    }
  in
  let cache = Specsim.Synth.cache spec and record = Fuzz.Oracle.record () in
  let check max_instrs () =
    match
      Fuzz.Oracle.run_pair spec ~cache ~record
        { Fuzz.Oracle.default_config with max_instrs }
        tc ~buildset:"one_min"
    with
    | None -> ()
    | Some d -> Alcotest.failf "%s" (Fuzz.Oracle.pp_divergence d)
  in
  check 3072 ();
  let short, () = words_of (check 1024) in
  let long, () = words_of (check 3072) in
  let per_unit = (long -. short) /. 2048. in
  if per_unit > 12. then
    Alcotest.failf "lockstep allocates %.2f minor words per replayed unit"
      per_unit

let suite =
  suite
  @ [
      Alcotest.test_case "oracle load_image: riscv" `Quick test_load_image_words;
      Alcotest.test_case "lockstep per replayed unit" `Quick test_lockstep_words;
    ]

(* ------------------------------------------------------------------ *)
(* Fast-forward slices                                                 *)
(* ------------------------------------------------------------------ *)

(* [run_fast 1] on a One interface is one [run_one] on the engine's own
   record, so over the same 2,000 instructions of sort it allocates what
   [run_one] does per call. On step_all it is the DI-free flat walk,
   which stores no encoding or next-pc box in a record: at least 2.9
   words a call less than [run_one] (6.00 against 9.00 on alpha and
   riscv). The degradation ladder fast-forwards its step_all shadow in
   256-instruction slices, and [sync] one instruction at a time. *)
let test_run_fast_slices (t : Workload.target) () =
  List.iter
    (fun (bs, saved) ->
      let copy () = (Workload.load t ~buildset:bs sort.program).iface in
      let fast = copy () and one = copy () in
      let di = Specsim.Di.create ~info_slots:one.slots.di_size in
      let wf = words_per ~n:2000 (fun () -> ignore (fast.run_fast 1)) in
      let wo = words_per ~n:2000 (fun () -> one.run_one di) in
      Alcotest.(check int64) (bs ^ ": same instructions") one.st.instr_count
        fast.st.instr_count;
      let ok =
        if saved > 0. then wo -. wf >= saved else Float.abs (wf -. wo) <= 0.1
      in
      if not ok then
        Alcotest.failf
          "%s %s: run_fast 1 allocates %.2f minor words per call, run_one %.2f"
          t.tname bs wf wo)
    [ ("step_all", 2.9); ("one_all", 0.); ("one_all_spec", 0.) ]

(* ------------------------------------------------------------------ *)
(* Supervision                                                         *)
(* ------------------------------------------------------------------ *)

(* Three pages, each with its own bytes; [b] is a copy of [a], and
   [c] differs from [a] in the last byte of its last page. *)
let three_pages () =
  let fill m =
    List.iter
      (fun page ->
        let base = Int64.of_int (page * Machine.Memory.page_size) in
        for w = 0 to 15 do
          Machine.Memory.write m ~addr:(Int64.add base (Int64.of_int (8 * w)))
            ~width:8 (Int64.of_int ((page * 100) + w))
        done)
      [ 1; 4; 9 ]
  in
  let a = Machine.Memory.create Machine.Memory.Little
  and b = Machine.Memory.create Machine.Memory.Little
  and c = Machine.Memory.create Machine.Memory.Little in
  fill a;
  fill b;
  fill c;
  Machine.Memory.write c ~addr:(Int64.of_int ((10 * Machine.Memory.page_size) - 1))
    ~width:1 1L;
  (a, b, c)

(* The supervised runtime compares the two machines' memories at every
   verified slice, Timingfirst every 64 instructions and the oracle's
   lockstep every 16: a compare allocates nothing. *)
let test_equal_contents_words () =
  let a, b, c = three_pages () in
  Alcotest.(check bool) "equal" true (Machine.Memory.equal_contents a b);
  Alcotest.(check bool) "unequal" false (Machine.Memory.equal_contents a c);
  List.iter
    (fun (what, x, y) ->
      let w = words_per (fun () -> ignore (Machine.Memory.equal_contents x y)) in
      if w > 0. then
        Alcotest.failf "equal_contents on %s 3-page memories: %.2f minor words" what w)
    [ ("equal", a, b); ("unequal", a, c); ("unequal", c, a) ]

(* A degradation session saves its shadow at every verified slice into
   the buffer it saved into last, so a slice allocates no checkpoint in
   the major heap; a fresh 12.8 KB string per slice read about 1,600
   words. What remains is a new buffer when a page is added, and the
   pages themselves. *)
let test_supervised_major (t : Workload.target) () =
  let spec = Lazy.force t.spec in
  let load st = ignore (Workload.load_image t sort.program st) in
  let session = Super.Degrade.create ~spec ~buildset:"block_min" ~load () in
  let _, p0, m0 = Gc.counters () in
  let r = Super.Degrade.run ~budget:max_int session in
  let _, p1, m1 = Gc.counters () in
  let per_slice = (m1 -. m0 -. (p1 -. p0)) /. float_of_int r.r_slices in
  Alcotest.(check bool) "halted" true r.r_halted;
  if per_slice >= 100. then
    Alcotest.failf
      "%s: a supervised run allocates %.0f words directly in the major heap \
       per verified slice (%d slices)"
      t.tname per_slice r.r_slices

let suite =
  suite
  @ [ Alcotest.test_case "equal_contents allocates nothing" `Quick test_equal_contents_words ]
  @ List.map
      (fun (t : Workload.target) ->
        Alcotest.test_case ("supervised slices: " ^ t.tname) `Quick
          (test_supervised_major t))
      [ Workload.alpha; Workload.riscv ]

(* ------------------------------------------------------------------ *)
(* Warm synthesis                                                      *)
(* ------------------------------------------------------------------ *)

(* Hooked code reads the write hooks from its frame, so a cache shares
   journaled code as it shares plain code: a second [make] of a
   speculative buildset compiles nothing, and step_all_spec takes the
   hooked items of a step_all made with the caller's hooks, the order in
   which a campaign boots the oracle's reference and its candidates. *)
let test_warm_make (t : Workload.target) () =
  let spec = Lazy.force t.spec in
  let check what cache bs =
    let w, _ = words_of (fun () -> Specsim.Synth.make ~cache spec bs) in
    if w > 5_000. then
      Alcotest.failf "%s %s: make allocates %.0f minor words" t.tname what w
  in
  List.iter
    (fun bs ->
      let cache = Specsim.Synth.cache spec in
      ignore (Specsim.Synth.make ~cache spec bs);
      check ("second " ^ bs) cache bs)
    [ "step_all_spec"; "one_all_spec"; "block_decode_spec" ];
  let cache = Specsim.Synth.cache spec in
  let hooks =
    { Hooks.on_reg_write = (fun _ _ -> ()); on_store = (fun _ _ _ -> ()) }
  in
  ignore (Specsim.Synth.make ~cache ~hooks spec "step_all");
  check "step_all_spec after a hooked step_all" cache "step_all_spec"

let suite =
  suite
  @ List.map
      (fun (t : Workload.target) ->
        Alcotest.test_case ("run_fast slices: " ^ t.tname) `Quick
          (test_run_fast_slices t))
      [ Workload.alpha; Workload.riscv ]
  @ List.map
      (fun (t : Workload.target) ->
        Alcotest.test_case ("warm make: " ^ t.tname) `Quick (test_warm_make t))
      [ Workload.alpha; Workload.arm; Workload.riscv ]
