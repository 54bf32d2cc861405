(** End-to-end tests of the synthesizer on the demo ISA: every canonical
    interface must produce identical architectural results. *)

let spec () = Lazy.force Demo_isa.spec

(** Run [program] to completion under buildset [bs]; returns (exit status,
    os output, instructions retired). *)
let run_program ?(backend = Specsim.Synth.Compiled) ?cache ?(spec = spec ())
    ?(input = "") bs program =
  let iface = Specsim.Synth.make ~backend ?cache spec bs in
  let st = iface.st in
  let os = Machine.Os_emu.create ~input () in
  (match spec.abi with
  | Some abi -> Machine.Os_emu.install os abi st
  | None -> Alcotest.fail "demo ISA has no abi");
  Demo_isa.load_program st ~base:0x1000L program;
  let budget = 1_000_000 in
  let executed = Specsim.Iface.run_n iface budget in
  if executed >= budget then Alcotest.fail "program did not terminate";
  (Machine.State.exit_status st, Machine.Os_emu.output os, st.instr_count)

let all_buildsets () = Lis.Spec.buildset_names (spec ())

let check_sum_on bs () =
  let status, _, count = run_program bs Demo_isa.sum_program in
  Alcotest.(check (option int)) "exit status" (Some 55) status;
  Alcotest.(check bool) "retired some instructions" true (Int64.to_int count > 20)

let test_all_buildsets_agree () =
  let results =
    List.map (fun bs -> (bs, run_program bs Demo_isa.sum_program)) (all_buildsets ())
  in
  match results with
  | [] -> Alcotest.fail "no buildsets"
  | (_, r0) :: rest ->
    List.iter
      (fun (bs, r) ->
        Alcotest.(check (triple (option int) string int64))
          (Printf.sprintf "buildset %s matches" bs)
          r0 r)
      rest

let test_interpreted_matches_compiled () =
  let a = run_program ~backend:Specsim.Synth.Compiled "one_all" Demo_isa.sum_program in
  let b =
    run_program ~backend:Specsim.Synth.Interpreted "one_all" Demo_isa.sum_program
  in
  Alcotest.(check (triple (option int) string int64)) "backends agree" a b

(** Memory round-trip through the simulated ISA. *)
let memory_program =
  Demo_isa.
    [
      addi ~ra:31 ~imm:0x2000 ~rc:4 (* r4 = buffer *);
      addi ~ra:31 ~imm:1234 ~rc:5;
      stq ~ra:4 ~imm:8 ~rb:5 (* mem[r4+8] = 1234 *);
      ldq ~ra:4 ~imm:8 ~rc:6 (* r6 = mem[r4+8] *);
      addi ~ra:31 ~imm:0 ~rc:0;
      add ~ra:6 ~rb:31 ~rc:1 (* exit(r6) *);
      sys;
    ]

let check_memory_on bs () =
  let status, _, _ = run_program bs memory_program in
  Alcotest.(check (option int)) "exit status" (Some 1234) status

(** Step interface consumed call-by-call, like a timing-directed model. *)
let test_step_interface () =
  let spec = spec () in
  let iface = Specsim.Synth.make spec "step_all" in
  let st = iface.st in
  let os = Machine.Os_emu.create () in
  (match spec.abi with Some abi -> Machine.Os_emu.install os abi st | None -> ());
  Demo_isa.load_program st ~base:0x1000L Demo_isa.sum_program;
  let n_eps = Specsim.Iface.n_entrypoints iface in
  Alcotest.(check int) "seven entrypoints" 7 n_eps;
  let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
  let steps = ref 0 in
  while (not st.halted) && !steps < 10_000 do
    di.pc <- st.pc;
    di.instr_index <- -1;
    di.fault <- None;
    let k = ref 0 in
    while !k < n_eps && not st.halted do
      iface.step di !k;
      incr k
    done;
    if not st.halted then iface.retire di;
    incr steps
  done;
  Alcotest.(check (option int)) "exit status" (Some 55) (Machine.State.exit_status st)

(** Visible DI information: effective address shows up at Decode detail. *)
let test_decode_info_visible () =
  let spec = spec () in
  let iface = Specsim.Synth.make spec "one_decode" in
  let st = iface.st in
  Demo_isa.load_program st ~base:0x1000L memory_program;
  let ea_slot = Specsim.Iface.slot_of_exn iface "effective_addr" in
  let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
  (* run up to and including the STQ (3rd instruction) *)
  iface.run_one di;
  iface.run_one di;
  iface.run_one di;
  Alcotest.(check int64) "effective address" 0x2008L (Specsim.Di.get di ea_slot);
  (* operand values are NOT visible at Decode detail *)
  Alcotest.(check (option int)) "rb hidden" None (Specsim.Iface.slot_of iface "rb")

let test_min_hides_everything () =
  let spec = spec () in
  let iface = Specsim.Synth.make spec "one_min" in
  Alcotest.(check (option int)) "ea hidden" None (Specsim.Iface.slot_of iface "effective_addr");
  Alcotest.(check (option int)) "ra hidden" None (Specsim.Iface.slot_of iface "ra_id");
  Alcotest.(check int) "empty DI info" 0 iface.slots.di_size

let test_all_shows_everything () =
  let spec = spec () in
  let iface = Specsim.Synth.make spec "one_all" in
  Alcotest.(check bool) "ea visible" true (Specsim.Iface.slot_of iface "effective_addr" <> None);
  Alcotest.(check bool) "alu_out visible" true (Specsim.Iface.slot_of iface "alu_out" <> None);
  Alcotest.(check int) "all cells have slots" (Lis.Spec.n_cells spec)
    iface.slots.di_size

(** Speculative interfaces can undo instructions. *)
let test_rollback () =
  let spec = spec () in
  let iface = Specsim.Synth.make spec "one_all_spec" in
  let st = iface.st in
  Demo_isa.load_program st ~base:0x1000L memory_program;
  let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
  iface.run_one di (* r4 = 0x2000 *);
  let before = Machine.State.snapshot st in
  iface.run_one di (* r5 = 1234 *);
  iface.run_one di (* store *);
  Alcotest.(check int64) "store happened" 1234L
    (Machine.Memory.read st.mem ~addr:0x2008L ~width:8);
  Specsim.Iface.rollback_di iface { di with ckpt = di.ckpt - 1 };
  Alcotest.(check bool) "state restored" true (Machine.State.matches_snapshot st before);
  Alcotest.(check int64) "store undone" 0L
    (Machine.Memory.read st.mem ~addr:0x2008L ~width:8)

(** Hidden-crossing buildsets are rejected at synthesis time. *)
let test_liveness_rejection () =
  let bad_buildset =
    {|
buildset step_min_bad {
  speculation off;
  visibility min;
  entrypoint f = fetch;
  entrypoint d = decode;
  entrypoint r = read_operands;
  entrypoint x = address, evaluate;
  entrypoint m = memory;
  entrypoint w = writeback;
  entrypoint e = exception;
}
|}
  in
  let sources =
    Demo_isa.sources
    @ [
        {
          Lis.Ast.src_role = Lis.Ast.Buildset_file;
          src_name = "bad.lis";
          src_text = bad_buildset;
        };
      ]
  in
  let spec = Lis.Sema.load sources in
  (match Specsim.Synth.make spec "step_min_bad" with
  | exception Specsim.Synth.Synth_error msg ->
    Alcotest.(check bool)
      "mentions a crossing cell" true
      (let contains s sub =
         let n = String.length sub in
         let rec go i =
           i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
         in
         go 0
       in
       contains msg "ra")
  | _ -> Alcotest.fail "expected Synth_error");
  (* ...but the same buildset synthesizes with the escape hatch *)
  ignore (Specsim.Synth.make ~allow_hidden_crossing:true spec "step_min_bad")

(** A plan shares the liveness verdict and the per-segment IR between
    buildsets of one shape: the same entrypoints and the same
    visibility. step_all's entrypoints at Min visibility hide cells that
    cross them, so through a cache that planned step_all first that
    buildset must still be rejected, on every [make]; step_all_spec,
    which differs from step_all only in speculation, shares its shape. *)
let test_liveness_shared_shape () =
  let step_min =
    Specsim.Detail.to_lis
      { semantic = Step; informational = Min; speculation = false }
  in
  let spec =
    Lis.Sema.load
      (Demo_isa.sources
      @ [
          {
            Lis.Ast.src_role = Lis.Ast.Buildset_file;
            src_name = "step_min.lis";
            src_text = step_min;
          };
        ])
  in
  let cache = Specsim.Synth.cache spec in
  ignore (Specsim.Synth.make ~cache spec "step_all");
  for attempt = 1 to 2 do
    match Specsim.Synth.make ~cache spec "step_min" with
    | exception Specsim.Synth.Synth_error _ -> ()
    | _ -> Alcotest.failf "make %d of step_min: expected Synth_error" attempt
  done;
  let status, _, _ =
    run_program ~cache ~spec "step_all_spec" Demo_isa.sum_program
  in
  Alcotest.(check (option int)) "step_all_spec exit status" (Some 55) status

(** The block cache actually caches. *)
let test_block_cache () =
  let spec = spec () in
  let iface = Specsim.Synth.make spec "block_min" in
  let st = iface.st in
  let os = Machine.Os_emu.create () in
  (match spec.abi with Some abi -> Machine.Os_emu.install os abi st | None -> ());
  Demo_isa.load_program st ~base:0x1000L Demo_isa.sum_program;
  let _ = Specsim.Iface.run_n iface 1_000_000 in
  Alcotest.(check (option int)) "exit" (Some 55) (Machine.State.exit_status st);
  Alcotest.(check bool) "few blocks compiled" true (iface.stats.blocks_compiled <= 8);
  Alcotest.(check bool) "cache hits dominate" true
    (iface.stats.block_hits > iface.stats.blocks_compiled)

(* [run_block] counts retired instructions only. Alpha's all-zero word
   is [call_pal 0], which halts without a fault and retires nothing, so
   [addl_lit r1,1,r1; 0] retires one instruction in every call style
   [run_block] batches it in. *)
let test_run_block_counts_retired () =
  let spec = Lazy.force Isa_alpha.Alpha.spec in
  List.iter
    (fun bs ->
      let iface = Specsim.Synth.make spec bs in
      let st = iface.st in
      List.iteri
        (fun i w ->
          Machine.Memory.write st.mem
            ~addr:(Int64.add 0x1000L (Int64.of_int (4 * i)))
            ~width:4 w)
        [ Isa_alpha.Alpha_asm.addl_lit ~ra:1 ~lit:1 ~rc:1; 0L ];
      Machine.State.reset st ~pc:0x1000L;
      let counted = ref 0 and calls = ref 0 in
      while (not st.halted) && !calls < 10 do
        let _, n = iface.run_block () in
        counted := !counted + n;
        incr calls
      done;
      Alcotest.(check bool) (bs ^ ": halted without a fault") true
        (st.halted && st.fault = None);
      Alcotest.(check int64) (bs ^ ": retired") 1L st.instr_count;
      Alcotest.(check int) (bs ^ ": run_block counts") 1 !counted)
    [ "block_min"; "one_min"; "one_all_spec"; "step_all" ]

let suite =
  let bs_cases =
    List.concat_map
      (fun bs ->
        [
          Alcotest.test_case (Printf.sprintf "sum on %s" bs) `Quick (check_sum_on bs);
          Alcotest.test_case
            (Printf.sprintf "memory on %s" bs)
            `Quick (check_memory_on bs);
        ])
      (all_buildsets ())
  in
  bs_cases
  @ [
      Alcotest.test_case "all buildsets agree" `Quick test_all_buildsets_agree;
      Alcotest.test_case "interpreted = compiled" `Quick test_interpreted_matches_compiled;
      Alcotest.test_case "step interface" `Quick test_step_interface;
      Alcotest.test_case "decode info visible" `Quick test_decode_info_visible;
      Alcotest.test_case "min hides everything" `Quick test_min_hides_everything;
      Alcotest.test_case "all shows everything" `Quick test_all_shows_everything;
      Alcotest.test_case "rollback" `Quick test_rollback;
      Alcotest.test_case "liveness rejection" `Quick test_liveness_rejection;
      Alcotest.test_case "liveness through a shared shape" `Quick
        test_liveness_shared_shape;
      Alcotest.test_case "block cache" `Quick test_block_cache;
      Alcotest.test_case "run_block counts only retired instructions" `Quick
        test_run_block_counts_retired;
    ]
