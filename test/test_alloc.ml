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
  let fr = Frame.create ~di_slots:2 ~scratch_slots:2 in
  Frame.set_pc fr 0x1000L;
  Frame.set_next_pc fr 0x1004L;
  Frame.set_enc fr 0x2C5F_0123L;
  let code = Compile.program ~layout:st.regs ~mem_fast_path:true ~loc p in
  let w = words_per (fun () -> code st fr) in
  if w > 0.01 then Alcotest.failf "%s: %.2f minor words per execution" name w

(* ------------------------------------------------------------------ *)
(* The block engine                                                    *)
(* ------------------------------------------------------------------ *)

(* Minor words per instruction of a block_min run whose blocks are all
   translated: run the kernel once, reload the same image (clearing
   memory first, so the rewrite does not invalidate the cached blocks)
   and measure the second run, driven as the ledger's Block cells are. *)
let block_words (t : Workload.target) (k : Vir.Kernels.sized) =
  let l = Workload.load t ~buildset:"block_min" k.program in
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
   [step] per entrypoint plus [retire]. What remains is the accepted
   floor: boxing the DI record's new encoding and next pc, and
   [st.instr_count] — three boxes, nine words. *)
let per_instr_words (t : Workload.target) (k : Vir.Kernels.sized) bs =
  let l = Workload.load t ~buildset:bs k.program in
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

let test_block_run t () =
  let w = block_words t sort in
  if w >= 3.0 then
    Alcotest.failf "%s block_min: %.2f minor words per instruction" t.tname w

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
    ]
