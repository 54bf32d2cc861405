(** SemIR: the closure compiler is property-tested against the reference
    interpreter, and every optimization pass must preserve semantics. *)

open Semir

let n_cells = 4
let n_classes = 2

(* A 64-bit class with a hardwired zero and a 32-bit class of five
   registers: masked and bounds-checked register indexing both run. *)
let classes =
  [
    { Machine.Regfile.cname = "R"; count = 8; width = 64; hardwired_zero = Some 7 };
    { Machine.Regfile.cname = "C"; count = 5; width = 32; hardwired_zero = None };
  ]

(* ------------------------------------------------------------------ *)
(* Random IR generation                                                *)
(* ------------------------------------------------------------------ *)

let gen_binop =
  QCheck.Gen.oneofl
    Ir.
      [
        Add; Sub; Mul; Mulhs; Mulhu; Divs; Divu; Rems; Remu; And; Or; Xor; Shl; Lshr; Ashr;
        Ror; Eq; Ne; Lts; Ltu; Les; Leu;
      ]

let gen_unop =
  QCheck.Gen.(
    oneof
      [
        return Ir.Neg;
        return Ir.Not;
        return Ir.Bool_not;
        map (fun n -> Ir.Sext (1 + (n mod 64))) nat;
        map (fun n -> Ir.Zext (1 + (n mod 64))) nat;
        return Ir.Popcount;
        return Ir.Clz;
        return Ir.Ctz;
      ])

let gen_width = QCheck.Gen.oneofl Ir.[ W1; W2; W4; W8 ]

(* Register indices: class R is masked; class C (five registers) gets an
   in-range index, or with [~wild] sometimes one that may be out of range
   (both backends must then raise the same error; the optimizer may drop
   a dead out-of-range read, so its properties run without). *)
let gen_reg_index ~wild sub =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> (0, Ir.Bin (And, i, Const 7L))) sub);
        (2, map (fun i -> (1, Ir.Bin (Remu, i, Const 5L))) sub);
        ((if wild then 1 else 0), map (fun i -> (1, Ir.Bin (And, i, Const 7L))) sub);
        (2, map (fun i -> (0, Ir.Const (Int64.of_int (i mod 8)))) nat);
        (2, map (fun i -> (1, Ir.Const (Int64.of_int (i mod 5)))) nat);
      ])

(* Addresses: an aligned low window, or a window straddling the page
   boundary at 0x1000 (misaligned, page-crossing accesses). *)
let gen_addr sub =
  QCheck.Gen.(
    oneof
      [
        map (fun a -> Ir.Bin (And, a, Const 0xF8L)) sub;
        map (fun a -> Ir.Bin (Add, Bin (And, a, Const 0x1FL), Const 0xFF0L)) sub;
      ])

let rec gen_expr ~wild depth =
  let open QCheck.Gen in
  let leaves =
    [
      map (fun v -> Ir.Const (Int64.of_int v)) int;
      map (fun c -> Ir.Cell (c mod n_cells)) nat;
      return Ir.Pc;
      return Ir.Next_pc;
      map
        (fun (lo, len) ->
          let lo = lo mod 60 and len = 1 + (len mod 4) in
          Ir.Enc { lo; len; signed = len mod 2 = 0 })
        (pair nat nat);
    ]
  in
  if depth <= 0 then oneof leaves
  else
    let sub = gen_expr ~wild (depth - 1) in
    oneof
      (leaves
      @ [
          map3 (fun op a b -> Ir.Bin (op, a, b)) gen_binop sub sub;
          map2 (fun op a -> Ir.Un (op, a)) gen_unop sub;
          map3 (fun c a b -> Ir.Ite (c, a, b)) sub sub sub;
          map3
            (fun width signed addr -> Ir.Load { width; signed; addr })
            gen_width bool (gen_addr sub);
          map
            (fun (cls, index) -> Ir.Reg_read { cls; index })
            (gen_reg_index ~wild sub);
        ])

let rec gen_stmt ~wild depth =
  let open QCheck.Gen in
  let e = gen_expr ~wild 2 in
  let base =
    [
      map2 (fun c v -> Ir.Set_cell (c mod n_cells, v)) nat e;
      map3
        (fun width addr value -> Ir.Store { width; addr; value })
        gen_width (gen_addr e) e;
      map (fun v -> Ir.Set_next_pc v) e;
      map2
        (fun (cls, index) value -> Ir.Reg_write { cls; index; value })
        (gen_reg_index ~wild e) e;
    ]
  in
  if depth <= 0 then oneof base
  else
    oneof
      (map3
         (fun c t f -> Ir.If (c, t, f))
         e
         (list_size (int_bound 3) (gen_stmt ~wild (depth - 1)))
         (list_size (int_bound 3) (gen_stmt ~wild (depth - 1)))
      :: base)

let gen_program ~wild = QCheck.Gen.(list_size (int_bound 8) (gen_stmt ~wild 2))

let arb_program =
  QCheck.make (gen_program ~wild:false)
    ~print:(Format.asprintf "%a" (Ir.pp_program ?cell_name:None))

(* ------------------------------------------------------------------ *)
(* Execution harness                                                   *)
(* ------------------------------------------------------------------ *)

type mode = Interp | Compiled

(* How a program is compiled and where its cells live. *)
type config = {
  layout : bool;  (** compile against the register-file layout *)
  fast : bool;  (** per-site page caches *)
  big : bool;  (** big-endian memory *)
  visible : int;  (** bit [c]: cell [c] lives in the DI slots *)
}

let default_config = { layout = false; fast = false; big = false; visible = 0 }

let loc_of cfg =
  let di = ref 0 and scratch = ref 0 in
  Array.init n_cells (fun c ->
      if cfg.visible land (1 lsl c) <> 0 then (
        incr di;
        Frame.In_di (!di - 1))
      else (
        incr scratch;
        Frame.In_scratch (!scratch - 1)))

let gen_config =
  QCheck.Gen.(
    map2
      (fun (layout, fast, big) visible -> { layout; fast; big; visible })
      (triple bool bool bool) (int_bound 15))

let print_config c =
  Printf.sprintf "{layout=%b; fast=%b; big=%b; visible=0x%x}" c.layout c.fast
    c.big c.visible

let fresh_state ?(big = false) seed =
  let endian = if big then Machine.Memory.Big else Machine.Memory.Little in
  let st = Machine.State.create ~endian classes in
  for cls = 0 to n_classes - 1 do
    let count = (Machine.Regfile.class_def st.regs cls).count in
    for i = 0 to count - 1 do
      Machine.Regfile.write st.regs ~cls ~idx:i
        (Int64.of_int ((seed * 31) + (i * 1234567) + cls))
    done
  done;
  for i = 0 to 0x1100 / 8 do
    Machine.Memory.write st.mem
      ~addr:(Int64.of_int (i * 8))
      ~width:8
      (Int64.of_int ((seed * 7) + (i * 987654321)))
  done;
  st

let fresh_frame ?(loc = loc_of default_config) seed =
  let fr = Frame.create ~di_slots:n_cells ~scratch_slots:n_cells in
  let pc = Int64.of_int (4096 + (seed mod 64 * 4)) in
  Frame.set_pc fr pc;
  Frame.set_next_pc fr (Int64.add pc 4L);
  Frame.set_enc fr (Int64.of_int (seed * 2654435761));
  Array.iteri
    (fun i l -> Frame.write fr l (Int64.of_int ((seed * 13) + (i * 55555))))
    loc;
  fr

(* Runs [p] [passes] times; a second pass hits the page caches the first
   one filled. (Optimizer properties run one pass: a second would read
   cells that DCE legitimately left unwritten.) *)
let exec ?hooks ?(passes = 1) mode cfg p st fr =
  let loc = loc_of cfg in
  let once =
    match mode with
    | Interp -> fun () -> Eval.exec ?hooks ~loc st fr p
    | Compiled ->
      let layout = if cfg.layout then Some st.Machine.State.regs else None in
      let code = Compile.program ?hooks ?layout ~mem_fast_path:cfg.fast ~loc p in
      fun () -> code st fr
  in
  for _ = 1 to passes do
    once ()
  done

let run mode ?(cfg = default_config) ?passes p seed =
  let st = fresh_state ~big:cfg.big seed in
  let fr = fresh_frame ~loc:(loc_of cfg) seed in
  exec ?passes mode cfg p st fr;
  (st, fr)

let regs_of (st : Machine.State.t) =
  List.concat_map
    (fun cls ->
      List.init (Machine.Regfile.class_def st.regs cls).count (fun i ->
          Machine.Regfile.read st.regs ~cls ~idx:i))
    (List.init n_classes Fun.id)

let observe_full ?(cfg = default_config) (st, (fr : Frame.t)) =
  let cells = Array.to_list (Array.map (Frame.read fr) (loc_of cfg)) in
  (regs_of st, Machine.Memory.digest st.Machine.State.mem, cells, Frame.next_pc fr)

let observe_arch (st, (fr : Frame.t)) =
  (* architectural state only: what DCE must preserve *)
  (regs_of st, Machine.Memory.digest st.Machine.State.mem, Frame.next_pc fr)

(* A run's outcome, or the error both backends must agree on. *)
let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let arb_case =
  QCheck.make
    ~print:(fun (p, seed, cfg) ->
      Printf.sprintf "%s\nseed %d, %s"
        (Format.asprintf "%a" (Ir.pp_program ?cell_name:None) p)
        seed (print_config cfg))
    QCheck.Gen.(triple (gen_program ~wild:true) small_nat gen_config)

(* Under every compile configuration: layout on and off, page caches on
   and off, either byte order, DI and scratch cells mixed. *)
let prop_compile_matches_eval =
  QCheck.Test.make ~name:"compiled closures = reference interpreter" ~count:500
    arb_case
    (fun (p, seed, cfg) ->
      outcome (fun () -> observe_full ~cfg (run Interp ~cfg ~passes:2 p seed))
      = outcome (fun () ->
            observe_full ~cfg (run Compiled ~cfg ~passes:2 p seed)))

(* Compiled with journal hooks, a program matches the hooked reference,
   and rolling the journal back restores the starting registers and
   memory. *)
let prop_journal_rolls_back =
  QCheck.Test.make ~name:"compiled journal hooks roll back to the start"
    ~count:300 arb_case
    (fun (p, seed, cfg) ->
      let journaled mode =
        let st = fresh_state ~big:cfg.big seed in
        let fr = fresh_frame ~loc:(loc_of cfg) seed in
        let j = Specsim.Specul.create () in
        let tok = Specsim.Specul.checkpoint j st in
        outcome (fun () ->
            exec ~hooks:(Specsim.Specul.hooks j) ~passes:2 mode cfg p st fr;
            let after = observe_full ~cfg (st, fr) in
            Specsim.Specul.rollback j st tok;
            (after, regs_of st, Machine.Memory.digest st.mem))
      in
      let start = fresh_state ~big:cfg.big seed in
      match (journaled Interp, journaled Compiled) with
      | Ok (ai, ri, mi), Ok (ac, rc, mc) ->
        ai = ac && ri = rc && mi = mc && rc = regs_of start
        && Int64.equal mc (Machine.Memory.digest start.mem)
      | ei, ec -> Result.is_error ei && Result.is_error ec && ei = ec)

let prop_fold_preserves =
  QCheck.Test.make ~name:"constant folding preserves semantics" ~count:300
    QCheck.(pair arb_program small_nat)
    (fun (p, seed) ->
      observe_full (run Compiled p seed)
      = observe_full (run Compiled (Opt.fold p) seed))

let prop_const_prop_preserves =
  QCheck.Test.make ~name:"constant propagation preserves semantics" ~count:300
    QCheck.(pair arb_program small_nat)
    (fun (p, seed) ->
      observe_full (run Compiled p seed)
      = observe_full (run Compiled (Opt.const_prop p) seed))

let prop_dce_preserves_arch =
  QCheck.Test.make ~name:"DCE preserves architectural state" ~count:300
    QCheck.(pair arb_program small_nat)
    (fun (p, seed) ->
      let dced = Opt.dce ~keep:(fun _ -> false) p in
      observe_arch (run Compiled p seed) = observe_arch (run Compiled dced seed))

let prop_specialize_enc =
  QCheck.Test.make ~name:"encoding specialization preserves semantics"
    ~count:300
    QCheck.(pair arb_program small_nat)
    (fun (p, seed) ->
      let fr = fresh_frame seed in
      let sp = Opt.specialize_enc ~enc:(Frame.enc fr) p in
      observe_full (run Compiled p seed) = observe_full (run Compiled sp seed))

let prop_full_pipeline =
  QCheck.Test.make ~name:"optimize pipeline preserves architectural state"
    ~count:300
    QCheck.(pair arb_program small_nat)
    (fun (p, seed) ->
      let fr = fresh_frame seed in
      let opt = Opt.optimize ~enc:(Frame.enc fr) ~keep:(fun _ -> false) p in
      observe_arch (run Compiled p seed) = observe_arch (run Compiled opt seed))

(* ------------------------------------------------------------------ *)
(* Unit tests for scalar semantics                                     *)
(* ------------------------------------------------------------------ *)

let test_value_ops () =
  Alcotest.(check int64) "sext byte" (-1L) (Value.sext 0xFFL 8);
  Alcotest.(check int64) "sext positive" 0x7FL (Value.sext 0x7FL 8);
  Alcotest.(check int64) "zext" 0xFFL (Value.zext 0xFFFFFFFFFFFFFFFFL 8);
  Alcotest.(check int64) "ror" 0x8000000000000000L (Value.ror 1L 1);
  Alcotest.(check int64) "ror wrap" 1L (Value.ror 1L 64);
  Alcotest.(check int64) "popcount" 3L (Value.popcount 0b10101L);
  Alcotest.(check int64) "clz of 1" 63L (Value.clz 1L);
  Alcotest.(check int64) "clz of 0" 64L (Value.clz 0L);
  Alcotest.(check int64) "ctz" 3L (Value.ctz 8L);
  Alcotest.(check int64) "div by zero" 0L (Value.divs 5L 0L);
  Alcotest.(check int64) "min_int / -1" Int64.min_int (Value.divs Int64.min_int (-1L));
  Alcotest.(check int64) "unsigned div" 2L (Value.divu (-1L) 0x7FFFFFFFFFFFFFFFL)

let test_enc_bits () =
  let enc = 0xABCD1234L in
  Alcotest.(check int64) "low bits" 4L (Value.enc_bits enc ~lo:0 ~len:4 ~signed:false);
  Alcotest.(check int64) "mid bits" 0xCDL
    (Value.enc_bits enc ~lo:16 ~len:8 ~signed:false);
  Alcotest.(check int64) "signed bits" (-2L)
    (Value.enc_bits 0xEL ~lo:0 ~len:4 ~signed:true)

let test_validate () =
  (match Ir.validate ~n_cells:2 ~n_classes:1 [ Ir.Set_cell (5, Const 0L) ] with
  | exception Ir.Invalid _ -> ()
  | () -> Alcotest.fail "expected Invalid");
  match
    Ir.validate ~n_cells:2 ~n_classes:1
      [ Ir.Reg_write { cls = 3; index = Const 0L; value = Const 0L } ]
  with
  | exception Ir.Invalid _ -> ()
  | () -> Alcotest.fail "expected Invalid"

let test_dce_keeps_side_effects () =
  (* A dead cell assignment is removed, a store never is. *)
  let p =
    Ir.
      [
        Set_cell (0, Const 1L);
        Store { width = W8; addr = Const 0L; value = Const 42L };
      ]
  in
  let d = Opt.dce ~keep:(fun _ -> false) p in
  Alcotest.(check int) "only the store survives" 1 (List.length d)

let test_dce_keeps_visible () =
  let p = Ir.[ Set_cell (0, Const 1L); Set_cell (1, Const 2L) ] in
  let d = Opt.dce ~keep:(fun c -> c = 1) p in
  Alcotest.(check int) "one assignment survives" 1 (List.length d)

let test_dce_chain () =
  (* c0 feeds c1 feeds a store: everything live. *)
  let p =
    Ir.
      [
        Set_cell (0, Const 7L);
        Set_cell (1, Bin (Add, Cell 0, Const 1L));
        Store { width = W8; addr = Const 0L; value = Cell 1 };
      ]
  in
  let d = Opt.dce ~keep:(fun _ -> false) p in
  Alcotest.(check int) "chain kept" 3 (List.length d)

let test_const_prop_folds_regid () =
  (* The block-specialization pattern: decode writes a constant id cell,
     operand read indexes a register with it. *)
  let p =
    Ir.
      [
        Set_cell (0, Const 5L);
        Set_cell (1, Reg_read { cls = 0; index = Cell 0 });
      ]
  in
  match Opt.const_prop p with
  | [ _; Ir.Set_cell (1, Reg_read { index = Const 5L; _ }) ] -> ()
  | p' ->
    Alcotest.failf "register index not propagated: %a"
      (Ir.pp_program ?cell_name:None)
      p'

let suite =
  [
    Alcotest.test_case "scalar ops" `Quick test_value_ops;
    Alcotest.test_case "encoding bitfields" `Quick test_enc_bits;
    Alcotest.test_case "validate rejects bad IR" `Quick test_validate;
    Alcotest.test_case "DCE keeps side effects" `Quick test_dce_keeps_side_effects;
    Alcotest.test_case "DCE keeps visible cells" `Quick test_dce_keeps_visible;
    Alcotest.test_case "DCE keeps live chains" `Quick test_dce_chain;
    Alcotest.test_case "const-prop folds register ids" `Quick test_const_prop_folds_regid;
    QCheck_alcotest.to_alcotest prop_compile_matches_eval;
    QCheck_alcotest.to_alcotest prop_journal_rolls_back;
    QCheck_alcotest.to_alcotest prop_fold_preserves;
    QCheck_alcotest.to_alcotest prop_const_prop_preserves;
    QCheck_alcotest.to_alcotest prop_dce_preserves_arch;
    QCheck_alcotest.to_alcotest prop_specialize_enc;
    QCheck_alcotest.to_alcotest prop_full_pipeline;
  ]
