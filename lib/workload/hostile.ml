(** Hostile workloads: kernels built to stress the interface machinery
    itself rather than the ALU.

    The benchmark kernels in {!Vir.Kernels} reproduce the paper's SPEC-like
    instruction mixes; these four instead attack the block engine's
    assumptions, the way real "bad" programs do:

    - [gc_chase]       pointer chasing that *mutates* the heap as it walks
                       it (GC-style mark phase): dependent loads plus
                       read-modify-write traffic on the same lines;
    - [interp]         a threaded interpreter whose one indirect-jump
                       dispatch site is megamorphic — it defeats the
                       bi-morphic successor cache, so block-mode chain hit
                       rates collapse;
    - [syscall_storm]  one emulated-OS call every few instructions: blocks
                       stay short and every one ends in the slow path;
    - [trampoline]     self-modifying code: position-independent snippets
                       are byte-copied into a scratch region and executed,
                       alternating between two bodies, so translated
                       blocks must be invalidated every round.

    The first three agree with the VIR reference executor. [trampoline]
    cannot (the reference's [La] values are instruction indices, so
    copied "code" is meaningless there); it carries an analytic expected
    exit status instead and is validated by cross-interface agreement. *)

open Vir.Lang

type kernel = {
  hname : string;
  program : program;
  reference_safe : bool;
      (** may be run under {!Vir.Lang.run}; [trampoline] may not *)
  expected_exit : int option;
      (** analytic exit status for kernels the reference cannot run *)
}

let data_base = Vir.Kernels.data_base

(* ------------------------------------------------------------------ *)
(* GC-like mutating pointer chase                                      *)
(* ------------------------------------------------------------------ *)

(** [n] 16-byte nodes (next, payload, mark, pad) permuted by a stride
    co-prime to [n]; [steps] dependent loads, each bumping the visited
    node's mark word — a mark phase over a scrambled heap. *)
let gc_chase ~n ~steps =
  [
    Li (8, data_base);
    Li (9, Int32.of_int n);
    Li (10, 0l) (* i *);
    Label "build";
    (* j = (i*7 + 3) mod n, by repeated subtraction *)
    Shli (11, 10, 3);
    Sub (11, 11, 10);
    Addi (11, 11, 3) (* 8i - i + 3 = 7i + 3 *);
    Label "mod";
    Bcond (Lt, 11, 9, "modok");
    Sub (11, 11, 9);
    Jmp "mod";
    Label "modok";
    (* node i at base + 16*i; next = base + 16*j *)
    Shli (12, 10, 4);
    Add (12, 12, 8);
    Shli (13, 11, 4);
    Add (13, 13, 8);
    Stw (13, 12, 0);
    (* payload = i ^ 0xA5A5; mark = 0 *)
    Li (14, 0xA5A5l);
    Xor_ (14, 14, 10);
    Stw (14, 12, 4);
    Li (14, 0l);
    Stw (14, 12, 8);
    Addi (10, 10, 1);
    Bcond (Ne, 10, 9, "build");
    (* mark-and-chase *)
    Li (4, 0l);
    Mv (6, 8);
    Li (10, Int32.of_int steps);
    Li (11, 0l);
    Label "chase";
    Ldw (12, 6, 4) (* payload *);
    Add (4, 4, 12);
    Ldw (12, 6, 8) (* mark++ — the heap mutates under the walk *);
    Addi (12, 12, 1);
    Stw (12, 6, 8);
    Add (4, 4, 12);
    Ldw (6, 6, 0) (* follow next *);
    Addi (11, 11, 1);
    Bcond (Ne, 11, 10, "chase");
  ]
  @ Vir.Kernels.epilogue

(* ------------------------------------------------------------------ *)
(* Threaded interpreter                                                *)
(* ------------------------------------------------------------------ *)

(** A bytecode program of [prog_len] opcodes (0..3), dispatched [rounds]
    times through a handler table built with [La] and jumped through with
    [Jr]. The single dispatch site rotates through four targets — a
    megamorphic indirect jump, the worst case for two-way block
    chaining. *)
let interp ~prog_len ~rounds =
  let table = Int32.add data_base (Int32.of_int (prog_len + 256)) in
  [
    (* fill bytecode: op(i) = (i*13 + 5) & 3 *)
    Li (8, data_base);
    Li (9, Int32.of_int prog_len);
    Li (10, 0l);
    Label "fill";
    Li (12, 13l);
    Mul (11, 10, 12);
    Addi (11, 11, 5);
    Andi (11, 11, 3);
    Stb (11, 8, 0);
    Addi (8, 8, 1);
    Addi (10, 10, 1);
    Bcond (Ne, 10, 9, "fill");
    (* handler table: four code addresses, stored then loaded opaquely *)
    Li (6, table);
    La (7, "op0");
    Stw (7, 6, 0);
    La (7, "op1");
    Stw (7, 6, 4);
    La (7, "op2");
    Stw (7, 6, 8);
    La (7, "op3");
    Stw (7, 6, 12);
    Li (4, 0l) (* vm accumulator / checksum *);
    Li (13, Int32.of_int rounds);
    Li (14, 0l) (* round *);
    Label "round";
    Li (8, data_base);
    Li (10, 0l) (* vm pc *);
    Label "fetch";
    Add (5, 8, 10);
    Ldb (11, 5, 0);
    Shli (11, 11, 2);
    Add (11, 11, 6);
    Ldw (11, 11, 0);
    Jr 11 (* the megamorphic dispatch *);
    Label "op0";
    Addi (4, 4, 1);
    Jmp "next";
    Label "op1";
    Xor_ (4, 4, 10);
    Jmp "next";
    Label "op2";
    Shli (5, 4, 5) (* acc = acc * 33 *);
    Add (4, 4, 5);
    Jmp "next";
    Label "op3";
    Add (4, 4, 10);
    Jmp "next";
    Label "next";
    Addi (10, 10, 1);
    Bcond (Ne, 10, 9, "fetch");
    Addi (14, 14, 1);
    Bcond (Ne, 14, 13, "round");
  ]
  @ Vir.Kernels.epilogue

(* ------------------------------------------------------------------ *)
(* Syscall storm                                                       *)
(* ------------------------------------------------------------------ *)

(** [n] iterations, each making two OS calls (a 1-byte write and a
    getpid) a handful of instructions apart: every basic block ends at
    the OS boundary, so block translation buys almost nothing. *)
let syscall_storm ~n =
  let out = Int32.of_int Vir.Kernels.out_buf in
  [
    Li (9, Int32.of_int n);
    Li (10, 0l);
    Li (4, 0l);
    Label "loop";
    (* byte = 32 + ((i*29 + 5) & 63) — printable, round-trips as output *)
    Li (12, 29l);
    Mul (11, 10, 12);
    Addi (11, 11, 5);
    Andi (11, 11, 63);
    Addi (11, 11, 32);
    Li (5, out);
    Stb (11, 5, 0);
    Li (0, 1l) (* sys_write *);
    Li (1, 1l);
    Li (2, out);
    Li (3, 1l);
    Sys;
    Add (4, 4, 0) (* ret = 1 *);
    Li (0, 5l) (* sys_getpid *);
    Sys;
    Add (4, 4, 0) (* ret = 42 *);
    Addi (10, 10, 1);
    Bcond (Ne, 10, 9, "loop");
  ]
  @ Vir.Kernels.epilogue

(* ------------------------------------------------------------------ *)
(* Self-modifying trampoline                                           *)
(* ------------------------------------------------------------------ *)

let tramp_base = 0x0020_0000l

(** Each round byte-copies one of two position-independent snippets
    (delimited by [La] label pairs) into a scratch region and jumps
    there; the snippet returns through a register. Alternating bodies
    force the block engine to invalidate and retranslate the trampoline
    page every round. Runs [rounds] rounds; even rounds add 7 to the
    checksum, odd rounds add 11 then xor in the round number. *)
let trampoline ~rounds =
  [
    Li (8, Int32.of_int rounds);
    Li (10, 0l) (* round *);
    Li (4, 0l) (* checksum *);
    Label "round";
    Andi (11, 10, 1);
    Li (12, 0l);
    Bcond (Ne, 11, 12, "useB");
    La (5, "snipA");
    La (6, "snipA_end");
    Jmp "copy";
    Label "useB";
    La (5, "snipB");
    La (6, "snipB_end");
    Label "copy";
    Li (7, tramp_base);
    Label "cploop";
    Bcond (Geu, 5, 6, "run");
    Ldb (11, 5, 0);
    Stb (11, 7, 0) (* writes into the (translated) trampoline page *);
    Addi (5, 5, 1);
    Addi (7, 7, 1);
    Jmp "cploop";
    Label "run";
    La (13, "back") (* return address *);
    Li (7, tramp_base);
    Jr 7 (* execute what we just wrote *);
    Label "back";
    Addi (10, 10, 1);
    Bcond (Ne, 10, 8, "round");
  ]
  @ Vir.Kernels.epilogue
  (* the snippet bodies: never reached in the main flow (the epilogue
     exits), only byte-copied. Register-only ops + a register jump, so
     they are position-independent under every lowering. *)
  @ [
      Label "snipA";
      Addi (4, 4, 7);
      Jr 13;
      Label "snipA_end";
      Label "snipB";
      Addi (4, 4, 11);
      Xor_ (4, 4, 10);
      Jr 13;
      Label "snipB_end";
    ]

(** The analytic result of [trampoline ~rounds] (the reference executor
    cannot run it — see the module doc). *)
let trampoline_exit ~rounds =
  let v4 = ref 0l in
  for r = 0 to rounds - 1 do
    if r land 1 = 0 then v4 := Int32.add !v4 7l
    else v4 := Int32.logxor (Int32.add !v4 11l) (Int32.of_int r)
  done;
  Int32.to_int !v4 land 0xff

(* ------------------------------------------------------------------ *)
(* Suites                                                              *)
(* ------------------------------------------------------------------ *)

let make ?expected_exit ~reference_safe hname program =
  { hname; program; reference_safe; expected_exit }

let test_suite =
  [
    make ~reference_safe:true "gc_chase" (gc_chase ~n:64 ~steps:512);
    make ~reference_safe:true "interp" (interp ~prog_len:96 ~rounds:4);
    make ~reference_safe:true "syscall_storm" (syscall_storm ~n:64);
    make ~reference_safe:false
      ~expected_exit:(trampoline_exit ~rounds:8)
      "trampoline" (trampoline ~rounds:8);
  ]
