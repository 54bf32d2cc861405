(** Reference AST interpreter for {!Ir}.

    This is the unspecialized baseline of the paper's footnote 5 (the
    "interpreted rather than binary-translated style of execution"). It is
    also the oracle against which {!Compile} is property-tested. *)

open Machine

let mem_width (w : Ir.width) = Ir.bytes_of_width w

let rec expr (loc : Frame.location array) (fr : Frame.t) (e : Ir.expr) =
  let st = fr.st in
  match e with
  | Const v -> v
  | Cell c -> Frame.read fr loc.(c)
  | Enc { lo; len; signed } -> Value.enc_bits (Frame.enc fr) ~lo ~len ~signed
  | Pc -> Frame.pc fr
  | Next_pc -> Frame.next_pc fr
  | Bin (op, a, b) -> (Value.binop op) (expr loc fr a) (expr loc fr b)
  | Un (op, a) -> (Value.unop op) (expr loc fr a)
  | Ite (c, a, b) ->
    if Int64.equal (expr loc fr c) 0L then expr loc fr b else expr loc fr a
  | Load { width; signed; addr } ->
    let a = expr loc fr addr in
    if signed then Memory.read_signed st.mem ~addr:a ~width:(mem_width width)
    else Memory.read st.mem ~addr:a ~width:(mem_width width)
  | Reg_read { cls; index } -> Regaccess.read st.regs ~cls (expr loc fr index)

(* Every write calls the frame's hooks first ({!Hooks.none} in a plain
   frame). *)
let rec stmt (loc : Frame.location array) (fr : Frame.t) (s : Ir.stmt) =
  let st = fr.st in
  match s with
  | Set_cell (c, e) -> Frame.write fr loc.(c) (expr loc fr e)
  | Store { width; addr; value } ->
    let a = expr loc fr addr in
    let v = expr loc fr value in
    let w = mem_width width in
    fr.hooks.on_store st (Memory.addr_int a) w;
    Memory.write st.mem ~addr:a ~width:w v
  | Set_next_pc e -> Frame.set_next_pc fr (expr loc fr e)
  | Reg_write { cls; index; value } ->
    let i = expr loc fr index in
    let v = expr loc fr value in
    let flat = Regaccess.flat st.regs ~cls i in
    fr.hooks.on_reg_write st flat;
    Regfile.write_flat st.regs flat v
  | If (c, t, f) ->
    if Int64.equal (expr loc fr c) 0L then block loc fr f else block loc fr t
  | Fault_illegal ->
    State.raise_fault st (Fault.Illegal_instruction (Frame.enc fr))
  | Fault_unaligned e ->
    State.raise_fault st (Fault.Unaligned_access (expr loc fr e))
  | Fault_arith msg -> State.raise_fault st (Fault.Arith msg)
  | Syscall -> st.syscall_handler st
  | Halt -> st.halted <- true

and block loc fr stmts = List.iter (stmt loc fr) stmts

(** [exec ~loc fr p] interprets program [p] against frame [fr] and its
    machine. *)
let exec ~loc fr (p : Ir.program) = block loc fr p
