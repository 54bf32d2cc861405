type t = {
  mem : Memory.t;
  regs : Regfile.t;
  mutable pc : int64;
  mutable next_pc : int64;
  mutable instr_count : int64;
  mutable fault : Fault.t option;
  mutable halted : bool;
  mutable syscall_handler : t -> unit;
}

let default_handler t =
  t.fault <- Some (Fault.Arith "no syscall handler installed");
  t.halted <- true

let create ~endian classes =
  {
    mem = Memory.create endian;
    regs = Regfile.create classes;
    pc = 0L;
    next_pc = 0L;
    instr_count = 0L;
    fault = None;
    halted = false;
    syscall_handler = default_handler;
  }

let reset t ~pc =
  t.pc <- pc;
  t.next_pc <- pc;
  t.instr_count <- 0L;
  t.fault <- None;
  t.halted <- false

let raise_fault t f =
  t.fault <- Some f;
  t.halted <- true

type snapshot = { s_regs : Regfile.t; s_pc : int64; s_next_pc : int64 }

let snapshot t = { s_regs = Regfile.copy t.regs; s_pc = t.pc; s_next_pc = t.next_pc }

let matches_snapshot t s =
  Regfile.equal t.regs s.s_regs && Int64.equal t.pc s.s_pc

let exit_status t = match t.fault with Some (Fault.Exit c) -> Some c | _ -> None
