(** Complete architectural state of a simulated processor plus the
    bookkeeping shared by every functional-simulator interface.

    The paper's functional simulator owns exactly this state; timing
    simulators observe or drive it only through a synthesized interface. *)

type t = {
  mem : Memory.t;
  regs : Regfile.t;
  mutable pc : int64;
  mutable next_pc : int64;  (** set by control-flow actions; committed by the engine *)
  mutable instr_count : int64;  (** retired (committed) instructions *)
  mutable fault : Fault.t option;
  mutable halted : bool;
  mutable syscall_handler : t -> unit;
      (** invoked by the [syscall] semantic statement; installed by the
          OS-emulation layer (the paper's "OS/simulator support" file) *)
}

(** [create ~endian classes] builds a fresh machine with zeroed state and a
    syscall handler that faults ([Fault.Arith "no syscall handler"]). *)
val create : endian:Memory.endian -> Regfile.class_def list -> t

(** [reset t ~pc] clears registers? No — it resets only control state:
    pc, next_pc, instruction count, fault, halt flag. Memory and registers
    are left untouched so a loaded program image survives. *)
val reset : t -> pc:int64 -> unit

(** [raise_fault t f] records [f] and halts the machine. *)
val raise_fault : t -> Fault.t -> unit

(** [snapshot t] captures registers, pc and next_pc (not memory) for cheap
    comparison; see {!matches_snapshot}. *)
type snapshot

val snapshot : t -> snapshot
val matches_snapshot : t -> snapshot -> bool

(** Exit status recorded by an [Exit] fault, if any. *)
val exit_status : t -> int option
