(** Abstract interpretation over {!Ir} programs: a value domain
    (unsigned interval × power-of-two congruence) and an effect domain
    (cells / register classes / memory / control / fault / syscall),
    computed in one forward walk — semir programs are loop-free, so the
    single walk is the fixpoint. *)

module Iset : Set.S with type elt = int

(** {1 Value domain} *)

(** Abstract value: optional unsigned interval [lo, hi] (both below
    2^62) plus a congruence — the value is [rem] modulo [modulus], a
    power of two in [1, 4096]. [modulus = 1] carries no information. *)
type aval = { itv : (int64 * int64) option; modulus : int64; rem : int64 }

val top : aval
val const : int64 -> aval
val join : aval -> aval -> aval
val is_const : aval -> int64 option

(** {1 Effect domain} *)

type effects = {
  reads : Iset.t;
      (** cells whose incoming value may be observed (exposed reads:
          kills are must-writes, so this never under-reports) *)
  reads_all : Iset.t;  (** cells read anywhere *)
  writes : Iset.t;  (** cells possibly written *)
  must_writes : Iset.t;  (** cells written on every path *)
  reg_reads : Iset.t;
  reg_writes : Iset.t;
  loads : bool;
  stores : bool;
  ctrl : bool;
  syscall : bool;
  halt : bool;
  faults : bool;
  must_fault : bool;  (** a fault is raised on every path *)
}

val no_effects : effects

val compose : effects -> effects -> effects
(** Sequential composition for programs analyzed on the same threaded
    {!path}. *)

val architected_effect : effects -> bool
(** True if the program may write registers or memory, syscall, or halt
    — the "purity" question for address-generation actions. *)

type reg_access = { ra_cls : int; ra_index : aval; ra_write : bool }
type mem_access = { ma_width : Ir.width; ma_addr : aval; ma_store : bool }

type result = {
  effects : effects;
  reg_acc : reg_access list;
  mem_acc : mem_access list;
}

val no_result : result
val compose_result : result -> result -> result

(** {1 Analysis} *)

(** Abstract machine state threaded across a sequence of programs. *)
type path

val fresh_path : n_cells:int -> path

val analyze : path -> Ir.program -> result
(** Effects and accesses of this program alone, given (and updating) the
    threaded path; exposed reads are relative to cells the path already
    must-wrote. *)

val analyze_program : n_cells:int -> Ir.program -> result
(** One-shot analysis from a fresh path. *)

val exposed_reads : n_cells:int -> Ir.program -> Iset.t
(** Cells whose incoming value the program may observe, with sound
    must-write kills. *)

val misaligned : mem_access -> bool
(** The congruence proves the address is never a multiple of the access
    width. *)
