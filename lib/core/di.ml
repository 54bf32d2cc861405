(** Dynamic instruction record — the data structure passed across the
    functional-to-timing interface (paper Fig. 2).

    The header (pc, encoding, next pc, fault, instruction index) is the
    paper's "minimal information needed to control the simulator"; the
    [info] bytes hold the interface-visible cells for the chosen buildset,
    one unboxed 8-byte slot per cell, laid out by {!Slots}. Read and
    write them with {!get} and {!set}; compiled code stores into them
    directly. *)

type t = {
  mutable pc : int64;
  mutable encoding : int64;
  mutable next_pc : int64;
  mutable instr_index : int;  (** decoded instruction id; -1 before decode *)
  mutable fault : Machine.Fault.t option;
  mutable ckpt : int;  (** speculation checkpoint token; -1 if none *)
  info : Bytes.t;
}

let create ~info_slots =
  {
    pc = 0L;
    encoding = 0L;
    next_pc = 0L;
    instr_index = -1;
    fault = None;
    ckpt = -1;
    info = Semir.Frame.info_bytes info_slots;
  }

(** Number of information slots (at least one). *)
let slots t = Bytes.length t.info / 8

let check t slot =
  if slot < 0 || slot >= slots t then invalid_arg "Di: slot out of range"

(** [get t slot] reads a visible cell by its DI slot (from {!Slots}). *)
let get t slot =
  check t slot;
  Bytes.get_int64_ne t.info (8 * slot)

(** [set t slot v] overwrites a visible cell (fault injection, tests). *)
let set t slot v =
  check t slot;
  Bytes.set_int64_ne t.info (8 * slot) v

let clear t =
  t.pc <- 0L;
  t.encoding <- 0L;
  t.next_pc <- 0L;
  t.instr_index <- -1;
  t.fault <- None;
  t.ckpt <- -1;
  Bytes.fill t.info 0 (Bytes.length t.info) '\000'

let copy t = { t with info = Bytes.copy t.info }
