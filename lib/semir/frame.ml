(** Per-instruction execution frame.

    The frame is the runtime view of one dynamic instruction while its
    actions run: its pc, its encoding, its computed next pc, and the two
    cell stores — [di], the interface-visible information bytes retained in
    the dynamic-instruction record handed to the timing simulator, and the
    hidden scratch cells that are reused from instruction to instruction
    and never escape the functional simulator. Which cell lives where is
    the buildset's informational-detail decision.

    Every value is an unboxed 8-byte slot, so compiled code reads and
    writes it without allocating. [s] holds, at fixed byte offsets, the
    header ({!pc_off}, {!enc_off}, {!next_pc_off}), {!temp_slots}
    expression temporaries for the closure compiler, then the scratch
    cells. *)

(** Storage assignment for one cell, fixed at synthesis time. *)
type location =
  | In_di of int  (** visible: slot in the retained DI information bytes *)
  | In_scratch of int  (** hidden: slot in the reused scratch area *)

type t = {
  s : Bytes.t;  (** header, temporaries, scratch cells *)
  mutable di : Bytes.t;  (** the current DI record's information slots *)
}

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let pc_off = 0
let enc_off = 8
let next_pc_off = 16

(** Expression temporaries available to compiled code (slots, not bytes). *)
let temp_slots = 64

let temp_off i = 24 + (8 * i)
let scratch_off i = temp_off temp_slots + (8 * i)
let di_off i = 8 * i

(** [info_bytes n] is a zeroed store of [n] (at least one) DI slots. *)
let info_bytes n = Bytes.make (8 * max n 1) '\000'

let create ~di_slots ~scratch_slots =
  { s = Bytes.make (scratch_off (max scratch_slots 1)) '\000'; di = info_bytes di_slots }

let pc fr = get64 fr.s pc_off
let enc fr = get64 fr.s enc_off
let next_pc fr = get64 fr.s next_pc_off
let set_pc fr v = set64 fr.s pc_off v
let set_enc fr v = set64 fr.s enc_off v
let set_next_pc fr v = set64 fr.s next_pc_off v

let check fr = function
  | In_di i when i < 0 || di_off i >= Bytes.length fr.di ->
    invalid_arg "Frame: DI slot out of range"
  | In_scratch i when i < 0 || scratch_off i >= Bytes.length fr.s ->
    invalid_arg "Frame: scratch slot out of range"
  | In_di _ | In_scratch _ -> ()

(** [read fr loc] and [write fr loc v] are the slow-path accessors used by
    the reference interpreter; compiled code resolves locations statically. *)
let read fr loc =
  check fr loc;
  match loc with
  | In_di i -> get64 fr.di (di_off i)
  | In_scratch i -> get64 fr.s (scratch_off i)

let write fr loc v =
  check fr loc;
  match loc with
  | In_di i -> set64 fr.di (di_off i) v
  | In_scratch i -> set64 fr.s (scratch_off i) v
