(** Architectural register file made of named register classes.

    An ISA declares classes such as [GPR\[32\]] or [CR\[8\]]; the register
    file flattens every class into one backing byte store. A class may declare a
    hardwired-zero register (Alpha's R31, for example): reads of it return
    zero and writes to it are discarded. Values wider than the class width
    are masked on write. *)

type class_def = {
  cname : string;
  count : int;  (** number of registers in the class *)
  width : int;  (** register width in bits, 1..64 *)
  hardwired_zero : int option;
      (** index within the class that always reads as zero *)
}

(** The flat register file. Register [i] (in flat numbering, see {!base})
    occupies the native-endian 8-byte slot at byte offset [8 * i] of [v];
    [masks] holds its write mask at the same offset (0 for a hardwired
    zero). The record is [private] so synthesized code can read and write
    slots inline, without a call or a boxed [int64]; only this module
    builds one. *)
type t = private {
  classes : class_def array;
  bases : int array;
  total : int;
  v : Bytes.t;
  masks : Bytes.t;
}

(** [create classes] builds a register file with all registers zero.
    @raise Invalid_argument on duplicate class names or invalid sizes. *)
val create : class_def list -> t

(** [copy t] is a deep copy (used by checkpointing simulators). *)
val copy : t -> t

(** [class_index t name] is the positional index of class [name].
    @raise Not_found if there is no such class. *)
val class_index : t -> string -> int

val class_count : t -> int
val class_def : t -> int -> class_def

(** [base t c] is the offset of class [c] in the flat numbering; register
    [i] of class [c] lives at flat index [base t c + i]. *)
val base : t -> int -> int

(** Total number of registers across all classes. *)
val total : t -> int

(** [read t ~cls ~idx] reads register [idx] of class [cls] (bounds-checked). *)
val read : t -> cls:int -> idx:int -> int64

(** [write t ~cls ~idx v] writes [v] (masked to the class width) unless the
    register is the class's hardwired zero. *)
val write : t -> cls:int -> idx:int -> int64 -> unit

(** Unchecked accessors by flat index (the reference interpreter, fault
    injection, tests; compiled code reads and writes the slots of [v]
    directly). [write_flat] still honours width masks and hardwired-zero
    registers. *)
val read_flat : t -> int -> int64
val write_flat : t -> int -> int64 -> unit

(** [is_hardwired_flat t i] tells whether flat index [i] is a hardwired zero. *)
val is_hardwired_flat : t -> int -> bool

(** [mask_flat t i] is the width mask applied to writes at flat index [i]. *)
val mask_flat : t -> int -> int64

(** [blit ~src ~dst] copies all register values from [src] to [dst]
    (the layouts must match). *)
val blit : src:t -> dst:t -> unit

(** [equal a b] compares contents, then layouts (class names, counts,
    widths and hardwired zeros). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
