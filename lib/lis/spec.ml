(** Resolved LIS specification — the output of {!Sema} and the input to the
    synthesizer ({!Specsim.Synth}).

    Everything is name-resolved: cells, register classes and instructions
    are dense integer indices, and all action bodies are {!Semir.Ir}
    programs that have passed well-formedness checks. *)

(** The ordered per-instruction execution sequence is a list of action
    symbols. Four are built in (their semantics are generated from operand
    declarations or supplied by the engine); the rest are user actions. *)
type action_sym =
  | A_fetch
  | A_decode
  | A_read_operands
  | A_writeback
  | A_user of string

let action_sym_name = function
  | A_fetch -> "fetch"
  | A_decode -> "decode"
  | A_read_operands -> "read_operands"
  | A_writeback -> "writeback"
  | A_user s -> s

type cell_kind =
  | K_field of { decode_info : bool }
  | K_operand_val
  | K_operand_id

type cell_info = {
  cell_name : string;
  kind : cell_kind;
  cell_span : Loc.span;  (** declaration site (for diagnostics) *)
}

type operand = {
  op_name : string;
  op_cls : int;  (** register class index *)
  op_lo : int;
  op_len : int;
  op_read : bool;
  op_write : bool;
  op_id_cell : Semir.Ir.cell;
  op_val_cell : Semir.Ir.cell;
}

type instr = {
  i_name : string;
  i_index : int;
  i_size : int;
      (** encoded width in bytes; equals [instr_bytes] except for
          compressed/parcel encodings of a variable-length ISA *)
  i_match : int64;
  i_mask : int64;
  i_operands : operand array;
  i_decode : Semir.Ir.program;  (** generated operand-id extraction *)
  i_read : Semir.Ir.program;  (** generated source-operand fetch *)
  i_writeback : Semir.Ir.program;  (** generated destination commit *)
  i_user : (string * Semir.Ir.program) list;
      (** user action bodies, keyed by user action name *)
  i_span : Loc.span;  (** declaration site (for diagnostics) *)
}

type buildset = {
  bs_name : string;
  bs_speculation : bool;
  bs_block : bool;
  bs_visible : bool array;  (** per cell: stored in the DI record? *)
  bs_explicit_visibility : bool;
      (** the visibility clause listed cells by name ([show]/[hide])
          rather than a named policy ([all]/[min]/[decode]) — only such
          hand-picked sets are candidates for minimality lints *)
  bs_entrypoints : (string * action_sym list) array;
  bs_span : Loc.span;  (** declaration site (for diagnostics) *)
}

type t = {
  name : string;
  endian : Machine.Memory.endian;
  wordsize : int;
  instr_bytes : int;
  decode_lo : int;
  decode_len : int;
  reg_classes : Machine.Regfile.class_def array;
  cells : cell_info array;
  opclass_cell : Semir.Ir.cell;
      (** generated decode-information cell holding the instruction index *)
  sequence : action_sym array;
  instrs : instr array;
  buildsets : buildset array;
  abi : Machine.Os_emu.abi option;
  line_stats : Count.stats;
  isa_span : Loc.span;  (** span of the [isa] header declaration *)
}

let n_cells t = Array.length t.cells
let n_classes t = Array.length t.reg_classes

let cell_id t name =
  let rec go i =
    if i >= Array.length t.cells then raise Not_found
    else if String.equal t.cells.(i).cell_name name then i
    else go (i + 1)
  in
  go 0

let cell_name t i = t.cells.(i).cell_name

let find_buildset t name =
  match
    Array.find_opt (fun b -> String.equal b.bs_name name) t.buildsets
  with
  | Some b -> b
  | None ->
    invalid_arg
      (Printf.sprintf "no buildset named %s in ISA %s" name t.name)

let buildset_names t =
  Array.to_list (Array.map (fun b -> b.bs_name) t.buildsets)

let find_instr t name =
  match
    Array.find_opt (fun i -> String.equal i.i_name name) t.instrs
  with
  | Some i -> i
  | None ->
    invalid_arg (Printf.sprintf "no instruction named %s in ISA %s" name t.name)

(** Fresh machine with this ISA's register layout and endianness. *)
let make_machine t =
  Machine.State.create ~endian:t.endian (Array.to_list t.reg_classes)

(** [user_action instr name] is the body of user action [name] for
    [instr], or [[]] if the instruction does not define it. *)
let user_action (i : instr) name =
  match List.assoc_opt name i.i_user with Some p -> p | None -> []
