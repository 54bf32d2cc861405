(** Semantic analysis: surface AST -> resolved {!Spec.t}.

    Responsibilities: name resolution (cells, register classes, actions),
    cell-id assignment, operand merging across instruction classes,
    translation of action bodies into {!Semir.Ir}, generation of the
    builtin decode / operand-fetch / writeback programs, buildset
    entrypoint/visibility resolution, and all the consistency checks the
    paper's methodology relies on. *)

open Ast

let err span fmt = Loc.error span fmt

let default_sequence =
  [
    "fetch";
    "decode";
    "read_operands";
    "address";
    "evaluate";
    "memory";
    "writeback";
    "exception";
  ]

let builtin_action_names = [ "fetch"; "decode"; "read_operands"; "writeback" ]

let sym_of_name name : Spec.action_sym =
  match name with
  | "fetch" -> A_fetch
  | "decode" -> A_decode
  | "read_operands" -> A_read_operands
  | "writeback" -> A_writeback
  | s -> A_user s

(* ------------------------------------------------------------------ *)
(* Environment built while walking declarations                        *)
(* ------------------------------------------------------------------ *)

type env = {
  mutable props : Ast.isa_props option;
  mutable regclasses : Ast.regclass list;  (** reversed *)
  mutable fields : Ast.field_decl list;  (** reversed *)
  mutable sequence : string list option;
  classes : (string, Ast.instr_like) Hashtbl.t;
  mutable instrs : Ast.instr_decl list;  (** reversed *)
  mutable overrides : Ast.override_decl list;  (** reversed *)
  mutable buildsets : Ast.buildset_decl list;  (** reversed *)
  mutable abi : Ast.abi_decl option;
}

let collect (decls : Ast.t) : env =
  let env =
    {
      props = None;
      regclasses = [];
      fields = [];
      sequence = None;
      classes = Hashtbl.create 16;
      instrs = [];
      overrides = [];
      buildsets = [];
      abi = None;
    }
  in
  List.iter
    (fun d ->
      match d with
      | D_isa p ->
        if env.props <> None then err p.p_span "duplicate 'isa' declaration";
        env.props <- Some p
      | D_regclass r -> env.regclasses <- r :: env.regclasses
      | D_field f -> env.fields <- f :: env.fields
      | D_sequence ids ->
        if env.sequence <> None then
          err (List.hd ids).span "duplicate 'sequence' declaration";
        env.sequence <- Some (List.map (fun i -> i.id) ids)
      | D_class c ->
        if Hashtbl.mem env.classes c.c_name.id then
          err c.c_name.span "duplicate class '%s'" c.c_name.id;
        Hashtbl.add env.classes c.c_name.id c.c_body
      | D_instr i -> env.instrs <- i :: env.instrs
      | D_override o -> env.overrides <- o :: env.overrides
      | D_buildset b -> env.buildsets <- b :: env.buildsets
      | D_abi a ->
        if env.abi <> None then
          err (fst a.abi_nr).span "duplicate 'abi' declaration";
        env.abi <- Some a)
    decls;
  env.regclasses <- List.rev env.regclasses;
  env.fields <- List.rev env.fields;
  env.instrs <- List.rev env.instrs;
  env.overrides <- List.rev env.overrides;
  env.buildsets <- List.rev env.buildsets;
  env

(* ------------------------------------------------------------------ *)
(* Cell table                                                          *)
(* ------------------------------------------------------------------ *)

type cells = {
  table : (string, int) Hashtbl.t;
  mutable infos : Spec.cell_info list;  (** reversed *)
  mutable next : int;
}

let add_cell cells span name kind =
  if Hashtbl.mem cells.table name then
    err span "duplicate cell name '%s' (fields and operands share one namespace)"
      name;
  let id = cells.next in
  Hashtbl.add cells.table name id;
  cells.infos <- { Spec.cell_name = name; kind; cell_span = span } :: cells.infos;
  cells.next <- id + 1;
  id

(* ------------------------------------------------------------------ *)
(* Expression / statement translation                                  *)
(* ------------------------------------------------------------------ *)

type xlate_ctx = {
  cells_tbl : (string, int) Hashtbl.t;
  class_tbl : (string, int) Hashtbl.t;  (** register class name -> index *)
}

let const_int (e : Ast.expr) =
  match e.e with
  | E_int v -> Int64.to_int v
  | _ -> err e.espan "expected a constant integer here"

let rec xlate_expr ctx (e : Ast.expr) : Semir.Ir.expr =
  match e.e with
  | E_int v -> Const v
  | E_var name -> (
    match Hashtbl.find_opt ctx.cells_tbl name with
    | Some c -> Cell c
    | None -> err e.espan "unknown field or operand '%s'" name)
  | E_bits { lo; len; signed } ->
    let lo = const_int lo and len = const_int len in
    if lo < 0 || len <= 0 || lo + len > 64 then
      err e.espan "bitfield [%d,+%d] out of range" lo len;
    Enc { lo; len; signed }
  | E_pc -> Pc
  | E_next_pc -> Next_pc
  | E_bin (op, a, b) -> Bin (op, xlate_expr ctx a, xlate_expr ctx b)
  | E_log_and (a, b) ->
    Ite
      ( xlate_expr ctx a,
        Bin (Ne, xlate_expr ctx b, Const 0L),
        Const 0L )
  | E_log_or (a, b) ->
    Ite
      ( xlate_expr ctx a,
        Const 1L,
        Bin (Ne, xlate_expr ctx b, Const 0L) )
  | E_un (op, a) -> Un (op, xlate_expr ctx a)
  | E_call (name, args) -> xlate_call ctx e.espan name args
  | E_ite (c, a, b) ->
    Ite (xlate_expr ctx c, xlate_expr ctx a, xlate_expr ctx b)
  | E_load { width; signed; addr } ->
    Load { width; signed; addr = xlate_expr ctx addr }
  | E_reg (cls, idx) -> (
    match Hashtbl.find_opt ctx.class_tbl cls with
    | Some c -> Reg_read { cls = c; index = xlate_expr ctx idx }
    | None -> err e.espan "unknown register class '%s'" cls)

and xlate_call ctx span name args : Semir.Ir.expr =
  let unary f =
    match args with
    | [ a ] -> f (xlate_expr ctx a)
    | _ -> err span "%s expects 1 argument" name
  in
  let binary f =
    match args with
    | [ a; b ] -> f (xlate_expr ctx a) (xlate_expr ctx b)
    | _ -> err span "%s expects 2 arguments" name
  in
  let ext mk =
    match args with
    | [ a; n ] ->
      let n = const_int n in
      if n < 1 || n > 64 then err span "extension width %d out of range" n;
      Semir.Ir.Un (mk n, xlate_expr ctx a)
    | _ -> err span "%s expects (expr, width)" name
  in
  match name with
  | "sext" -> ext (fun n -> Semir.Ir.Sext n)
  | "zext" -> ext (fun n -> Semir.Ir.Zext n)
  | "asr" -> binary (fun a b -> Semir.Ir.Bin (Ashr, a, b))
  | "ror" -> binary (fun a b -> Semir.Ir.Bin (Ror, a, b))
  | "mulhu" -> binary (fun a b -> Semir.Ir.Bin (Mulhu, a, b))
  | "mulhs" -> binary (fun a b -> Semir.Ir.Bin (Mulhs, a, b))
  | "udiv" -> binary (fun a b -> Semir.Ir.Bin (Divu, a, b))
  | "urem" -> binary (fun a b -> Semir.Ir.Bin (Remu, a, b))
  | "ltu" -> binary (fun a b -> Semir.Ir.Bin (Ltu, a, b))
  | "leu" -> binary (fun a b -> Semir.Ir.Bin (Leu, a, b))
  | "gtu" -> binary (fun a b -> Semir.Ir.Bin (Ltu, b, a))
  | "geu" -> binary (fun a b -> Semir.Ir.Bin (Leu, b, a))
  | "popcount" -> unary (fun a -> Semir.Ir.Un (Popcount, a))
  | "clz" -> unary (fun a -> Semir.Ir.Un (Clz, a))
  | "ctz" -> unary (fun a -> Semir.Ir.Un (Ctz, a))
  | _ -> err span "unknown function '%s'" name

let rec xlate_stmt ctx (s : Ast.stmt) : Semir.Ir.stmt =
  match s.s with
  | S_set (name, e) -> (
    match Hashtbl.find_opt ctx.cells_tbl name with
    | Some c -> Set_cell (c, xlate_expr ctx e)
    | None -> err s.sspan "unknown field or operand '%s'" name)
  | S_set_next_pc e -> Set_next_pc (xlate_expr ctx e)
  | S_store { width; addr; value } ->
    Store { width; addr = xlate_expr ctx addr; value = xlate_expr ctx value }
  | S_set_reg (cls, idx, v) -> (
    match Hashtbl.find_opt ctx.class_tbl cls with
    | Some c ->
      Reg_write { cls = c; index = xlate_expr ctx idx; value = xlate_expr ctx v }
    | None -> err s.sspan "unknown register class '%s'" cls)
  | S_if (c, t, f) ->
    If (xlate_expr ctx c, List.map (xlate_stmt ctx) t, List.map (xlate_stmt ctx) f)
  | S_fault_illegal -> Fault_illegal
  | S_fault_unaligned e -> Fault_unaligned (xlate_expr ctx e)
  | S_fault_arith m -> Fault_arith m
  | S_syscall -> Syscall
  | S_halt -> Halt

(* ------------------------------------------------------------------ *)
(* Instruction assembly                                                *)
(* ------------------------------------------------------------------ *)

(** Merge operand declarations: class operands first (in class-list order),
    then the instruction's own. Identical re-declarations are deduplicated;
    conflicting ones are errors. *)
let merge_operands (decls : Ast.operand_decl list) : Ast.operand_decl list =
  List.fold_left
    (fun kept (o : Ast.operand_decl) ->
      let same_name (p : Ast.operand_decl) = String.equal p.o_name.id o.o_name.id in
      match List.find_opt same_name kept with
      | None -> o :: kept
      | Some prev ->
        if
          String.equal prev.o_class.id o.o_class.id
          && prev.o_lo = o.o_lo && prev.o_len = o.o_len
          && prev.o_read = o.o_read && prev.o_write = o.o_write
        then kept
        else
          err o.o_name.span
            "operand '%s' redeclared with different class/bits/access"
            o.o_name.id)
    [] decls
  |> List.rev

(** Merge action bodies by name: class bodies first, instruction's own
    appended (an instruction refines its class's action). Each body comes
    with its translation [t]; a merged action lists them in order. *)
let merge_actions (defs : (Ast.action_def * 'a) list) : (string * 'a list) list =
  List.fold_left
    (fun acc ((d : Ast.action_def), t) ->
      let name = d.a_name.id in
      if List.mem name builtin_action_names then
        err d.a_name.span
          "'%s' is a builtin action and cannot be defined by instructions" name;
      match List.assoc_opt name acc with
      | Some ts -> (name, ts @ [ t ]) :: List.remove_assoc name acc
      | None -> (name, [ t ]) :: acc)
    [] defs
  |> List.rev

(* One action body, translated and validated. The errors are kept, so
   a body that several instructions share is translated once and each
   of them reports what translating it would have raised. *)
type segment =
  | Translated of Semir.Ir.program
  | Failed of Loc.span * string  (** a translation error *)
  | Invalid of string  (** a validation message *)

(* ------------------------------------------------------------------ *)
(* Main entry                                                          *)
(* ------------------------------------------------------------------ *)

(** [analyze_all decls] resolves as much of the description as it can and
    returns either the spec or every resolution error found, in source
    order. Errors in the global scaffolding (ISA header, register classes,
    sequence, field table) abort immediately; an error inside one
    instruction, override, buildset or the ABI is recorded and analysis
    continues with the next unit, so a single [lisim check] run reports
    them all. *)
let analyze_all ?(line_stats = Count.zero) (decls : Ast.t) :
    (Spec.t, (Loc.span * string) list) result =
 try
  let env = collect decls in
  let props =
    match env.props with
    | Some p -> p
    | None -> err Loc.dummy "missing 'isa' declaration"
  in
  (* Unit-level error accumulation. [guard] runs one resolution unit and
     records its first error instead of aborting the whole analysis. *)
  let errors = ref [] in
  let record span msg = errors := (span, msg) :: !errors in
  let guard f = try Some (f ()) with Loc.Error (s, m) -> record s m; None in
  (* Register classes *)
  let reg_classes =
    Array.of_list
      (List.map
         (fun (r : Ast.regclass) ->
           {
             Machine.Regfile.cname = r.r_name.id;
             count = r.r_count;
             width = r.r_width;
             hardwired_zero = r.r_zero;
           })
         env.regclasses)
  in
  let class_tbl = Hashtbl.create 8 in
  Array.iteri
    (fun i (c : Machine.Regfile.class_def) ->
      if Hashtbl.mem class_tbl c.cname then
        err Loc.dummy "duplicate register class '%s'" c.cname;
      Hashtbl.add class_tbl c.cname i)
    reg_classes;

  (* Sequence *)
  let seq_names =
    match env.sequence with Some s -> s | None -> default_sequence
  in
  let sequence = Array.of_list (List.map sym_of_name seq_names) in
  let builtin_positions =
    List.filter_map
      (fun b ->
        let rec find i =
          if i >= Array.length sequence then None
          else if sequence.(i) = sym_of_name b then Some (b, i)
          else find (i + 1)
        in
        find 0)
      builtin_action_names
  in
  List.iter
    (fun b ->
      if not (List.mem_assoc b builtin_positions) then
        err Loc.dummy "sequence must include builtin action '%s'" b)
    builtin_action_names;
  let pos b = List.assoc b builtin_positions in
  if
    not
      (pos "fetch" < pos "decode"
      && pos "decode" < pos "read_operands"
      && pos "read_operands" < pos "writeback")
  then err Loc.dummy "builtin actions out of order in 'sequence'";
  (* duplicate names in sequence *)
  let seen_seq = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen_seq n then
        err Loc.dummy "duplicate action '%s' in sequence" n;
      Hashtbl.add seen_seq n ())
    seq_names;
  let user_action_names =
    List.filter (fun n -> not (List.mem n builtin_action_names)) seq_names
  in

  (* Cells: fields, then opclass, then operand cells in discovery order. *)
  let cells = { table = Hashtbl.create 32; infos = []; next = 0 } in
  List.iter
    (fun (f : Ast.field_decl) ->
      ignore
        (add_cell cells f.f_name.span f.f_name.id
           (Spec.K_field { decode_info = f.f_decode_info })))
    env.fields;
  let opclass_cell =
    add_cell cells Loc.dummy "opclass" (Spec.K_field { decode_info = true })
  in

  (* Resolve instruction-class references and gather operand declarations *)
  let class_body name (id : Ast.ident) =
    match Hashtbl.find_opt env.classes name with
    | Some b -> b
    | None -> err id.span "unknown instruction class '%s'" name
  in
  let instr_operand_decls (i : Ast.instr_decl) =
    let from_classes =
      List.concat_map
        (fun c -> (class_body c.id c).d_operands)
        i.i_classes
    in
    merge_operands (from_classes @ i.i_body.d_operands)
  in
  (* Assign operand cells in global discovery order. An instruction whose
     operands fail to resolve is marked broken here (error recorded once)
     and skipped by the assembly phase below. *)
  let broken : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let operand_cells : (string, int * int) Hashtbl.t = Hashtbl.create 32 in
  (* name -> (val_cell, id_cell) *)
  (* by position in [env.instrs]; kept for the assembly phase, which
     runs only on instructions whose operands resolved *)
  let merged_operands = Array.make (List.length env.instrs) [] in
  List.iteri
    (fun index (i : Ast.instr_decl) ->
      match
        guard (fun () ->
            let decls = instr_operand_decls i in
            merged_operands.(index) <- decls;
            List.iter
              (fun (o : Ast.operand_decl) ->
                if not (Hashtbl.mem operand_cells o.o_name.id) then begin
                  let v =
                    add_cell cells o.o_name.span o.o_name.id Spec.K_operand_val
                  in
                  let id =
                    add_cell cells o.o_name.span (o.o_name.id ^ "_id")
                      Spec.K_operand_id
                  in
                  Hashtbl.add operand_cells o.o_name.id (v, id)
                end)
              decls)
      with
      | Some () -> ()
      | None -> Hashtbl.replace broken i.i_name.id ())
    env.instrs;

  let ctx = { cells_tbl = cells.table; class_tbl } in
  let n_cells = cells.next in
  let n_classes = Array.length reg_classes in

  let segment body =
    match List.map (xlate_stmt ctx) body with
    | exception Loc.Error (span, msg) -> Failed (span, msg)
    | p -> (
      match Semir.Ir.validate ~n_cells ~n_classes p with
      | () -> Translated p
      | exception Semir.Ir.Invalid m -> Invalid m)
  in
  (* The program of an action merged from [segs], failing as translating
     and then validating their concatenation would: the first
     translation error, else the first validation error. *)
  let action_program span name segs =
    List.iter
      (function Failed (s, m) -> raise (Loc.Error (s, m)) | _ -> ())
      segs;
    List.iter
      (function Invalid m -> err span "in action '%s': %s" name m | _ -> ())
      segs;
    match segs with
    | [ Translated p ] -> p
    | _ ->
      List.concat_map (function Translated p -> p | _ -> assert false) segs
  in
  (* Each class's action bodies are translated once, and every
     instruction that inherits them shares the result. *)
  let class_actions : (string, (Ast.action_def * segment) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let translated (d : Ast.action_def) = (d, segment d.a_body) in
  Hashtbl.iter
    (fun name (body : Ast.instr_like) ->
      Hashtbl.replace class_actions name (List.map translated body.d_actions))
    env.classes;

  (* Instructions *)
  let instr_tbl = Hashtbl.create 64 in
  let skipped = ref false in
  let instrs =
    List.mapi
      (fun index (i : Ast.instr_decl) ->
        if Hashtbl.mem broken i.i_name.id then begin
          skipped := true;
          None
        end
        else
          let built =
            guard (fun () ->
                if Hashtbl.mem instr_tbl i.i_name.id then
                  err i.i_name.span "duplicate instruction '%s'" i.i_name.id;
                Hashtbl.add instr_tbl i.i_name.id index;
                if
                  not
                    (Int64.equal
                       (Int64.logand i.i_match (Int64.lognot i.i_mask))
                       0L)
                then
                  err i.i_name.span
                    "instruction '%s': match value 0x%Lx has bits outside mask 0x%Lx"
                    i.i_name.id i.i_match i.i_mask;
                let size =
                  match i.i_size with
                  | None -> props.p_instr_bytes
                  | Some s ->
                    if s < 1 || s > props.p_instr_bytes then
                      err i.i_name.span
                        "instruction '%s': size %d is outside [1,%d] \
                         (instrsize)"
                        i.i_name.id s props.p_instr_bytes;
                    let bits = 8 * s in
                    let outside =
                      if bits >= 64 then 0L else Int64.shift_left (-1L) bits
                    in
                    if not (Int64.equal (Int64.logand i.i_mask outside) 0L)
                    then
                      err i.i_name.span
                        "instruction '%s': mask 0x%Lx has bits outside its \
                         %d-byte encoding"
                        i.i_name.id i.i_mask s;
                    s
                in
                let operand_decls = merged_operands.(index) in
                let operands =
                  Array.of_list
                    (List.map
                       (fun (o : Ast.operand_decl) ->
                         let cls =
                           match Hashtbl.find_opt class_tbl o.o_class.id with
                           | Some c -> c
                           | None ->
                             err o.o_class.span "unknown register class '%s'"
                               o.o_class.id
                         in
                         let val_cell, id_cell =
                           Hashtbl.find operand_cells o.o_name.id
                         in
                         {
                           Spec.op_name = o.o_name.id;
                           op_cls = cls;
                           op_lo = o.o_lo;
                           op_len = o.o_len;
                           op_read = o.o_read;
                           op_write = o.o_write;
                           op_id_cell = id_cell;
                           op_val_cell = val_cell;
                         })
                       operand_decls)
                in
                (* Generated builtin programs *)
                let decode_prog =
                  Array.to_list
                    (Array.map
                       (fun (o : Spec.operand) ->
                         Semir.Ir.Set_cell
                           ( o.op_id_cell,
                             Enc { lo = o.op_lo; len = o.op_len; signed = false }
                           ))
                       operands)
                  @ [ Semir.Ir.Set_cell (opclass_cell, Const (Int64.of_int index)) ]
                in
                let read_prog =
                  Array.to_list operands
                  |> List.filter (fun (o : Spec.operand) -> o.op_read)
                  |> List.map (fun (o : Spec.operand) ->
                         Semir.Ir.Set_cell
                           ( o.op_val_cell,
                             Reg_read { cls = o.op_cls; index = Cell o.op_id_cell }
                           ))
                in
                let writeback_prog =
                  Array.to_list operands
                  |> List.filter (fun (o : Spec.operand) -> o.op_write)
                  |> List.map (fun (o : Spec.operand) ->
                         Semir.Ir.Reg_write
                           {
                             cls = o.op_cls;
                             index = Cell o.op_id_cell;
                             value = Cell o.op_val_cell;
                           })
                in
                (* User actions: class actions first, own actions merged in *)
                let action_defs =
                  (* its classes resolved with its operands *)
                  List.concat_map
                    (fun (c : Ast.ident) -> Hashtbl.find class_actions c.id)
                    i.i_classes
                  @ List.map translated i.i_body.d_actions
                in
                let user =
                  List.map
                    (fun (name, segs) ->
                      if not (List.mem name user_action_names) then
                        err i.i_name.span
                          "instruction '%s' defines action '%s' which is not \
                           in the sequence"
                          i.i_name.id name;
                      (name, action_program i.i_name.span name segs))
                    (merge_actions action_defs)
                in
                {
                  Spec.i_name = i.i_name.id;
                  i_index = index;
                  i_size = size;
                  i_match = i.i_match;
                  i_mask = i.i_mask;
                  i_operands = operands;
                  i_decode = decode_prog;
                  i_read = read_prog;
                  i_writeback = writeback_prog;
                  i_user = user;
                  i_span = i.i_name.span;
                })
          in
          if built = None then skipped := true;
          built)
      env.instrs
    |> List.filter_map Fun.id
  in
  let instrs = Array.of_list instrs in
  (* The decode key must fit inside the shortest encoding, so the decoder
     can bucket without knowing the instruction's length yet. *)
  let min_size =
    Array.fold_left
      (fun acc (i : Spec.instr) -> min acc i.i_size)
      props.p_instr_bytes instrs
  in
  if props.p_decode_lo + props.p_decode_len > 8 * min_size then
    err props.p_span
      "decodekey [%d,+%d] reaches past the %d-byte minimum instruction size"
      props.p_decode_lo props.p_decode_len min_size;

  (* Overrides (the paper's OS-support mechanism). When instructions were
     skipped above, the index table no longer lines up with the array, so
     overrides are checked but not applied (the spec is discarded anyway). *)
  List.iter
    (fun (o : Ast.override_decl) ->
      ignore
        (guard (fun () ->
             let idx =
               match Hashtbl.find_opt instr_tbl o.ov_instr.id with
               | Some i -> i
               | None ->
                 err o.ov_instr.span "unknown instruction '%s'" o.ov_instr.id
             in
             let name = o.ov_action.id in
             if not (List.mem name user_action_names) then
               err o.ov_action.span "action '%s' is not in the sequence" name;
             let body =
               action_program o.ov_action.span name [ segment o.ov_body ]
             in
             if not !skipped then begin
               let i = instrs.(idx) in
               instrs.(idx) <-
                 { i with i_user = (name, body) :: List.remove_assoc name i.i_user }
             end)))
    env.overrides;

  (* Buildsets *)
  let cell_infos = Array.of_list (List.rev cells.infos) in
  let resolve_vis (v : Ast.visibility) : bool array =
    let vis = Array.make n_cells false in
    (match v with
    | V_all -> Array.fill vis 0 n_cells true
    | V_min -> ()
    | V_decode ->
      Array.iteri
        (fun i (c : Spec.cell_info) ->
          match c.kind with
          | K_operand_id | K_field { decode_info = true } -> vis.(i) <- true
          | K_field { decode_info = false } | K_operand_val -> ())
        cell_infos
    | V_show ids ->
      List.iter
        (fun (id : Ast.ident) ->
          match Hashtbl.find_opt cells.table id.id with
          | Some c -> vis.(c) <- true
          | None -> err id.span "unknown field or operand '%s'" id.id)
        ids
    | V_hide ids ->
      Array.fill vis 0 n_cells true;
      List.iter
        (fun (id : Ast.ident) ->
          match Hashtbl.find_opt cells.table id.id with
          | Some c -> vis.(c) <- false
          | None -> err id.span "unknown field or operand '%s'" id.id)
        ids);
    vis
  in
  let buildsets =
    List.filter_map
      (fun (b : Ast.buildset_decl) ->
        guard (fun () ->
            let entrypoints =
              Array.of_list
                (List.map
                   (fun (ep : Ast.entrypoint) ->
                     ( ep.ep_name.id,
                       List.map
                         (fun (a : Ast.ident) ->
                           if not (List.mem a.id seq_names) then
                             err a.span "action '%s' is not in the sequence"
                               a.id;
                           sym_of_name a.id)
                         ep.ep_actions ))
                   b.b_entrypoints)
            in
            (* The concatenation of entrypoint actions must equal the
               sequence exactly: nothing duplicated, nothing left out. *)
            let flat = Array.to_list entrypoints |> List.concat_map snd in
            let expected = Array.to_list sequence in
            if flat <> expected then
              err b.b_name.span
                "buildset '%s': entrypoints must partition the action \
                 sequence [%s] in order (got [%s])"
                b.b_name.id
                (String.concat ", " (List.map Spec.action_sym_name expected))
                (String.concat ", " (List.map Spec.action_sym_name flat));
            {
              Spec.bs_name = b.b_name.id;
              bs_speculation = b.b_speculation;
              bs_block = b.b_block;
              bs_visible = resolve_vis b.b_visibility;
              bs_explicit_visibility =
                (match b.b_visibility with
                | V_show _ | V_hide _ -> true
                | V_all | V_min | V_decode -> false);
              bs_entrypoints = entrypoints;
              bs_span = b.b_name.span;
            }))
      env.buildsets
    |> Array.of_list
  in
  let bs_seen = Hashtbl.create 8 in
  Array.iter
    (fun (b : Spec.buildset) ->
      if Hashtbl.mem bs_seen b.bs_name then
        record Loc.dummy (Printf.sprintf "duplicate buildset '%s'" b.bs_name);
      Hashtbl.add bs_seen b.bs_name ())
    buildsets;

  (* ABI *)
  let abi =
    match env.abi with
    | None -> None
    | Some (a : Ast.abi_decl) ->
      guard (fun () ->
          let r (id, idx) =
            match Hashtbl.find_opt class_tbl id.Ast.id with
            | Some c -> (c, idx)
            | None -> err id.Ast.span "unknown register class '%s'" id.Ast.id
          in
          {
            Machine.Os_emu.nr = r a.abi_nr;
            args = Array.of_list (List.map r a.abi_args);
            ret = r a.abi_ret;
          })
  in

  match List.rev !errors with
  | [] ->
    Ok
      {
        Spec.name = props.p_name;
        endian = props.p_endian;
        wordsize = props.p_wordsize;
        instr_bytes = props.p_instr_bytes;
        decode_lo = props.p_decode_lo;
        decode_len = props.p_decode_len;
        reg_classes;
        cells = cell_infos;
        opclass_cell;
        sequence;
        instrs;
        buildsets;
        abi;
        line_stats;
        isa_span = props.p_span;
      }
  | errs -> Error errs
 with Loc.Error (span, msg) -> Error [ (span, msg) ]

(** [analyze decls] is {!analyze_all} restricted to the historical
    interface: the first error (in source order) is raised as
    {!Loc.Error}. *)
let analyze ?line_stats (decls : Ast.t) : Spec.t =
  match analyze_all ?line_stats decls with
  | Ok spec -> spec
  | Error ((span, msg) :: _) -> raise (Loc.Error (span, msg))
  | Error [] -> assert false

(* Each file is parsed once; its declarations also give the buildset
   count of the line statistics. *)
let parse_counted (sources : Ast.source list) : Ast.t * Count.stats =
  let files =
    List.map
      (fun (s : Ast.source) -> (s, Parser.parse ~file:s.src_name s.src_text))
      sources
  in
  (List.concat_map snd files, Count.of_parsed files)

(** [load_all sources] parses and analyzes description files, reporting
    every resolution error (parse errors still abort at the first). *)
let load_all (sources : Ast.source list) :
    (Spec.t, (Loc.span * string) list) result =
  match parse_counted sources with
  | exception Loc.Error (span, msg) -> Error [ (span, msg) ]
  | decls, line_stats -> analyze_all ~line_stats decls

(** [load sources] parses and analyzes a list of description files. *)
let load (sources : Ast.source list) : Spec.t =
  let decls, line_stats = parse_counted sources in
  analyze ~line_stats decls
