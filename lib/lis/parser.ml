(** Recursive-descent parser for LIS.

    The grammar is LL(2); expressions use precedence climbing. All errors
    are reported through {!Loc.Error} with the offending span. *)

type st = {
  toks : Lexer.t;
  mutable i : int;
  mutable span_i : int;  (** the token whose span [span] is *)
  mutable span : Loc.span;
}

let cur_tok st = Lexer.tok st.toks st.i

(* Every precedence level asks for the span of the token an expression
   starts at, so the current token's span is built once. *)
let cur_span st =
  if st.span_i <> st.i then begin
    st.span <- Lexer.span st.toks st.i;
    st.span_i <- st.i
  end;
  st.span

let advance st = if st.i < Lexer.length st.toks - 1 then st.i <- st.i + 1

let err st fmt = Loc.error (cur_span st) fmt

let expect st (t : Token.t) =
  if cur_tok st = t then advance st
  else
    err st "expected '%s' but found '%s'" (Token.to_string t)
      (Token.to_string (cur_tok st))

let accept st (t : Token.t) =
  if cur_tok st = t then begin
    advance st;
    true
  end
  else false

let ident st : Ast.ident =
  match cur_tok st with
  | Ident id ->
    let span = cur_span st in
    advance st;
    { id; span }
  | t -> err st "expected identifier, found '%s'" (Token.to_string t)

(** Accepts a specific keyword (LIS has no reserved words; keywords are
    contextual identifiers). *)
let keyword st kw =
  match cur_tok st with
  | Ident id when String.equal id kw -> advance st
  | t -> err st "expected '%s', found '%s'" kw (Token.to_string t)

let accept_keyword st kw =
  match cur_tok st with
  | Ident id when String.equal id kw ->
    advance st;
    true
  | _ -> false

let int_lit st =
  match cur_tok st with
  | Int v ->
    advance st;
    v
  | t -> err st "expected integer literal, found '%s'" (Token.to_string t)

let int_lit_small st =
  let span = cur_span st in
  let v = int_lit st in
  if Int64.compare v 0L < 0 || Int64.compare v 0x3FFFFFFFL > 0 then
    Loc.error span "integer out of range"
  else Int64.to_int v

let string_lit st =
  match cur_tok st with
  | String s ->
    advance st;
    s
  | t -> err st "expected string literal, found '%s'" (Token.to_string t)

let ident_list st =
  let rec go acc =
    let id = ident st in
    if accept st Comma then go (id :: acc) else List.rev (id :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let width_of_name (w : Ast.ident) : Semir.Ir.width * bool =
  match w.id with
  | "u8" -> (Semir.Ir.W1, false)
  | "u16" -> (Semir.Ir.W2, false)
  | "u32" -> (Semir.Ir.W4, false)
  | "u64" -> (Semir.Ir.W8, false)
  | "s8" -> (Semir.Ir.W1, true)
  | "s16" -> (Semir.Ir.W2, true)
  | "s32" -> (Semir.Ir.W4, true)
  | "s64" -> (Semir.Ir.W8, true)
  | name ->
    Loc.error w.span "unknown access width '%s' (expected u8..u64 or s8..s64)"
      name

(* The binary operators, one precedence level each, loosest first; 0 is
   not a binary operator. All are left-associative. *)
let binary_prec (t : Token.t) =
  match t with
  | BarBar -> 1
  | AmpAmp -> 2
  | Bar -> 3
  | Caret -> 4
  | Amp -> 5
  | EqEq | NotEq -> 6
  | Lt | Le | Gt | Ge -> 7
  | Shl | Shr -> 8
  | Plus | Minus -> 9
  | Star | Slash | Percent -> 10
  | _ -> 0

let binary_node (t : Token.t) a b : Ast.expr_desc =
  match t with
  | BarBar -> E_log_or (a, b)
  | AmpAmp -> E_log_and (a, b)
  | Bar -> E_bin (Or, a, b)
  | Caret -> E_bin (Xor, a, b)
  | Amp -> E_bin (And, a, b)
  | EqEq -> E_bin (Eq, a, b)
  | NotEq -> E_bin (Ne, a, b)
  | Lt -> E_bin (Lts, a, b)
  | Le -> E_bin (Les, a, b)
  (* a > b  ==  b < a *)
  | Gt -> E_bin (Lts, b, a)
  | Ge -> E_bin (Les, b, a)
  | Shl -> E_bin (Shl, a, b)
  | Shr -> E_bin (Lshr, a, b)
  | Plus -> E_bin (Add, a, b)
  | Minus -> E_bin (Sub, a, b)
  | Star -> E_bin (Mul, a, b)
  | Slash -> E_bin (Divs, a, b)
  | Percent -> E_bin (Rems, a, b)
  | _ -> assert false

let rec expr st : Ast.expr = ternary st

and ternary st =
  let start = cur_span st in
  let c = binary st 1 in
  if accept st Question then begin
    let a = expr st in
    expect st Colon;
    let b = ternary st in
    { e = E_ite (c, a, b); espan = start }
  end
  else c

(* Precedence climbing: the operators of level [min_prec] or tighter,
   each node spanning from its left operand's start. *)
and binary st min_prec =
  let start = cur_span st in
  climb st min_prec start (unary st)

and climb st min_prec start lhs =
  let t = cur_tok st in
  let prec = binary_prec t in
  if prec < min_prec then lhs
  else begin
    advance st;
    let rhs = binary st (prec + 1) in
    climb st min_prec start { e = binary_node t lhs rhs; espan = start }
  end

and unary st =
  let start = cur_span st in
  match cur_tok st with
  | Minus ->
    advance st;
    { e = E_un (Semir.Ir.Neg, unary st); espan = start }
  | Tilde ->
    advance st;
    { e = E_un (Semir.Ir.Not, unary st); espan = start }
  | Bang ->
    advance st;
    { e = E_un (Semir.Ir.Bool_not, unary st); espan = start }
  | _ -> primary st

and primary st : Ast.expr =
  let start = cur_span st in
  let mk e : Ast.expr = { e; espan = start } in
  match cur_tok st with
  | Int v ->
    advance st;
    mk (E_int v)
  | Lparen ->
    advance st;
    let e = expr st in
    expect st Rparen;
    e
  | Ident "pc" ->
    advance st;
    mk E_pc
  | Ident "next_pc" ->
    advance st;
    mk E_next_pc
  | Ident "bits" ->
    advance st;
    bits_expr st ~signed:false ~start
  | Ident "sbits" ->
    advance st;
    bits_expr st ~signed:true ~start
  | Ident "load" ->
    advance st;
    expect st Dot;
    let w = ident st in
    let width, signed = width_of_name w in
    expect st Lparen;
    let addr = expr st in
    expect st Rparen;
    mk (E_load { width; signed; addr })
  | Ident "reg" ->
    advance st;
    expect st Dot;
    let cls = ident st in
    expect st Lbracket;
    let idx = expr st in
    expect st Rbracket;
    mk (E_reg (cls.id, idx))
  | Ident name when Lexer.tok st.toks (st.i + 1) = Token.Lparen ->
    advance st;
    advance st;
    let args =
      if cur_tok st = Rparen then []
      else
        let rec go acc =
          let a = expr st in
          if accept st Comma then go (a :: acc) else List.rev (a :: acc)
        in
        go []
    in
    expect st Rparen;
    mk (E_call (name, args))
  | Ident name ->
    advance st;
    mk (E_var name)
  | t -> err st "expected expression, found '%s'" (Token.to_string t)

and bits_expr st ~signed ~start : Ast.expr =
  expect st Lparen;
  let lo = expr st in
  expect st Comma;
  let len = expr st in
  expect st Rparen;
  { e = E_bits { lo; len; signed }; espan = start }

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec stmt st : Ast.stmt =
  let start = cur_span st in
  let mk s : Ast.stmt = { s; sspan = start } in
  match cur_tok st with
  | Ident "if" ->
    advance st;
    expect st Lparen;
    let c = expr st in
    expect st Rparen;
    let t = block st in
    let f =
      if accept_keyword st "else" then
        if cur_tok st = Ident "if" then [ stmt st ] else block st
      else []
    in
    mk (S_if (c, t, f))
  | Ident "fault" ->
    advance st;
    let kind = ident st in
    let s =
      match kind.id with
      | "illegal" -> Ast.S_fault_illegal
      | "unaligned" ->
        expect st Lparen;
        let e = expr st in
        expect st Rparen;
        Ast.S_fault_unaligned e
      | "arith" ->
        expect st Lparen;
        let m = string_lit st in
        expect st Rparen;
        Ast.S_fault_arith m
      | other -> Loc.error kind.span "unknown fault kind '%s'" other
    in
    expect st Semi;
    mk s
  | Ident "syscall" ->
    advance st;
    expect st Semi;
    mk S_syscall
  | Ident "halt" ->
    advance st;
    expect st Semi;
    mk S_halt
  | Ident "store" ->
    advance st;
    expect st Dot;
    let w = ident st in
    let width, _ = width_of_name w in
    expect st Lparen;
    let addr = expr st in
    expect st Comma;
    let value = expr st in
    expect st Rparen;
    expect st Semi;
    mk (S_store { width; addr; value })
  | Ident "next_pc" ->
    advance st;
    expect st Assign;
    let e = expr st in
    expect st Semi;
    mk (S_set_next_pc e)
  | Ident "reg" ->
    advance st;
    expect st Dot;
    let cls = ident st in
    expect st Lbracket;
    let idx = expr st in
    expect st Rbracket;
    expect st Assign;
    let v = expr st in
    expect st Semi;
    mk (S_set_reg (cls.id, idx, v))
  | Ident name ->
    advance st;
    expect st Assign;
    let e = expr st in
    expect st Semi;
    mk (S_set (name, e))
  | t -> err st "expected statement, found '%s'" (Token.to_string t)

and block st : Ast.stmt list =
  expect st Lbrace;
  let rec go acc =
    if accept st Rbrace then List.rev acc else go (stmt st :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let isa_decl st span : Ast.decl =
  let name = string_lit st in
  expect st Lbrace;
  let endian = ref Machine.Memory.Little in
  let wordsize = ref 64 in
  let instr_bytes = ref 4 in
  let decode_lo = ref 26 in
  let decode_len = ref 6 in
  let rec go () =
    if accept st Rbrace then ()
    else begin
      let k = ident st in
      (match k.id with
      | "endian" ->
        let e = ident st in
        endian :=
          (match e.id with
          | "little" -> Machine.Memory.Little
          | "big" -> Machine.Memory.Big
          | other -> Loc.error e.span "unknown endianness '%s'" other)
      | "wordsize" -> wordsize := int_lit_small st
      | "instrsize" -> instr_bytes := int_lit_small st
      | "decodekey" ->
        decode_lo := int_lit_small st;
        decode_len := int_lit_small st
      | other -> Loc.error k.span "unknown isa property '%s'" other);
      expect st Semi;
      go ()
    end
  in
  go ();
  D_isa
    {
      p_name = name;
      p_endian = !endian;
      p_wordsize = !wordsize;
      p_instr_bytes = !instr_bytes;
      p_decode_lo = !decode_lo;
      p_decode_len = !decode_len;
      p_span = span;
    }

let regclass_decl st : Ast.decl =
  let name = ident st in
  let count = int_lit_small st in
  keyword st "width";
  let width = int_lit_small st in
  let zero = if accept_keyword st "zero" then Some (int_lit_small st) else None in
  expect st Semi;
  D_regclass { r_name = name; r_count = count; r_width = width; r_zero = zero }

let field_decl st : Ast.decl =
  let name = ident st in
  if accept st Colon then ignore (ident st);
  let decode_info = accept_keyword st "decode" in
  expect st Semi;
  D_field { f_name = name; f_decode_info = decode_info }

let operand_decl st : Ast.operand_decl =
  let name = ident st in
  expect st Colon;
  let cls = ident st in
  expect st Lbracket;
  keyword st "bits";
  expect st Lparen;
  let lo = int_lit_small st in
  expect st Comma;
  let len = int_lit_small st in
  expect st Rparen;
  expect st Rbracket;
  let read = ref false and write = ref false in
  let rec flags () =
    if accept_keyword st "read" then begin
      read := true;
      flags ()
    end
    else if accept_keyword st "write" then begin
      write := true;
      flags ()
    end
  in
  flags ();
  if not (!read || !write) then
    Loc.error name.span "operand '%s' must be read, write or both" name.id;
  expect st Semi;
  {
    o_name = name;
    o_class = cls;
    o_lo = lo;
    o_len = len;
    o_read = !read;
    o_write = !write;
  }

let action_def st : Ast.action_def =
  let name = ident st in
  let body = block st in
  { a_name = name; a_body = body }

let instr_like st : Ast.instr_like =
  expect st Lbrace;
  let operands = ref [] and actions = ref [] in
  let rec go () =
    if accept st Rbrace then ()
    else if accept_keyword st "operand" then begin
      operands := operand_decl st :: !operands;
      go ()
    end
    else if accept_keyword st "action" then begin
      actions := action_def st :: !actions;
      go ()
    end
    else err st "expected 'operand', 'action' or '}'"
  in
  go ();
  { d_operands = List.rev !operands; d_actions = List.rev !actions }

let class_decl st : Ast.decl =
  let name = ident st in
  let body = instr_like st in
  D_class { c_name = name; c_body = body }

let instr_decl st : Ast.decl =
  let name = ident st in
  let classes = if accept st Colon then ident_list st else [] in
  let size =
    if accept_keyword st "size" then Some (int_lit_small st) else None
  in
  keyword st "match";
  let m = int_lit st in
  keyword st "mask";
  let msk = int_lit st in
  let body =
    if cur_tok st = Lbrace then instr_like st
    else begin
      expect st Semi;
      { Ast.d_operands = []; d_actions = [] }
    end
  in
  D_instr
    {
      i_name = name;
      i_classes = classes;
      i_size = size;
      i_match = m;
      i_mask = msk;
      i_body = body;
    }

let override_decl st : Ast.decl =
  let instr = ident st in
  keyword st "action";
  let action = ident st in
  let body = block st in
  D_override { ov_instr = instr; ov_action = action; ov_body = body }

let buildset_decl st : Ast.decl =
  let name = ident st in
  expect st Lbrace;
  let speculation = ref false in
  let block_mode = ref false in
  let visibility = ref Ast.V_all in
  let entrypoints = ref [] in
  let rec go () =
    if accept st Rbrace then ()
    else begin
      let k = ident st in
      (match k.id with
      | "speculation" ->
        let v = ident st in
        (speculation :=
           match v.id with
           | "on" -> true
           | "off" -> false
           | other ->
             Loc.error v.span "expected 'on' or 'off', found '%s'" other);
        expect st Semi
      | "semantic" ->
        keyword st "block";
        block_mode := true;
        expect st Semi
      | "visibility" ->
        let v = ident st in
        (visibility :=
           match v.id with
           | "all" -> Ast.V_all
           | "min" -> Ast.V_min
           | "decode" -> Ast.V_decode
           | "show" -> Ast.V_show (ident_list st)
           | "hide" -> Ast.V_hide (ident_list st)
           | other -> Loc.error v.span "unknown visibility '%s'" other);
        expect st Semi
      | "entrypoint" ->
        let ep_name = ident st in
        expect st Assign;
        let actions = ident_list st in
        expect st Semi;
        entrypoints := { Ast.ep_name; ep_actions = actions } :: !entrypoints
      | other -> Loc.error k.span "unknown buildset item '%s'" other);
      go ()
    end
  in
  go ();
  D_buildset
    {
      b_name = name;
      b_speculation = !speculation;
      b_block = !block_mode;
      b_visibility = !visibility;
      b_entrypoints = List.rev !entrypoints;
    }

let abi_decl st : Ast.decl =
  expect st Lbrace;
  let nr = ref None and ret = ref None and args = ref [] in
  let rec go () =
    if accept st Rbrace then ()
    else begin
      let k = ident st in
      expect st Assign;
      let cls = ident st in
      expect st Lbracket;
      let idx = int_lit_small st in
      expect st Rbracket;
      expect st Semi;
      (match k.id with
      | "nr" -> nr := Some (cls, idx)
      | "ret" -> ret := Some (cls, idx)
      | s when String.length s > 3 && String.sub s 0 3 = "arg" ->
        args := (s, (cls, idx)) :: !args
      | other -> Loc.error k.span "unknown abi item '%s'" other);
      go ()
    end
  in
  go ();
  let nr = match !nr with Some v -> v | None -> err st "abi missing 'nr'" in
  let ret = match !ret with Some v -> v | None -> err st "abi missing 'ret'" in
  let args =
    List.sort (fun (a, _) (b, _) -> String.compare a b) !args |> List.map snd
  in
  D_abi { abi_nr = nr; abi_args = args; abi_ret = ret }

let decl st : Ast.decl =
  let span = cur_span st in
  let k = ident st in
  match k.id with
  | "isa" -> isa_decl st span
  | "regclass" -> regclass_decl st
  | "field" -> field_decl st
  | "sequence" ->
    let ids = ident_list st in
    expect st Semi;
    D_sequence ids
  | "class" -> class_decl st
  | "instr" -> instr_decl st
  | "override" -> override_decl st
  | "buildset" -> buildset_decl st
  | "abi" -> abi_decl st
  | other -> Loc.error k.span "unknown declaration '%s'" other

(** [parse ~file src] parses one LIS source file.
    @raise Loc.Error on syntax errors. *)
let parse ~file src : Ast.t =
  let st = { toks = Lexer.lex ~file src; i = 0; span_i = -1; span = Loc.dummy } in
  let rec go acc =
    if cur_tok st = Eof then List.rev acc else go (decl st :: acc)
  in
  go []

(** [parse_sources srcs] parses and concatenates several description files
    (ISA description, OS support, buildsets — the paper's file layout). *)
let parse_sources (srcs : Ast.source list) : Ast.t =
  List.concat_map (fun s -> parse ~file:s.Ast.src_name s.Ast.src_text) srcs
