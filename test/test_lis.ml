(** Front-end tests: lexer, parser, semantic analysis, statistics. *)

let spec () = Lazy.force Demo_isa.spec

let parse_isa ?(extra = "") () =
  Lis.Sema.load
    [
      {
        Lis.Ast.src_role = Lis.Ast.Isa_description;
        src_name = "demo.lis";
        src_text = Demo_isa.isa_text ^ extra;
      };
      {
        Lis.Ast.src_role = Lis.Ast.Buildset_file;
        src_name = "bs.lis";
        src_text = Demo_isa.buildsets_text;
      };
    ]

let expect_error ~substring f =
  match f () with
  | exception Lis.Loc.Error (span, msg) ->
    let text = Lis.Loc.error_to_string (span, msg) in
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    if not (contains text substring) then
      Alcotest.failf "error %S does not mention %S" text substring
  | _ -> Alcotest.fail "expected a front-end error"

(* ------------------------------------------------------------------ *)

let test_demo_shape () =
  let s = spec () in
  Alcotest.(check string) "name" "demo" s.name;
  Alcotest.(check int) "instructions" 10 (Array.length s.instrs);
  Alcotest.(check int) "buildsets" 12 (Array.length s.buildsets);
  Alcotest.(check int) "register classes" 1 (Array.length s.reg_classes);
  (* cells: effective_addr, alu_out, opclass, (ra,rb,rc) x (val,id) *)
  Alcotest.(check int) "cells" 9 (Lis.Spec.n_cells s);
  Alcotest.(check int) "wordsize" 64 s.wordsize;
  Alcotest.(check bool) "abi present" true (s.abi <> None)

let test_class_inheritance () =
  let s = spec () in
  let add = Lis.Spec.find_instr s "ADD" in
  Alcotest.(check int) "ADD has 3 operands" 3 (Array.length add.i_operands);
  let ldq = Lis.Spec.find_instr s "LDQ" in
  (* ra from class 'mem', rc its own *)
  Alcotest.(check int) "LDQ has 2 operands" 2 (Array.length ldq.i_operands);
  Alcotest.(check bool) "LDQ has class action 'address'" true
    (List.mem_assoc "address" ldq.i_user)

let test_decoder () =
  let s = spec () in
  let d = Specsim.Decoder.make s in
  let add = Lis.Spec.find_instr s "ADD" in
  Alcotest.(check int) "ADD decodes" add.i_index
    (Specsim.Decoder.decode d (Demo_isa.add ~ra:1 ~rb:2 ~rc:3));
  let sub = Lis.Spec.find_instr s "SUB" in
  Alcotest.(check int) "SUB decodes" sub.i_index
    (Specsim.Decoder.decode d (Demo_isa.sub ~ra:1 ~rb:2 ~rc:3));
  Alcotest.(check int) "garbage rejected" (-1) (Specsim.Decoder.decode d 0xFFFFFFFFL);
  Alcotest.(check (list (pair string string))) "no ambiguous encodings" []
    (Specsim.Decoder.overlaps s)

let test_line_stats () =
  let s = spec () in
  let st = s.line_stats in
  Alcotest.(check bool) "isa lines counted" true (st.isa_lines > 50);
  Alcotest.(check int) "buildsets counted" 12 st.buildset_count;
  let per = Lis.Count.lines_per_buildset st in
  Alcotest.(check bool) "a buildset is a handful of lines" true
    (per >= 4. && per <= 20.)

let test_comment_counting () =
  Alcotest.(check int) "comments and blanks ignored" 2
    (Lis.Count.code_lines "// nothing\n\nfield a : u64;\n/* block\ncomment */\nfield b : u64;\n")

(* ------------------------------------------------------------------ *)
(* Error reporting                                                     *)
(* ------------------------------------------------------------------ *)

let test_syntax_error_position () =
  expect_error ~substring:"bad.lis:3" (fun () ->
      Lis.Parser.parse ~file:"bad.lis" "isa \"x\" {\n  endian little;\n  wordsize;\n}")

let test_unknown_field () =
  expect_error ~substring:"unknown field or operand 'bogus'" (fun () ->
      parse_isa
        ~extra:
          {|
instr BAD match 0x5C000000 mask 0xFC000000 {
  action evaluate { bogus = 1; }
}
|}
        ())

let test_bad_partition () =
  expect_error ~substring:"must partition the action sequence" (fun () ->
      Lis.Sema.load
        [
          {
            Lis.Ast.src_role = Lis.Ast.Isa_description;
            src_name = "demo.lis";
            src_text = Demo_isa.isa_text;
          };
          {
            Lis.Ast.src_role = Lis.Ast.Buildset_file;
            src_name = "bad_bs.lis";
            src_text =
              {|
buildset broken {
  visibility all;
  entrypoint a = fetch, decode;
  entrypoint b = read_operands, evaluate, address, memory, writeback, exception;
}
|};
          };
        ])

let test_match_outside_mask () =
  expect_error ~substring:"outside mask" (fun () ->
      parse_isa
        ~extra:
          "\ninstr BAD2 match 0x5C000001 mask 0xFC000000 { action evaluate { alu_out = 1; } }\n"
        ())

let test_duplicate_instr () =
  expect_error ~substring:"duplicate instruction" (fun () ->
      parse_isa
        ~extra:
          "\ninstr ADD match 0x5C000000 mask 0xFC000000 { action evaluate { alu_out = 1; } }\n"
        ())

let test_unknown_action () =
  expect_error ~substring:"not in the sequence" (fun () ->
      parse_isa
        ~extra:
          "\ninstr BAD3 match 0x5C000000 mask 0xFC000000 { action frobnicate { alu_out = 1; } }\n"
        ())

let test_unterminated_comment () =
  expect_error ~substring:"unterminated" (fun () ->
      Lis.Parser.parse ~file:"c.lis" "/* oops")

let test_override () =
  let s =
    parse_isa
      ~extra:"\noverride SYS action exception { halt; }\n"
      ()
  in
  let sys = Lis.Spec.find_instr s "SYS" in
  match List.assoc "exception" sys.i_user with
  | [ Semir.Ir.Halt ] -> ()
  | p ->
    Alcotest.failf "override not applied: %a" (Semir.Ir.pp_program ?cell_name:None) p

(* ------------------------------------------------------------------ *)
(* Expression translation fidelity (via a one-instruction ISA)          *)
(* ------------------------------------------------------------------ *)

let eval_expr_text text =
  (* Wrap [text] as the evaluate action of a tiny ISA and execute it. *)
  let isa =
    Printf.sprintf
      {|
isa "x" { endian little; wordsize 64; instrsize 4; decodekey 26 6; }
regclass G 4 width 64;
field out : u64;
instr T match 0 mask 0 {
  action evaluate { out = %s; halt; }
}
buildset b {
  visibility all;
  entrypoint e = fetch, decode, read_operands, address, evaluate, memory, writeback, exception;
}
|}
      text
  in
  let spec =
    Lis.Sema.load
      [ { Lis.Ast.src_role = Lis.Ast.Isa_description; src_name = "x.lis"; src_text = isa } ]
  in
  let iface = Specsim.Synth.make spec "b" in
  Machine.Regfile.write iface.st.regs ~cls:0 ~idx:1 10L;
  Machine.Regfile.write iface.st.regs ~cls:0 ~idx:2 (-3L);
  let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
  iface.run_one di;
  Specsim.Di.get di (Specsim.Iface.slot_of_exn iface "out")

let check_expr text expected () =
  Alcotest.(check int64) text expected (eval_expr_text text)

let expr_cases =
  [
    ("1 + 2 * 3", 7L);
    ("(1 + 2) * 3", 9L);
    ("10 - 2 - 3", 5L);
    ("1 << 4 | 2", 18L);
    ("0xFF & 0x0F0", 0xF0L);
    ("5 < 3", 0L);
    ("3 < 5 ? 42 : 7", 42L);
    ("-5 / 2", -2L);
    ("udiv(0 - 1, 2)", 0x7FFFFFFFFFFFFFFFL);
    ("sext(0xFF, 8)", -1L);
    ("zext(0 - 1, 16)", 0xFFFFL);
    ("asr(0 - 8, 1)", -4L);
    ("ror(1, 1)", Int64.min_int);
    ("ltu(0 - 1, 1)", 0L);
    ("gtu(0 - 1, 1)", 1L);
    ("popcount(0xFF)", 8L);
    ("clz(1)", 63L);
    ("1 && 2", 1L);
    ("0 || 3", 1L);
    ("!(5)", 0L);
    ("~0", -1L);
    ("reg.G[1]", 10L);
    ("reg.G[1] + reg.G[2]", 7L);
    ("reg.G[1] >= reg.G[2] ? 1 : 0", 1L);
    ("5 % 3", 2L);
    ("pc", 0L);
    ("next_pc", 4L);
  ]

(* ------------------------------------------------------------------ *)
(* Exact front-end positions                                           *)
(* ------------------------------------------------------------------ *)

(* Every lexer error path, a parse error after a string literal that
   spans lines, one at end of file, and two errors that name a token
   the parser has already consumed: the full message, position
   included. *)
let position_cases =
  [
    ( "unterminated block comment across lines",
      "c.lis",
      "field a : u64;\n/* oops\n  still open\n",
      "c.lis:4:1: unterminated block comment" );
    ( "unterminated string",
      "s.lis",
      "isa \"abc\n  def",
      "s.lis:2:6: unterminated string literal" );
    ("unknown escape", "e.lis", "isa \"ab\\qc\" {}", "e.lis:1:9: unknown escape \\q");
    ( "0x without digits",
      "h.lis",
      "regclass G 0x;",
      "h.lis:1:14: expected hexadecimal digits after 0x" );
    ( "invalid integer literal",
      "i.lis",
      "regclass G\n  99999999999999999999999 width 64;",
      "i.lis:2:26: invalid integer literal 99999999999999999999999" );
    ( "unexpected character",
      "u.lis",
      "field a : u64;\n  field b @ u64;",
      "u.lis:2:11: unexpected character '@'" );
    ( "token after a multi-line string",
      "m.lis",
      "isa \"multi\nline\n  name\" 5 {}",
      "m.lis:3:9: expected '{' but found '5'" );
    ( "end of file after a newline",
      "f.lis",
      "isa \"x\" {\n  endian little;\n",
      "f.lis:3:1: expected identifier, found '<eof>'" );
    ( "integer out of range",
      "x.lis",
      "regclass GPR 32 width 99999999999 zero 31;",
      "x.lis:1:23: integer out of range" );
    ( "unknown endianness",
      "x.lis",
      "isa \"x\" {\n  endian sideways;\n}",
      "x.lis:2:10: unknown endianness 'sideways'" );
    ( "unknown isa property",
      "p.lis",
      "isa \"x\" {\n  bogus 1;",
      "p.lis:2:3: unknown isa property 'bogus'" );
    ( "unknown fault kind",
      "k.lis",
      "instr BAD match 0x5C000000 mask 0xFC000000 {\n\
      \  action evaluate { fault bogus; }\n}",
      "k.lis:2:27: unknown fault kind 'bogus'" );
    ( "unknown access width",
      "w.lis",
      "instr BAD match 0x5C000000 mask 0xFC000000 {\n\
      \  action evaluate { store.u7(0, 1); }\n}",
      "w.lis:2:27: unknown access width 'u7' (expected u8..u64 or s8..s64)" );
    ( "expected 'on' or 'off'",
      "o.lis",
      "buildset b {\n  speculation maybe;\n}",
      "o.lis:2:15: expected 'on' or 'off', found 'maybe'" );
    ( "unknown visibility",
      "v.lis",
      "buildset b {\n  visibility some;\n}",
      "v.lis:2:14: unknown visibility 'some'" );
    ( "unknown buildset item",
      "b.lis",
      "buildset b {\n  colour red;\n}",
      "b.lis:2:3: unknown buildset item 'colour'" );
    ( "unknown abi item",
      "a.lis",
      "abi {\n  nr = GPR[0];\n  bogus = GPR[1];\n}",
      "a.lis:3:3: unknown abi item 'bogus'" );
  ]

(* One-byte tokens on one-token lines: more tokens and lines than the
   stream's initial arrays hold. *)
let test_dense_stream () =
  let n = 600 in
  let src = String.concat "" (List.init n (fun _ -> "(\n")) in
  let s = Lis.Lexer.lex ~file:"d.lis" src in
  Alcotest.(check int) "tokens" (n + 1) (Lis.Lexer.length s);
  let pos i =
    let sp = Lis.Lexer.span s i in
    (sp.start.line, sp.start.col, sp.stop.line, sp.stop.col)
  in
  Alcotest.(check (list (pair int int)))
    "first and last '(' and Eof"
    [ (1, 1); (1, 2); (n, 1); (n, 2); (n + 1, 1); (n + 1, 1) ]
    (List.concat_map
       (fun i ->
         let l0, c0, l1, c1 = pos i in
         [ (l0, c0); (l1, c1) ])
       [ 0; n - 1; n ]);
  Alcotest.(check bool) "Eof last" true (Lis.Lexer.tok s n = Lis.Token.Eof)

(* A token's span on one line, and the one token whose stop is on a
   later line than its start: a string literal that spans lines. *)
let test_multiline_span () =
  let s = Lis.Lexer.lex ~file:"m.lis" "isa \"multi\nline\n  name\" 5\n{}" in
  let pos i =
    let sp = Lis.Lexer.span s i in
    (sp.start.line, sp.start.col, sp.stop.line, sp.stop.col)
  in
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "isa, the string, 5, {, }, Eof"
    [
      ((1, 1), (1, 4));
      ((1, 5), (3, 8));
      ((3, 9), (3, 10));
      ((4, 1), (4, 2));
      ((4, 2), (4, 3));
      ((4, 3), (4, 3));
    ]
    (List.init (Lis.Lexer.length s) (fun i ->
         let l0, c0, l1, c1 = pos i in
         ((l0, c0), (l1, c1))))

(* Integer literals against the stdlib's reading of the same text:
   unsigned up to 2^64 - 1 in both bases, underscores ignored, and
   "invalid integer literal" past that. *)
let prop_int_literal =
  let open QCheck.Gen in
  let dec = List.init 10 (fun i -> Char.chr (48 + i)) in
  let hex = dec @ [ 'a'; 'f'; 'A'; 'F' ] in
  let body chars =
    let* first = oneofl chars in
    let* n = int_range 0 24 in
    let+ rest = list_repeat n (frequency [ (9, oneofl chars); (1, return '_') ]) in
    String.of_seq (List.to_seq (first :: rest))
  in
  let zeros = oneofl [ ""; "0"; "0000000" ] in
  let gen =
    frequency
      [
        (3, map2 ( ^ ) zeros (body dec));
        (3, map2 (fun z b -> "0x" ^ z ^ b) zeros (body hex));
        ( 1,
          oneofl
            [
              "18446744073709551615"; "18446744073709551616";
              "18446744073709551620"; "0018446744073709551615";
              "1_8446744073709551615"; "9223372036854775808";
              "0xFFFFFFFFFFFFFFFF"; "0x10000000000000000";
              "0x0_FFFF_FFFF_FFFF_FFFF"; "0XfFfF_"; "4611686018427387904";
            ] );
      ]
  in
  QCheck.Test.make ~name:"integer literals = Int64.of_string" ~count:2000
    (QCheck.make ~print:Fun.id gen) (fun text ->
      let plain = String.concat "" (String.split_on_char '_' text) in
      let hex = String.length plain > 1 && (plain.[1] = 'x' || plain.[1] = 'X') in
      let expected =
        match Int64.of_string_opt (if hex then plain else "0u" ^ plain) with
        | Some v -> Ok v
        | None -> Error ("invalid integer literal " ^ plain)
      in
      let got =
        match Lis.Lexer.lex ~file:"n.lis" text with
        | s -> (
          match Lis.Lexer.tok s 0 with
          | Int v when Lis.Lexer.length s = 2 -> Ok v
          | t -> Error ("lexed " ^ Lis.Token.to_string t))
        | exception Lis.Loc.Error (_, msg) -> Error msg
      in
      got = expected)

(* ------------------------------------------------------------------ *)
(* Operator precedence and associativity                               *)
(* ------------------------------------------------------------------ *)

(* Surface expressions, before [>] and [>=] swap their operands. *)
type sexpr =
  | Lit of int
  | Var of string
  | Bin of string * sexpr * sexpr
  | Un of string * sexpr
  | Ite of sexpr * sexpr * sexpr
  | Call of string * sexpr list

(* The reference precedence table, loosest first; the ternary sits
   below level 1 and the unary operators above the last level. All
   binary operators are left-associative. *)
let levels =
  [|
    [ "||" ];
    [ "&&" ];
    [ "|" ];
    [ "^" ];
    [ "&" ];
    [ "=="; "!=" ];
    [ "<"; "<="; ">"; ">=" ];
    [ "<<"; ">>" ];
    [ "+"; "-" ];
    [ "*"; "/"; "%" ];
  |]

let binary_ops = List.concat (Array.to_list levels)
let unary_level = Array.length levels + 1

let level op =
  let rec find i = if List.mem op levels.(i) then i + 1 else find (i + 1) in
  find 0

(* [e] printed where an expression of level [ctx] or tighter is
   expected, with the fewest parentheses the table allows. *)
let rec print ctx e =
  let paren l text = if l < ctx then "(" ^ text ^ ")" else text in
  match e with
  | Lit n -> string_of_int n
  | Var v -> v
  | Call (f, args) -> f ^ "(" ^ String.concat ", " (List.map (print 0) args) ^ ")"
  | Un (op, a) -> paren unary_level (op ^ print unary_level a)
  | Bin (op, a, b) ->
    let l = level op in
    paren l (print l a ^ " " ^ op ^ " " ^ print (l + 1) b)
  | Ite (c, a, b) -> paren 0 (print 1 c ^ " ? " ^ print 0 a ^ " : " ^ print 0 b)

(* The tree the parser must build for [e], spans left out. *)
let rec tree e : Lis.Ast.expr =
  let open Lis.Ast in
  let bin op a b = E_bin (op, tree a, tree b) in
  let e : expr_desc =
    match e with
    | Lit n -> E_int (Int64.of_int n)
    | Var v -> E_var v
    | Call (f, args) -> E_call (f, List.map tree args)
    | Un ("-", a) -> E_un (Neg, tree a)
    | Un ("~", a) -> E_un (Not, tree a)
    | Un (_, a) -> E_un (Bool_not, tree a)
    | Ite (c, a, b) -> E_ite (tree c, tree a, tree b)
    | Bin ("||", a, b) -> E_log_or (tree a, tree b)
    | Bin ("&&", a, b) -> E_log_and (tree a, tree b)
    | Bin ("|", a, b) -> bin Or a b
    | Bin ("^", a, b) -> bin Xor a b
    | Bin ("&", a, b) -> bin And a b
    | Bin ("==", a, b) -> bin Eq a b
    | Bin ("!=", a, b) -> bin Ne a b
    | Bin ("<", a, b) -> bin Lts a b
    | Bin ("<=", a, b) -> bin Les a b
    | Bin (">", a, b) -> bin Lts b a
    | Bin (">=", a, b) -> bin Les b a
    | Bin ("<<", a, b) -> bin Shl a b
    | Bin (">>", a, b) -> bin Lshr a b
    | Bin ("+", a, b) -> bin Add a b
    | Bin ("-", a, b) -> bin Sub a b
    | Bin ("*", a, b) -> bin Mul a b
    | Bin ("/", a, b) -> bin Divs a b
    | Bin (_, a, b) -> bin Rems a b
  in
  { e; espan = Lis.Loc.dummy }

let rec strip (x : Lis.Ast.expr) : Lis.Ast.expr =
  let open Lis.Ast in
  let e : expr_desc =
    match x.e with
    | (E_int _ | E_var _ | E_pc | E_next_pc) as d -> d
    | E_bits { lo; len; signed } -> E_bits { lo = strip lo; len = strip len; signed }
    | E_bin (op, a, b) -> E_bin (op, strip a, strip b)
    | E_log_and (a, b) -> E_log_and (strip a, strip b)
    | E_log_or (a, b) -> E_log_or (strip a, strip b)
    | E_un (op, a) -> E_un (op, strip a)
    | E_call (f, args) -> E_call (f, List.map strip args)
    | E_ite (c, a, b) -> E_ite (strip c, strip a, strip b)
    | E_load l -> E_load { l with addr = strip l.addr }
    | E_reg (c, i) -> E_reg (c, strip i)
  in
  { e; espan = Lis.Loc.dummy }

(* [text] parsed as the right-hand side of an assignment. *)
let parse_expr text =
  let src =
    Printf.sprintf
      "instr T match 0 mask 0 {\n  action evaluate { out = %s; }\n}" text
  in
  match Lis.Parser.parse ~file:"e.lis" src with
  | [ D_instr { i_body = { d_actions = [ { a_body = [ body ]; _ } ]; _ }; _ } ]
    -> (
    match body.s with
    | S_set (_, e) -> strip e
    | _ -> Alcotest.failf "%s: not an assignment" text)
  | _ -> Alcotest.failf "%s: not one statement" text

let gen_sexpr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Lit n) (int_bound 99);
        map (fun v -> Var v) (oneofl [ "a"; "b"; "c" ]);
      ]
  in
  sized_size (int_bound 24)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               ( 8,
                 map3
                   (fun op a b -> Bin (op, a, b))
                   (oneofl binary_ops) (self (n / 2)) (self (n / 2)) );
               ( 2,
                 map2
                   (fun op a -> Un (op, a))
                   (oneofl [ "-"; "~"; "!" ])
                   (self (n - 1)) );
               ( 1,
                 map3
                   (fun c a b -> Ite (c, a, b))
                   (self (n / 3)) (self (n / 3)) (self (n / 3)) );
               ( 1,
                 map2
                   (fun f args -> Call (f, args))
                   (oneofl [ "f"; "sext" ])
                   (list_size (int_bound 2) (self (n / 3))) );
             ])

let prop_precedence =
  QCheck.Test.make ~name:"fewest parentheses parse back to the same tree"
    ~count:1000
    (QCheck.make ~print:(print 0) gen_sexpr)
    (fun e -> parse_expr (print 0 e) = tree e)

(* One case per pair of adjacent levels: the tighter operator binds
   first on either side of the looser one. *)
let adjacent_cases =
  let a = Var "a" and b = Var "b" and c = Var "c" in
  [
    ( "?: below ||",
      [
        ("a || b ? a : b", Ite (Bin ("||", a, b), a, b));
        ("a ? b : c || a", Ite (a, b, Bin ("||", c, a)));
      ] );
    ( "|| below &&",
      [
        ("a || b && c", Bin ("||", a, Bin ("&&", b, c)));
        ("a && b || c", Bin ("||", Bin ("&&", a, b), c));
      ] );
    ( "&& below |",
      [
        ("a && b | c", Bin ("&&", a, Bin ("|", b, c)));
        ("a | b && c", Bin ("&&", Bin ("|", a, b), c));
      ] );
    ( "| below ^",
      [
        ("a | b ^ c", Bin ("|", a, Bin ("^", b, c)));
        ("a ^ b | c", Bin ("|", Bin ("^", a, b), c));
      ] );
    ( "^ below &",
      [
        ("a ^ b & c", Bin ("^", a, Bin ("&", b, c)));
        ("a & b ^ c", Bin ("^", Bin ("&", a, b), c));
      ] );
    ( "& below ==",
      [
        ("a & b == c", Bin ("&", a, Bin ("==", b, c)));
        ("a != b & c", Bin ("&", Bin ("!=", a, b), c));
      ] );
    ( "== below <",
      [
        ("a == b < c", Bin ("==", a, Bin ("<", b, c)));
        ("a >= b != c", Bin ("!=", Bin (">=", a, b), c));
      ] );
    ( "< below <<",
      [
        ("a > b << c", Bin (">", a, Bin ("<<", b, c)));
        ("a >> b <= c", Bin ("<=", Bin (">>", a, b), c));
      ] );
    ( "<< below +",
      [
        ("a << b + c", Bin ("<<", a, Bin ("+", b, c)));
        ("a - b >> c", Bin (">>", Bin ("-", a, b), c));
      ] );
    ( "+ below *",
      [
        ("a + b * c", Bin ("+", a, Bin ("*", b, c)));
        ("a % b - c", Bin ("-", Bin ("%", a, b), c));
      ] );
    ( "* below unary",
      [
        ("-a * b", Bin ("*", Un ("-", a), b));
        ("a / ~b", Bin ("/", a, Un ("~", b)));
      ] );
    ( "left-associative",
      [
        ("a - b - c", Bin ("-", Bin ("-", a, b), c));
        ("a < b > c", Bin (">", Bin ("<", a, b), c));
      ] );
  ]

let check_adjacent (_, cases) () =
  List.iter
    (fun (text, e) ->
      if parse_expr text <> tree e then
        Alcotest.failf "%s: parsed as another tree than %s" text (print 0 e))
    cases

(* The split-based count the one-pass [code_lines] replaced. *)
let code_lines_by_split text =
  let n = ref 0 in
  let in_block = ref false in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let has_code = ref false in
         let i = ref 0 in
         let len = String.length line in
         while !i < len do
           if !in_block then
             if !i + 1 < len && line.[!i] = '*' && line.[!i + 1] = '/' then begin
               in_block := false;
               i := !i + 2
             end
             else incr i
           else if !i + 1 < len && line.[!i] = '/' && line.[!i + 1] = '/' then
             i := len
           else if !i + 1 < len && line.[!i] = '/' && line.[!i + 1] = '*' then begin
             in_block := true;
             i := !i + 2
           end
           else begin
             if not (line.[!i] = ' ' || line.[!i] = '\t' || line.[!i] = '\r')
             then has_code := true;
             incr i
           end
         done;
         if !has_code then incr n);
  !n

let prop_code_lines =
  let open QCheck.Gen in
  let piece =
    oneofl
      [
        "//"; "/*"; "*/"; "/"; "*"; "\""; "\"/*\""; "\"//\""; "\n"; "\n"; "\r";
        "\r\n"; " "; "\t"; "x"; "field a : u64;";
      ]
  in
  QCheck.Test.make ~name:"one-pass code_lines = split-based count" ~count:2000
    (QCheck.make ~print:String.escaped
       (map (String.concat "") (list_size (int_bound 40) piece)))
    (fun text -> Lis.Count.code_lines text = code_lines_by_split text)

(* ------------------------------------------------------------------ *)
(* Pinned front-end output                                             *)
(* ------------------------------------------------------------------ *)

(* MD5 of a value marshalled without sharing: a value that shares a
   substructure digests like one that copies it. *)
let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let tiny16_sources : Lis.Ast.source list =
  [
    {
      src_role = Lis.Ast.Isa_description;
      src_name = "tiny16.lis";
      src_text = Fuzz.Tiny.isa_text;
    };
    {
      src_role = Lis.Ast.Buildset_file;
      src_name = "tiny16_buildsets.lis";
      src_text = Specsim.Detail.canonical_buildset_file ();
    };
  ]

(* The AST and the resolved spec of every shipped description, each
   digest recorded before the front end's set-up work was restructured:
   trees, spans and specs must not move. *)
let pinned_descriptions =
  [
    ( "alpha",
      Isa_alpha.Alpha.sources,
      "500cbeaefa246cd30fc8423ca839fd77",
      "b1edd8deda611c5e4b90617b1d87967f" );
    ( "arm",
      Isa_arm.Arm.sources,
      "3ea32600f5d8453ded5feaf78fc26c06",
      "ccca4e5c76e4234cfc88f7f391716e1d" );
    ( "ppc",
      Isa_ppc.Ppc.sources,
      "5563466469566a1d2092333cd2332f8b",
      "4ff126cd09dfe601fd099782211bfed7" );
    ( "riscv",
      Isa_riscv.Riscv.sources,
      "dcdc9c77617643603c2b34ec4186347f",
      "8117b33c7b1b71d8188c4e7eb7c45db6" );
    ( "tiny16",
      tiny16_sources,
      "353138eaa8ca0864182d8165418dab96",
      "06b1e392ef3c9c3402d607ef54b5ae1d" );
    ( "demo",
      Demo_isa.sources,
      "e811f651874b1b0a3704e9283960d0b3",
      "db661e156cb34d7a4a827db40e553e04" );
  ]

let test_pinned_description (_, sources, ast, spec) () =
  Alcotest.(check string) "AST" ast (digest (Lis.Parser.parse_sources sources));
  Alcotest.(check string) "spec" spec (digest (Lis.Sema.load sources))

(* The seeded bad descriptions under examples/, parsed file by file. *)
let pinned_examples =
  [
    ("lint_badspec.lis", "6b1b7c6dfca24e7db55bdeb42033e255");
    ("lint_badspec_buildsets.lis", "0fcd0d4234ee289c5c03932ed042c07f");
  ]

let examples_dir =
  if Sys.file_exists "examples" then "examples" else Filename.concat ".." "examples"

let test_pinned_example (file, ast) () =
  let text =
    In_channel.with_open_bin (Filename.concat examples_dir file) In_channel.input_all
  in
  Alcotest.(check string) "AST" ast (digest (Lis.Parser.parse ~file text))

let test_position (_, file, src, expected) () =
  match Lis.Parser.parse ~file src with
  | exception Lis.Loc.Error (span, msg) ->
    Alcotest.(check string) "error" expected (Lis.Loc.error_to_string (span, msg))
  | _ -> Alcotest.fail "expected a front-end error"

let suite =
  [
    Alcotest.test_case "demo spec shape" `Quick test_demo_shape;
    Alcotest.test_case "class inheritance" `Quick test_class_inheritance;
    Alcotest.test_case "decoder" `Quick test_decoder;
    Alcotest.test_case "line statistics" `Quick test_line_stats;
    Alcotest.test_case "comment counting" `Quick test_comment_counting;
    Alcotest.test_case "syntax error position" `Quick test_syntax_error_position;
    Alcotest.test_case "unknown field" `Quick test_unknown_field;
    Alcotest.test_case "bad entrypoint partition" `Quick test_bad_partition;
    Alcotest.test_case "match outside mask" `Quick test_match_outside_mask;
    Alcotest.test_case "duplicate instruction" `Quick test_duplicate_instr;
    Alcotest.test_case "unknown action" `Quick test_unknown_action;
    Alcotest.test_case "unterminated comment" `Quick test_unterminated_comment;
    Alcotest.test_case "override" `Quick test_override;
  ]
  @ List.map
      (fun (text, expected) ->
        Alcotest.test_case (Printf.sprintf "expr: %s" text) `Quick
          (check_expr text expected))
      expr_cases
  @ List.map
      (fun ((name, _, _, _) as c) ->
        Alcotest.test_case ("position: " ^ name) `Quick (test_position c))
      position_cases
  @ [
      Alcotest.test_case "dense token stream" `Quick test_dense_stream;
      Alcotest.test_case "span of a string across lines" `Quick
        test_multiline_span;
      QCheck_alcotest.to_alcotest prop_int_literal;
    ]
  @ List.map
      (fun ((name, _) as c) ->
        Alcotest.test_case ("precedence: " ^ name) `Quick (check_adjacent c))
      adjacent_cases
  @ [
      QCheck_alcotest.to_alcotest prop_precedence;
      QCheck_alcotest.to_alcotest prop_code_lines;
    ]
  @ List.map
      (fun ((name, _, _, _) as c) ->
        Alcotest.test_case ("pinned front end: " ^ name) `Quick
          (test_pinned_description c))
      pinned_descriptions
  @ List.map
      (fun ((file, _) as c) ->
        Alcotest.test_case ("pinned front end: " ^ file) `Quick
          (test_pinned_example c))
      pinned_examples
