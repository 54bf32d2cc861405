(** Hand-written lexer for LIS.

    Supports [//] line comments and [/* ... */] block comments, decimal and
    hexadecimal integer literals, string literals with the usual escapes,
    and C-style operators. Lexes the whole file up front, so the parser
    can look ahead freely, into a compact stream: the tokens in one
    array, their start and stop byte offsets and the line each starts on
    in three [int] arrays, and the byte offset of every line start, all
    recorded in the same pass. A token's {!Loc.span} is built only when
    asked for, and needs no search: only a token that ends past the next
    line start (a string literal that spans lines) looks its stop line
    up.

    Set-up allocation rule: never build an array longer than 256 words
    from a young value. [Array.make] (and [Array.of_list]) of such an
    array runs a minor collection first when its initial value is young,
    which would promote every token of the file. The arrays here start
    from an immediate value and are filled in place. *)

(* The lexer's state; once the source is consumed, the stream. *)
type t = {
  src : string;
  len : int;
  file : string;
  mutable pos : int;
  mutable toks : Token.t array;
  mutable starts : int array;  (** byte offset of each token's first byte *)
  mutable stops : int array;  (** byte offset just past each token *)
  mutable tlines : int array;  (** index in [lines] of each token's first line *)
  mutable n : int;  (** tokens so far; the arrays may be longer *)
  mutable lines : int array;  (** byte offset of each line's first byte *)
  mutable n_lines : int;
}

let length s = s.n

let tok s i =
  if i < 0 || i >= s.n then invalid_arg "Lexer.tok";
  Array.unsafe_get s.toks i

(* The line and column of byte offset [off]: the last line that starts
   at or before it. *)
let pos_of ~file (lines : int array) n_lines off : Loc.pos =
  let lo = ref 0 and hi = ref (n_lines - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) lsr 1 in
    if Array.unsafe_get lines mid <= off then lo := mid else hi := mid - 1
  done;
  { file; line = !lo + 1; col = off - Array.unsafe_get lines !lo + 1 }

let span s i : Loc.span =
  if i < 0 || i >= s.n then invalid_arg "Lexer.span";
  let line = Array.unsafe_get s.tlines i in
  let first = Array.unsafe_get s.lines line in
  let start = Array.unsafe_get s.starts i and stop = Array.unsafe_get s.stops i in
  let file = s.file in
  {
    start = { file; line = line + 1; col = start - first + 1 };
    stop =
      (if line + 1 < s.n_lines && stop >= Array.unsafe_get s.lines (line + 1)
       then pos_of ~file s.lines s.n_lines stop
       else { file; line = line + 1; col = stop - first + 1 });
  }

let grow a n fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 n;
  b

(* Step over the newline at [st.pos], recording the line it starts. *)
let newline st =
  st.pos <- st.pos + 1;
  if st.n_lines = Array.length st.lines then st.lines <- grow st.lines st.n_lines 0;
  Array.unsafe_set st.lines st.n_lines st.pos;
  st.n_lines <- st.n_lines + 1

let error st fmt =
  let p = pos_of ~file:st.file st.lines st.n_lines st.pos in
  Loc.error { start = p; stop = p } fmt

(* The byte at [i], which the caller has checked is inside the source. *)
let at st i = String.unsafe_get st.src i

(* Whether the byte after the current one is [c]. *)
let next_is st c = st.pos + 1 < st.len && at st (st.pos + 1) = c

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c

let is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let rec skip_ws_and_comments st =
  if st.pos < st.len then
    match at st st.pos with
    | ' ' | '\t' | '\r' ->
      st.pos <- st.pos + 1;
      skip_ws_and_comments st
    | '\n' ->
      newline st;
      skip_ws_and_comments st
    | '/' when next_is st '/' ->
      while st.pos < st.len && at st st.pos <> '\n' do
        st.pos <- st.pos + 1
      done;
      skip_ws_and_comments st
    | '/' when next_is st '*' ->
      st.pos <- st.pos + 2;
      let rec close () =
        if st.pos >= st.len then error st "unterminated block comment"
        else
          match at st st.pos with
          | '*' when next_is st '/' -> st.pos <- st.pos + 2
          | '\n' ->
            newline st;
            close ()
          | _ ->
            st.pos <- st.pos + 1;
            close ()
      in
      close ();
      skip_ws_and_comments st
    | _ -> ()

(* The identifier at [st.pos], whose first byte [next_token] matched. *)
let lex_ident st =
  let start = st.pos in
  let src = st.src and len = st.len in
  let p = ref (start + 1) in
  while !p < len && is_ident_char (String.unsafe_get src !p) do
    incr p
  done;
  st.pos <- !p;
  String.sub src start (!p - start)

let digit_value c =
  if is_digit c then Char.code c - Char.code '0'
  else (Char.code c lor 0x20) - Char.code 'a' + 10

(* One pass over the digits, underscores skipped: the value accumulates
   in an [Int64] read as unsigned, so 0xFFFFFFFFFFFFFFFF and
   18446744073709551615 are accepted, and a literal past 2^64 - 1 is
   reported once all of it is consumed. *)
let lex_number st =
  let start = st.pos in
  let hex = at st st.pos = '0' && (next_is st 'x' || next_is st 'X') in
  if hex then begin
    st.pos <- st.pos + 2;
    if not (st.pos < st.len && is_hex_digit (at st st.pos)) then
      error st "expected hexadecimal digits after 0x"
  end;
  (* [v * base + d] fits exactly when [v], read unsigned (a negative [v]
     is past it), is below [limit], or equal to it with [d <= rem]:
     2^64 - 1 = limit * base + rem. *)
  let ok = if hex then is_hex_digit else is_digit in
  let base = if hex then 16L else 10L in
  let limit = if hex then 0x0FFF_FFFF_FFFF_FFFFL else 1844674407370955161L in
  let rem = if hex then 15 else 5 in
  let v = ref 0L and overflow = ref false and stop = ref false in
  while (not !stop) && st.pos < st.len do
    let c = at st st.pos in
    if ok c then begin
      let d = digit_value c in
      if !v < 0L || !v > limit || (!v = limit && d > rem) then overflow := true;
      v := Int64.add (Int64.mul !v base) (Int64.of_int d);
      st.pos <- st.pos + 1
    end
    else if c = '_' then st.pos <- st.pos + 1
    else stop := true
  done;
  if !overflow then begin
    let text = String.sub st.src start (st.pos - start) in
    error st "invalid integer literal %s"
      (String.concat "" (String.split_on_char '_' text))
  end;
  !v

let lex_string st =
  st.pos <- st.pos + 1;
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= st.len then error st "unterminated string literal"
    else
      match at st st.pos with
      | '"' -> st.pos <- st.pos + 1
      | '\\' ->
        st.pos <- st.pos + 1;
        if st.pos >= st.len then error st "unterminated string literal";
        (match at st st.pos with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | ('"' | '\\') as c -> Buffer.add_char buf c
        | c -> error st "unknown escape \\%c" c);
        st.pos <- st.pos + 1;
        go ()
      | '\n' ->
        Buffer.add_char buf '\n';
        newline st;
        go ()
      | c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let simple st (tok : Token.t) =
  st.pos <- st.pos + 1;
  tok

let two st (tok : Token.t) =
  st.pos <- st.pos + 2;
  tok

(* Lex one token at [st.pos], after whitespace and comments. *)
let next_token st : Token.t =
  if st.pos >= st.len then Eof
  else
    match at st st.pos with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Ident (lex_ident st)
    | '0' .. '9' -> Int (lex_number st)
    | '"' -> String (lex_string st)
    | '(' -> simple st Lparen
    | ')' -> simple st Rparen
    | '{' -> simple st Lbrace
    | '}' -> simple st Rbrace
    | '[' -> simple st Lbracket
    | ']' -> simple st Rbracket
    | ',' -> simple st Comma
    | ';' -> simple st Semi
    | ':' -> simple st Colon
    | '.' -> simple st Dot
    | '?' -> simple st Question
    | '+' -> simple st Plus
    | '-' -> simple st Minus
    | '*' -> simple st Star
    | '/' -> simple st Slash
    | '%' -> simple st Percent
    | '^' -> simple st Caret
    | '~' -> simple st Tilde
    | '&' -> if next_is st '&' then two st AmpAmp else simple st Amp
    | '|' -> if next_is st '|' then two st BarBar else simple st Bar
    | '=' -> if next_is st '=' then two st EqEq else simple st Assign
    | '!' -> if next_is st '=' then two st NotEq else simple st Bang
    | '<' ->
      if next_is st '<' then two st Shl
      else if next_is st '=' then two st Le
      else simple st Lt
    | '>' ->
      if next_is st '>' then two st Shr
      else if next_is st '=' then two st Ge
      else simple st Gt
    | c -> error st "unexpected character %C" c

(** [lex ~file src] lexes the whole source. The stream always ends with
    an [Eof] token. @raise Loc.Error on lexical errors. *)
let lex ~file src : t =
  let len = String.length src in
  (* The shipped descriptions average 3.8-4.8 bytes per token and more
     than 30 per line; a longer stream grows by doubling. *)
  let cap = (len / 3) + 16 in
  let st =
    {
      src;
      len;
      file;
      pos = 0;
      toks = Array.make cap Token.Eof;
      starts = Array.make cap 0;
      stops = Array.make cap 0;
      tlines = Array.make cap 0;
      n = 0;
      lines = Array.make ((len / 30) + 16) 0;
      n_lines = 1;
    }
  in
  let rec go () =
    skip_ws_and_comments st;
    let start = st.pos in
    (* A line start is recorded once the newline before it is passed,
       so the token starts on the last line recorded so far. *)
    let line = st.n_lines - 1 in
    let tok = next_token st in
    if st.n = Array.length st.toks then begin
      st.toks <- grow st.toks st.n Token.Eof;
      st.starts <- grow st.starts st.n 0;
      st.stops <- grow st.stops st.n 0;
      st.tlines <- grow st.tlines st.n 0
    end;
    Array.unsafe_set st.toks st.n tok;
    Array.unsafe_set st.starts st.n start;
    Array.unsafe_set st.stops st.n st.pos;
    Array.unsafe_set st.tlines st.n line;
    st.n <- st.n + 1;
    match tok with Eof -> () | _ -> go ()
  in
  go ();
  st
