(** Hand-written lexer for LIS. Supports [//] and [/* */] comments,
    decimal/hexadecimal integers, string literals, and C-style operators. *)

(** A lexed file: its tokens, each with its source span. *)
type t

(** [lex ~file src] lexes the whole source up front (the parser looks
    ahead freely). The stream always ends with [Eof].
    @raise Loc.Error on lexical errors. *)
val lex : file:string -> string -> t

(** Number of tokens, the final [Eof] included. *)
val length : t -> int

(** [tok s i] is token [i]. *)
val tok : t -> int -> Token.t

(** [span s i] is token [i]'s span, built on each call. *)
val span : t -> int -> Loc.span
