(** Source-line statistics for LIS description files (paper Table I):
    non-blank, non-comment lines, classified by each file's role. *)

type stats = {
  isa_lines : int;
  os_lines : int;
  buildset_lines : int;
  buildset_count : int;  (** number of [buildset] declarations seen *)
}

val zero : stats

(** [code_lines text] counts lines that contain code after stripping
    [//] and [/* */] comments (in one allocation-free pass; comment
    delimiters inside string literals count as comments). *)
val code_lines : string -> int

(** [of_parsed files] is the statistics of the files, each given with
    the declarations its parse produced: [buildset_count] counts the
    [buildset] declarations of the buildset files. *)
val of_parsed : (Ast.source * Ast.t) list -> stats

(** The paper's "lines per experimental buildset" statistic. *)
val lines_per_buildset : stats -> float
