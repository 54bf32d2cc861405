(** Source-line statistics for LIS description files (paper Table I).

    Counts non-blank, non-comment lines, classified by each file's role
    (ISA description, OS/simulator support, buildsets). *)

type stats = {
  isa_lines : int;
  os_lines : int;
  buildset_lines : int;
  buildset_count : int;  (** number of [buildset] declarations seen *)
}

let zero = { isa_lines = 0; os_lines = 0; buildset_lines = 0; buildset_count = 0 }

(* Whether byte [j] of [text] exists and is [c]. *)
let byte_is text j c = j < String.length text && String.unsafe_get text j = c

(** [code_lines text] counts lines that contain code after stripping [//]
    and [/* */] comments. One pass over the text, allocating nothing: a
    comment delimiter is two bytes of one line, and a newline ends the
    line whether or not a block comment is open. Comment delimiters
    inside string literals count as comments. *)
let code_lines text =
  let len = String.length text in
  let n = ref 0 and in_block = ref false and has_code = ref false in
  let i = ref 0 in
  while !i < len do
    let c = String.unsafe_get text !i in
    if c = '\n' then begin
      if !has_code then incr n;
      has_code := false;
      incr i
    end
    else if !in_block then
      if c = '*' && byte_is text (!i + 1) '/' then begin
        in_block := false;
        i := !i + 2
      end
      else incr i
    else if c = '/' && byte_is text (!i + 1) '/' then
      while !i < len && String.unsafe_get text !i <> '\n' do
        incr i
      done
    else if c = '/' && byte_is text (!i + 1) '*' then begin
      in_block := true;
      i := !i + 2
    end
    else begin
      if not (c = ' ' || c = '\t' || c = '\r') then has_code := true;
      incr i
    end
  done;
  if !has_code then incr n;
  !n

(** [of_parsed files] takes each file with the declarations its parse
    produced, so no file is lexed a second time for its buildsets. *)
let of_parsed (files : (Ast.source * Ast.t) list) : stats =
  List.fold_left
    (fun acc ((s : Ast.source), decls) ->
      let lines = code_lines s.src_text in
      match s.src_role with
      | Ast.Isa_description -> { acc with isa_lines = acc.isa_lines + lines }
      | Ast.Os_support -> { acc with os_lines = acc.os_lines + lines }
      | Ast.Buildset_file ->
        let buildsets =
          List.fold_left
            (fun k (d : Ast.decl) ->
              match d with D_buildset _ -> k + 1 | _ -> k)
            0 decls
        in
        {
          acc with
          buildset_lines = acc.buildset_lines + lines;
          buildset_count = acc.buildset_count + buildsets;
        })
    zero files

let lines_per_buildset s =
  if s.buildset_count = 0 then 0.
  else float_of_int s.buildset_lines /. float_of_int s.buildset_count
