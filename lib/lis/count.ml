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

(** [code_lines text] counts lines that contain code after stripping [//]
    and [/* */] comments. *)
let code_lines text =
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

let count_buildsets text =
  (* Cheap token-level count; exact because 'buildset' only appears as a
     declaration keyword in LIS. *)
  let count = ref 0 in
  (try
     let toks = Lexer.lex ~file:"<count>" text in
     for i = 0 to Lexer.length toks - 1 do
       match Lexer.tok toks i with Ident "buildset" -> incr count | _ -> ()
     done
   with Loc.Error _ -> ());
  !count

let of_sources (srcs : Ast.source list) : stats =
  List.fold_left
    (fun acc (s : Ast.source) ->
      let lines = code_lines s.src_text in
      match s.src_role with
      | Ast.Isa_description -> { acc with isa_lines = acc.isa_lines + lines }
      | Ast.Os_support -> { acc with os_lines = acc.os_lines + lines }
      | Ast.Buildset_file ->
        {
          acc with
          buildset_lines = acc.buildset_lines + lines;
          buildset_count = acc.buildset_count + count_buildsets s.src_text;
        })
    zero srcs

let lines_per_buildset s =
  if s.buildset_count = 0 then 0.
  else float_of_int s.buildset_lines /. float_of_int s.buildset_count
