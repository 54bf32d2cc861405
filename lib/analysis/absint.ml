(** Spec-level abstract interpretation: per-instruction-class effect
    summaries over {!Semir.Absint}, and the visibility / journal
    questions built on them.

    One summary per instruction class covers the whole action sequence
    with the abstract state threaded across actions (so a cell set by
    [address] is a known interval inside [memory]). The same summaries
    feed two consumers: the L07x/L08x/L09x lint passes and
    [--suggest-buildset]. The synthesizer reads none of them: it gives
    every class the per-site memory fast path, stores included. *)

module A = Semir.Absint
module Iset = A.Iset
module Spec = Lis.Spec

type summary = {
  s_instr : Spec.instr;
  s_actions : (string * A.result) list;
      (** per named action body, in sequence order *)
  s_total : A.result;  (** sequential composition of the whole sequence *)
}

(* Same mapping as [programs_of]; duplicated (it is six lines) so
   the module dependency runs Passes -> Absint, not both ways. *)
let programs_of (i : Spec.instr) = function
  | Spec.A_fetch -> []
  | Spec.A_decode -> [ ("decode", i.i_decode) ]
  | Spec.A_read_operands -> [ ("read_operands", i.i_read) ]
  | Spec.A_writeback -> [ ("writeback", i.i_writeback) ]
  | Spec.A_user name -> [ (name, Spec.user_action i name) ]

let sequence_programs (spec : Spec.t) (i : Spec.instr) =
  Array.to_list spec.sequence |> List.concat_map (programs_of i)

let summarize_instr (spec : Spec.t) (i : Spec.instr) : summary =
  let n_cells = Spec.n_cells spec in
  let path = A.fresh_path ~n_cells in
  let actions, total =
    List.fold_left
      (fun (acts, total) (name, prog) ->
        let r = A.analyze path prog in
        ((name, r) :: acts, A.compose_result total r))
      ([], A.no_result)
      (sequence_programs spec i)
  in
  { s_instr = i; s_actions = List.rev actions; s_total = total }

let summarize (spec : Spec.t) : summary array =
  Array.map (summarize_instr spec) spec.instrs

(** A class is store-free when no path through its sequence can write
    memory — directly ([Store]) or via the syscall handler, which may
    mutate arbitrary state. Store-free classes can never invalidate a
    translated block. The verdict no longer feeds the synthesizer, whose
    memory fast path is safe for stores too; the soundness tests check
    it against the reference interpreter. *)
let store_free (s : summary) =
  (not s.s_total.effects.stores) && not s.s_total.effects.syscall

(** {1 Cross-instruction carriers} *)

(** A cell that carries a value from one dynamic instruction to a later
    one: some class reads it before any write (so the value comes from
    outside the instruction) and some class writes it. The speculation
    journal restores registers, memory and machine control state but not
    frame cells, so carriers are wrong-path leaks under speculation. *)
type carrier = { c_cell : int; c_reader : string; c_writer : string }

let carriers (sums : summary array) : carrier list =
  let reader = Hashtbl.create 16 and writer = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      Iset.iter
        (fun c ->
          if not (Hashtbl.mem reader c) then
            Hashtbl.add reader c s.s_instr.Spec.i_name)
        s.s_total.A.effects.A.reads;
      Iset.iter
        (fun c ->
          if not (Hashtbl.mem writer c) then
            Hashtbl.add writer c s.s_instr.Spec.i_name)
        s.s_total.A.effects.A.writes)
    sums;
  Hashtbl.fold
    (fun c r acc ->
      match Hashtbl.find_opt writer c with
      | Some w -> { c_cell = c; c_reader = r; c_writer = w } :: acc
      | None -> acc)
    reader []
  |> List.sort (fun a b -> compare a.c_cell b.c_cell)

(** {1 Visibility minimality} *)

(** Cells a buildset's entrypoint partition actually requires visible:
    written by one entrypoint and read by a later one, in some class.
    Matches the hidden-crossing check ({!Passes.crossings} / L060)
    exactly, so a buildset showing precisely this set passes liveness. *)
let required_visible (spec : Spec.t) (bs : Spec.buildset) : Iset.t =
  let req = ref Iset.empty in
  Array.iter
    (fun (i : Spec.instr) ->
      let eps =
        Array.map
          (fun (_, syms) ->
            let progs =
              List.concat_map
                (fun sym -> List.map snd (programs_of i sym))
                syms
            in
            let reads =
              List.fold_left
                (fun s p ->
                  Iset.union s (Iset.of_list (Semir.Ir.program_reads p)))
                Iset.empty progs
            in
            let writes =
              List.fold_left
                (fun s p ->
                  Iset.union s (Iset.of_list (Semir.Ir.program_writes p)))
                Iset.empty progs
            in
            (reads, writes))
          bs.bs_entrypoints
      in
      let n = Array.length eps in
      for w = 0 to n - 1 do
        for r = w + 1 to n - 1 do
          let _, writes = eps.(w) in
          let reads, _ = eps.(r) in
          req := Iset.union !req (Iset.inter writes reads)
        done
      done)
    spec.instrs;
  !req

(** The minimal visible set for a buildset: entrypoint crossings, plus —
    under speculation — the cross-instruction carriers (a hidden carrier
    survives rollback with its wrong-path value, L090). *)
let minimal_visible (spec : Spec.t) (sums : summary array) (bs : Spec.buildset)
    : Iset.t =
  let req = required_visible spec bs in
  if bs.bs_speculation then
    List.fold_left
      (fun s (c : carrier) -> Iset.add c.c_cell s)
      req (carriers sums)
  else req

(** Re-parseable LIS text for [bs] with its visibility tightened to the
    minimal set. Returns [None] when the buildset is already minimal. *)
let suggest_buildset (spec : Spec.t) (sums : summary array)
    (bs : Spec.buildset) : string option =
  let minimal = minimal_visible spec sums bs in
  let shown =
    Array.to_list
      (Array.mapi (fun c v -> if v then Some c else None) bs.bs_visible)
    |> List.filter_map Fun.id
  in
  let keep = List.filter (fun c -> Iset.mem c minimal) shown in
  if List.length keep = List.length shown then None
  else begin
    let b = Buffer.create 256 in
    Printf.bprintf b "buildset %s {\n" bs.bs_name;
    Printf.bprintf b "  speculation %s;\n"
      (if bs.bs_speculation then "on" else "off");
    if bs.bs_block then Buffer.add_string b "  semantic block;\n";
    (match keep with
    | [] -> Buffer.add_string b "  visibility min;\n"
    | cells ->
      Printf.bprintf b "  visibility show %s;\n"
        (String.concat ", " (List.map (Spec.cell_name spec) cells)));
    Array.iter
      (fun (name, syms) ->
        Printf.bprintf b "  entrypoint %s = %s;\n" name
          (String.concat ", " (List.map Spec.action_sym_name syms)))
      bs.bs_entrypoints;
    Buffer.add_string b "}\n";
    Some (Buffer.contents b)
  end
