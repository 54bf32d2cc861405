(** The analysis passes of the LIS static analyzer ({!Lint}).

    Each pass maps a resolved {!Lis.Spec.t} to a list of {!Diag.t}. The
    passes work on the same artifacts the synthesizer consumes — the
    instruction table, the generated and user {!Semir.Ir} action bodies
    and the buildset entrypoint partitions — so anything they prove holds
    for every synthesized interface.

    Diagnostic code map:
    - L01x decoder soundness (shadowed instructions, suspicious overlap,
      decode-key coverage)
    - L02x def-before-use (uninitialized cell reads)
    - L03x dead state (write-only cells, unused operand fetches,
      unreachable statements, dead [next_pc] writes, unused actions)
    - L04x rollback safety (architected writes beyond the journal)
    - L05x width and constant checks
    - L06x buildset legality (hidden-but-crossing cells) *)

open Lis

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(** IR programs contributed by an action symbol for one instruction, with
    the action's name (the engine-owned [fetch] contributes none). *)
let programs_of (i : Spec.instr) = function
  | Spec.A_fetch -> []
  | Spec.A_decode -> [ ("decode", i.i_decode) ]
  | Spec.A_read_operands -> [ ("read_operands", i.i_read) ]
  | Spec.A_writeback -> [ ("writeback", i.i_writeback) ]
  | Spec.A_user name -> [ (name, Spec.user_action i name) ]

(** All of one instruction's programs in declared sequence order. *)
let sequence_programs (spec : Spec.t) (i : Spec.instr) :
    (string * Semir.Ir.program) list =
  Array.to_list spec.sequence |> List.concat_map (programs_of i)

let rec expr_reads_next_pc : Semir.Ir.expr -> bool = function
  | Next_pc -> true
  | Const _ | Cell _ | Enc _ | Pc -> false
  | Bin (_, a, b) -> expr_reads_next_pc a || expr_reads_next_pc b
  | Un (_, a) -> expr_reads_next_pc a
  | Ite (c, a, b) ->
    expr_reads_next_pc c || expr_reads_next_pc a || expr_reads_next_pc b
  | Load { addr; _ } -> expr_reads_next_pc addr
  | Reg_read { index; _ } -> expr_reads_next_pc index

let rec stmt_reads_next_pc : Semir.Ir.stmt -> bool = function
  | Set_cell (_, e) | Set_next_pc e | Fault_unaligned e ->
    expr_reads_next_pc e
  | Store { addr; value; _ } ->
    expr_reads_next_pc addr || expr_reads_next_pc value
  | Reg_write { index; value; _ } ->
    expr_reads_next_pc index || expr_reads_next_pc value
  | If (c, t, f) ->
    expr_reads_next_pc c
    || List.exists stmt_reads_next_pc t
    || List.exists stmt_reads_next_pc f
  | Fault_illegal | Fault_arith _ | Syscall | Halt -> false

(* ------------------------------------------------------------------ *)
(* Pass: decoder — L010 shadowed instruction, L011 suspicious overlap   *)
(* ------------------------------------------------------------------ *)

(** [overlap a b]: some encoding matches both [a] and [b]. *)
let overlap (a : Spec.instr) (b : Spec.instr) =
  let common = Int64.logand a.i_mask b.i_mask in
  Int64.equal (Int64.logand a.i_match common) (Int64.logand b.i_match common)

(** [subsumed_by a b]: every encoding matching [a] also matches [b]
    ([b]'s constrained bits are a subset of [a]'s and agree with it). *)
let subsumed_by (a : Spec.instr) (b : Spec.instr) =
  Int64.equal (Int64.logand b.i_mask (Int64.lognot a.i_mask)) 0L
  && Int64.equal b.i_match (Int64.logand a.i_match b.i_mask)

(** All index pairs [(i, j)], [i < j], whose encodings overlap — the
    ground truth the qcheck property compares brute-force decoding
    against. *)
let overlapping_pairs (spec : Spec.t) : (int * int) list =
  let res = ref [] in
  let n = Array.length spec.instrs in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      if overlap spec.instrs.(i) spec.instrs.(j) then res := (i, j) :: !res
    done
  done;
  !res

let decoder_pass (spec : Spec.t) : Diag.t list =
  List.concat_map
    (fun (ii, ji) ->
      let a = spec.instrs.(ii) and b = spec.instrs.(ji) in
      if subsumed_by b a then
        (* everything that matches the later b already matched a: the
           first-match-wins decoder can never select b *)
        [
          Diag.make ~code:"L010" ~pass:"decoder" ~severity:Diag.Error
            ~related:[ (a.i_span, Printf.sprintf "'%s' declared here" a.i_name) ]
            b.i_span
            "instruction '%s' is unreachable: every encoding it matches is \
             already matched by the earlier '%s' (first match wins)"
            b.i_name a.i_name;
        ]
      else if subsumed_by a b then
        (* the documented idiom: a specialized encoding declared before
           the general form it refines *)
        []
      else
        [
          Diag.make ~code:"L011" ~pass:"decoder" ~severity:Diag.Warning
            ~related:[ (a.i_span, Printf.sprintf "'%s' declared here" a.i_name) ]
            b.i_span
            "encodings of '%s' and the earlier '%s' partially overlap; on \
             the common encodings '%s' silently wins (declare a \
             specialization before its general form, or disambiguate the \
             masks)"
            b.i_name a.i_name a.i_name;
        ])
    (overlapping_pairs spec)

(* ------------------------------------------------------------------ *)
(* Pass: coverage — L012 decode-key values matching no instruction      *)
(* ------------------------------------------------------------------ *)

let coverage_pass (spec : Spec.t) : Diag.t list =
  if spec.decode_len > 20 then []
  else begin
    let n_keys = 1 lsl spec.decode_len in
    let key_mask =
      Int64.shift_left
        (Int64.sub (Int64.shift_left 1L spec.decode_len) 1L)
        spec.decode_lo
    in
    let covered = ref 0 in
    for key = 0 to n_keys - 1 do
      let key_bits = Int64.shift_left (Int64.of_int key) spec.decode_lo in
      let matches (i : Spec.instr) =
        let fixed = Int64.logand i.i_mask key_mask in
        Int64.equal (Int64.logand key_bits fixed)
          (Int64.logand i.i_match fixed)
      in
      if Array.exists matches spec.instrs then incr covered
    done;
    if !covered = n_keys then []
    else
      [
        Diag.make ~code:"L012" ~pass:"coverage" ~severity:Diag.Note
          spec.isa_span
          "decode key bits [%d,+%d]: %d of %d values match no instruction \
           (those encodings decode to an illegal-instruction fault)"
          spec.decode_lo spec.decode_len (n_keys - !covered) n_keys;
      ]
  end

(* ------------------------------------------------------------------ *)
(* Pass: defuse — L020 read-never-written, L021 maybe-uninitialized     *)
(* ------------------------------------------------------------------ *)

type init_status = Undef | Maybe | Def

let defuse_pass (spec : Spec.t) : Diag.t list =
  let diags = ref [] in
  Array.iter
    (fun (i : Spec.instr) ->
      let st = Array.make (Spec.n_cells spec) Undef in
      let reported : (int, unit) Hashtbl.t = Hashtbl.create 4 in
      let read ~guarded action (st : init_status array) c =
        if not (Hashtbl.mem reported c) then
          match st.(c) with
          | Def -> ()
          | Undef ->
            Hashtbl.add reported c ();
            diags :=
              Diag.make ~code:"L020" ~pass:"defuse" ~severity:Diag.Error
                ~related:
                  [
                    ( spec.cells.(c).cell_span,
                      Printf.sprintf "'%s' declared here"
                        (Spec.cell_name spec c) );
                  ]
                i.i_span
                "instruction '%s': cell '%s' is read in action '%s' but is \
                 never written earlier in the sequence (the read sees \
                 stale or undefined data)"
                i.i_name (Spec.cell_name spec c) action
              :: !diags
          | Maybe ->
            (* a guarded read of a sometimes-written cell is assumed to be
               correlated with the write's guard (the common predication
               idiom); an unguarded read is not excusable that way *)
            if not guarded then begin
              Hashtbl.add reported c ();
              diags :=
                Diag.make ~code:"L021" ~pass:"defuse" ~severity:Diag.Warning
                  ~related:
                    [
                      ( spec.cells.(c).cell_span,
                        Printf.sprintf "'%s' declared here"
                          (Spec.cell_name spec c) );
                    ]
                  i.i_span
                  "instruction '%s': cell '%s' is read unconditionally in \
                   action '%s' but written only on some paths before it"
                  i.i_name (Spec.cell_name spec c) action
                :: !diags
            end
      in
      let rec expr ~guarded action (st : init_status array) :
          Semir.Ir.expr -> unit = function
        | Const _ | Enc _ | Pc | Next_pc -> ()
        | Cell c -> read ~guarded action st c
        | Bin (_, a, b) ->
          expr ~guarded action st a;
          expr ~guarded action st b
        | Un (_, a) -> expr ~guarded action st a
        | Ite (c, a, b) ->
          expr ~guarded action st c;
          expr ~guarded:true action st a;
          expr ~guarded:true action st b
        | Load { addr; _ } -> expr ~guarded action st addr
        | Reg_read { index; _ } -> expr ~guarded action st index
      in
      let rec stmt ~guarded action (st : init_status array) :
          Semir.Ir.stmt -> unit = function
        | Set_cell (c, e) ->
          expr ~guarded action st e;
          st.(c) <- Def
        | Store { addr; value; _ } ->
          expr ~guarded action st addr;
          expr ~guarded action st value
        | Set_next_pc e | Fault_unaligned e -> expr ~guarded action st e
        | Reg_write { index; value; _ } ->
          expr ~guarded action st index;
          expr ~guarded action st value
        | If (c, t, f) ->
          expr ~guarded action st c;
          let st_t = Array.copy st and st_f = Array.copy st in
          List.iter (stmt ~guarded:true action st_t) t;
          List.iter (stmt ~guarded:true action st_f) f;
          Array.iteri
            (fun k _ -> st.(k) <- (if st_t.(k) = st_f.(k) then st_t.(k) else Maybe))
            st
        | Fault_illegal | Fault_arith _ | Syscall | Halt -> ()
      in
      List.iter
        (fun (action, prog) -> List.iter (stmt ~guarded:false action st) prog)
        (sequence_programs spec i))
    spec.instrs;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass: deadstate — L030..L034                                         *)
(* ------------------------------------------------------------------ *)

let deadstate_pass (spec : Spec.t) : Diag.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let module Iset = Set.Make (Int) in
  (* global def/use over every instruction's full sequence *)
  let all_reads = ref Iset.empty and all_writes = ref Iset.empty in
  Array.iter
    (fun (i : Spec.instr) ->
      List.iter
        (fun (_, p) ->
          all_reads :=
            Iset.union !all_reads (Iset.of_list (Semir.Ir.program_reads p));
          all_writes :=
            Iset.union !all_writes (Iset.of_list (Semir.Ir.program_writes p)))
        (sequence_programs spec i))
    spec.instrs;
  (* L030: a field that is never read can still earn its keep by being
     interface-visible (written for the timing simulator to consume) —
     but only a *selective* visibility listing expresses that intent, so
     blanket [visibility all] buildsets do not exempt it. *)
  let intent_visible c =
    Array.exists
      (fun (bs : Spec.buildset) ->
        bs.bs_visible.(c) && not (Array.for_all Fun.id bs.bs_visible))
      spec.buildsets
  in
  Array.iteri
    (fun c (info : Spec.cell_info) ->
      match info.kind with
      | K_field _ when c <> spec.opclass_cell ->
        let read = Iset.mem c !all_reads and written = Iset.mem c !all_writes in
        if (not read) && not (intent_visible c) then
          if written then
            add
              (Diag.make ~code:"L030" ~pass:"deadstate" ~severity:Diag.Warning
                 info.cell_span
                 "field '%s' is written but never read, and no buildset \
                  selectively exposes it (dead state)"
                 info.cell_name)
          else if not written then
            add
              (Diag.make ~code:"L030" ~pass:"deadstate" ~severity:Diag.Warning
                 info.cell_span "field '%s' is never used" info.cell_name)
      | _ -> ())
    spec.cells;
  (* L031: operand fetched but unused. Uses are reads anywhere outside
     the generated read_operands program (the writeback commit of a
     read-write operand is a legitimate use: the fetch carries the old
     value through). *)
  Array.iter
    (fun (i : Spec.instr) ->
      let uses =
        List.fold_left
          (fun acc (action, p) ->
            if String.equal action "read_operands" then acc
            else Iset.union acc (Iset.of_list (Semir.Ir.program_reads p)))
          Iset.empty (sequence_programs spec i)
      in
      Array.iter
        (fun (o : Spec.operand) ->
          if o.op_read && not (Iset.mem o.op_val_cell uses) then
            add
              (Diag.make ~code:"L031" ~pass:"deadstate" ~severity:Diag.Warning
                 i.i_span
                 "instruction '%s': operand '%s' is fetched by \
                  read_operands but its value is never used"
                 i.i_name o.op_name))
        i.i_operands)
    spec.instrs;
  (* L032: statements after an unconditional fault/halt *)
  let rec stmt_terminates : Semir.Ir.stmt -> bool = function
    | Fault_illegal | Fault_unaligned _ | Fault_arith _ | Halt -> true
    | If (_, t, f) -> block_terminates t && block_terminates f
    | _ -> false
  and block_terminates stmts = List.exists stmt_terminates stmts in
  Array.iter
    (fun (i : Spec.instr) ->
      let rec check_block action = function
        | [] -> ()
        | s :: rest ->
          (match s with
          | Semir.Ir.If (_, t, f) ->
            check_block action t;
            check_block action f
          | _ -> ());
          if stmt_terminates s && rest <> [] then
            add
              (Diag.make ~code:"L032" ~pass:"deadstate" ~severity:Diag.Warning
                 i.i_span
                 "instruction '%s': %d statement(s) in action '%s' follow \
                  an unconditional fault/halt and can never take effect"
                 i.i_name (List.length rest) action)
          else check_block action rest
      in
      List.iter
        (fun (action, p) -> check_block action p)
        (sequence_programs spec i))
    spec.instrs;
  (* L033: an unconditional next_pc write overwritten by a later
     unconditional one with no intervening next_pc read *)
  Array.iter
    (fun (i : Spec.instr) ->
      let pending = ref None in
      List.iter
        (fun (action, p) ->
          List.iter
            (fun (s : Semir.Ir.stmt) ->
              if stmt_reads_next_pc s then pending := None;
              match s with
              | Set_next_pc _ ->
                (match !pending with
                | Some first_action ->
                  add
                    (Diag.make ~code:"L033" ~pass:"deadstate"
                       ~severity:Diag.Warning i.i_span
                       "instruction '%s': next_pc assigned unconditionally \
                        in action '%s' is overwritten in action '%s' \
                        without being read"
                       i.i_name first_action action)
                | None -> ());
                pending := Some action
              | If _ ->
                (* a conditional write only sometimes overwrites: the
                   earlier write still matters on the other path *)
                ()
              | _ -> ())
            p)
        (sequence_programs spec i))
    spec.instrs;
  (* L034: user actions of the sequence that no instruction defines *)
  Array.iter
    (function
      | Spec.A_user name ->
        let used =
          Array.exists
            (fun (i : Spec.instr) -> List.mem_assoc name i.i_user)
            spec.instrs
        in
        if not used then
          add
            (Diag.make ~code:"L034" ~pass:"deadstate" ~severity:Diag.Warning
               spec.isa_span
               "action '%s' appears in the sequence but no instruction \
                defines it"
               name)
      | _ -> ())
    spec.sequence;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass: rollback — L040 architected write beyond the journal           *)
(* ------------------------------------------------------------------ *)

type sysc = NoSys | MaybeSys | AfterSys

let rollback_pass (spec : Spec.t) : Diag.t list =
  let spec_buildsets =
    Array.to_list spec.buildsets
    |> List.filter (fun (b : Spec.buildset) -> b.bs_speculation)
    |> List.map (fun (b : Spec.buildset) -> b.bs_name)
  in
  if spec_buildsets = [] then []
  else begin
    let diags = ref [] in
    let bs_list = String.concat ", " spec_buildsets in
    Array.iter
      (fun (i : Spec.instr) ->
        let reported : (string, unit) Hashtbl.t = Hashtbl.create 2 in
        let report action what certain =
          let key = action ^ "/" ^ what in
          if not (Hashtbl.mem reported key) then begin
            Hashtbl.add reported key ();
            diags :=
              Diag.make ~code:"L040" ~pass:"rollback" ~severity:Diag.Error
                i.i_span
                "instruction '%s': %s in action '%s' %s executes after \
                 'syscall'; the rollback journal does not cover \
                 OS-emulator effects, so a speculative interface (%s) \
                 cannot undo it"
                i.i_name what action
                (if certain then "always" else "may")
                bs_list
              :: !diags
          end
        in
        let rec stmt action (after : sysc) : Semir.Ir.stmt -> sysc =
         fun s ->
          match s with
          | Syscall -> AfterSys
          | Store _ ->
            if after <> NoSys then report action "store" (after = AfterSys);
            after
          | Reg_write _ ->
            if after <> NoSys then
              report action "register write" (after = AfterSys);
            after
          | If (_, t, f) ->
            let at = List.fold_left (stmt action) after t in
            let af = List.fold_left (stmt action) after f in
            if at = af then at
            else if at = NoSys && af = NoSys then NoSys
            else MaybeSys
          | Set_cell _ | Set_next_pc _ | Fault_illegal | Fault_unaligned _
          | Fault_arith _ | Halt ->
            after
        in
        ignore
          (List.fold_left
             (fun after (action, p) -> List.fold_left (stmt action) after p)
             NoSys
             (sequence_programs spec i)))
      spec.instrs;
    List.rev !diags
  end

(* ------------------------------------------------------------------ *)
(* Pass: width — L050 out-of-word bitfield, L051 shift >= 64,           *)
(*               L052 lossy sext/zext                                   *)
(* ------------------------------------------------------------------ *)

(** Bits needed to represent a constant as an unsigned value (64 for
    negative constants). *)
let const_bits (c : int64) =
  if Int64.compare c 0L < 0 then 64
  else
    let rec go n v = if Int64.equal v 0L then max n 1 else go (n + 1) (Int64.shift_right_logical v 1) in
    go 0 c

(** Statically known width of an expression's value, when obvious. *)
let known_width : Semir.Ir.expr -> int option = function
  | Enc { len; signed = false; _ } -> Some len
  | Const c -> Some (const_bits c)
  | _ -> None

let width_pass (spec : Spec.t) : Diag.t list =
  let diags = ref [] in
  Array.iter
    (fun (i : Spec.instr) ->
      let word_bits = i.i_size * 8 in
      let reported : (string, unit) Hashtbl.t = Hashtbl.create 4 in
      let once key d =
        if not (Hashtbl.mem reported key) then begin
          Hashtbl.add reported key ();
          diags := d :: !diags
        end
      in
      let rec expr action : Semir.Ir.expr -> unit = function
        | Const _ | Cell _ | Pc | Next_pc -> ()
        | Enc { lo; len; _ } ->
          if lo + len > word_bits then
            once
              (Printf.sprintf "enc/%d/%d" lo len)
              (Diag.make ~code:"L050" ~pass:"width" ~severity:Diag.Error
                 i.i_span
                 "instruction '%s': bitfield [%d,+%d] in action '%s' \
                  reaches bit %d but the instruction word has only %d bits"
                 i.i_name lo len action (lo + len - 1) word_bits)
        | Bin (op, a, b) ->
          (match (op, b) with
          | (Shl | Lshr | Ashr | Ror), Const k
            when Int64.compare k 64L >= 0 || Int64.compare k 0L < 0 ->
            once
              (Printf.sprintf "shift/%Ld" k)
              (Diag.make ~code:"L051" ~pass:"width" ~severity:Diag.Warning
                 i.i_span
                 "instruction '%s': shift/rotate amount %Ld in action '%s' \
                  is outside [0,63] (shift amounts are taken modulo 64)"
                 i.i_name k action)
          | _ -> ());
          expr action a;
          expr action b
        | Un (op, a) ->
          (match op with
          | Sext n | Zext n -> (
            match known_width a with
            | Some w when w > n ->
              once
                (Printf.sprintf "ext/%d/%d" n w)
                (Diag.make ~code:"L052" ~pass:"width" ~severity:Diag.Warning
                   i.i_span
                   "instruction '%s': extension to %d bits in action '%s' \
                    discards the high bits of a %d-bit value"
                   i.i_name n action w)
            | _ -> ())
          | _ -> ());
          expr action a
        | Ite (c, a, b) ->
          expr action c;
          expr action a;
          expr action b
        | Load { addr; _ } -> expr action addr
        | Reg_read { index; _ } -> expr action index
      in
      let rec stmt action : Semir.Ir.stmt -> unit = function
        | Set_cell (_, e) | Set_next_pc e | Fault_unaligned e -> expr action e
        | Store { addr; value; _ } ->
          expr action addr;
          expr action value
        | Reg_write { index; value; _ } ->
          expr action index;
          expr action value
        | If (c, t, f) ->
          expr action c;
          List.iter (stmt action) t;
          List.iter (stmt action) f
        | Fault_illegal | Fault_arith _ | Syscall | Halt -> ()
      in
      List.iter
        (fun (action, p) -> List.iter (stmt action) p)
        (sequence_programs spec i))
    spec.instrs;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass: buildset — L060 hidden-but-crossing cells                      *)
(* ------------------------------------------------------------------ *)

(** One hidden-but-crossing occurrence: [x_cell] is written by entrypoint
    [x_writer] of instruction [x_instr] and read by the later entrypoint
    [x_reader], but the buildset does not make it visible. This is the
    paper's dominant interface bug, detected statically; synthesis
    ([Specsim.Synth.make]) rejects a buildset that has any. *)
type crossing = {
  x_instr : string;
  x_cell : int;
  x_writer : string;
  x_reader : string;
}

let crossings (spec : Spec.t) (bs : Spec.buildset) : crossing list =
  (* a crossing pairs an entrypoint with a later one through a hidden
     cell: a lone entrypoint, or a buildset that hides no cell, has none,
     so skip building its read and write sets *)
  if Array.length bs.bs_entrypoints < 2 || Array.for_all Fun.id bs.bs_visible
  then []
  else
  let module Iset = Set.Make (Int) in
  let violations = ref [] in
  Array.iter
    (fun (i : Spec.instr) ->
      let eps =
        Array.map
          (fun (name, syms) ->
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
            (name, reads, writes))
          bs.bs_entrypoints
      in
      let n = Array.length eps in
      for w = 0 to n - 1 do
        for r = w + 1 to n - 1 do
          let wname, _, writes = eps.(w) in
          let rname, reads, _ = eps.(r) in
          Iset.iter
            (fun c ->
              if Iset.mem c reads && not bs.bs_visible.(c) then
                violations :=
                  {
                    x_instr = i.i_name;
                    x_cell = c;
                    x_writer = wname;
                    x_reader = rname;
                  }
                  :: !violations)
            writes
        done
      done)
    spec.instrs;
  List.rev !violations

let buildset_pass (spec : Spec.t) : Diag.t list =
  Array.to_list spec.buildsets
  |> List.concat_map (fun (bs : Spec.buildset) ->
         let vs = crossings spec bs in
         (* one diagnostic per (cell, writer, reader), with the number of
            affected instructions *)
         let groups : (int * string * string, int) Hashtbl.t =
           Hashtbl.create 8
         in
         let order = ref [] in
         List.iter
           (fun v ->
             let key = (v.x_cell, v.x_writer, v.x_reader) in
             match Hashtbl.find_opt groups key with
             | Some n -> Hashtbl.replace groups key (n + 1)
             | None ->
               Hashtbl.add groups key 1;
               order := key :: !order)
           vs;
         List.rev_map
           (fun ((cell, writer, reader) as key) ->
             let n = Hashtbl.find groups key in
             Diag.make ~code:"L060" ~pass:"buildset" ~severity:Diag.Error
               ~related:
                 [
                   ( spec.cells.(cell).cell_span,
                     Printf.sprintf "'%s' declared here"
                       (Spec.cell_name spec cell) );
                 ]
               bs.bs_span
               "buildset '%s': cell '%s' is written by entrypoint '%s' and \
                read by the later entrypoint '%s' but is hidden (%d \
                instruction(s) affected); hidden cells cannot be trusted \
                across interface calls"
               bs.bs_name (Spec.cell_name spec cell) writer reader n)
           !order)

(* ------------------------------------------------------------------ *)
(* Abstract-interpretation passes (L07x effect, L08x visibility, L09x  *)
(* journal) — all built on the per-class summaries of {!Absint}.       *)
(* ------------------------------------------------------------------ *)

(** L070–L072: effect and purity facts per instruction class.

    - L070: the [address] action has an architected effect (memory
      store, register write, syscall or halt). By the paper's
      addressing convention the address action only computes cells, so
      the timing simulator may call it early and repeatedly; an
      architected effect there executes once per *call*, not once per
      instruction.
    - L071: a register index expression whose interval exceeds the
      class size — the access is silently clamped at runtime.
    - L072: a memory access whose address is provably misaligned (the
      congruence excludes every aligned value). *)
let effect_pass (spec : Spec.t) : Diag.t list =
  let module A = Semir.Absint in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let sums = Absint.summarize spec in
  Array.iter
    (fun (s : Absint.summary) ->
      let i = s.s_instr in
      (* L070 *)
      List.iter
        (fun (name, (r : A.result)) ->
          if String.equal name "address" && A.architected_effect r.effects
          then begin
            let what =
              List.filter_map Fun.id
                [
                  (if r.effects.stores then Some "a memory store" else None);
                  (if not (A.Iset.is_empty r.effects.reg_writes) then
                     Some "a register write"
                   else None);
                  (if r.effects.syscall then Some "a syscall" else None);
                  (if r.effects.halt then Some "a halt" else None);
                ]
            in
            add
              (Diag.make ~code:"L070" ~pass:"effect" ~severity:Diag.Warning
                 i.i_span
                 "instruction '%s': action 'address' has an architected \
                  effect (%s); address actions are assumed pure so a \
                  timing model may call them early and more than once"
                 i.i_name
                 (String.concat ", " what))
          end)
        s.s_actions;
      (* L071, one diagnostic per affected class *)
      let flagged = Hashtbl.create 4 in
      List.iter
        (fun (ra : A.reg_access) ->
          match ra.ra_index.itv with
          | Some (_, hi)
            when Int64.compare hi
                   (Int64.of_int spec.reg_classes.(ra.ra_cls).count)
                 >= 0
                 && not (Hashtbl.mem flagged ra.ra_cls) ->
            Hashtbl.add flagged ra.ra_cls ();
            add
              (Diag.make ~code:"L071" ~pass:"effect" ~severity:Diag.Warning
                 i.i_span
                 "instruction '%s': register index into class '%s' can \
                  reach %Ld but the class has %d registers; out-of-range \
                  indices are clamped at runtime"
                 i.i_name
                 spec.reg_classes.(ra.ra_cls).cname
                 hi
                 spec.reg_classes.(ra.ra_cls).count)
          | _ -> ())
        s.s_total.reg_acc;
      (* L072, one diagnostic per distinct (width, kind) *)
      let flagged = Hashtbl.create 4 in
      List.iter
        (fun (ma : A.mem_access) ->
          let key = (ma.ma_width, ma.ma_store) in
          if A.misaligned ma && not (Hashtbl.mem flagged key) then begin
            Hashtbl.add flagged key ();
            add
              (Diag.make ~code:"L072" ~pass:"effect" ~severity:Diag.Warning
                 i.i_span
                 "instruction '%s': %d-byte %s address is always \
                  congruent to %Ld (mod %Ld) and can never be aligned"
                 i.i_name
                 (Semir.Ir.bytes_of_width ma.ma_width)
                 (if ma.ma_store then "store" else "load")
                 ma.ma_addr.rem ma.ma_addr.modulus)
          end)
        s.s_total.mem_acc)
    sums;
  List.rev !diags

(** L080/L081: visibility minimality for hand-picked ([show]/[hide])
    visible sets. L080: a shown cell no instruction ever writes — its DI
    slot never carries defined data. L081 (note): a shown cell no
    entrypoint crossing (nor, under speculation, any cross-instruction
    carrier) requires — hiding it turns its DI store into a scratch
    local, the paper's minimal-visibility win. *)
let visibility_pass (spec : Spec.t) : Diag.t list =
  let explicit =
    Array.to_list spec.buildsets
    |> List.filter (fun (b : Spec.buildset) -> b.bs_explicit_visibility)
  in
  if explicit = [] then []
  else begin
    let module I = Absint.Iset in
    let sums = Absint.summarize spec in
    let written =
      Array.fold_left
        (fun acc (s : Absint.summary) ->
          I.union acc s.s_total.effects.writes)
        I.empty sums
    in
    List.concat_map
      (fun (bs : Spec.buildset) ->
        let minimal = Absint.minimal_visible spec sums bs in
        let ds = ref [] in
        Array.iteri
          (fun c visible ->
            if visible && c <> spec.opclass_cell then
              if not (I.mem c written) then
                ds :=
                  Diag.make ~code:"L080" ~pass:"visibility"
                    ~severity:Diag.Warning
                    ~related:
                      [
                        ( spec.cells.(c).cell_span,
                          Printf.sprintf "'%s' declared here"
                            (Spec.cell_name spec c) );
                      ]
                    bs.bs_span
                    "buildset '%s': visible cell '%s' is never written by \
                     any instruction; its interface slot never carries \
                     defined data"
                    bs.bs_name (Spec.cell_name spec c)
                  :: !ds
              else if not (I.mem c minimal) then
                ds :=
                  Diag.make ~code:"L081" ~pass:"visibility"
                    ~severity:Diag.Note
                    ~related:
                      [
                        ( spec.cells.(c).cell_span,
                          Printf.sprintf "'%s' declared here"
                            (Spec.cell_name spec c) );
                      ]
                    bs.bs_span
                    "buildset '%s': visible cell '%s' is not required by \
                     any entrypoint crossing; hiding it would turn its \
                     interface store into a scratch local (try 'lisim \
                     check --suggest-buildset')"
                    bs.bs_name (Spec.cell_name spec c)
                  :: !ds)
          bs.bs_visible;
        List.rev !ds)
      explicit
  end

(** L090/L091: rollback sufficiency for cross-instruction carriers.
    The speculation journal restores registers, memory, pc and machine
    control state — but not frame cells. A cell that carries a value
    from one dynamic instruction into a later one therefore survives a
    rollback with its wrong-path value: an error when the carrier is
    hidden (nothing outside the engine can even see it to fix it), a
    warning when visible (the timing simulator would have to re-supply
    it by hand). Semantic deepening of the syntactic L040 check. *)
let journal_pass (spec : Spec.t) : Diag.t list =
  let speculative =
    Array.to_list spec.buildsets
    |> List.filter (fun (b : Spec.buildset) -> b.bs_speculation)
  in
  if speculative = [] then []
  else begin
    let sums = Absint.summarize spec in
    let carriers = Absint.carriers sums in
    List.concat_map
      (fun (bs : Spec.buildset) ->
        List.map
          (fun (c : Absint.carrier) ->
            let name = Spec.cell_name spec c.c_cell in
            let related =
              [
                ( spec.cells.(c.c_cell).cell_span,
                  Printf.sprintf "'%s' declared here" name );
              ]
            in
            if not bs.bs_visible.(c.c_cell) then
              Diag.make ~code:"L090" ~pass:"journal" ~severity:Diag.Error
                ~related bs.bs_span
                "buildset '%s': hidden cell '%s' carries a value across \
                 instructions (read by '%s' before any write, written by \
                 '%s') but the speculation journal only restores \
                 registers, memory and control state; after a rollback \
                 the cell keeps its wrong-path value"
                bs.bs_name name c.c_reader c.c_writer
            else
              Diag.make ~code:"L091" ~pass:"journal" ~severity:Diag.Warning
                ~related bs.bs_span
                "buildset '%s': visible cell '%s' carries a value across \
                 instructions (read by '%s', written by '%s'); rollback \
                 does not restore interface cells, so the timing \
                 simulator must re-supply it after every mis-speculation"
                bs.bs_name name c.c_reader c.c_writer)
          carriers)
      speculative
  end
