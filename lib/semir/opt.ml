(** IR-level optimizations used by the synthesizer.

    Three transformations matter for the paper's results:

    - {!specialize_enc}: once an instruction is decoded, its encoding is a
      known constant; bitfield extractions fold away. This is the heart of
      the block-level "binary translation" win.
    - {!const_prop} + {!fold}: forward constant propagation through cells
      and algebraic folding, so register numbers become static indices.
    - {!dce}: backward dead-code elimination. A [Set_cell] whose target is
      hidden by the buildset and never read downstream is removed — the
      paper's "computation of information which is not actually needed
      semantically ... becomes dead code which can be optimized away".

    {!optimize}, which the synthesizer runs on every translated site and
    every per-segment program, does all of this in one forward and one
    backward pass over cell bit sets. The four separate passes above stay
    as its reference: [optimize] is tested to return exactly their
    composition. *)

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let rec fold_expr (e : Ir.expr) : Ir.expr =
  match e with
  | Const _ | Cell _ | Enc _ | Pc | Next_pc -> e
  | Bin (op, a, b) -> (
    let a = fold_expr a and b = fold_expr b in
    match (a, b) with
    | Const x, Const y -> Const ((Value.binop op) x y)
    | Const 0L, _ when op = Add -> b
    | _, Const 0L when op = Add || op = Sub || op = Or || op = Xor -> a
    | _, Const 0L when op = Shl || op = Lshr || op = Ashr -> a
    | _, Const 0L when op = And || op = Mul -> Const 0L
    | Const 0L, _ when op = And || op = Mul -> Const 0L
    | _, Const 1L when op = Mul -> a
    | Const 1L, _ when op = Mul -> b
    | _ -> Bin (op, a, b))
  | Un (op, a) -> (
    let a = fold_expr a in
    match a with
    | Const x -> Const ((Value.unop op) x)
    | _ -> Un (op, a))
  | Ite (c, a, b) -> (
    let c = fold_expr c and a = fold_expr a and b = fold_expr b in
    match c with
    | Const 0L -> b
    | Const _ -> a
    | _ -> Ite (c, a, b))
  | Load l -> Load { l with addr = fold_expr l.addr }
  | Reg_read r -> Reg_read { r with index = fold_expr r.index }

let rec fold_stmt (s : Ir.stmt) : Ir.stmt list =
  match s with
  | Set_cell (c, e) -> [ Set_cell (c, fold_expr e) ]
  | Store { width; addr; value } ->
    [ Store { width; addr = fold_expr addr; value = fold_expr value } ]
  | Set_next_pc e -> [ Set_next_pc (fold_expr e) ]
  | Reg_write { cls; index; value } ->
    [ Reg_write { cls; index = fold_expr index; value = fold_expr value } ]
  | If (c, t, f) -> (
    let c = fold_expr c in
    let t = fold_block t and f = fold_block f in
    match (c, t, f) with
    | Const 0L, _, f -> f
    | Const _, t, _ -> t
    | _, [], [] -> []
    | _ -> [ If (c, t, f) ])
  | Fault_unaligned e -> [ Fault_unaligned (fold_expr e) ]
  | Fault_illegal | Fault_arith _ | Syscall | Halt -> [ s ]

and fold_block stmts = List.concat_map fold_stmt stmts

let fold (p : Ir.program) : Ir.program = fold_block p

(* ------------------------------------------------------------------ *)
(* Encoding specialization                                             *)
(* ------------------------------------------------------------------ *)

let rec subst_enc enc (e : Ir.expr) : Ir.expr =
  match e with
  | Enc { lo; len; signed } -> Const (Value.enc_bits enc ~lo ~len ~signed)
  | Const _ | Cell _ | Pc | Next_pc -> e
  | Bin (op, a, b) -> Bin (op, subst_enc enc a, subst_enc enc b)
  | Un (op, a) -> Un (op, subst_enc enc a)
  | Ite (c, a, b) -> Ite (subst_enc enc c, subst_enc enc a, subst_enc enc b)
  | Load l -> Load { l with addr = subst_enc enc l.addr }
  | Reg_read r -> Reg_read { r with index = subst_enc enc r.index }

let rec subst_enc_stmt enc (s : Ir.stmt) : Ir.stmt =
  match s with
  | Set_cell (c, e) -> Set_cell (c, subst_enc enc e)
  | Store { width; addr; value } ->
    Store { width; addr = subst_enc enc addr; value = subst_enc enc value }
  | Set_next_pc e -> Set_next_pc (subst_enc enc e)
  | Reg_write { cls; index; value } ->
    Reg_write { cls; index = subst_enc enc index; value = subst_enc enc value }
  | If (c, t, f) ->
    If
      ( subst_enc enc c,
        List.map (subst_enc_stmt enc) t,
        List.map (subst_enc_stmt enc) f )
  | Fault_unaligned e -> Fault_unaligned (subst_enc enc e)
  | Fault_illegal | Fault_arith _ | Syscall | Halt -> s

(** [specialize_enc ~enc p] replaces every encoding bitfield with its value
    under the concrete encoding [enc], then folds. *)
let specialize_enc ~enc (p : Ir.program) : Ir.program =
  fold (List.map (subst_enc_stmt enc) p)

(* ------------------------------------------------------------------ *)
(* Forward constant propagation through cells                          *)
(* ------------------------------------------------------------------ *)

module Imap = Map.Make (Int)

let rec prop_expr env (e : Ir.expr) : Ir.expr =
  match e with
  | Cell c -> (
    match Imap.find_opt c env with Some v -> Const v | None -> e)
  | Const _ | Enc _ | Pc | Next_pc -> e
  | Bin (op, a, b) -> Bin (op, prop_expr env a, prop_expr env b)
  | Un (op, a) -> Un (op, prop_expr env a)
  | Ite (c, a, b) -> Ite (prop_expr env c, prop_expr env a, prop_expr env b)
  | Load l -> Load { l with addr = prop_expr env l.addr }
  | Reg_read r -> Reg_read { r with index = prop_expr env r.index }

(* Straight-line propagation only: any write under an [If] invalidates the
   cell, which keeps the pass trivially sound. *)
let rec prop_block env (stmts : Ir.stmt list) : Ir.stmt list * int64 Imap.t =
  match stmts with
  | [] -> ([], env)
  | s :: rest ->
    let s, env =
      match s with
      | Ir.Set_cell (c, e) -> (
        let e = fold_expr (prop_expr env e) in
        match e with
        | Const v -> (Ir.Set_cell (c, e), Imap.add c v env)
        | _ -> (Ir.Set_cell (c, e), Imap.remove c env))
      | Store { width; addr; value } ->
        ( Store
            {
              width;
              addr = fold_expr (prop_expr env addr);
              value = fold_expr (prop_expr env value);
            },
          env )
      | Set_next_pc e -> (Set_next_pc (fold_expr (prop_expr env e)), env)
      | Reg_write { cls; index; value } ->
        ( Reg_write
            {
              cls;
              index = fold_expr (prop_expr env index);
              value = fold_expr (prop_expr env value);
            },
          env )
      | If (c, t, f) ->
        let c = fold_expr (prop_expr env c) in
        (* Branches are propagated with the incoming environment; cells
           written in either branch are invalidated afterwards. *)
        let t, _ = prop_block env t in
        let f, _ = prop_block env f in
        let written = Ir.program_writes (t @ f) in
        let env = List.fold_left (fun m c -> Imap.remove c m) env written in
        (If (c, t, f), env)
      | Fault_unaligned e -> (Fault_unaligned (fold_expr (prop_expr env e)), env)
      | Fault_illegal | Fault_arith _ | Syscall | Halt -> (s, env)
    in
    let rest, env = prop_block env rest in
    (s :: rest, env)

let const_prop (p : Ir.program) : Ir.program = fst (prop_block Imap.empty p)

(* ------------------------------------------------------------------ *)
(* Dead-code elimination                                               *)
(* ------------------------------------------------------------------ *)

module Iset = Set.Make (Int)

(* Backward pass. [live] is the set of cells whose current value may still
   be read later. [keep c] marks cells that must survive regardless (they
   are visible in the interface). *)
let rec dce_block ~keep (live : Iset.t) (stmts : Ir.stmt list) :
    Ir.stmt list * Iset.t =
  match stmts with
  | [] -> ([], live)
  | s :: rest -> (
    let rest, live = dce_block ~keep live rest in
    match s with
    | Ir.Set_cell (c, e) ->
      if keep c || Iset.mem c live then
        let live = Iset.remove c live in
        let live =
          List.fold_left (fun s c -> Iset.add c s) live (Ir.expr_cells [] e)
        in
        (Ir.Set_cell (c, e) :: rest, live)
      else (rest, live)
    | If (c, t, f) -> (
      let t, live_t = dce_block ~keep live t in
      let f, live_f = dce_block ~keep live f in
      let live = Iset.union live_t live_f in
      let live =
        List.fold_left (fun s c -> Iset.add c s) live (Ir.expr_cells [] c)
      in
      match (t, f) with
      | [], [] -> (rest, live)
      | _ -> (If (c, t, f) :: rest, live))
    | _ ->
      let live =
        List.fold_left (fun s c -> Iset.add c s) live (Ir.stmt_reads [] s)
      in
      (s :: rest, live))

(** [dce ~keep p] removes assignments to cells that are neither kept (the
    buildset makes them visible) nor read later in [p]. *)
let dce ~keep (p : Ir.program) : Ir.program =
  fst (dce_block ~keep Iset.empty p)

(* ------------------------------------------------------------------ *)
(* The one-pass pipeline                                               *)
(* ------------------------------------------------------------------ *)

(* Cell sets: one bit per cell, 63 to a word, sized by the largest cell
   the program mentions (cell ids are non-negative, see {!Ir.validate})
   and updated in place. *)
module Bits = struct
  type t = int array

  let create n_cells : t = Array.make ((n_cells + 62) / 63) 0
  let mem (b : t) c = b.(c / 63) land (1 lsl (c mod 63)) <> 0

  let add (b : t) c =
    let i = c / 63 in
    b.(i) <- b.(i) lor (1 lsl (c mod 63))

  let remove (b : t) c =
    let i = c / 63 in
    b.(i) <- b.(i) land lnot (1 lsl (c mod 63))

  let copy : t -> t = Array.copy
  let blit ~(src : t) ~(dst : t) = Array.blit src 0 dst 0 (Array.length src)

  let union_into ~(src : t) ~(dst : t) =
    for i = 0 to Array.length src - 1 do
      dst.(i) <- dst.(i) lor src.(i)
    done
end

let rec max_cell_expr m (e : Ir.expr) =
  match e with
  | Cell c -> if c > m then c else m
  | Const _ | Enc _ | Pc | Next_pc -> m
  | Bin (_, a, b) -> max_cell_expr (max_cell_expr m a) b
  | Un (_, a) | Load { addr = a; _ } | Reg_read { index = a; _ } ->
    max_cell_expr m a
  | Ite (c, a, b) -> max_cell_expr (max_cell_expr (max_cell_expr m c) a) b

let rec max_cell m (p : Ir.stmt list) =
  match p with
  | [] -> m
  | s :: rest ->
    let m =
      match s with
      | Set_cell (c, e) -> max_cell_expr (if c > m then c else m) e
      | Store { addr = a; value = b; _ } | Reg_write { index = a; value = b; _ }
        ->
        max_cell_expr (max_cell_expr m a) b
      | Set_next_pc e | Fault_unaligned e -> max_cell_expr m e
      | If (c, t, f) -> max_cell (max_cell (max_cell_expr m c) t) f
      | Fault_illegal | Fault_arith _ | Syscall | Halt -> m
    in
    max_cell m rest

(* [s' :: rest'], or [p = s :: rest] itself when nothing changed. *)
let cons p s rest s' rest' = if s' == s && rest' == rest then p else s' :: rest'

(* The forward pass's environment: [known] holds the cells whose value
   is a known constant, and each one's newest binding in [binds] is that
   constant's [Const] node. A cell that stops being known only loses its
   bit, so its stale bindings stay behind, shadowed. *)
type binds = Unbound | Bind of Ir.cell * Ir.expr * binds

type env = { enc : int64 option; known : Bits.t; mutable binds : binds }

let rec bound c = function
  | Bind (c', v, rest) -> if c = c' then v else bound c rest
  | Unbound -> assert false

(* [fold_expr] of [e] with its encoding fields substituted and, under
   [prop], its known cells replaced by their constants: folding a
   propagated, already folded expression again gives what folding it once
   gives, so this is what the separate passes compute. Unchanged subtrees
   come back as they are. *)
let rec fwd_expr env ~prop (e : Ir.expr) : Ir.expr =
  match e with
  | Const _ | Pc | Next_pc -> e
  | Enc { lo; len; signed } -> (
    match env.enc with
    | Some enc -> Const (Value.enc_bits enc ~lo ~len ~signed)
    | None -> e)
  | Cell c -> if prop && Bits.mem env.known c then bound c env.binds else e
  | Bin (op, a0, b0) -> (
    let a = fwd_expr env ~prop a0 and b = fwd_expr env ~prop b0 in
    (* [fold_expr]'s rules, in its order *)
    match (op, a, b) with
    | _, Const x, Const y -> Const ((Value.binop op) x y)
    | Add, Const 0L, _ -> b
    | (Add | Sub | Or | Xor | Shl | Lshr | Ashr), _, Const 0L -> a
    | (And | Mul), _, Const 0L -> b
    | (And | Mul), Const 0L, _ -> a
    | Mul, _, Const 1L -> a
    | Mul, Const 1L, _ -> b
    | _ -> if a == a0 && b == b0 then e else Bin (op, a, b))
  | Un (op, a0) -> (
    match fwd_expr env ~prop a0 with
    | Const x -> Const ((Value.unop op) x)
    | a -> if a == a0 then e else Un (op, a))
  | Ite (c0, a0, b0) -> (
    (* an arm that folding drops is not rebuilt *)
    match fwd_expr env ~prop c0 with
    | Const 0L -> fwd_expr env ~prop b0
    | Const _ -> fwd_expr env ~prop a0
    | c ->
      let a = fwd_expr env ~prop a0 and b = fwd_expr env ~prop b0 in
      if c == c0 && a == a0 && b == b0 then e else Ite (c, a, b))
  | Load l ->
    let addr = fwd_expr env ~prop l.addr in
    if addr == l.addr then e else Load { l with addr }
  | Reg_read r ->
    let index = fwd_expr env ~prop r.index in
    if index == r.index then e else Reg_read { r with index }

let rec forget_writes known (p : Ir.stmt list) =
  match p with
  | [] -> ()
  | Set_cell (c, _) :: rest ->
    Bits.remove known c;
    forget_writes known rest
  | If (_, t, f) :: rest ->
    forget_writes known t;
    forget_writes known f;
    forget_writes known rest
  | _ :: rest -> forget_writes known rest

(* Substitution, folding and propagation, statement by statement, over
   [p] and then each list of [after] in turn (where pruned [If]s splice
   their surviving branch in front of what follows them). *)
let rec forward env (p : Ir.stmt list) (after : Ir.stmt list list) :
    Ir.stmt list =
  match p with
  | [] -> ( match after with [] -> [] | next :: after -> forward env next after)
  | (If (c0, t0, f0) as s) :: rest -> (
    (* pruned as [fold] prunes: on the condition before propagation *)
    match fwd_expr env ~prop:false c0 with
    | Const 0L -> forward env f0 (rest :: after)
    | Const _ -> forward env t0 (rest :: after)
    | c ->
      let c = fwd_expr env ~prop:true c in
      (* both branches start from the environment before the [If]; a
         cell either writes is unknown after it *)
      let known = Bits.copy env.known and binds = env.binds in
      let t = forward env t0 [] in
      Bits.blit ~src:known ~dst:env.known;
      env.binds <- binds;
      let f = forward env f0 [] in
      Bits.blit ~src:known ~dst:env.known;
      env.binds <- binds;
      forget_writes env.known t;
      forget_writes env.known f;
      let rest' = forward env rest after in
      match (t, f) with
      | [], [] -> rest'
      | _ ->
        cons p s rest
          (if c == c0 && t == t0 && f == f0 then s else Ir.If (c, t, f))
          rest')
  | s :: rest ->
    let s' = fwd_stmt env s in
    cons p s rest s' (forward env rest after)

and fwd_stmt env (s : Ir.stmt) : Ir.stmt =
  match s with
  | Set_cell (c, e0) ->
    let e = fwd_expr env ~prop:true e0 in
    (match e with
    | Const _ ->
      Bits.add env.known c;
      env.binds <- Bind (c, e, env.binds)
    | _ -> Bits.remove env.known c);
    if e == e0 then s else Set_cell (c, e)
  | Store { width; addr = a0; value = v0 } ->
    let addr = fwd_expr env ~prop:true a0
    and value = fwd_expr env ~prop:true v0 in
    if addr == a0 && value == v0 then s else Store { width; addr; value }
  | Set_next_pc e0 ->
    let e = fwd_expr env ~prop:true e0 in
    if e == e0 then s else Set_next_pc e
  | Reg_write { cls; index = i0; value = v0 } ->
    let index = fwd_expr env ~prop:true i0
    and value = fwd_expr env ~prop:true v0 in
    if index == i0 && value == v0 then s else Reg_write { cls; index; value }
  | Fault_unaligned e0 ->
    let e = fwd_expr env ~prop:true e0 in
    if e == e0 then s else Fault_unaligned e
  | If _ | Fault_illegal | Fault_arith _ | Syscall | Halt -> s

let rec add_reads live (e : Ir.expr) =
  match e with
  | Cell c -> Bits.add live c
  | Const _ | Enc _ | Pc | Next_pc -> ()
  | Bin (_, a, b) ->
    add_reads live a;
    add_reads live b
  | Un (_, a) | Load { addr = a; _ } | Reg_read { index = a; _ } ->
    add_reads live a
  | Ite (c, a, b) ->
    add_reads live c;
    add_reads live a;
    add_reads live b

(* {!dce} over a cell bit set: [live] holds the cells read after [p] and
   is left holding those read after what comes before it. *)
let rec backward ~keep live (p : Ir.stmt list) : Ir.stmt list =
  match p with
  | [] -> []
  | s :: rest -> (
    let rest' = backward ~keep live rest in
    match s with
    | Set_cell (c, e) ->
      if keep c || Bits.mem live c then begin
        Bits.remove live c;
        add_reads live e;
        cons p s rest s rest'
      end
      else rest'
    | If (c, t0, f0) -> (
      let live_t = Bits.copy live in
      let t = backward ~keep live_t t0 in
      let f = backward ~keep live f0 in
      Bits.union_into ~src:live_t ~dst:live;
      add_reads live c;
      match (t, f) with
      | [], [] -> rest'
      | _ ->
        cons p s rest
          (if t == t0 && f == f0 then s else Ir.If (c, t, f))
          rest')
    | Store { addr = a; value = b; _ } | Reg_write { index = a; value = b; _ }
      ->
      add_reads live a;
      add_reads live b;
      cons p s rest s rest'
    | Set_next_pc e | Fault_unaligned e ->
      add_reads live e;
      cons p s rest s rest'
    | Fault_illegal | Fault_arith _ | Syscall | Halt -> cons p s rest s rest')

(** The synthesizer's standard pipeline for a fused action sequence:
    [dce ~keep (const_prop (specialize_enc ~enc p))], or with [fold] in
    place of [specialize_enc] when there is no [enc], in two passes. *)
let optimize ?enc ~keep (p : Ir.program) : Ir.program =
  let n_cells = 1 + max_cell (-1) p in
  let p = forward { enc; known = Bits.create n_cells; binds = Unbound } p [] in
  backward ~keep (Bits.create n_cells) p
