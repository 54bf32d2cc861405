(** Abstract interpretation over {!Ir} programs.

    Two cooperating domains, both sound over-approximations of the
    concrete 64-bit semantics of {!Eval}:

    - a *value* domain {!aval} tracking an unsigned interval and a
      low-bit congruence (value mod 2^k known), enough to bound operand
      bitfields, register indices and memory-address alignment;
    - an *effect* domain {!effects} tracking which cells, register
      classes and machine resources a program may touch, with must-write
      information for cells (kills are must-writes, so exposed reads are
      never under-reported).

    Programs are loop-free ([If] is the only join point), so one forward
    walk reaches the fixpoint: every join is computed once. The walk is
    path-threaded — a {!path} carries the abstract cell values and the
    must-written set across programs, so a chain of action bodies can be
    analyzed action by action with values flowing between them exactly
    as the synthesizer executes them. *)

module Iset = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Value domain: unsigned interval x low-bit congruence                *)
(* ------------------------------------------------------------------ *)

(** Congruence cap: moduli are powers of two up to 2^12. Alignment
    questions only need up to the access width (8), page questions up to
    4096; capping keeps every modulus computation in small integers. *)
let align_cap = 4096L

(** Interval bound: intervals above 2^62 - 1 are widened to top so sums
    and products of in-range bounds cannot overflow [int64]. *)
let itv_cap = Int64.shift_left 1L 62

(** Abstract value. [itv = Some (lo, hi)] bounds the value as an
    unsigned integer, [0 <= lo <= hi < 2^62]. [modulus] is a power of
    two in [1, 4096]; the concrete value is always congruent to [rem]
    modulo [modulus] ([modulus = 1] carries no information). *)
type aval = { itv : (int64 * int64) option; modulus : int64; rem : int64 }

let top = { itv = None; modulus = 1L; rem = 0L }

let in_itv_range v = Int64.compare v 0L >= 0 && Int64.compare v itv_cap < 0

let const v =
  {
    itv = (if in_itv_range v then Some (v, v) else None);
    modulus = align_cap;
    rem = Int64.logand v (Int64.sub align_cap 1L);
  }

(** Value of an unsigned [len]-bit encoding field: [0, 2^len - 1].
    Signed fields sign-extend and so are unbounded as unsigned values. *)
let enc_field ~len ~signed =
  if signed || len >= 62 then top
  else { top with itv = Some (0L, Int64.sub (Int64.shift_left 1L len) 1L) }

let is_const = function
  | { itv = Some (lo, hi); _ } when Int64.equal lo hi -> Some lo
  | _ -> None

(* Largest power of two (capped) dividing every concretization: the
   modulus itself when the remainder is 0, else the remainder's lowest
   set bit. *)
let known_pow2_divisor a =
  if Int64.equal a.rem 0L then a.modulus
  else Int64.logand a.rem (Int64.neg a.rem)

let mk_cong modulus rem =
  let modulus = if Int64.compare modulus 1L < 0 then 1L else modulus in
  (modulus, Int64.logand rem (Int64.sub modulus 1L))

let join a b =
  let itv =
    match (a.itv, b.itv) with
    | Some (lo1, hi1), Some (lo2, hi2) ->
      Some (min lo1 lo2, max hi1 hi2)
    | _ -> None
  in
  (* shrink the modulus until the remainders agree *)
  let m = ref (min a.modulus b.modulus) in
  while
    Int64.compare !m 1L > 0
    && not
         (Int64.equal
            (Int64.logand a.rem (Int64.sub !m 1L))
            (Int64.logand b.rem (Int64.sub !m 1L)))
  do
    m := Int64.div !m 2L
  done;
  let modulus, rem = mk_cong !m a.rem in
  { itv; modulus; rem }

let add a b =
  let itv =
    match (a.itv, b.itv) with
    | Some (lo1, hi1), Some (lo2, hi2) ->
      let hi = Int64.add hi1 hi2 in
      if in_itv_range hi then Some (Int64.add lo1 lo2, hi) else None
    | _ -> None
  in
  let modulus, rem = mk_cong (min a.modulus b.modulus) (Int64.add a.rem b.rem) in
  { itv; modulus; rem }

let sub a b =
  let itv =
    match (a.itv, b.itv) with
    | Some (lo1, hi1), Some (lo2, hi2) when Int64.compare lo1 hi2 >= 0 ->
      Some (Int64.sub lo1 hi2, Int64.sub hi1 lo2)
    | _ -> None
  in
  let modulus, rem = mk_cong (min a.modulus b.modulus) (Int64.sub a.rem b.rem) in
  { itv; modulus; rem }

let mul a b =
  let itv =
    match (a.itv, b.itv) with
    | Some (lo1, hi1), Some (lo2, hi2)
      when Int64.equal hi2 0L
           || Int64.compare hi1 (Int64.div itv_cap (max hi2 1L)) <= 0 ->
      Some (Int64.mul lo1 lo2, Int64.mul hi1 hi2)
    | _ -> None
  in
  (* two sound congruences; keep whichever knows more:
     (1) the product of the operands' known power-of-two divisors divides
         the result;
     (2) modulo min(m1, m2) the product is r1 * r2. *)
  let p = min align_cap (Int64.mul (known_pow2_divisor a) (known_pow2_divisor b)) in
  let m2, r2 = mk_cong (min a.modulus b.modulus) (Int64.mul a.rem b.rem) in
  let modulus, rem = if Int64.compare p m2 > 0 then (p, 0L) else (m2, r2) in
  { itv; modulus; rem }

let shl a b =
  match is_const b with
  | Some k when Int64.compare k 0L >= 0 && Int64.compare k 62L < 0 ->
    let k = Int64.to_int k in
    let itv =
      match a.itv with
      | Some (lo, hi)
        when Int64.compare hi (Int64.shift_right_logical itv_cap k) < 0 ->
        Some (Int64.shift_left lo k, Int64.shift_left hi k)
      | _ -> None
    in
    let modulus, rem =
      mk_cong (min align_cap (Int64.shift_left a.modulus k))
        (Int64.shift_left a.rem k)
    in
    { itv; modulus; rem }
  | _ ->
    (* unknown non-negative shift still preserves divisibility *)
    { top with modulus = known_pow2_divisor a; rem = 0L }

let lshr a b =
  match (is_const b, a.itv) with
  | Some k, Some (lo, hi) when Int64.compare k 0L >= 0 && Int64.compare k 63L <= 0
    ->
    let k = Int64.to_int k in
    {
      top with
      itv = Some (Int64.shift_right_logical lo k, Int64.shift_right_logical hi k);
    }
  | _ -> top

(* x land mask with a low mask (mask + 1 a power of two) is x mod (mask+1) *)
let is_low_mask m =
  Int64.compare m 0L >= 0
  && Int64.equal (Int64.logand (Int64.add m 1L) m) 0L

let band a b =
  let low_mask_case v m =
    (* v land m, with m a low mask *)
    let itv =
      match v.itv with
      | Some (_, hi) when Int64.compare hi m <= 0 -> v.itv
      | _ when in_itv_range m -> Some (0L, m)
      | _ -> None
    in
    let modulus, rem = mk_cong (min v.modulus (Int64.add m 1L)) v.rem in
    { itv; modulus; rem }
  in
  match (is_const a, is_const b) with
  | _, Some m when is_low_mask m -> low_mask_case a m
  | Some m, _ when is_low_mask m -> low_mask_case b m
  | _ ->
    let itv =
      match (a.itv, b.itv) with
      | Some (_, hi1), Some (_, hi2) -> Some (0L, min hi1 hi2)
      | Some (_, hi), None | None, Some (_, hi) -> Some (0L, hi)
      | None, None -> None
    in
    { itv; modulus = 1L; rem = 0L }

(* zext n = keep the low n bits *)
let zext n a =
  if n >= 62 then { top with modulus = a.modulus; rem = a.rem }
  else band a (const (Int64.sub (Int64.shift_left 1L n) 1L))

(* sext n preserves the low n bits; the unsigned interval survives only
   when the sign bit can never be set *)
let sext n a =
  let m = if n >= 12 then a.modulus else min a.modulus (Int64.shift_left 1L n) in
  let modulus, rem = mk_cong m a.rem in
  let itv =
    match a.itv with
    | Some (_, hi)
      when n < 62 && Int64.compare hi (Int64.shift_left 1L (n - 1)) < 0 ->
      a.itv
    | _ -> None
  in
  { itv; modulus; rem }

(* comparison operators produce 0 or 1 *)
let bool_val = { itv = Some (0L, 1L); modulus = 1L; rem = 0L }

let eval_bin (op : Ir.binop) a b =
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Shl -> shl a b
  | Lshr -> lshr a b
  | And -> band a b
  | Eq | Ne | Lts | Ltu | Les | Leu -> bool_val
  | Mulhs | Mulhu | Divs | Divu | Rems | Remu | Or | Xor | Ashr | Ror -> top

let eval_un (op : Ir.unop) a =
  match op with
  | Zext n -> zext n a
  | Sext n -> sext n a
  | Bool_not -> bool_val
  | Popcount | Clz | Ctz -> { top with itv = Some (0L, 64L) }
  | Neg | Not -> top

(* ------------------------------------------------------------------ *)
(* Effect domain                                                       *)
(* ------------------------------------------------------------------ *)

(** What a program may (and for cells, must) do. All components are
    over-approximations except [must_writes] and [must_fault], which are
    under-approximations — the sound directions for their consumers
    (exposed-read and liveness questions use must-writes as kills;
    "cannot retire" claims use must-fault). *)
type effects = {
  reads : Iset.t;
      (** cells whose incoming value may be observed (read before any
          must-write on some path) *)
  reads_all : Iset.t;  (** cells read anywhere *)
  writes : Iset.t;  (** cells possibly written *)
  must_writes : Iset.t;  (** cells written on every path *)
  reg_reads : Iset.t;  (** register classes read via [Reg_read] *)
  reg_writes : Iset.t;  (** register classes written *)
  loads : bool;
  stores : bool;
  ctrl : bool;  (** may assign [next_pc] *)
  syscall : bool;
  halt : bool;
  faults : bool;  (** may raise a fault *)
  must_fault : bool;  (** raises a fault on every path *)
}

let no_effects =
  {
    reads = Iset.empty;
    reads_all = Iset.empty;
    writes = Iset.empty;
    must_writes = Iset.empty;
    reg_reads = Iset.empty;
    reg_writes = Iset.empty;
    loads = false;
    stores = false;
    ctrl = false;
    syscall = false;
    halt = false;
    faults = false;
    must_fault = false;
  }

(** Sequential composition of effect summaries for programs analyzed on
    the same threaded {!path} (the path already accounts for kills, so
    exposed reads concatenate). *)
let compose a b =
  {
    reads = Iset.union a.reads b.reads;
    reads_all = Iset.union a.reads_all b.reads_all;
    writes = Iset.union a.writes b.writes;
    must_writes = Iset.union a.must_writes b.must_writes;
    reg_reads = Iset.union a.reg_reads b.reg_reads;
    reg_writes = Iset.union a.reg_writes b.reg_writes;
    loads = a.loads || b.loads;
    stores = a.stores || b.stores;
    ctrl = a.ctrl || b.ctrl;
    syscall = a.syscall || b.syscall;
    halt = a.halt || b.halt;
    faults = a.faults || b.faults;
    must_fault = a.must_fault || b.must_fault;
  }

(** An effect beyond cell writes: memory, registers, control, faults,
    syscalls — what "purity" means for an address-generation action. *)
let architected_effect e =
  e.stores || not (Iset.is_empty e.reg_writes) || e.syscall || e.halt

(** One abstractly-observed access, for range and alignment checks. *)
type reg_access = { ra_cls : int; ra_index : aval; ra_write : bool }
type mem_access = { ma_width : Ir.width; ma_addr : aval; ma_store : bool }

(** Full analysis result for one program (or composed chain). *)
type result = {
  effects : effects;
  reg_acc : reg_access list;  (** in program order *)
  mem_acc : mem_access list;  (** in program order; includes loads *)
}

let no_result = { effects = no_effects; reg_acc = []; mem_acc = [] }

let compose_result a b =
  {
    effects = compose a.effects b.effects;
    reg_acc = a.reg_acc @ b.reg_acc;
    mem_acc = a.mem_acc @ b.mem_acc;
  }

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

(** Threaded abstract state: per-cell values plus the must-written set.
    Reused across programs so values flow between a sequence's actions. *)
type path = { vals : aval array; mutable killed : Iset.t }

let fresh_path ~n_cells = { vals = Array.make n_cells top; killed = Iset.empty }

type acc = {
  mutable a_reads : Iset.t;
  mutable a_reads_all : Iset.t;
  mutable a_writes : Iset.t;
  mutable a_reg_reads : Iset.t;
  mutable a_reg_writes : Iset.t;
  mutable a_loads : bool;
  mutable a_stores : bool;
  mutable a_ctrl : bool;
  mutable a_syscall : bool;
  mutable a_halt : bool;
  mutable a_faults : bool;
  mutable a_reg_acc : reg_access list;
  mutable a_mem_acc : mem_access list;
}

let rec eval_expr (acc : acc) (path : path) : Ir.expr -> aval = function
  | Const v -> const v
  | Cell c ->
    acc.a_reads_all <- Iset.add c acc.a_reads_all;
    if not (Iset.mem c path.killed) then acc.a_reads <- Iset.add c acc.a_reads;
    path.vals.(c)
  | Enc { len; signed; _ } -> enc_field ~len ~signed
  | Pc | Next_pc -> top
  | Bin (op, a, b) ->
    let va = eval_expr acc path a in
    let vb = eval_expr acc path b in
    eval_bin op va vb
  | Un (op, a) -> eval_un op (eval_expr acc path a)
  | Ite (c, a, b) ->
    ignore (eval_expr acc path c);
    join (eval_expr acc path a) (eval_expr acc path b)
  | Load { addr; width; _ } ->
    let va = eval_expr acc path addr in
    acc.a_loads <- true;
    acc.a_mem_acc <- { ma_width = width; ma_addr = va; ma_store = false } :: acc.a_mem_acc;
    top
  | Reg_read { cls; index } ->
    let vi = eval_expr acc path index in
    acc.a_reg_reads <- Iset.add cls acc.a_reg_reads;
    acc.a_reg_acc <- { ra_cls = cls; ra_index = vi; ra_write = false } :: acc.a_reg_acc;
    top

(* returns whether the statement faults on every path *)
let rec exec_stmt (acc : acc) (path : path) : Ir.stmt -> bool = function
  | Set_cell (c, e) ->
    let v = eval_expr acc path e in
    path.vals.(c) <- v;
    path.killed <- Iset.add c path.killed;
    acc.a_writes <- Iset.add c acc.a_writes;
    false
  | Store { width; addr; value } ->
    let va = eval_expr acc path addr in
    ignore (eval_expr acc path value);
    acc.a_stores <- true;
    acc.a_mem_acc <- { ma_width = width; ma_addr = va; ma_store = true } :: acc.a_mem_acc;
    false
  | Set_next_pc e ->
    ignore (eval_expr acc path e);
    acc.a_ctrl <- true;
    false
  | Reg_write { cls; index; value } ->
    let vi = eval_expr acc path index in
    ignore (eval_expr acc path value);
    acc.a_reg_writes <- Iset.add cls acc.a_reg_writes;
    acc.a_reg_acc <- { ra_cls = cls; ra_index = vi; ra_write = true } :: acc.a_reg_acc;
    false
  | If (c, t, f) ->
    ignore (eval_expr acc path c);
    let path_t = { vals = Array.copy path.vals; killed = path.killed } in
    let path_f = { vals = Array.copy path.vals; killed = path.killed } in
    let ft = exec_block acc path_t t in
    let ff = exec_block acc path_f f in
    Array.iteri
      (fun i _ -> path.vals.(i) <- join path_t.vals.(i) path_f.vals.(i))
      path.vals;
    path.killed <- Iset.inter path_t.killed path_f.killed;
    ft && ff
  | Fault_illegal | Fault_arith _ ->
    acc.a_faults <- true;
    true
  | Fault_unaligned e ->
    ignore (eval_expr acc path e);
    acc.a_faults <- true;
    true
  | Syscall ->
    acc.a_syscall <- true;
    false
  | Halt ->
    acc.a_halt <- true;
    false

and exec_block acc path stmts =
  List.fold_left (fun f s -> exec_stmt acc path s || f) false stmts

(** [analyze path p] walks [p] starting from (and updating) [path],
    returning the effects and accesses of [p] alone. Exposed reads are
    relative to the path: a cell a previous program must-wrote is not
    exposed here. *)
let analyze (path : path) (p : Ir.program) : result =
  let acc =
    {
      a_reads = Iset.empty;
      a_reads_all = Iset.empty;
      a_writes = Iset.empty;
      a_reg_reads = Iset.empty;
      a_reg_writes = Iset.empty;
      a_loads = false;
      a_stores = false;
      a_ctrl = false;
      a_syscall = false;
      a_halt = false;
      a_faults = false;
      a_reg_acc = [];
      a_mem_acc = [];
    }
  in
  let killed_before = path.killed in
  let must_fault = exec_block acc path p in
  {
    effects =
      {
        reads = acc.a_reads;
        reads_all = acc.a_reads_all;
        writes = acc.a_writes;
        must_writes = Iset.diff path.killed killed_before;
        reg_reads = acc.a_reg_reads;
        reg_writes = acc.a_reg_writes;
        loads = acc.a_loads;
        stores = acc.a_stores;
        ctrl = acc.a_ctrl;
        syscall = acc.a_syscall;
        halt = acc.a_halt;
        faults = acc.a_faults;
        must_fault;
      };
    reg_acc = List.rev acc.a_reg_acc;
    mem_acc = List.rev acc.a_mem_acc;
  }

(** [analyze_program ~n_cells p] — one-shot analysis from a fresh path. *)
let analyze_program ~n_cells (p : Ir.program) : result =
  analyze (fresh_path ~n_cells) p

(** Cells whose incoming value a program may observe, with must-write
    kills (a write under only one branch of an [If] does not hide a
    later read). This is the sound version of the synthesizer's
    carried-cell question. *)
let exposed_reads ~n_cells (p : Ir.program) : Iset.t =
  (analyze_program ~n_cells p).effects.reads

(** Provably misaligned access: the congruence proves the address is
    never a multiple of the access width. *)
let misaligned (m : mem_access) =
  let b = Int64.of_int (Ir.bytes_of_width m.ma_width) in
  Int64.compare b 1L > 0
  && Int64.compare m.ma_addr.modulus b >= 0
  && not (Int64.equal (Int64.logand m.ma_addr.rem (Int64.sub b 1L)) 0L)
