(** Closure compiler for {!Ir}.

    The paper's synthesizer emits C++ specialized per interface; our analog
    compiles each action to OCaml closures once, at synthesis time, with
    every cell location, register class base, memory width and constant
    resolved statically. Execution then runs no IR dispatch at all — this
    plays the role of the paper's binary-translated execution substrate.

    Compiled code allocates nothing. Every value lives in an unboxed
    8-byte slot: a frame slot (header, temporary or scratch cell), a DI
    slot or a register. Each expression node is compiled for its
    destination slot (destination passing) and reads its leaves —
    constants, cells, encoding fields, pc, static registers — inline from
    operand descriptors; only interior nodes get a closure and a
    temporary. The representation rules that keep cmmgen from boxing are
    in DESIGN.md ("value representation"). *)

open Machine

type code = Frame.t -> unit

let nop : code = fun _ -> ()

external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Compile-time environment, threaded explicitly through the compiler.
   [env_layout]: when the register-file layout is known at synthesis
   time, static register numbers resolve to flat indices with no
   per-access lookup. [env_fast_mem]: give load/store sites a one-entry
   page cache. [env_hooked]: call the frame's hooks before every write.
   Kept explicit (no module-level refs) so concurrent synthesis on
   separate domains never races on compiler state. *)
type env = {
  env_layout : Machine.Regfile.t option;
  env_fast_mem : bool;
  env_hooked : bool;
}

let enc_off = Frame.enc_off

(* ------------------------------------------------------------------ *)
(* Operands and destinations                                           *)
(* ------------------------------------------------------------------ *)

(* Where an operand is read from: a slot of the frame, the DI or the
   register file (byte offsets), a constant, or a bitfield of the frame's
   encoding slot (shift left by [sl], then right, logically or
   arithmetically, by [sr]). *)
type opnd =
  | O_frame of int
  | O_di of int
  | O_reg of int
  | O_const of int64
  | O_enc_u of { sl : int; sr : int }
  | O_enc_s of { sl : int; sr : int }

(* The [O_const] arm loads a boxed value; [Int64.add 0L] keeps the
   inlined match unboxed all the same (DESIGN.md rule b). *)
let[@inline] rd o (fr : Frame.t) =
  Int64.add 0L
    (match o with
    | O_frame off -> get64 fr.s off
    | O_di off -> get64 fr.di off
    | O_reg off -> get64 fr.st.regs.Regfile.v off
    | O_const v -> v
    | O_enc_u { sl; sr } ->
      Int64.shift_right_logical (Int64.shift_left (get64 fr.s enc_off) sl) sr
    | O_enc_s { sl; sr } ->
      Int64.shift_right (Int64.shift_left (get64 fr.s enc_off) sl) sr)

(* Where a node's result goes: always a byte slot (DESIGN.md rule d).
   Register slots apply the register's write mask, which also discards
   writes to a hardwired zero. *)
type dest = D_frame of int | D_di of int | D_reg of int

let[@inline] wr d (fr : Frame.t) v =
  match d with
  | D_frame off -> set64 fr.s off v
  | D_di off -> set64 fr.di off v
  | D_reg off ->
    let r = fr.st.regs in
    set64 r.Regfile.v off (Int64.logand v (get64 r.Regfile.masks off))

let temp_off i =
  if i >= Frame.temp_slots then
    invalid_arg
      (Printf.sprintf "Compile: expression needs more than %d temporaries"
         Frame.temp_slots);
  Frame.temp_off i

let cell_opnd (loc : Frame.location array) c =
  match loc.(c) with
  | In_di i -> O_di (Frame.di_off i)
  | In_scratch i -> O_frame (Frame.scratch_off i)

let cell_dest (loc : Frame.location array) c =
  match loc.(c) with
  | In_di i -> D_di (Frame.di_off i)
  | In_scratch i -> D_frame (Frame.scratch_off i)

(* ------------------------------------------------------------------ *)
(* Scalar operations                                                   *)
(* ------------------------------------------------------------------ *)

(* Ops whose semantics call out to {!Value} (and so box): each gets its
   own closure, never an arm of the inlined dispatchers (rule c). *)
let rare_binop : Ir.binop -> bool = function
  | Mulhs | Mulhu | Divs | Divu | Rems | Remu -> true
  | _ -> false

let rare_unop : Ir.unop -> bool = function
  | Neg | Not | Bool_not -> false
  | Sext n | Zext n -> n < 1
  | Popcount | Clz | Ctz -> true

let[@inline] bit b = Int64.of_int (if b then 1 else 0)

let[@inline] ltu x y = Int64.sub x Int64.min_int < Int64.sub y Int64.min_int

let[@inline] bin (op : Ir.binop) (x : int64) (y : int64) =
  match op with
  | Add -> Int64.add x y
  | Sub -> Int64.sub x y
  | Mul -> Int64.mul x y
  | And -> Int64.logand x y
  | Or -> Int64.logor x y
  | Xor -> Int64.logxor x y
  | Shl -> Int64.shift_left x (Int64.to_int y land 63)
  | Lshr -> Int64.shift_right_logical x (Int64.to_int y land 63)
  | Ashr -> Int64.shift_right x (Int64.to_int y land 63)
  | Ror ->
    let a = Int64.to_int y land 63 in
    if a = 0 then x
    else
      Int64.logor (Int64.shift_right_logical x a) (Int64.shift_left x (64 - a))
  | Eq -> bit (Int64.equal x y)
  | Ne -> bit (not (Int64.equal x y))
  | Lts -> bit (x < y)
  | Ltu -> bit (ltu x y)
  | Les -> bit (x <= y)
  | Leu -> bit (not (ltu y x))
  | Mulhs | Mulhu | Divs | Divu | Rems | Remu -> assert false

(* [truth op x y] is [bin op x y <> 0], without materializing compares. *)
let[@inline] truth (op : Ir.binop) (x : int64) (y : int64) =
  match op with
  | Eq -> Int64.equal x y
  | Ne -> not (Int64.equal x y)
  | Lts -> x < y
  | Ltu -> ltu x y
  | Les -> x <= y
  | Leu -> not (ltu y x)
  | _ -> not (Int64.equal (bin op x y) 0L)

let[@inline] un (op : Ir.unop) (x : int64) =
  match op with
  | Neg -> Int64.neg x
  | Not -> Int64.lognot x
  | Bool_not -> bit (Int64.equal x 0L)
  | Sext n ->
    if n >= 64 then x
    else
      let s = 64 - n in
      Int64.shift_right (Int64.shift_left x s) s
  | Zext n ->
    if n >= 64 then x
    else
      let s = 64 - n in
      Int64.shift_right_logical (Int64.shift_left x s) s
  | Popcount | Clz | Ctz -> assert false

(* ------------------------------------------------------------------ *)
(* Per-site memory fast path (software TLB)                            *)
(* ------------------------------------------------------------------ *)

(* When enabled, each compiled load/store site carries a one-entry page
   cache: a hit costs a few integer compares plus a direct [Bytes]
   access. A different memory, a page cross, or a stale generation
   ([Memory.clear], or the page being newly marked as code) falls back
   to {!Memory}. Store sites never cache code pages, and marking a page
   as code bumps the generation, so fast-path stores can never bypass
   the code-write hooks. *)
type site_tlb = {
  mutable tl_mem : Memory.t;
  mutable tl_gen : int;
  mutable tl_idx : int;
  mutable tl_page : Bytes.t;
  mutable tl_swap : bool;  (** memory byte order differs from the host's *)
}

(* Plain module-init value, not [lazy]: a lazy forced from two domains
   at once is undefined behaviour in OCaml 5, and fresh TLBs are built
   during concurrent synthesis. *)
let tlb_dummy_mem = Memory.create Little

let fresh_tlb () =
  {
    tl_mem = tlb_dummy_mem;
    tl_gen = -1;
    tl_idx = -1;
    tl_page = Bytes.empty;
    tl_swap = false;
  }

let tlb_refill tl m idx =
  tl.tl_mem <- m;
  tl.tl_gen <- Memory.generation m;
  tl.tl_idx <- idx;
  tl.tl_page <- Memory.lookup_page m idx;
  tl.tl_swap <- Sys.big_endian <> (Memory.endian m = Memory.Big)

let[@inline] page_read p off w signed swap =
  Int64.add 0L
    (match w with
    | 1 ->
      let b = Char.code (Bytes.unsafe_get p off) in
      Int64.of_int (if signed then (b lxor 0x80) - 0x80 else b)
    | 2 ->
      let h = get16 p off in
      let h = if swap then bswap16 h else h in
      Int64.of_int (if signed then (h lxor 0x8000) - 0x8000 else h)
    | 4 ->
      let x = get32 p off in
      let x = if swap then bswap32 x else x in
      if signed then Int64.of_int32 x
      else Int64.logand (Int64.of_int32 x) 0xFFFFFFFFL
    | _ ->
      let d = get64 p off in
      if swap then bswap64 d else d)

let[@inline] page_write p off w swap v =
  match w with
  | 1 -> Bytes.unsafe_set p off (Char.unsafe_chr (Int64.to_int v land 0xff))
  | 2 ->
    let h = Int64.to_int v land 0xffff in
    set16 p off (if swap then bswap16 h else h)
  | 4 ->
    let x = Int64.to_int32 v in
    set32 p off (if swap then bswap32 x else x)
  | _ -> set64 p off (if swap then bswap64 v else v)

(* Effective address [a + b] in the native-int form of
   {!Memory.addr_int}. *)
let[@inline] address a b fr =
  Int64.to_int (Int64.add (rd a fr) (rd b fr)) land max_int

(* A load of [w] bytes at [a + b] into [dst]. The slow path goes through
   {!Memory.load_into} via the temporary at [toff]. *)
let load_node env ~signed ~w a b dst ~toff : code =
  let slow (fr : Frame.t) ai =
    Memory.load_into fr.st.mem ~addr:ai ~width:w ~signed fr.s toff;
    wr dst fr (get64 fr.s toff)
  in
  if not env.env_fast_mem then fun fr -> slow fr (address a b fr)
  else begin
    let tl = fresh_tlb () in
    let max_off = Memory.page_size - w in
    let miss (fr : Frame.t) ai =
      slow fr ai;
      if ai land Memory.page_mask <= max_off then
        tlb_refill tl fr.st.mem (ai lsr Memory.page_bits)
    in
    fun fr ->
      let ai = address a b fr in
      let off = ai land Memory.page_mask in
      let m = fr.st.mem in
      if
        ai lsr Memory.page_bits = tl.tl_idx
        && m == tl.tl_mem
        && tl.tl_gen = Memory.generation m
        && off <= max_off
      then wr dst fr (page_read tl.tl_page off w signed tl.tl_swap)
      else miss fr ai
  end

(* A store of [w] bytes of [v] at [a + b]. The value is staged in the
   temporary at [toff] for {!Memory.store_from} on the slow path. *)
let store_node env ~w a b v ~toff : code =
  let slow (fr : Frame.t) ai =
    Memory.store_from fr.st.mem ~addr:ai ~width:w fr.s toff
  in
  if env.env_hooked then
    (* Hooked stores keep the slow path: the hook must see every store,
       and speculation dominates the cost anyway. *)
    fun fr ->
      let ai = address a b fr in
      set64 fr.s toff (rd v fr);
      fr.hooks.on_store fr.st ai w;
      slow fr ai
  else if not env.env_fast_mem then
    fun fr ->
      let ai = address a b fr in
      set64 fr.s toff (rd v fr);
      slow fr ai
  else
    let tl = fresh_tlb () in
    let max_off = Memory.page_size - w in
    let miss (fr : Frame.t) ai =
      slow fr ai;
      let idx = ai lsr Memory.page_bits in
      (* Never cache a code page: a fast-path hit must imply the write
         needs no code-write hook. *)
      if
        ai land Memory.page_mask <= max_off
        && not (Memory.is_code_page fr.st.mem idx)
      then tlb_refill tl fr.st.mem idx
    in
    fun fr ->
      let ai = address a b fr in
      let off = ai land Memory.page_mask in
      let m = fr.st.mem in
      let x = rd v fr in
      if
        ai lsr Memory.page_bits = tl.tl_idx
        && m == tl.tl_mem
        && tl.tl_gen = Memory.generation m
        && off <= max_off
      then page_write tl.tl_page off w tl.tl_swap x
      else begin
        set64 fr.s toff x;
        miss fr ai
      end

(* ------------------------------------------------------------------ *)
(* Registers with a run-time index                                     *)
(* ------------------------------------------------------------------ *)

let[@inline never] bad_index i count =
  invalid_arg (Printf.sprintf "register index %d out of range (%d)" i count)

(* Flat register of index value [i] in class [cls]: masked for
   power-of-two classes, bounds-checked otherwise (as {!Regaccess.clamp}).
   [base]/[count] come from the layout when it is known at compile time
   ([count > 0]), else from [regs]. *)
let[@inline] resolve (regs : Regfile.t) cls base count i =
  let base = if count > 0 then base else regs.bases.(cls) in
  let count = if count > 0 then count else regs.classes.(cls).count in
  if count land (count - 1) = 0 then base + (i land (count - 1))
  else if i >= 0 && i < count then base + i
  else bad_index i count

let class_shape env cls =
  match env.env_layout with
  | Some l -> (Regfile.base l cls, (Regfile.class_def l cls).count)
  | None -> (0, 0)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let seq (pre : code option) (c : code) : code =
  match pre with None -> c | Some p -> fun fr -> p fr; c fr

let seq2 pa pb c =
  match (pa, pb) with
  | None, _ -> seq pb c
  | _, None -> seq pa c
  | Some (pa : code), Some (pb : code) ->
    fun fr ->
      pa fr;
      pb fr;
      c fr

(* An expression that needs no code of its own: read inline. *)
let leaf env loc (e : Ir.expr) =
  match e with
  | Const v -> Some (O_const v)
  | Cell c -> Some (cell_opnd loc c)
  | Pc -> Some (O_frame Frame.pc_off)
  | Next_pc -> Some (O_frame Frame.next_pc_off)
  | Enc { lo; len; signed } when lo >= 0 && lo < 64 && len >= 1 && len <= 64 ->
    let sl = 64 - lo - len in
    Some
      (if sl < 0 then
         (* the field runs off the top: its sign bit is always clear *)
         O_enc_u { sl = 0; sr = lo }
       else if signed then O_enc_s { sl; sr = 64 - len }
       else O_enc_u { sl; sr = 64 - len })
  | Reg_read { cls; index = Const i } -> (
    match env.env_layout with
    | Some l -> Some (O_reg (8 * Regaccess.flat l ~cls i))
    | None -> None)
  | _ -> None

(* [operand e ~tmp] is [e] as an operand: a leaf, or the temporary [tmp]
   filled by the returned code. The int is the next free temporary. *)
let rec operand env loc e ~tmp =
  match leaf env loc e with
  | Some o -> (o, None, tmp)
  | None ->
    let toff = temp_off tmp in
    ( O_frame toff,
      Some (expr env loc e ~dst:(D_frame toff) ~tmp:(tmp + 1)),
      tmp + 1 )

and operands env loc a b ~tmp =
  let oa, pa, tmp = operand env loc a ~tmp in
  let ob, pb, tmp = operand env loc b ~tmp in
  (oa, ob, pa, pb, tmp)

(* A branch condition as [truth op x y]; compares are fused. *)
and cond env loc (e : Ir.expr) ~tmp =
  match e with
  | Bin (op, a, b) when not (rare_binop op) ->
    let oa, ob, pa, pb, tmp = operands env loc a b ~tmp in
    (op, oa, ob, pa, pb, tmp)
  | _ ->
    let o, p, tmp = operand env loc e ~tmp in
    (Ir.Ne, o, O_const 0L, p, None, tmp)

(* [expr e ~dst ~tmp] is code storing the value of [e] into [dst], using
   temporaries from [tmp] up. *)
and expr env loc (e : Ir.expr) ~dst ~tmp : code =
  match leaf env loc e with
  | Some o -> fun fr -> wr dst fr (rd o fr)
  | None -> (
    match e with
    | Const _ | Cell _ | Pc | Next_pc -> assert false
    | Enc { lo; len; signed } ->
      (* a field outside the 64-bit word: the reference semantics *)
      fun fr -> wr dst fr (Value.enc_bits (Frame.enc fr) ~lo ~len ~signed)
    | Bin (op, a, b) ->
      let oa, ob, pa, pb, _ = operands env loc a b ~tmp in
      seq2 pa pb
        (if rare_binop op then
           let f = Value.binop op in
           fun fr -> wr dst fr (f (rd oa fr) (rd ob fr))
         else fun fr -> wr dst fr (bin op (rd oa fr) (rd ob fr)))
    | Un (op, a) ->
      let oa, pa, _ = operand env loc a ~tmp in
      seq pa
        (if rare_unop op then
           let f = Value.unop op in
           fun fr -> wr dst fr (f (rd oa fr))
         else fun fr -> wr dst fr (un op (rd oa fr)))
    | Ite (c, a, b) ->
      let op, ox, oy, px, py, _ = cond env loc c ~tmp in
      let ca = expr env loc a ~dst ~tmp and cb = expr env loc b ~dst ~tmp in
      seq2 px py (fun fr ->
          if truth op (rd ox fr) (rd oy fr) then ca fr else cb fr)
    | Load { width; signed; addr } ->
      let oa, ob, pa, pb, tmp = effective env loc addr ~tmp in
      seq2 pa pb
        (load_node env ~signed ~w:(Ir.bytes_of_width width) oa ob dst
           ~toff:(temp_off tmp))
    | Reg_read { cls; index } ->
      let oi, pi, _ = operand env loc index ~tmp in
      let base, count = class_shape env cls in
      seq pi (fun fr ->
          let r = fr.st.regs in
          let flat = resolve r cls base count (Int64.to_int (rd oi fr)) in
          wr dst fr (get64 r.v (8 * flat))))

(* An address as the sum of two operands: [base + displacement] is read
   inline, anything else is [e + 0]. *)
and effective env loc (e : Ir.expr) ~tmp =
  match e with
  | Bin (Add, a, b) -> operands env loc a b ~tmp
  | _ ->
    let o, p, tmp = operand env loc e ~tmp in
    (o, O_const 0L, p, None, tmp)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec stmt (env : env) (loc : Frame.location array) (s : Ir.stmt) : code =
  match s with
  | Set_cell (c, e) -> expr env loc e ~dst:(cell_dest loc c) ~tmp:0
  | Store { width; addr; value } ->
    let oa, ob, pa, pb, tmp = effective env loc addr ~tmp:0 in
    let ov, pv, tmp = operand env loc value ~tmp in
    let node =
      store_node env ~w:(Ir.bytes_of_width width) oa ob ov ~toff:(temp_off tmp)
    in
    seq2 pa pb (seq pv node)
  | Set_next_pc e ->
    expr env loc e ~dst:(D_frame Frame.next_pc_off) ~tmp:0
  | Reg_write { cls; index; value } -> (
    match (index, env.env_layout) with
    | Const i, Some l -> (
      (* Static register number against a known layout: the value is
         computed straight into the register's slot. *)
      let flat = Regaccess.flat l ~cls i in
      let cv = expr env loc value ~dst:(D_reg (8 * flat)) ~tmp:0 in
      if env.env_hooked then fun fr ->
        fr.hooks.on_reg_write fr.st flat;
        cv fr
      else cv)
    | _ ->
      let oi, ov, pi, pv, _ = operands env loc index value ~tmp:0 in
      let base, count = class_shape env cls in
      seq2 pi pv
        (if env.env_hooked then fun fr ->
           let r = fr.st.regs in
           let flat = resolve r cls base count (Int64.to_int (rd oi fr)) in
           fr.hooks.on_reg_write fr.st flat;
           let o = 8 * flat in
           set64 r.v o (Int64.logand (rd ov fr) (get64 r.masks o))
         else fun fr ->
           let r = fr.st.regs in
           let o = 8 * resolve r cls base count (Int64.to_int (rd oi fr)) in
           set64 r.v o (Int64.logand (rd ov fr) (get64 r.masks o))))
  | If (c, t, f) -> (
    let op, ox, oy, px, py, _ = cond env loc c ~tmp:0 in
    let ct = block env loc t and cf = block env loc f in
    seq2 px py
      (match f with
      | [] -> fun fr -> if truth op (rd ox fr) (rd oy fr) then ct fr
      | _ ->
        fun fr ->
          if truth op (rd ox fr) (rd oy fr) then ct fr else cf fr))
  | Fault_illegal ->
    fun fr ->
      State.raise_fault fr.st (Fault.Illegal_instruction (Frame.enc fr))
  | Fault_unaligned e ->
    let o, p, _ = operand env loc e ~tmp:0 in
    seq p (fun fr ->
        State.raise_fault fr.st (Fault.Unaligned_access (rd o fr)))
  | Fault_arith msg -> fun fr -> State.raise_fault fr.st (Fault.Arith msg)
  | Syscall ->
    fun fr ->
      let st = fr.st in
      st.syscall_handler st
  | Halt -> fun fr -> fr.st.halted <- true

(** [block env loc stmts] fuses a statement list into one closure. *)
and block env (loc : Frame.location array) (stmts : Ir.stmt list) : code =
  match stmts with
  | [] -> nop
  | [ s ] -> stmt env loc s
  | [ s1; s2 ] ->
    let c1 = stmt env loc s1 and c2 = stmt env loc s2 in
    fun fr ->
      c1 fr;
      c2 fr
  | s1 :: s2 :: rest ->
    let c1 = stmt env loc s1 and c2 = stmt env loc s2 in
    let crest = block env loc rest in
    fun fr ->
      c1 fr;
      c2 fr;
      crest fr

(** [program ~loc p] compiles a whole action body. [hooked] code calls
    the frame's write hooks; [layout], when given, lets static register
    numbers compile to single slot accesses. The compile environment is
    a local value, so concurrent [program] calls from different domains
    are independent. *)
let program ?(hooked = false) ?layout ?(mem_fast_path = false) ~loc
    (p : Ir.program) : code =
  let env =
    { env_layout = layout; env_fast_mem = mem_fast_path; env_hooked = hooked }
  in
  block env loc p
