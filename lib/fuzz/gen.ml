(** Spec-derived program generation for the conformance fuzzer.

    Programs are generated from the resolved LIS spec itself: encodings
    are built from each instruction's match/mask ({!encoding_with_noise},
    the same construction the decoder property tests use), register
    operand fields are filled within the declared class counts, and the
    remaining free bit runs (immediates, offsets, condition fields) get
    biased values. The bias is aimed at the translation-cache engine's
    weak spots: registers pointing into the code region (self-modifying
    stores), small negative branch displacements (backward branches and
    multi-block loops), pointers near a page boundary (straddling
    accesses) and a deliberate share of syscalls.

    Every draw is a pure function of the testcase seed via
    {!Inject.Prng}, so a testcase is exactly reproducible from
    [(isa, seed, index)] — and a written reproducer needs no generator
    at all: it carries the materialized registers, memory and code. *)

(* Layout shared with {!Workload}: code at 0x1000, scratch data two pages
   up, so a generated program (≤ 64 instructions) never overlaps its
   data region. *)
let code_base = 0x1000L
let data_base = 0x4000L

(** One generated program: initial register values, initial data memory
    and the instruction words to place at {!code_base}. *)
type testcase = {
  tc_isa : string;
  tc_seed : int64;  (** per-program seed every draw below derives from *)
  tc_regs : (int * int * int64) array;  (** class, index, value *)
  tc_mem : (int64 * int64) array;  (** address, 64-bit word *)
  tc_code : int64 array;
}

let width_mask (spec : Lis.Spec.t) =
  if spec.instr_bytes >= 8 then -1L
  else Int64.sub (Int64.shift_left 1L (8 * spec.instr_bytes)) 1L

(** Per-instruction encoding width: narrower than the spec's fetch
    window for compressed parcels of a variable-length ISA. *)
let instr_width_mask (i : Lis.Spec.instr) =
  if i.i_size >= 8 then -1L
  else Int64.sub (Int64.shift_left 1L (8 * i.i_size)) 1L

(** Does [spec] mix encoding sizes (an RVC-style ISA)? Mixed-size-only
    bias draws are gated on this so uniform ISAs' testcase streams stay
    byte-identical. *)
let mixed_size (spec : Lis.Spec.t) =
  Array.exists
    (fun (i : Lis.Spec.instr) -> i.i_size < spec.instr_bytes)
    spec.instrs

(** [encoding_with_noise spec i noise] fills every bit the decoder does
    not constrain with bits from [noise] — the canonical random-encoding
    construction. *)
let encoding_with_noise (_spec : Lis.Spec.t) (i : Lis.Spec.instr) noise =
  Int64.logor i.i_match
    (Int64.logand noise
       (Int64.logand (Int64.lognot i.i_mask) (instr_width_mask i)))

(** [code_offsets spec decoder code] — cumulative byte offsets of the
    code slots ([n+1] entries, the last being the image's total size).
    Each slot occupies its decoded instruction's own width (the fetch
    window width when undecodable) — exactly the layout
    {!Oracle.load_image} writes and the variable-stride engine walks.
    Reduces to [instr_bytes * i] on uniform ISAs. [decoder] is [spec]'s,
    one its caller already holds (a synthesis cache's, a generator
    context's): building one costs far more than laying out a program. *)
let code_offsets (spec : Lis.Spec.t) decoder (code : int64 array) : int array
    =
  let n = Array.length code in
  let offs = Array.make (n + 1) 0 in
  if not (mixed_size spec) then
    for i = 0 to n do
      offs.(i) <- spec.instr_bytes * i
    done
  else begin
    let off = ref 0 in
    for i = 0 to n - 1 do
      offs.(i) <- !off;
      let idx = Specsim.Decoder.decode decoder code.(i) in
      let w = if idx < 0 then spec.instr_bytes else spec.instrs.(idx).i_size in
      off := !off + w
    done;
    offs.(n) <- !off
  end;
  offs

(** Maximal runs [(lo, len)] of encoding bits neither fixed by the
    mask nor covered by an operand field: immediates, displacements,
    sub-opcode and condition fields. *)
let free_runs (_spec : Lis.Spec.t) (i : Lis.Spec.instr) : (int * int) list =
  let bits = 8 * i.i_size in
  let covered = Array.make bits false in
  for b = 0 to bits - 1 do
    if not (Int64.equal (Int64.logand i.i_mask (Int64.shift_left 1L b)) 0L)
    then covered.(b) <- true
  done;
  Array.iter
    (fun (op : Lis.Spec.operand) ->
      for b = op.op_lo to min (bits - 1) (op.op_lo + op.op_len - 1) do
        covered.(b) <- true
      done)
    i.i_operands;
  let runs = ref [] in
  let b = ref 0 in
  while !b < bits do
    if covered.(!b) then incr b
    else begin
      let lo = !b in
      while !b < bits && not covered.(!b) do incr b done;
      runs := (lo, !b - lo) :: !runs
    end
  done;
  List.rev !runs

(* Instruction categories, in bias priority order: an instruction that
   both loads and stores counts as a store, etc. *)
type cat = C_syscall | C_store | C_load | C_branch | C_alu

type ctx = {
  cx_isa : string;
  cx_spec : Lis.Spec.t;
  cx_kinds : Specsim.Classify.kind array;
  cx_cats : int array array;  (** instruction indices per {!cat} *)
  cx_decoder : Specsim.Decoder.t;  (** lays out each program's code *)
}

let cat_index = function
  | C_syscall -> 0
  | C_store -> 1
  | C_load -> 2
  | C_branch -> 3
  | C_alu -> 4

let cat_of (k : Specsim.Classify.kind) =
  if k.is_syscall then C_syscall
  else if k.is_store then C_store
  else if k.is_load then C_load
  else if k.is_branch then C_branch
  else C_alu

let make_ctx ~isa (spec : Lis.Spec.t) : ctx =
  let kinds = Specsim.Classify.of_spec spec in
  let buckets = Array.make 5 [] in
  Array.iteri
    (fun ii k ->
      let c = cat_index (cat_of k) in
      buckets.(c) <- ii :: buckets.(c))
    kinds;
  {
    cx_isa = isa;
    cx_spec = spec;
    cx_kinds = kinds;
    cx_cats = Array.map (fun l -> Array.of_list (List.rev l)) buckets;
    cx_decoder = Specsim.Decoder.make spec;
  }

(* Draw-plane layout: instruction slot [i] uses index [i]; register
   (c, r) uses 10000 + 256c + r; data word [k] uses 20000 + k. The salt
   separates the decisions made at one index. *)
let draw tc_seed ~index ~salt = Inject.Prng.draw ~seed:tc_seed ~index ~salt
let below tc_seed ~index ~salt n = Inject.Prng.below ~seed:tc_seed ~index ~salt n

let run_value ps ~index ~salt ~is_branch (len : int) : int64 =
  let full = draw ps ~index ~salt in
  let mask =
    if len >= 64 then -1L else Int64.sub (Int64.shift_left 1L len) 1L
  in
  let mode = below ps ~index ~salt:(salt + 1) 10 in
  let small n = Int64.of_int (below ps ~index ~salt:(salt + 2) n) in
  let v =
    if is_branch && len >= 4 then
      (* displacement fields: mostly short backward and short forward
         branches — loops are where translation caches earn their keep *)
      if mode < 4 then Int64.sub mask (small 8) (* -1 .. -8 sign-extended *)
      else if mode < 7 then Int64.add 1L (small 7)
      else full
    else if mode < 3 then 0L
    else if mode < 6 then Int64.add 1L (small 14)
    else if mode = 6 then mask (* all ones: -1 / max immediate *)
    else full
  in
  Int64.logand v mask

(** [gen_word ctx ps ~index ~n_code] generates one instruction word for
    slot [index] of a program [n_code] instructions long. *)
let gen_word (cx : ctx) ps ~index ~n_code:_ : int64 =
  let spec = cx.cx_spec in
  let r = below ps ~index ~salt:0 100 in
  (* 50% plain ALU, then loads / stores / branches / syscalls *)
  let cat =
    if r < 50 then C_alu
    else if r < 64 then C_load
    else if r < 79 then C_store
    else if r < 94 then C_branch
    else C_syscall
  in
  (* Mixed-size hard cases: over-sample branches so compressed backward
     branches land mid-parcel in already-translated blocks. The draws
     are salted, stateless and gated, so uniform ISAs are untouched. *)
  let cat =
    if mixed_size spec && below ps ~index ~salt:5 100 < 20 then C_branch
    else cat
  in
  let bucket =
    let b = cx.cx_cats.(cat_index cat) in
    if Array.length b > 0 then b else cx.cx_cats.(cat_index C_alu)
  in
  let bucket =
    if Array.length bucket > 0 then bucket
    else Array.init (Array.length spec.instrs) (fun i -> i)
  in
  let ii = bucket.(below ps ~index ~salt:1 (Array.length bucket)) in
  (* Half the time, swap in a compressed encoding from the same category
     when one exists: mixed 2/4-byte strides are the whole point. *)
  let ii =
    if mixed_size spec && below ps ~index ~salt:7 2 = 0 then begin
      let compressed =
        Array.to_list bucket
        |> List.filter (fun k -> spec.instrs.(k).i_size < spec.instr_bytes)
      in
      match compressed with
      | [] -> ii
      | l -> List.nth l (below ps ~index ~salt:8 (List.length l))
    end
    else ii
  in
  let instr = spec.instrs.(ii) in
  let is_branch = cx.cx_kinds.(ii).is_branch in
  let enc = ref instr.i_match in
  let put lo len v =
    let mask =
      if len >= 64 then -1L else Int64.sub (Int64.shift_left 1L len) 1L
    in
    let v = Int64.logand v mask in
    (* never disturb bits the decoder matches on *)
    let field = Int64.logand (Int64.shift_left v lo) (Int64.lognot instr.i_mask) in
    enc := Int64.logor !enc field
  in
  Array.iteri
    (fun oi (op : Lis.Spec.operand) ->
      let count = spec.reg_classes.(op.op_cls).count in
      let salt = 10 + (3 * oi) in
      let mode = below ps ~index ~salt 10 in
      let pick =
        if mode < 6 then below ps ~index ~salt:(salt + 1) (min 8 count)
        else if mode = 6 then count - 1
        else below ps ~index ~salt:(salt + 1) count
      in
      put op.op_lo op.op_len (Int64.of_int pick))
    instr.i_operands;
  List.iteri
    (fun ri (lo, len) ->
      let salt = 40 + (4 * ri) in
      put lo len (run_value ps ~index ~salt ~is_branch len))
    (free_runs spec instr);
  Int64.logand !enc (instr_width_mask instr)

(** [reg_value spec ps ~cls ~idx ~offsets] — [offsets] is the code
    image's {!code_offsets}, so code-region pointers land on true
    instruction starts whatever the per-slot widths are (and, on
    mixed-size ISAs, occasionally mid-parcel on purpose). *)
let reg_value (spec : Lis.Spec.t) ps ~cls ~idx ~offsets : int64 =
  let index = Int64.of_int (10_000 + (256 * cls) + idx) in
  let mode = below ps ~index ~salt:0 12 in
  let small n = Int64.of_int (below ps ~index ~salt:1 n) in
  if mode < 3 then small 64
  else if mode < 5 then Int64.add data_base (Int64.mul 8L (small 256))
  else if mode = 5 then
    (* pointer just under the next page boundary: accesses straddle *)
    Int64.add data_base (Int64.add 0xFF8L (small 16))
  else if mode < 9 then begin
    (* pointer into the code region: stores through it self-modify *)
    let n = Array.length offsets - 1 in
    let k = Int64.to_int (small (n + 4)) in
    let off =
      if k <= n then offsets.(k)
      else offsets.(n) + (spec.instr_bytes * (k - n))
    in
    (* mixed-size hard case: land a quarter of them mid-parcel, so
       indirect jumps re-decode the stream at a different phase *)
    let off =
      if mixed_size spec && below ps ~index ~salt:3 4 = 0 then off + 2
      else off
    in
    Int64.add code_base (Int64.of_int off)
  end
  else if mode = 9 then 0L
  else draw ps ~index ~salt:2

(** [case_seed ~seed ~index] — the per-program seed: a splitmix mix of
    the campaign seed and the case index. Every draw of program [index]
    derives from this value and nothing else, so a case's program is
    identical whether generated alone, mid-campaign, or on another
    domain — the property that makes parallel campaigns
    schedule-independent (and that the golden test pins). *)
let case_seed ~seed ~index = Inject.Prng.derive ~seed ~salt:index

(** [generate ctx ~seed ~index] builds program number [index] of the
    campaign keyed by [seed]. *)
let generate (cx : ctx) ~seed ~index : testcase =
  let spec = cx.cx_spec in
  let ps = case_seed ~seed ~index in
  let n_code = 4 + Inject.Prng.below ~seed:ps ~index:(-1L) ~salt:0 16 in
  let code =
    Array.init n_code (fun i ->
        gen_word cx ps ~index:(Int64.of_int i) ~n_code)
  in
  let offsets = code_offsets spec cx.cx_decoder code in
  let regs = ref [] in
  Array.iteri
    (fun cls (def : Machine.Regfile.class_def) ->
      for idx = 0 to def.count - 1 do
        regs := (cls, idx, reg_value spec ps ~cls ~idx ~offsets) :: !regs
      done)
    spec.reg_classes;
  let mem =
    Array.init 12 (fun k ->
        let addr =
          if k < 8 then Int64.add data_base (Int64.of_int (8 * k))
          else Int64.add data_base (Int64.of_int (0xFE8 + (8 * (k - 8))))
        in
        (addr, draw ps ~index:(Int64.of_int (20_000 + k)) ~salt:0))
  in
  {
    tc_isa = cx.cx_isa;
    tc_seed = ps;
    tc_regs = Array.of_list (List.rev !regs);
    tc_mem = mem;
    tc_code = code;
  }
