(** Synthesis plans: the machine-independent half of {!Synth.make}.

    Everything synthesis derives from the specification and a buildset
    alone — the store-free verdicts of the abstract interpreter, the
    decoder, the block engine's chain IR, each buildset's slot layout,
    liveness verdict, segments and per-instruction optimized IR, and the
    compiled per-instruction code of interfaces that can share it — is
    computed once per cache and reused by every later instance. A cache
    is a plain mutable value owned by its caller: one campaign, one
    worker domain, one supervised session. It is never global and never
    crosses domains (DESIGN.md, "synthesis plan vs instance"). *)

exception Synth_error of string

let synth_error fmt = Format.kasprintf (fun m -> raise (Synth_error m)) fmt

(* An entrypoint is a sequence of items; fetch and decode are engine
   builtins, everything else is per-instruction compiled code. *)
type item =
  | I_fetch
  | I_decode of Semir.Compile.code array  (* per instruction *)
  | I_chunk of Semir.Compile.code array

(* Segment: compilation-time view of an item. *)
type seg = Seg_fetch | Seg_decode | Seg_ir of Lis.Spec.action_sym list

(* ------------------------------------------------------------------ *)
(* Segment construction                                                *)
(* ------------------------------------------------------------------ *)

let segments_of_entrypoint (syms : Lis.Spec.action_sym list) : seg list =
  let flush acc cur =
    match cur with [] -> acc | _ -> Seg_ir (List.rev cur) :: acc
  in
  let rec go acc cur = function
    | [] -> List.rev (flush acc cur)
    | Lis.Spec.A_fetch :: rest -> go (Seg_fetch :: flush acc cur) [] rest
    | Lis.Spec.A_decode :: rest -> go (Seg_decode :: flush acc cur) [] rest
    | sym :: rest -> go acc (sym :: cur) rest
  in
  go [] [] syms

let sym_ir (i : Lis.Spec.instr) = function
  | Lis.Spec.A_fetch | Lis.Spec.A_decode -> []
  | Lis.Spec.A_read_operands -> i.i_read
  | Lis.Spec.A_writeback -> i.i_writeback
  | Lis.Spec.A_user name -> Lis.Spec.user_action i name

(* IR contributed by a segment for instruction [i]; decode contributes the
   generated operand-id extraction. *)
let seg_ir (i : Lis.Spec.instr) = function
  | Seg_fetch -> []
  | Seg_decode -> i.i_decode
  | Seg_ir syms -> List.concat_map (sym_ir i) syms

module Iset = Set.Make (Int)

let reads_of (p : Semir.Ir.program) = Iset.of_list (Semir.Ir.program_reads p)

(* Per-instruction optimized IR per flat segment, with cross-segment
   liveness driving DCE: a cell assignment survives only if the cell is
   interface-visible or read by a later segment. *)
let optimize_segments (spec : Lis.Spec.t) (bs : Lis.Spec.buildset)
    (flat : seg array) : Semir.Ir.program array array =
  let n_segs = Array.length flat in
  Array.map
    (fun instr ->
      let irs = Array.map (seg_ir instr) flat in
      let downstream = Array.make (n_segs + 1) Iset.empty in
      for k = n_segs - 1 downto 0 do
        downstream.(k) <- Iset.union downstream.(k + 1) (reads_of irs.(k))
      done;
      Array.mapi
        (fun k ir ->
          let keep c = bs.bs_visible.(c) || Iset.mem c downstream.(k + 1) in
          Semir.Opt.optimize ~keep ir)
        irs)
    spec.instrs

(* ------------------------------------------------------------------ *)
(* Per-specification plan                                              *)
(* ------------------------------------------------------------------ *)

(* What the block engine specializes sites from: each instruction's full
   chain IR in sequence order (fetch excluded), whether it can end a
   block, and the cells some instruction reads before writing them
   (cross-instruction carriers, which must survive DCE in block mode). *)
type block_plan = {
  chain_ir : Semir.Ir.program array;
  is_ctrl : bool array;
  carried : Iset.t;
}

let block_plan_of (spec : Lis.Spec.t) =
  let chain_ir =
    Array.map
      (fun (i : Lis.Spec.instr) ->
        List.concat_map
          (fun sym ->
            match sym with
            | Lis.Spec.A_decode -> i.i_decode
            | other -> sym_ir i other)
          (Array.to_list spec.sequence))
      spec.instrs
  in
  let rec stmt_is_ctrl (s : Semir.Ir.stmt) =
    match s with
    | Set_next_pc _ | Syscall | Halt | Fault_illegal | Fault_unaligned _
    | Fault_arith _ ->
      true
    | If (_, t, f) -> List.exists stmt_is_ctrl t || List.exists stmt_is_ctrl f
    | Set_cell _ | Store _ | Reg_write _ -> false
  in
  let carried =
    Array.fold_left
      (fun acc ir ->
        let rec upward live (reads : Iset.t) = function
          | [] -> reads
          | s :: rest ->
            let srs = Iset.of_list (Semir.Ir.stmt_reads [] s) in
            let exposed = Iset.diff srs live in
            let live =
              Iset.union live (Iset.of_list (Semir.Ir.stmt_writes [] s))
            in
            upward live (Iset.union reads exposed) rest
        in
        Iset.union acc (upward Iset.empty Iset.empty ir))
      Iset.empty chain_ir
  in
  { chain_ir; is_ctrl = Array.map (List.exists stmt_is_ctrl) chain_ir; carried }

(* ------------------------------------------------------------------ *)
(* Per-buildset plan                                                   *)
(* ------------------------------------------------------------------ *)

type buildset = {
  bs : Lis.Spec.buildset;
  slots : Slots.t;
  crossings : (string * string * string) list;
      (** hidden cells crossing entrypoints, as {!Liveness.summarize} *)
  ep_segs : seg list array;
  seg_ir : Semir.Ir.program array array;
      (** optimized IR per instruction, per flat segment *)
  mutable shared : (bool * item array array) list;
      (** compiled items of non-speculative [Compiled] instances, keyed
          by the [absint] flag (it decides the memory fast paths) *)
}

let n_code_segs bp =
  Array.fold_left
    (List.fold_left (fun n s -> match s with Seg_fetch -> n | _ -> n + 1))
    0 bp.ep_segs

let buildset_of (spec : Lis.Spec.t) (bs : Lis.Spec.buildset) ~check_liveness =
  let crossings = Liveness.summarize (Liveness.check spec bs) in
  check_liveness crossings;
  let ep_segs =
    Array.map (fun (_, syms) -> segments_of_entrypoint syms) bs.bs_entrypoints
  in
  let flat = Array.of_list (List.concat (Array.to_list ep_segs)) in
  (* Sanity: per-instruction dispatch needs decode before any IR. *)
  ignore
    (Array.fold_left
       (fun seen_decode s ->
         match s with
         | Seg_decode -> true
         | Seg_ir _ when not seen_decode ->
           synth_error "buildset %s/%s runs instruction actions before 'decode'"
             spec.name bs.bs_name
         | Seg_ir _ | Seg_fetch -> seen_decode)
       false flat);
  if bs.bs_block && Array.length ep_segs <> 1 then
    synth_error "buildset %s/%s: 'semantic block' requires a single entrypoint"
      spec.name bs.bs_name;
  {
    bs;
    slots = Slots.make spec bs;
    crossings;
    ep_segs;
    seg_ir = optimize_segments spec bs flat;
    shared = [];
  }

(* ------------------------------------------------------------------ *)
(* The cache                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  spec : Lis.Spec.t;
  decoder : Decoder.t;
  size64 : int64 array;  (** per class: encoded width in bytes *)
  size_mask : int64 array;  (** per class: mask of the encoded parcel *)
  mutable store_free : bool array option;  (** absint verdicts per class *)
  mutable block : block_plan option;
  buildsets : (string, buildset) Hashtbl.t;
}

let create (spec : Lis.Spec.t) =
  {
    spec;
    decoder = Decoder.make spec;
    size64 =
      Array.map (fun (i : Lis.Spec.instr) -> Int64.of_int i.i_size) spec.instrs;
    size_mask =
      Array.map
        (fun (i : Lis.Spec.instr) ->
          if i.i_size >= 8 then -1L
          else Int64.sub (Int64.shift_left 1L (8 * i.i_size)) 1L)
        spec.instrs;
    store_free = None;
    block = None;
    buildsets = Hashtbl.create 16;
  }

(** [store_free t ~absint] is the per-class store-free verdict and the
    analysis time this call spent (0 when the cache already held it).
    With [absint = false] every verdict is "unsafe". *)
let store_free t ~absint =
  if not absint then (Array.make (Array.length t.spec.instrs) false, 0)
  else
    match t.store_free with
    | Some v -> (v, 0)
    | None ->
      let t0 = Obs.Clock.now_ns () in
      let v = Array.map Analysis.Absint.store_free (Analysis.Absint.summarize t.spec) in
      t.store_free <- Some v;
      (v, Obs.Clock.elapsed_ns t0)

let block_plan t =
  match t.block with
  | Some b -> b
  | None ->
    let b = block_plan_of t.spec in
    t.block <- Some b;
    b

(** [buildset t name ~check_liveness] is the plan of buildset [name].
    [check_liveness] sees the hidden crossings on every call, first, so it
    raises in the same order an uncached synthesis would. A buildset
    whose plan is malformed raises {!Synth_error} and is not cached. *)
let buildset t name ~check_liveness =
  match Hashtbl.find_opt t.buildsets name with
  | Some bp ->
    check_liveness bp.crossings;
    bp
  | None ->
    let bp =
      buildset_of t.spec (Lis.Spec.find_buildset t.spec name) ~check_liveness
    in
    Hashtbl.add t.buildsets name bp;
    bp

(** [compile_items bp ~compile ~store_free] compiles every entrypoint's
    per-instruction code; class [i]'s code gets the memory fast path when
    [store_free.(i)]. *)
let compile_items bp ~compile ~store_free : item array array =
  let n_instrs = Array.length bp.seg_ir in
  let k = ref (-1) in
  Array.map
    (fun segs ->
      Array.of_list
        (List.map
           (fun seg ->
             incr k;
             let k = !k in
             let codes () =
               Array.init n_instrs (fun ii ->
                   compile ~mem_fast_path:store_free.(ii) bp.seg_ir.(ii).(k))
             in
             match seg with
             | Seg_fetch -> I_fetch
             | Seg_decode -> I_decode (codes ())
             | Seg_ir _ -> I_chunk (codes ()))
           segs))
    bp.ep_segs

(** [shared_items bp ~absint build] is the compiled code stored under
    [absint], built by [build] on first use. *)
let shared_items bp ~absint build =
  match List.assoc_opt absint bp.shared with
  | Some items -> items
  | None ->
    let items = build () in
    bp.shared <- (absint, items) :: bp.shared;
    items
