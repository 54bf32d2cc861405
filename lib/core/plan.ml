(** Synthesis plans: the machine-independent half of {!Synth.make}.

    Everything synthesis derives from the specification and a buildset
    alone — the decoder, the block engine's chain IR, each buildset's
    slot layout and segments, each shape's liveness verdict,
    per-instruction optimized IR and compiled per-instruction code, and
    the translated sites, hooked or not — is computed once per cache and
    reused by every later instance. Each part is built when the first
    interface that runs it is made, so a One or Block interface never
    pays for the per-segment IR that only generic items read. A cache is
    a plain mutable value owned by its caller: one campaign, one worker
    domain, one supervised session. It is never global and never crosses
    domains (DESIGN.md, "synthesis plan vs instance"). *)

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
   interface-visible or read by a later segment. A buildset that hides
   no cell keeps every assignment, so it builds no read sets. *)
let optimize_segments (spec : Lis.Spec.t) (bs : Lis.Spec.buildset)
    (flat : seg array) : Semir.Ir.program array array =
  let n_segs = Array.length flat in
  let all_visible = Array.for_all Fun.id bs.bs_visible in
  Array.map
    (fun instr ->
      let irs = Array.map (seg_ir instr) flat in
      if all_visible then
        Array.map (Semir.Opt.optimize ~keep:(fun _ -> true)) irs
      else
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
   (cross-instruction carriers, which must survive DCE in translated
   sites). *)
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

(* What depends on a buildset's entrypoints (names and action lists) and
   visibility alone, and not on speculation: step_all and step_all_spec
   share one, and so do block_min and one_min. *)
type shape = {
  crossings : (string * string * string) list;
      (** hidden cells crossing entrypoints: sorted, deduplicated
          (cell name, writer, reader) triples *)
  mutable seg_ir : Semir.Ir.program array array option;
      (** optimized IR per instruction, per flat segment: built with the
          first generic items (see {!compile_items}) *)
  mutable items : (bool * item array array) list;
      (** compiled items of the instances that share code (see
          {!shared_items}), keyed by [hooked] *)
}

type buildset = {
  bs : Lis.Spec.buildset;
  slots : Slots.t;
  shape : shape;
  ep_segs : seg list array;
}

let n_code_segs bp =
  Array.fold_left
    (List.fold_left (fun n s -> match s with Seg_fetch -> n | _ -> n + 1))
    0 bp.ep_segs

let flat_segs ep_segs = Array.of_list (List.concat (Array.to_list ep_segs))

let buildset_of (spec : Lis.Spec.t) (bs : Lis.Spec.buildset) shape
    ~check_liveness =
  check_liveness shape.crossings;
  let ep_segs =
    Array.map (fun (_, syms) -> segments_of_entrypoint syms) bs.bs_entrypoints
  in
  let flat = flat_segs ep_segs in
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
  { bs; slots = Slots.make spec bs; shape; ep_segs }

(* ------------------------------------------------------------------ *)
(* The cache                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  spec : Lis.Spec.t;
  decoder : Decoder.t;
  size64 : int64 array;  (** per class: encoded width in bytes *)
  size_mask : int64 array;  (** per class: mask of the encoded parcel *)
  mutable block : block_plan option;
  buildsets : (string, buildset) Hashtbl.t;
  mutable shapes :
    (((string * Lis.Spec.action_sym list) array * bool array) * shape) list;
      (** keyed by [(bs_entrypoints, bs_visible)] *)
  mutable sites :
    ((bool * bool array) * (int * int64, Semir.Compile.code) Hashtbl.t) list;
      (** translated sites of [Compiled] instances, per [(hooked,
          visibility)], keyed by [(instr, encoding)] *)
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
    block = None;
    buildsets = Hashtbl.create 16;
    shapes = [];
    sites = [];
  }

let block_plan t =
  match t.block with
  | Some b -> b
  | None ->
    let b = block_plan_of t.spec in
    t.block <- Some b;
    b

(* The shape of [bs], found or added. *)
let shape t (bs : Lis.Spec.buildset) =
  let key = (bs.bs_entrypoints, bs.bs_visible) in
  match List.assoc_opt key t.shapes with
  | Some sh -> sh
  | None ->
    let crossings =
      List.sort_uniq compare
        (List.map
           (fun (x : Analysis.Passes.crossing) ->
             (Lis.Spec.cell_name t.spec x.x_cell, x.x_writer, x.x_reader))
           (Analysis.Passes.crossings t.spec bs))
    in
    let sh = { crossings; seg_ir = None; items = [] } in
    t.shapes <- (key, sh) :: t.shapes;
    sh

(** [buildset t name ~check_liveness] is the plan of buildset [name].
    [check_liveness] sees the hidden crossings on every call, first, so it
    raises in the same order an uncached synthesis would. A buildset
    whose plan is malformed raises {!Synth_error} and is not cached; its
    shape is, so the next call raises without re-running the pass. *)
let buildset t name ~check_liveness =
  match Hashtbl.find_opt t.buildsets name with
  | Some bp ->
    check_liveness bp.shape.crossings;
    bp
  | None ->
    let bs = Lis.Spec.find_buildset t.spec name in
    let bp = buildset_of t.spec bs (shape t bs) ~check_liveness in
    Hashtbl.add t.buildsets name bp;
    bp

(* The shape's per-segment IR, built on first use. *)
let seg_ir t bp =
  match bp.shape.seg_ir with
  | Some ir -> ir
  | None ->
    let ir = optimize_segments t.spec bp.bs (flat_segs bp.ep_segs) in
    bp.shape.seg_ir <- Some ir;
    ir

(** [compile_items t bp ~compile] compiles every entrypoint's
    per-instruction code with [compile]. The first call for a shape also
    optimizes its per-segment IR. With [on_first_run], each class's code
    is compiled the first time it runs, in place of a stub. *)
let compile_items ?(on_first_run = false) t bp ~compile : item array array =
  let seg_ir = seg_ir t bp in
  let n_instrs = Array.length seg_ir in
  let k = ref (-1) in
  Array.map
    (fun segs ->
      Array.of_list
        (List.map
           (fun seg ->
             incr k;
             let k = !k in
             let code ii = compile seg_ir.(ii).(k) in
             let codes () =
               if not on_first_run then Array.init n_instrs code
               else begin
                 let a = Array.make n_instrs (fun _ -> ()) in
                 for ii = 0 to n_instrs - 1 do
                   a.(ii) <-
                     (fun fr ->
                       let c = code ii in
                       a.(ii) <- c;
                       c fr)
                 done;
                 a
               end
             in
             match seg with
             | Seg_fetch -> I_fetch
             | Seg_decode -> I_decode (codes ())
             | Seg_ir _ -> I_chunk (codes ()))
           segs))
    bp.ep_segs

(** [shared_items bp ~hooked build] is the compiled code of [bp]'s
    shape stored under [hooked], built by [build] on first use: an
    instance without hooks never gets hooked code, nor one with hooks
    plain code. Only instances that share sites share items ([Compiled]
    with [site_cache]), so all of it has the per-site TLB. *)
let shared_items bp ~hooked build =
  match List.assoc_opt hooked bp.shape.items with
  | Some items -> items
  | None ->
    let items = build () in
    bp.shape.items <- (hooked, items) :: bp.shape.items;
    items

(** Most sites one shared table holds. *)
let max_shared_sites = 4096

(** [site_table t ~hooked visible] is the table of translated sites
    shared by the [Compiled] instances, hooked or not as [hooked], whose
    buildsets have visibility [visible]: a site's code depends on the
    cells it keeps and where they live, both fixed by visibility, so
    block_min and one_min share, and so do block_decode_spec and
    one_decode_spec. *)
let site_table t ~hooked visible =
  let key = (hooked, visible) in
  match List.assoc_opt key t.sites with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 256 in
    t.sites <- (key, tbl) :: t.sites;
    tbl

(** [shared_site tbl key build] is the site stored under [key], built by
    [build] on first use. A full table is emptied before the next site
    goes in, the policy QEMU applies to a full translation buffer, so a
    long campaign's table stays bounded. *)
let shared_site tbl key build =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
    if Hashtbl.length tbl >= max_shared_sites then Hashtbl.reset tbl;
    let c = build () in
    Hashtbl.add tbl key c;
    c
