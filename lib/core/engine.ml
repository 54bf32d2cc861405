(** The engine of a synthesized interface.

    {!Synth.make} builds one instance record [t] per interface: the
    machine, the frame, the statistics, the journal, the instruments,
    the profiler and the plan's tables, the synthesis-time flags, and
    the items, the site compiler's state and the block tables, each
    built with the instance or on first use. Every loop is a top-level
    function over it: the generic and the translated [run_one], [step],
    the block loop [run_block], the DI-free chained and flat loops,
    [run_fast]'s generic loop, block building, dispatch and flush. The closures that
    go into {!Iface.t} are built here too (the last section), so each
    interface call is one closure call into a known function.

    The call styles share one module because they share [retire],
    [auto_checkpoint], [exec_item], the fetch, [load_frame]/[save_frame]
    and the per-block exit, and under [-opaque] a call into another module is
    never inlined and boxes an [int64] argument or result (DESIGN.md §6
    item 7, rule a). A synthesis-time choice ([ins], [prof], the
    journal, [chain], the translator, the mutations) is an immutable
    field: it picks a closure in the last section, or a predicted branch
    in a loop. *)

open Machine

external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

let pc_off = Semir.Frame.pc_off
let enc_off = Semir.Frame.enc_off
let next_pc_off = Semir.Frame.next_pc_off

(** Execution backend: [Compiled] closures (default) or the reference
    [Interpreted] AST walker (paper footnote 5's baseline). *)
type backend = Compiled | Interpreted

(** Deliberate engine defects for mutation-testing the conformance
    fuzzer ([lisim fuzz --mutate]): [Stale_chain] trusts successor-cache
    links and cached blocks without re-checking [b_valid] ([trust]),
    [Skip_invalidate] never registers the code-write hook, so stores to
    translated code leave stale blocks live, and [Stride4] hard-codes a
    4-byte stride in block pc arrays ([build_block]). *)
type mutation = Stale_chain | Skip_invalidate | Stride4

let spec_window = 64

(* ------------------------------------------------------------------ *)
(* Translation cache                                                   *)
(* ------------------------------------------------------------------ *)

(* A compiled, cached basic block. [b_pcs] has len+1 entries; the last
   one is the fall-through pc, so the execution loop does no per-
   instruction address arithmetic. [b_s1]/[b_s2] form a bi-morphic
   inline cache on exit pc: when the previous block's exit lands on a
   remembered successor, dispatch goes block-to-block without touching
   the hash table. [b_valid] is cleared when a write lands on a page
   holding this block's code (or on [flush_code_cache]); the execution
   loop re-checks it after every site so a block that rewrites itself
   stops at the site that did the write. *)
type block = {
  b_pc0 : int64;
  b_codes : Semir.Compile.code array;
  b_encs : int64 array;
  b_idxs : int array;
  b_pcs : int64 array;
  mutable b_valid : bool;
  mutable b_s1_pc : int64;
  mutable b_s1 : block;
  mutable b_s2_pc : int64;
  mutable b_s2 : block;
  mutable b_recs : records;
}

(* DI records that [run_block] writes: one per site, each with its own
   frame (the engine's header and scratch bytes, the record's info
   bytes), and the [(records, count)] results returned so far, kept so a
   later call returns one without allocating. *)
and owned = {
  o_dis : Di.t array;
  o_frames : Semir.Frame.t array;
  o_results : (Di.t array * int) array;  (** [no_result] until first used *)
}

(* A block's records: none before its first [run_block] dispatch, the
   engine's ring for that one ([Warm]), its own from the second on. *)
and records = Cold | Warm | Owned of owned

(* Sentinel predecessor/successor: never valid, so it can neither be
   dispatched through nor receive successor installs. *)
let rec dummy_block =
  {
    b_pc0 = -1L;
    b_codes = [||];
    b_encs = [||];
    b_idxs = [||];
    b_pcs = [||];
    b_valid = false;
    b_s1_pc = -1L;
    b_s1 = dummy_block;
    b_s2_pc = -1L;
    b_s2 = dummy_block;
    b_recs = Cold;
  }

let no_result : Di.t array * int = ([||], -1)

(* [result o k] is [(o.o_dis, k)], built on its first use: a block's own
   records nearly always return their full count, so the shorter results
   (a halt, a block stopped by its own store) are seldom built. *)
let result o k =
  let r = Array.unsafe_get o.o_results k in
  if r != no_result then r
  else begin
    let r = (o.o_dis, k) in
    Array.unsafe_set o.o_results k r;
    r
  end

(* The boxed form of a site's next pc [n]: the fall-through box, or a
   successor-cache key of block [b] when the branch went where it went
   before, so only an unpredicted target allocates a box. Inlined, so [n]
   arrives unboxed. *)
let[@inline] next_box b n fall =
  if Int64.equal n fall then fall
  else if Int64.equal n b.b_s1_pc then b.b_s1_pc
  else if Int64.equal n b.b_s2_pc then b.b_s2_pc
  else n

(* A block handed to dispatch must start at the pc that was requested —
   the one structural invariant the successor caches could silently
   break. The check is a single 64-bit compare per block dispatch; a
   violation is reported as an "engine" {!Sim_error} (exit code 5), the
   structured signal the supervised runtime's degradation ladder
   demotes on instead of executing wrong code. *)
let dispatch_invariant_violation (st : State.t) ~want ~got =
  Sim_error.raisef ~component:"engine"
    ~context:
      [
        ("pc", Printf.sprintf "0x%Lx" want);
        ("block_pc0", Printf.sprintf "0x%Lx" got);
        ("instructions", Int64.to_string st.State.instr_count);
      ]
    "block dispatch invariant violated: cached block does not start at the \
     dispatch pc"

(* The site of an encoding no instruction matches. *)
let illegal_site : Semir.Compile.code =
 fun fr ->
  State.raise_fault fr.st (Fault.Illegal_instruction (Semir.Frame.enc fr))

(* ------------------------------------------------------------------ *)
(* Decoded-instruction cache                                           *)
(* ------------------------------------------------------------------ *)

(* What a translated [run_one] knows of the instruction at [d_pc]: the
   window fetched there, its decoded class (-1: illegal), its encoding
   truncated to the class's parcel, its fall-through pc and its site.
   A hit needs an equal pc and an equal window, and the rest follows
   from those two, so a write to code, a rollback, a checkpoint restore
   or an image reload cannot make an entry stale: it just stops
   matching. The boxes are kept so a hit writes the DI header without
   allocating; [d_taken] is the last taken target, as in [next_box]. *)
type decoded = {
  d_pc : int64;
  d_win : int64;
  d_idx : int;
  d_enc : int64;
  d_fall : int64;
  mutable d_taken : int64;
  d_site : Semir.Compile.code;
}

(* Direct-mapped on [pc lsr 1]: 256 slots span 512 bytes of code. *)
let dcache_slots = 256

let dcache_slot pc = (Int64.to_int pc lsr 1) land (dcache_slots - 1)

(* An empty cache: each slot holds an entry whose pc maps to another
   slot, so it never hits. *)
let empty_dcache () =
  let empty pc =
    {
      d_pc = pc;
      d_win = 0L;
      d_idx = -1;
      d_enc = 0L;
      d_fall = 0L;
      d_taken = 0L;
      d_site = illegal_site;
    }
  in
  let in_slot0 = empty 0L and in_slot1 = empty 2L in
  Array.init dcache_slots (fun s -> if s = 0 then in_slot1 else in_slot0)

(* ------------------------------------------------------------------ *)
(* The instance                                                        *)
(* ------------------------------------------------------------------ *)

(* What a one-entrypoint instance translates with: the plan's chain IR
   and the cells a site keeps, this instance's [(instr, encoding)] view
   and the plan's shared table behind it, and the decoded-instruction
   cache of the translated [run_one]. *)
type sites = {
  chain_ir : Semir.Ir.program array;
  keep : int -> bool;
  view : (int * int64, Semir.Compile.code) Hashtbl.t;
  shared : (int * int64, Semir.Compile.code) Hashtbl.t option;
  dcache : decoded array;
}

(* The translation cache of a block instance. [page_blocks] maps each
   page holding translated code to the blocks compiled from it; a write
   to such a page invalidates those blocks (and thereby every chain link
   into them, since dispatch re-checks [b_valid]). *)
type tables = {
  is_ctrl : bool array;
  blocks : (int64, block) Hashtbl.t;
  page_blocks : (int, block list ref) Hashtbl.t;
  mutable last_block : block;
  fast_di : Bytes.t;  (** info bytes for the chained loop's sites, never read *)
}

(** One interface's engine, built once by {!create}. The mutable fields
    hold what is built on first use or replaced as it grows. *)
type t = {
  spec : Lis.Spec.t;
  plan : Plan.t;
  bp : Plan.buildset;
  st : State.t;
  frame : Semir.Frame.t;
  fs : Bytes.t;  (** [frame.s] *)
  stats : Iface.stats;
  journal : Specul.t option;
  hooked : bool;  (** the frames hold the caller's write hooks, or the journal's *)
  ins : Instrument.t option;
  prof : Obs.Prof.t option;
  compile : Semir.Ir.program -> Semir.Compile.code;
  shares : bool;
      (** [Compiled] with [site_cache]: items and sites come from the plan *)
  chain : bool;
  site_cache : bool;
  stale_chain : bool;
  stride4 : bool;
  instr_bytes64 : int64;
  mutable ep_items : Plan.item array array;  (** [[||]] until built *)
  mutable flat : Plan.item array;
      (** a Step interface's items of every entrypoint in turn: one
          instruction's walk *)
  mutable fetch_idx : int;  (** the page the fetch holds; -1: none *)
  mutable fetch_gen : int;  (** the memory's generation when it was taken *)
  mutable fetch_page : Bytes.t;
  fetch_swap : bool;  (** the memory's byte order differs from the host's *)
  mutable ring : owned;
  sites : sites option;  (** one-entrypoint instances *)
  tables : tables option;  (** block instances *)
}

(* ------------------------------------------------------------------ *)
(* Code                                                                *)
(* ------------------------------------------------------------------ *)

(* An instance's compiler ([t.compile]). It captures the cell
   locations, the register layout, the backend, [hooked] and
   [mem_fast_path], never the instance: the lazy stubs of shared items
   keep it in the plan, and the machine of the instance that built them
   must not stay reachable from there. Every load and store it compiles
   gets the per-site TLB when [mem_fast_path]: a store site never caches
   a code page, and marking a page as code bumps the memory's
   generation, so code-write hooks still fire. *)
let compiler ~backend ~hooked ~mem_fast_path ~layout loc ir :
    Semir.Compile.code =
  match backend with
  | Compiled -> Semir.Compile.program ~hooked ~layout ~mem_fast_path ~loc ir
  | Interpreted -> fun fr -> Semir.Eval.exec ~loc fr ir

(* Every entrypoint's generic per-segment code. Compiled code takes the
   frame alone and reads the machine and the hooks only through it, so
   instances that share sites share it through the shape, hooked apart
   from plain. The caller's hooks record a short run that meets few
   classes, so items built for them compile each class when it first
   runs, for every later instance too. *)
let items e =
  let build () =
    Plan.compile_items e.plan e.bp
      ~on_first_run:(e.hooked && not e.bp.bs.bs_speculation)
      ~compile:e.compile
  in
  if e.shares then Plan.shared_items e.bp ~hooked:e.hooked build
  else build ()

(* One-entrypoint interfaces execute sites: an instruction's whole
   chain IR (decode to the end of the sequence) specialized against its
   concrete encoding. The LIS front end makes a lone entrypoint's
   actions the whole sequence in order, so a site does exactly what the
   generic items would. Specialization depends only on the encoding,
   never on the pc: loops entered at several pcs, duplicated code and
   rebuilt blocks reuse compiled sites. This instance's view counts its
   compilations and hits as a fresh synthesis would; behind it,
   instances that share code take the plan's sites per [(hooked,
   visibility)]. Both survive [flush_code_cache]: entries keyed by
   [(instr, encoding)] stay correct whatever memory now holds. *)
let build_site e s (idx, enc) =
  e.compile (Semir.Opt.optimize ~enc ~keep:s.keep s.chain_ir.(idx))

(** [compile_site e s enc idx] is the site of class [idx] at encoding
    [enc]: the translator's one entry point. *)
let compile_site e s enc idx =
  let key = (idx, enc) in
  match if e.site_cache then Hashtbl.find_opt s.view key else None with
  | Some c ->
    e.stats.site_cache_hits <- e.stats.site_cache_hits + 1;
    c
  | None ->
    e.stats.sites_compiled <- e.stats.sites_compiled + 1;
    let c =
      match s.shared with
      | Some tbl -> Plan.shared_site tbl key (fun () -> build_site e s key)
      | None -> build_site e s key
    in
    if e.site_cache then Hashtbl.add s.view key c;
    c

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* The fetch of both front ends ([I_fetch] and translated One): the
   window at native-int address [a] into the frame's encoding slot. It
   holds the page of its last fetch, and reads the window from it with
   one load while the memory's generation is the one it took the page at
   (so no [clear], checkpoint restore or newly marked code page came
   between). Another page, a new generation or a window that crosses a
   page goes through {!Memory.load_into}, and the first two take the new
   page. [window] is {!Memory}'s page read, kept here because a call
   into [Memory] would box the window. *)
let[@inline] window p off width swap =
  Int64.add 0L
    (match width with
    | 4 ->
      let w = get32 p off in
      Int64.logand (Int64.of_int32 (if swap then bswap32 w else w)) 0xFFFFFFFFL
    | 2 ->
      let h = get16 p off in
      Int64.of_int (if swap then bswap16 h else h)
    | 1 -> Int64.of_int (Char.code (Bytes.unsafe_get p off))
    | _ ->
      let d = get64 p off in
      if swap then bswap64 d else d)

let refetch e a =
  let m = e.st.mem and width = e.spec.instr_bytes in
  Memory.load_into m ~addr:a ~width ~signed:false e.fs enc_off;
  if a land Memory.page_mask + width <= Memory.page_size then begin
    let idx = a lsr Memory.page_bits in
    e.fetch_page <- Memory.lookup_page m idx;
    e.fetch_idx <- idx;
    e.fetch_gen <- Memory.generation m
  end

let[@inline] fetch e a =
  let off = a land Memory.page_mask and width = e.spec.instr_bytes in
  if
    a lsr Memory.page_bits = e.fetch_idx
    && e.fetch_gen = Memory.generation e.st.mem
    && off + width <= Memory.page_size
  then set64 e.fs enc_off (window e.fetch_page off width e.fetch_swap)
  else refetch e a

(* One item. The unobserved walk inlines it, so a whole instruction's
   items run in one loop body; the counted crossings call it. *)
let[@inline] exec_item e (di : Di.t) item =
  let st = e.st and fs = e.fs in
  match item with
  | Plan.I_fetch ->
    let pc = get64 fs pc_off in
    fetch e (Int64.to_int pc land max_int);
    set64 fs next_pc_off (Int64.add pc e.instr_bytes64)
  | Plan.I_decode codes ->
    let idx = Decoder.decode_slot e.plan.decoder fs enc_off in
    if idx < 0 then
      State.raise_fault st (Fault.Illegal_instruction (get64 fs enc_off))
    else begin
      di.instr_index <- idx;
      set64 fs enc_off
        (Int64.logand (get64 fs enc_off) (Array.unsafe_get e.plan.size_mask idx));
      set64 fs next_pc_off
        (Int64.add (get64 fs pc_off) (Array.unsafe_get e.plan.size64 idx));
      (Array.unsafe_get codes idx) e.frame
    end
  | Plan.I_chunk codes ->
    let idx = di.instr_index in
    if idx < 0 then
      Sim_error.raisef ~component:"interface"
        ~context:
          [ ("isa", e.spec.name); ("buildset", e.bp.bs.bs_name);
            ("pc", Printf.sprintf "0x%Lx" (get64 fs pc_off)) ]
        "entrypoint called before decode"
    else (Array.unsafe_get codes idx) e.frame

(* The engine moves the frame header through its unboxed slots. A
   pointer field of a long-lived record (a DI header field, [frame.di])
   costs a write barrier per store, so where the stored value seldom
   changes the engine compares first and stores only a physically
   different value, and an [int64] it stores is an existing box where
   one is at hand (a block's pc arrays, its successor cache). *)
let load_frame e (di : Di.t) =
  let fs = e.fs in
  set64 fs pc_off di.pc;
  set64 fs enc_off di.encoding;
  set64 fs next_pc_off di.next_pc;
  if e.frame.di != di.info then e.frame.di <- di.info

let save_frame e (di : Di.t) =
  let enc = get64 e.fs enc_off in
  if not (Int64.equal enc di.encoding) then di.encoding <- enc;
  let n = get64 e.fs next_pc_off in
  if not (Int64.equal n di.next_pc) then di.next_pc <- n;
  let f = e.st.fault in
  if di.fault != f then di.fault <- f

(* ------------------------------------------------------------------ *)
(* Entrypoint crossings                                                *)
(* ------------------------------------------------------------------ *)

(* Unobserved and profile-only interfaces run the plain crossing: no
   counting. A full context ([ins]) runs the counted crossing, timed on
   a jittered 1-in-[Obs.Sample.every] sample, and its per-block hooks in
   both block loops. *)

(* [Obs.Registry.incr], inlined (see [exec_ep]) *)
let[@inline] count (c : Obs.Registry.counter) = c.n <- c.n + 1

let segment = function
  | Plan.I_fetch -> 0
  | Plan.I_decode _ -> 1
  | Plan.I_chunk _ -> 2

(* a sampled crossing: one clock read before the first segment and one
   after each *)
let timed e (i : Instrument.t) di (items : Plan.item array) k =
  let t0 = Obs.Clock.now () in
  let last = ref t0 in
  let j = ref 0 in
  while !j < Array.length items && not e.st.halted do
    let item = Array.unsafe_get items !j in
    (exec_item [@inlined never]) e di item;
    let s = segment item in
    count i.seg_calls.(s);
    let now = Obs.Clock.now () in
    Obs.Hist.record i.seg_ns.(s) (now - !last);
    last := now;
    incr j
  done;
  Obs.Hist.record i.ep_ns.(k) (!last - t0)

(* Items in turn until they end or the machine halts: an unobserved
   crossing, or a whole instruction's flat items. *)
let[@inline] walk e di (items : Plan.item array) =
  let st = e.st in
  let j = ref 0 in
  while !j < Array.length items && not st.halted do
    exec_item e di (Array.unsafe_get items !j);
    incr j
  done

(* One entrypoint crossing: the hook [step] and an observed Step
   interface's [run_one] call. The synthesis-time constant [ins] picks
   its body, so an unobserved crossing pays one predicted branch. Loops, not local
   recursive functions: a per-call closure would be the engine's largest
   allocation. This and the translated crossing are the per-crossing
   paths; they update counters and the sampler's countdown in place,
   because a call into another module costs more than the update (see
   {!Obs.Sample.t}); the per-block hooks in {!Instrument} call
   [Obs.Sample.tick] and [Obs.Registry.add]. *)
let exec_ep e di k (items : Plan.item array) =
  let st = e.st in
  match e.ins with
  | None -> walk e di items
  | Some i ->
    let smp = i.sampler in
    (* [Obs.Sample.tick], inlined: keep the two in step *)
    if smp.left > 1 then begin
      smp.left <- smp.left - 1;
      let j = ref 0 in
      while !j < Array.length items && not st.halted do
        let item = Array.unsafe_get items !j in
        (exec_item [@inlined never]) e di item;
        count (Array.unsafe_get i.seg_calls (segment item));
        incr j
      done
    end
    else begin
      Obs.Sample.rearm smp;
      timed e i di items k
    end;
    count i.crossings;
    count (Array.unsafe_get i.ep_calls k)

(* One-entrypoint interfaces build their items, and the plan's
   per-segment IR with them, on their first [step], which none of their
   own loops makes. *)
let[@inline] step e di k =
  if Array.length e.ep_items = 0 then e.ep_items <- items e;
  load_frame e di;
  exec_ep e di k e.ep_items.(k);
  save_frame e di

(* [di]'s checkpoint restores pc [pc] and [k] instructions past
   [st.instr_count]: a block's sites run before [st] moves past the
   block. Inlined, so the synthesis-time constant [journal] is a
   predicted branch at each call, as [prof] is in [retire_at], and an
   interface without speculation pays no call per instruction. *)
let[@inline] auto_checkpoint e (di : Di.t) pc k =
  match e.journal with
  | None -> ()
  | Some j ->
    di.ckpt <- Specul.mark j e.st pc k;
    Specul.auto_trim j ~window:spec_window

(* The hot-region profiler, in full and profile-only contexts alike, is
   fed where the engine already retires, and the constant [prof] picks
   the body as [ins] does in [exec_ep]: each instruction at its pc here,
   which every [run_one] and a stepped flow reach, and each block at its
   entry pc in the per-block exit. A halting instruction is never
   retired, so never attributed. *)
let[@inline] retire_at e pc next =
  let st = e.st in
  st.pc <- next;
  st.instr_count <- Int64.add st.instr_count 1L;
  e.stats.instrs_executed <- e.stats.instrs_executed + 1;
  match e.prof with None -> () | Some p -> Obs.Prof.note p ~pc ~instrs:1

let[@inline] retire e (di : Di.t) = retire_at e di.pc di.next_pc

(* The generic [run_one] of a Step interface: unobserved, one walk of
   the flat items, which stops where the crossings would (a halt stops
   both); observed, every entrypoint's crossing in turn, so the counts
   and sampled times stay per crossing. *)
let[@inline] run_one_items e (di : Di.t) =
  let st = e.st in
  if not st.halted then begin
    di.pc <- st.pc;
    di.instr_index <- -1;
    if di.fault != None then di.fault <- None;
    auto_checkpoint e di di.pc 0;
    load_frame e di;
    (match e.ins with
    | None -> walk e di e.flat
    | Some _ ->
      let items = e.ep_items in
      let k = ref 0 in
      while !k < Array.length items && not st.halted do
        exec_ep e di !k (Array.unsafe_get items !k);
        incr k
      done);
    save_frame e di;
    if not st.halted then retire e di
  end

(* [run_fast] of an unobserved Step interface: the flat walk with no DI
   header. The header lives in the frame's slots alone; the class index
   and a journal mark go to the ring's first record, whose info bytes
   the items write. Only the pc is stored before the walk: the
   encoding and next-pc slots hold what the last instruction left, as
   the record's header would. An instruction retires from the frame's
   next-pc slot. *)
let[@inline] run_flat e n =
  let st = e.st and fs = e.fs in
  let di = e.ring.o_dis.(0) and items = e.flat in
  if e.frame.di != di.info then e.frame.di <- di.info;
  let executed = ref 0 in
  while !executed < n && not st.halted do
    let pc = st.pc in
    di.instr_index <- -1;
    auto_checkpoint e di pc 0;
    set64 fs pc_off pc;
    walk e di items;
    if not st.halted then begin
      retire_at e pc (get64 fs next_pc_off);
      incr executed
    end
  done;
  !executed

(* ------------------------------------------------------------------ *)
(* Translated One                                                      *)
(* ------------------------------------------------------------------ *)

(* The translated [run_one]: a crossing fetches the window at the pc,
   looks it up in the decoded-instruction cache (decoding and
   translating on a miss) and runs the entry's site. Observed, it
   counts what the generic items would (the crossing, fetch, decode,
   and ir unless decode found no instruction), and a sampled crossing
   times fetch as "fetch", the lookup as "decode" and the site as
   "ir". *)
let lookup e s pc =
  let win = get64 e.fs enc_off in
  let slot = dcache_slot pc in
  let d = Array.unsafe_get s.dcache slot in
  if Int64.equal d.d_pc pc && Int64.equal d.d_win win then d
  else begin
    let idx = Decoder.decode_slot e.plan.decoder e.fs enc_off in
    (* an illegal window keeps the generic decode's state: the whole
       window, the fetch's fall-through, and the fault its site
       raises *)
    let enc, size, site =
      if idx < 0 then (win, e.instr_bytes64, illegal_site)
      else
        let enc = Int64.logand win (Array.unsafe_get e.plan.size_mask idx) in
        (enc, Array.unsafe_get e.plan.size64 idx, compile_site e s enc idx)
    in
    let fall = Int64.add pc size in
    let d =
      {
        d_pc = pc;
        d_win = win;
        d_idx = idx;
        d_enc = enc;
        d_fall = fall;
        d_taken = fall;
        d_site = site;
      }
    in
    Array.unsafe_set s.dcache slot d;
    d
  end

let exec_site e (di : Di.t) pc d =
  let fs = e.fs and frame = e.frame in
  di.instr_index <- d.d_idx;
  di.encoding <- d.d_enc;
  set64 fs pc_off pc;
  set64 fs enc_off d.d_enc;
  set64 fs next_pc_off d.d_fall;
  if frame.di != di.info then frame.di <- di.info;
  d.d_site frame;
  let n = get64 fs next_pc_off in
  di.next_pc <-
    (if Int64.equal n d.d_fall then d.d_fall
     else if Int64.equal n d.d_taken then d.d_taken
     else begin
       d.d_taken <- n;
       d.d_taken
     end);
  let f = e.st.fault in
  if di.fault != f then di.fault <- f

let count_segs (i : Instrument.t) d =
  count (Array.unsafe_get i.seg_calls 0);
  count (Array.unsafe_get i.seg_calls 1);
  if d.d_idx >= 0 then count (Array.unsafe_get i.seg_calls 2)

let[@inline] run_one_translated e s (di : Di.t) =
  let st = e.st in
  if not st.halted then begin
    let pc = st.pc in
    di.pc <- pc;
    auto_checkpoint e di pc 0;
    (match e.ins with
    | None ->
      fetch e (Int64.to_int pc land max_int);
      exec_site e di pc (lookup e s pc)
    | Some i ->
      let smp = i.sampler in
      (* [Obs.Sample.tick], inlined, as in [exec_ep] *)
      if smp.left > 1 then begin
        smp.left <- smp.left - 1;
        fetch e (Int64.to_int pc land max_int);
        let d = lookup e s pc in
        exec_site e di pc d;
        count_segs i d
      end
      else begin
        Obs.Sample.rearm smp;
        let t0 = Obs.Clock.now () in
        fetch e (Int64.to_int pc land max_int);
        let t1 = Obs.Clock.now () in
        let d = lookup e s pc in
        let t2 = Obs.Clock.now () in
        exec_site e di pc d;
        let t3 = Obs.Clock.now () in
        Obs.Hist.record i.seg_ns.(0) (t1 - t0);
        Obs.Hist.record i.seg_ns.(1) (t2 - t1);
        if d.d_idx >= 0 then Obs.Hist.record i.seg_ns.(2) (t3 - t2);
        Obs.Hist.record i.ep_ns.(0) (t3 - t0);
        count_segs i d
      end;
      count i.crossings;
      count (Array.unsafe_get i.ep_calls 0));
    if not st.halted then retire e di
  end

(* ------------------------------------------------------------------ *)
(* Block mode                                                          *)
(* ------------------------------------------------------------------ *)

(* Each record gets its own frame, the engine's with the record's info
   bytes, so a site never repoints [frame.di] and every frame carries
   the instance's machine and hooks. The ring serves a block's first
   dispatch, a non-block buildset's one-instruction batch and
   [run_generic]. *)
let owned (frame : Semir.Frame.t) dis =
  {
    o_dis = dis;
    o_frames = Array.map (fun (d : Di.t) -> { frame with di = d.info }) dis;
    o_results = Array.make (Array.length dis + 1) no_result;
  }

let ensure_ring e n =
  let dis = e.ring.o_dis in
  if Array.length dis < n then
    e.ring <-
      owned e.frame
        (Array.init (max n (2 * Array.length dis)) (fun i ->
             if i < Array.length dis then dis.(i)
             else Di.create ~info_slots:e.bp.slots.di_size))

(* a one-instruction batch: the ring's first record, counted unless the
   instruction halted (an uncounted instruction, as in the block loop) *)
let[@inline] run_batch e run_one =
  run_one e.ring.o_dis.(0);
  result e.ring (if e.st.halted then 0 else 1)

(* The block builder: sites from [pc0] up to a control transfer, an
   illegal encoding or [max_block] sites, with the code pages they span
   registered. *)
let max_block = 64

let build_block e s tb pc0 =
  let st = e.st in
  let codes = ref [] and encs = ref [] and idxs = ref [] in
  let rev_pcs = ref [] in
  let n = ref 0 in
  let pc = ref pc0 in
  let stop = ref false in
  while not !stop do
    let enc = Memory.read st.mem ~addr:!pc ~width:e.spec.instr_bytes in
    let idx = Decoder.decode e.plan.decoder enc in
    if idx < 0 then begin
      codes := illegal_site :: !codes;
      encs := enc :: !encs;
      idxs := idx :: !idxs;
      rev_pcs := !pc :: !rev_pcs;
      incr n;
      pc := Int64.add !pc e.instr_bytes64;
      stop := true
    end
    else begin
      (* truncate to the decoded parcel: the tail of the fetch window
         belongs to the next instruction, and must not key the site
         cache or leak into operand fields *)
      let enc = Int64.logand enc (Array.unsafe_get e.plan.size_mask idx) in
      codes := compile_site e s enc idx :: !codes;
      encs := enc :: !encs;
      idxs := idx :: !idxs;
      rev_pcs := !pc :: !rev_pcs;
      incr n;
      pc := Int64.add !pc (Array.unsafe_get e.plan.size64 idx);
      if tb.is_ctrl.(idx) || !n >= max_block then stop := true
    end
  done;
  e.stats.blocks_compiled <- e.stats.blocks_compiled + 1;
  (* [pcs] carries the true site addresses plus the fall-through pc;
     the seeded [Stride4] defect replaces them with a uniform 4-byte
     walk, observable on any ISA whose real strides differ. *)
  let pcs =
    if e.stride4 then
      Array.init (!n + 1) (fun i -> Int64.add pc0 (Int64.of_int (4 * i)))
    else Array.of_list (List.rev (!pc :: !rev_pcs))
  in
  let b =
    {
      b_pc0 = pc0;
      b_codes = Array.of_list (List.rev !codes);
      b_encs = Array.of_list (List.rev !encs);
      b_idxs = Array.of_list (List.rev !idxs);
      b_pcs = pcs;
      b_valid = true;
      b_s1_pc = -1L;
      b_s1 = dummy_block;
      b_s2_pc = -1L;
      b_s2 = dummy_block;
      b_recs = Cold;
    }
  in
  (* Register the code pages this block was translated from. *)
  let lo = Memory.addr_int pc0 lsr Memory.page_bits in
  let hi = Memory.addr_int (Int64.sub pcs.(!n) 1L) lsr Memory.page_bits in
  for pidx = lo to hi do
    Memory.note_code_page st.mem pidx;
    let l =
      match Hashtbl.find_opt tb.page_blocks pidx with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.add tb.page_blocks pidx l;
        l
    in
    l := b :: !l
  done;
  b

let find_block e s tb pc0 =
  match Hashtbl.find_opt tb.blocks pc0 with
  | Some b ->
    e.stats.block_hits <- e.stats.block_hits + 1;
    b
  | None ->
    let b = build_block e s tb pc0 in
    Hashtbl.add tb.blocks pc0 b;
    b

(* [trust] is the single-trust invariant: [b_valid] is the only thing
   dispatch and both block loops' mid-block recheck believe.
   [Stale_chain] breaks it for every real block. *)
let[@inline] trust e b =
  b.b_valid || (e.stale_chain && not (Int64.equal b.b_pc0 (-1L)))

(* Chained dispatch: try the predecessor's successor cache before the
   hash table, installing / promoting on the way (most recent first).
   Without [chain], every dispatch probes the hash table. *)
let lookup_from e s tb prev pc0 =
  let stats = e.stats in
  if not (e.chain && trust e prev) then find_block e s tb pc0
  else if Int64.equal prev.b_s1_pc pc0 && trust e prev.b_s1 then begin
    stats.chain_taken <- stats.chain_taken + 1;
    stats.block_hits <- stats.block_hits + 1;
    prev.b_s1
  end
  else if Int64.equal prev.b_s2_pc pc0 && trust e prev.b_s2 then begin
    let b = prev.b_s2 in
    prev.b_s2_pc <- prev.b_s1_pc;
    prev.b_s2 <- prev.b_s1;
    prev.b_s1_pc <- pc0;
    prev.b_s1 <- b;
    stats.chain_taken <- stats.chain_taken + 1;
    stats.block_hits <- stats.block_hits + 1;
    b
  end
  else begin
    stats.chain_miss <- stats.chain_miss + 1;
    let b = find_block e s tb pc0 in
    prev.b_s2_pc <- prev.b_s1_pc;
    prev.b_s2 <- prev.b_s1;
    prev.b_s1_pc <- pc0;
    prev.b_s1 <- b;
    b
  end

(* Dispatch at the fetch pc: the block there, checked against the
   structural invariant, becomes the next dispatch's predecessor. *)
let[@inline] dispatch e s tb pc0 =
  let b = lookup_from e s tb tb.last_block pc0 in
  if not (Int64.equal b.b_pc0 pc0) then
    dispatch_invariant_violation e.st ~want:pc0 ~got:b.b_pc0;
  tb.last_block <- b;
  b

(* The per-block exit of both block loops: [k > 0] sites of the block at
   [pc0] retired. The synthesis-time constants [prof] and [ins] choose
   whether the profiler and the instruments see the block, so an
   unobserved interface pays two predicted branches per block and no
   call. *)
let[@inline] block_exit e pc0 k =
  let st = e.st in
  st.instr_count <- Int64.add st.instr_count (Int64.of_int k);
  e.stats.instrs_executed <- e.stats.instrs_executed + k;
  (match e.prof with None -> () | Some p -> Obs.Prof.note p ~pc:pc0 ~instrs:k);
  match e.ins with None -> () | Some i -> Instrument.block_exit i pc0 k

(* A block's first [run_block] dispatch runs on the ring, whose records
   hold another block's header on every call. The second gives the
   block records of its own with the header written from its arrays
   (the fall-through as next pc), so a hot block's sites store a header
   field only when a next pc or a fault changes. A block that runs once
   costs no records, and invalidation drops the records with the
   block. *)
let records e b =
  match b.b_recs with
  | Owned o -> o
  | Warm ->
    let o =
      owned e.frame
        (Array.init (Array.length b.b_codes) (fun k ->
             let d = Di.create ~info_slots:e.bp.slots.di_size in
             d.pc <- b.b_pcs.(k);
             d.encoding <- b.b_encs.(k);
             d.instr_index <- b.b_idxs.(k);
             d.next_pc <- b.b_pcs.(k + 1);
             d))
    in
    b.b_recs <- Owned o;
    o
  | Cold ->
    b.b_recs <- Warm;
    ensure_ring e (Array.length b.b_codes);
    e.ring

(* The block loop: one site loop for both kinds of record. Each header
   field is compared before it is stored, and the next pc is chosen
   among the existing boxes and stored inside each branch. Bound to a
   variable, the chosen box would be unboxed and boxed again on every
   site. *)
let[@inline] run_block e s tb =
  let st = e.st and fs = e.fs in
  if st.halted then result e.ring 0
  else begin
    (match e.ins with Some i -> Instrument.block_start i | None -> ());
    let pc0 = st.pc in
    let b = dispatch e s tb pc0 in
    let codes = b.b_codes
    and encs = b.b_encs
    and idxs = b.b_idxs
    and pcs = b.b_pcs in
    let len = Array.length codes in
    let recs = records e b in
    let dis = recs.o_dis and frames = recs.o_frames in
    let executed = ref 0 in
    let k = ref 0 in
    (* [trust] re-checked per site: a store that hits this block's own
       code page stops execution after the faulting-free site that
       performed it, so stale sites never run. *)
    while !k < len && (not st.halted) && trust e b do
      let di = Array.unsafe_get dis !k in
      let pc = Array.unsafe_get pcs !k in
      let enc = Array.unsafe_get encs !k in
      let fall = Array.unsafe_get pcs (!k + 1) in
      if di.pc != pc then di.pc <- pc;
      if di.encoding != enc then di.encoding <- enc;
      di.instr_index <- Array.unsafe_get idxs !k;
      if di.fault != None then di.fault <- None;
      auto_checkpoint e di pc !executed;
      set64 fs pc_off pc;
      set64 fs enc_off enc;
      set64 fs next_pc_off fall;
      (Array.unsafe_get codes !k) (Array.unsafe_get frames !k);
      let n = get64 fs next_pc_off in
      if Int64.equal n fall then begin
        if di.next_pc != fall then di.next_pc <- fall
      end
      else if Int64.equal n b.b_s1_pc then begin
        if di.next_pc != b.b_s1_pc then di.next_pc <- b.b_s1_pc
      end
      else if Int64.equal n b.b_s2_pc then begin
        if di.next_pc != b.b_s2_pc then di.next_pc <- b.b_s2_pc
      end
      else di.next_pc <- n;
      let f = st.fault in
      if di.fault != f then di.fault <- f;
      if not st.halted then incr executed;
      incr k
    done;
    (* a halt leaves the pc at the halting site, as run_one and step
       do; otherwise the last executed site's next_pc is the
       continuation *)
    if st.halted then st.pc <- Array.unsafe_get pcs (!k - 1)
    else if !executed > 0 then st.pc <- (Array.unsafe_get dis (!k - 1)).next_pc;
    if !executed > 0 then block_exit e pc0 !executed;
    result recs !executed
  end

(* The translation-cache hot path: block-to-block dispatch through the
   successor caches (the hash table without [chain]), no DI
   materialization, no per-instruction bookkeeping. It returns after at
   most [n] instructions plus block slack, the preemption point
   watchdogs rely on, so chained dispatch cannot spin past a slice. *)
let[@inline] run_chained e s tb n =
  let st = e.st and fs = e.fs and frame = e.frame in
  let executed = ref 0 in
  frame.di <- tb.fast_di;
  (match e.ins with Some i -> Instrument.block_start i | None -> ());
  while !executed < n && not st.halted do
    let pc0 = st.pc in
    let b = dispatch e s tb pc0 in
    let codes = b.b_codes and encs = b.b_encs and pcs = b.b_pcs in
    let len = Array.length codes in
    let k = ref 0 in
    let go = ref true in
    while !go do
      set64 fs pc_off (Array.unsafe_get pcs !k);
      set64 fs enc_off (Array.unsafe_get encs !k);
      set64 fs next_pc_off (Array.unsafe_get pcs (!k + 1));
      (Array.unsafe_get codes !k) frame;
      if st.halted then go := false
      else begin
        incr k;
        if !k >= len || not (trust e b) then go := false
      end
    done;
    (* a halting site is site [k], and the pc stays at it;
       otherwise [pcs.(k)] is the last executed site's fall-through *)
    if st.halted then st.pc <- Array.unsafe_get pcs !k
    else if !k > 0 then
      st.pc <- next_box b (get64 fs next_pc_off) (Array.unsafe_get pcs !k);
    if !k > 0 then begin
      block_exit e pc0 !k;
      executed := !executed + !k
    end
  done;
  !executed

(* [run_fast]'s generic loop, for journaled block interfaces, One
   interfaces and observed Step ones: [run_block] or [run_one] until [n]
   instructions (plus block slack) retired. [run_one] writes the ring's
   first record, as [run_batch] does, so a call allocates no record of
   its own. *)
let run_generic e ~run_block ~run_one n =
  let st = e.st in
  let start = st.instr_count in
  let block = e.bp.bs.bs_block and di = e.ring.o_dis.(0) in
  while Int64.to_int (Int64.sub st.instr_count start) < n && not st.halted do
    if block then ignore (run_block ()) else run_one di
  done;
  Int64.to_int (Int64.sub st.instr_count start)

(* The code-write hook: kill the blocks translated from page [pidx]. *)
let invalidate e tb pidx =
  match Hashtbl.find_opt tb.page_blocks pidx with
  | None -> ()
  | Some l ->
    List.iter
      (fun b ->
        if b.b_valid then begin
          b.b_valid <- false;
          Hashtbl.remove tb.blocks b.b_pc0;
          e.stats.block_invalidations <- e.stats.block_invalidations + 1
        end)
      !l;
    l := [];
    tb.last_block <- dummy_block

(* Invalidate before dropping: chain links and [last_block] may still
   point at these blocks, and dispatch trusts only [b_valid]. The shared
   site cache survives — [(instr, encoding)] keys stay correct whatever
   memory now holds. The memory's code-page set also stays: other
   interfaces on the same machine may still have live blocks. *)
let flush_code_cache e =
  e.stats.block_invalidations <- e.stats.block_invalidations + 1;
  match e.tables with
  | None -> ()
  | Some tb ->
    Hashtbl.iter (fun _ b -> b.b_valid <- false) tb.blocks;
    Hashtbl.reset tb.blocks;
    Hashtbl.reset tb.page_blocks;
    tb.last_block <- dummy_block

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(** [create ~backend ~chain ~site_cache ~mutate ~hooks ~journal ~obs
    plan bp st] is the engine of buildset [bp] on machine [st]: its
    statistics and instruments, its frames, which carry [st] and [hooks]
    (the caller's or the journal's), the items of a Step interface, the
    translator's state of a one-entrypoint interface and the block
    tables of a Block interface, whose code-write hook it registers
    unless [mutate] skips it. *)
let create ~backend ~chain ~site_cache ~mutate ~hooks ~journal ~obs
    (plan : Plan.t) (bp : Plan.buildset) (st : State.t) =
  let spec = plan.spec and bs = bp.bs and slots = bp.slots in
  let stats =
    {
      Iface.blocks_compiled = 0;
      block_hits = 0;
      block_invalidations = 0;
      sites_compiled = 0;
      site_cache_hits = 0;
      chain_taken = 0;
      chain_miss = 0;
      instrs_executed = 0;
    }
  in
  let n_eps = Array.length bs.bs_entrypoints in
  let ins =
    match obs with
    | Some o when o.Obs.full ->
      Some
        (Instrument.create o bs stats ~journal ~translates:(n_eps = 1)
           ~fused_closures:(Plan.n_code_segs bp * Array.length spec.instrs))
    | Some _ | None -> None
  in
  let hooked = Option.is_some hooks in
  (* One predicate for the per-site TLB and for plan sharing, so code
     with and without the TLB never mixes. *)
  let shares = site_cache && backend = Compiled in
  let frame =
    Semir.Frame.create ~st
      ~hooks:(Option.value hooks ~default:Semir.Hooks.none)
      ~di_slots:slots.di_size ~scratch_slots:slots.scratch_size
  in
  let sites =
    if n_eps <> 1 then None
    else
      let { Plan.chain_ir; carried; _ } = Plan.block_plan plan in
      Some
        {
          chain_ir;
          keep = (fun c -> bs.bs_visible.(c) || Plan.Iset.mem c carried);
          view = Hashtbl.create 256;
          shared =
            (if shares then Some (Plan.site_table plan ~hooked bs.bs_visible)
             else None);
          dcache = empty_dcache ();
        }
  in
  let tables =
    if n_eps = 1 && bs.bs_block then
      Some
        {
          is_ctrl = (Plan.block_plan plan).is_ctrl;
          blocks = Hashtbl.create 1024;
          page_blocks = Hashtbl.create 16;
          last_block = dummy_block;
          fast_di = Semir.Frame.info_bytes slots.di_size;
        }
    else None
  in
  let e =
    {
      spec;
      plan;
      bp;
      st;
      frame;
      fs = frame.s;
      stats;
      journal;
      hooked;
      ins;
      prof = (match obs with Some o -> o.Obs.prof | None -> None);
      compile =
        compiler ~backend ~hooked ~mem_fast_path:shares ~layout:st.regs
          slots.loc;
      shares;
      chain;
      site_cache;
      stale_chain = mutate = Some Stale_chain;
      stride4 = mutate = Some Stride4;
      instr_bytes64 = Int64.of_int spec.instr_bytes;
      ep_items = [||];
      flat = [||];
      fetch_idx = -1;
      fetch_gen = 0;
      fetch_page = Bytes.empty;
      fetch_swap = Sys.big_endian <> (Memory.endian st.mem = Memory.Big);
      ring =
        owned frame
          (Array.init 4 (fun _ -> Di.create ~info_slots:slots.di_size));
      sites;
      tables;
    }
  in
  if n_eps <> 1 then begin
    e.ep_items <- items e;
    (* the same item values: a lazily compiled stub replaces itself in
       the code array both hold *)
    e.flat <- Array.concat (Array.to_list e.ep_items)
  end;
  (match tables with
  | Some tb when mutate <> Some Skip_invalidate ->
    Memory.add_code_write_hook st.mem (invalidate e tb)
  | Some _ | None -> ());
  e

(* ------------------------------------------------------------------ *)
(* The interface's calls                                               *)
(* ------------------------------------------------------------------ *)

(* Each is chosen once, here: a closure over the instance that calls
   one loop of this module. The loops are [@inline], so the call is one
   closure call into the loop's own body. *)

(** [run_one_fn e] is the interface's [run_one]: translated on a
    one-entrypoint interface, the generic items otherwise, with the
    trace ring's event when the instruments carry a ring. *)
let run_one_fn e : Di.t -> unit =
  let run_one =
    match e.sites with
    | Some s -> fun di -> run_one_translated e s di
    | None -> fun di -> run_one_items e di
  in
  match e.ins with
  | Some i -> Instrument.run_one i e.spec e.st run_one
  | None -> run_one

(** [run_block_fn e run_one] is the interface's [run_block]: the block
    loop, or on a non-block buildset a one-instruction batch of
    [run_one], so consumers can be written against one call style. *)
let run_block_fn e run_one : unit -> Di.t array * int =
  match (e.sites, e.tables) with
  | Some s, Some tb -> fun () -> run_block e s tb
  | _ -> fun () -> run_batch e run_one

(** [run_fast_fn e ~run_block ~run_one] is the interface's [run_fast]:
    the DI-free chained loop on an unjournaled block interface, the
    DI-free flat walk on an unobserved Step interface, the generic loop
    over [run_block] or [run_one] otherwise. *)
let run_fast_fn e ~run_block ~run_one : int -> int =
  match (e.sites, e.tables, e.journal, e.ins) with
  | Some s, Some tb, None, _ -> fun n -> run_chained e s tb n
  | None, _, _, None -> fun n -> run_flat e n
  | _ -> fun n -> run_generic e ~run_block ~run_one n

(* [Sys.opaque_identity] keeps each closure below apart from its
   builder: written [fun e -> fun di k -> ...], a builder compiles to one
   function of three arguments, and the interface would hold a partial
   application of it. *)
let step_fn e : Di.t -> int -> unit =
  Sys.opaque_identity (fun di k -> step e di k)

let retire_fn e : Di.t -> unit = Sys.opaque_identity (fun di -> retire e di)
let flush_fn e : unit -> unit = Sys.opaque_identity (fun () -> flush_code_cache e)
