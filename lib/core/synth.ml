(** The simulator synthesizer — the paper's contribution, mechanized.

    [make spec buildset_name] specializes a functional simulator for one
    interface: cells get storage per the buildset's visibility (DI slots
    vs. reused scratch), actions are grouped into the buildset's
    entrypoints and fused, dead information computation is eliminated,
    speculation hooks are compiled in only when asked for, and — for
    one-entrypoint buildsets — each executed instruction is specialized
    against its concrete encoding and cached, per basic block for Block
    interfaces and per pc for One interfaces (the binary-translation
    analog).

    What depends only on the specification and the buildset is the
    {!Plan}; [make] instantiates it on a machine. *)

open Machine

exception Synth_error = Plan.Synth_error

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let pc_off = Semir.Frame.pc_off
let enc_off = Semir.Frame.enc_off
let next_pc_off = Semir.Frame.next_pc_off

let synth_error = Plan.synth_error

(** Execution backend: [Compiled] closures (default) or the reference
    [Interpreted] AST walker (paper footnote 5's baseline). *)
type backend = Compiled | Interpreted

(** Deliberate engine defects used to mutation-test the conformance
    fuzzer ([lisim fuzz --mutate]). Each reintroduces a bug class the
    translation-cache engine defends against: [Stale_chain] trusts
    successor-cache links and cached blocks without re-checking
    [b_valid]; [Skip_invalidate] never registers the code-write hook, so
    stores to translated code leave stale blocks live; [Stride4]
    hard-codes a 4-byte stride in block pc arrays (wrong for any other
    instruction size). [None] (the default) leaves the engine exactly as
    shipped. *)
type mutation = Stale_chain | Skip_invalidate | Stride4

let mutation_to_string = function
  | Stale_chain -> "stale-chain"
  | Skip_invalidate -> "skip-invalidate"
  | Stride4 -> "stride4"

let mutation_of_string = function
  | "stale-chain" -> Some Stale_chain
  | "skip-invalidate" -> Some Skip_invalidate
  | "stride4" -> Some Stride4
  | _ -> None

let spec_window = 64

(** A synthesis cache: the {!Plan} of one specification. *)
type cache = Plan.t

let cache = Plan.create
let decoder (c : cache) = c.Plan.decoder

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
  b_stable : bool;
      (** every site is statically store- and syscall-free, so the block
          cannot invalidate itself (or any other block) mid-run: the
          per-site [b_valid] recheck is elided. Invalidation between
          runs is still honored — dispatch only trusts [b_valid]. *)
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
    b_stable = false;
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
 fun st fr ->
  State.raise_fault st (Fault.Illegal_instruction (Semir.Frame.enc fr))

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
(* Synthesis                                                           *)
(* ------------------------------------------------------------------ *)

let make ?(backend = Compiled) ?(allow_hidden_crossing = false) ?(chain = true)
    ?(site_cache = true) ?(absint = true) ?mutate ?hooks ?cache ?obs ?st
    (spec : Lis.Spec.t) (bs_name : string) : Iface.t =
  let plan =
    match cache with
    | None -> Plan.create spec
    | Some c when c.Plan.spec == spec -> c
    | Some _ ->
      invalid_arg
        (Printf.sprintf "Synth.make: cache of another specification (%s/%s)"
           spec.name bs_name)
  in
  let check_liveness = function
    | [] -> ()
    | summary when not allow_hidden_crossing ->
      synth_error
        "buildset %s/%s hides %d cell(s) that cross entrypoint boundaries:@\n%s"
        spec.name bs_name (List.length summary)
        (String.concat "\n"
           (List.map
              (fun (c, w, r) ->
                Printf.sprintf "  '%s' written in '%s', read in '%s'" c w r)
              summary))
    | _ -> ()
  in
  let bp = Plan.buildset plan bs_name ~check_liveness in
  let bs = bp.Plan.bs and slots = bp.Plan.slots in
  let st = match st with Some s -> s | None -> Lis.Spec.make_machine spec in
  let journal = if bs.bs_speculation then Some (Specul.create ()) else None in
  (* the caller's write hooks, or the journal's *)
  let recording = Option.is_some hooks in
  let hooks =
    match journal with
    | None -> hooks
    | Some _ when recording ->
      invalid_arg
        (Printf.sprintf "Synth.make: hooks on speculative buildset %s/%s"
           spec.name bs_name)
    | Some j -> Some (Specul.hooks j)
  in
  let layout = st.State.regs in
  let loc = slots.Slots.loc in
  let frame =
    Semir.Frame.create ~di_slots:slots.di_size ~scratch_slots:slots.scratch_size
  in
  (* The engine moves the frame header through its unboxed slots. A
     pointer field of a long-lived record (a DI header field, [frame.di])
     costs a write barrier per store, so where the stored value seldom
     changes the engine compares first and stores only a physically
     different value, and an [int64] it stores is an existing box where
     one is at hand (a block's pc arrays, its successor cache). *)
  let fs = frame.s in
  let n_instrs = Array.length spec.instrs in
  let decoder = plan.Plan.decoder in
  let instr_bytes64 = Int64.of_int spec.instr_bytes in
  (* Fetch always reads the full [instr_bytes] window; decode then
     corrects [next_pc] and truncates the encoding to the decoded
     instruction's own parcel. Both are no-ops for uniform ISAs. *)
  let size64 = plan.Plan.size64 and size_mask = plan.Plan.size_mask in
  let stale_chain = mutate = Some Stale_chain in
  let skip_invalidate = mutate = Some Skip_invalidate in
  let stride4 = mutate = Some Stride4 in
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
      absint_ns = 0;
      fastpath_classes = 0;
      stable_blocks = 0;
    }
  in

  (* Static effect analysis: which instruction classes are provably
     store-free (no [Store] on any path, no syscall whose handler could
     write memory)? Such classes can never invalidate translated code,
     so they get the memory fast path in the generic per-segment items
     and their blocks skip the per-site SMC recheck. The analysis is
     sound, never required: [absint = false] degrades every verdict to
     "unsafe". *)
  let class_store_free, absint_ns = Plan.store_free plan ~absint in
  stats.Iface.absint_ns <- absint_ns;
  if not bs.bs_block then
    stats.Iface.fastpath_classes <-
      Array.fold_left (fun n s -> if s then n + 1 else n) 0 class_store_free;

  let compile_program ?(mem_fast_path = false) ir =
    match backend with
    | Compiled -> Semir.Compile.program ?hooks ~layout ~mem_fast_path ~loc ir
    | Interpreted -> fun st fr -> Semir.Eval.exec ?hooks ~loc st fr ir
  in

  (* --- entrypoint code ------------------------------------------------ *)
  (* Compiled code reads the machine only through its [st] argument, so
     instances on any machine can share it — except where speculation
     hooks capture this instance's journal. Code compiled with the
     caller's hooks is shared only under those hooks. Step interfaces
     get their generic per-segment items here, in set-up. One-entrypoint
     interfaces (Block and One) run translated sites instead and build
     the items, and the plan's per-segment IR with them, only on their
     first [step], which none of their own loops makes. *)
  let n_eps = Array.length bs.bs_entrypoints in
  let items () =
    (* Hooked code records a short run that meets few classes, so each
       class's code is compiled when it first runs. *)
    let build () =
      Plan.compile_items plan bp ~on_first_run:recording
        ~store_free:class_store_free
        ~compile:(fun ~mem_fast_path ir -> compile_program ~mem_fast_path ir)
    in
    if backend = Compiled && journal = None then
      Plan.shared_items bp ?hooks ~absint build
    else build ()
  in
  let ep_items = ref (if n_eps = 1 then [||] else items ()) in

  (* --- execution ------------------------------------------------------ *)
  let exec_item (di : Di.t) = function
    | Plan.I_fetch ->
      let pc = get64 fs pc_off in
      Memory.load_into st.mem
        ~addr:(Int64.to_int pc land max_int)
        ~width:spec.instr_bytes ~signed:false fs enc_off;
      set64 fs next_pc_off (Int64.add pc instr_bytes64)
    | Plan.I_decode codes ->
      let idx = Decoder.decode_slot decoder fs enc_off in
      if idx < 0 then
        State.raise_fault st (Fault.Illegal_instruction (get64 fs enc_off))
      else begin
        di.instr_index <- idx;
        set64 fs enc_off
          (Int64.logand (get64 fs enc_off) (Array.unsafe_get size_mask idx));
        set64 fs next_pc_off
          (Int64.add (get64 fs pc_off) (Array.unsafe_get size64 idx));
        (Array.unsafe_get codes idx) st frame
      end
    | Plan.I_chunk codes ->
      let idx = di.instr_index in
      if idx < 0 then
        Sim_error.raisef ~component:"interface"
          ~context:
            [ ("isa", spec.name); ("buildset", bs.bs_name);
              ("pc", Printf.sprintf "0x%Lx" di.pc) ]
          "entrypoint called before decode"
      else (Array.unsafe_get codes idx) st frame
  in
  let load_frame (di : Di.t) =
    set64 fs pc_off di.pc;
    set64 fs enc_off di.encoding;
    set64 fs next_pc_off di.next_pc;
    if frame.di != di.info then frame.di <- di.info
  in
  let save_frame (di : Di.t) =
    let e = get64 fs enc_off in
    if not (Int64.equal e di.encoding) then di.encoding <- e;
    let n = get64 fs next_pc_off in
    if not (Int64.equal n di.next_pc) then di.next_pc <- n;
    let f = st.fault in
    if di.fault != f then di.fault <- f
  in

  (* --- observability --------------------------------------------------- *)
  (* Selected here, at synthesis time — the compiled-in hook pattern.
     Unobserved and profile-only interfaces run the plain crossing: no
     counting. A full context runs the counted crossing, timed on a
     jittered 1-in-[Obs.Sample.every] sample, gets {!Instrument}'s
     wrappers on [run_one] and [run_block], and its per-block hook in
     the chained loop. *)
  let ins =
    match obs with
    | Some o when o.Obs.full ->
      Some
        (Instrument.create o bs stats ~journal
           ~translates:(n_eps = 1)
           ~fused_closures:(Plan.n_code_segs bp * n_instrs))
    | Some _ | None -> None
  in
  (* The hot-region profiler, in full and profile-only contexts alike.
     It is fed where the engine already retires, and the constant [prof]
     picks the body there as [ins] does in [exec_ep]: each instruction
     at its pc in [retire], which every [run_one] and a stepped flow
     reach, and each block at its entry pc where [run_block] and the
     chained loop count it. A halting instruction is never retired, so
     never attributed. *)
  let prof = match obs with Some o -> o.Obs.prof | None -> None in
  (* [Obs.Registry.incr], inlined (see [exec_ep]) *)
  let count (c : Obs.Registry.counter) = c.n <- c.n + 1 in
  let segment = function
    | Plan.I_fetch -> 0
    | Plan.I_decode _ -> 1
    | Plan.I_chunk _ -> 2
  in
  (* a sampled crossing: one clock read before the first segment and one
     after each *)
  let timed (i : Instrument.t) di (items : Plan.item array) k =
    let t0 = Obs.Clock.now () in
    let last = ref t0 in
    let j = ref 0 in
    while !j < Array.length items && not st.halted do
      let item = Array.unsafe_get items !j in
      exec_item di item;
      let s = segment item in
      count i.seg_calls.(s);
      let now = Obs.Clock.now () in
      Obs.Hist.record i.seg_ns.(s) (now - !last);
      last := now;
      incr j
    done;
    Obs.Hist.record i.ep_ns.(k) (!last - t0)
  in
  (* One entrypoint crossing: the hook [step] and a Step interface's
     [run_one] call. The synthesis-time constant [ins] picks its body, so
     both make a direct call and an unobserved crossing pays one
     predicted branch. Loops, not local recursive functions: a per-call
     closure would be the engine's largest allocation. This and the
     translated crossing are the per-crossing paths; they update
     counters and the sampler's countdown in place, because a call into
     another module costs more than the update (see {!Obs.Sample.t});
     coarser paths in {!Instrument} call [Obs.Sample.tick] and
     [Obs.Registry.add]. *)
  let exec_ep di k (items : Plan.item array) =
    match ins with
    | None ->
      let j = ref 0 in
      while !j < Array.length items && not st.halted do
        exec_item di (Array.unsafe_get items !j);
        incr j
      done
    | Some i ->
      let smp = i.sampler in
      (* [Obs.Sample.tick], inlined: keep the two in step *)
      if smp.left > 1 then begin
        smp.left <- smp.left - 1;
        let j = ref 0 in
        while !j < Array.length items && not st.halted do
          let item = Array.unsafe_get items !j in
          exec_item di item;
          count (Array.unsafe_get i.seg_calls (segment item));
          incr j
        done
      end
      else begin
        Obs.Sample.rearm smp;
        timed i di items k
      end;
      count i.crossings;
      count (Array.unsafe_get i.ep_calls k)
  in

  let step di k =
    if Array.length !ep_items = 0 then ep_items := items ();
    load_frame di;
    exec_ep di k !ep_items.(k);
    save_frame di
  in

  (* [di]'s checkpoint restores pc [pc] and [k] instructions past
     [st.instr_count]: a block's sites run before [st] moves past the
     block. *)
  let auto_checkpoint (di : Di.t) pc k =
    match journal with
    | None -> ()
    | Some j ->
      di.ckpt <- Specul.mark j st pc k;
      Specul.auto_trim j ~window:spec_window
  in

  let retire (di : Di.t) =
    st.pc <- di.next_pc;
    st.instr_count <- Int64.add st.instr_count 1L;
    stats.instrs_executed <- stats.instrs_executed + 1;
    match prof with None -> () | Some p -> Obs.Prof.note p ~pc:di.pc ~instrs:1
  in

  (* The generic [run_one] of a Step interface: every entrypoint's items
     in turn. *)
  let run_one_items (di : Di.t) =
    if not st.halted then begin
      di.pc <- st.pc;
      di.instr_index <- -1;
      if di.fault != None then di.fault <- None;
      auto_checkpoint di di.pc 0;
      load_frame di;
      let items = !ep_items in
      let k = ref 0 in
      while !k < n_eps && not st.halted do
        exec_ep di !k (Array.unsafe_get items !k);
        incr k
      done;
      save_frame di;
      if not st.halted then retire di
    end
  in

  (* --- the translator -------------------------------------------------- *)
  (* One-entrypoint interfaces execute sites: an instruction's whole
     chain IR (decode to the end of the sequence) specialized against
     its concrete encoding. The LIS front end makes a lone entrypoint's
     actions the whole sequence in order, so a site does exactly what
     the generic items would. Specialization depends only on the
     encoding, never on the pc: loops entered at several pcs, duplicated
     code and rebuilt blocks reuse compiled sites. This instance's view
     counts its compilations and hits as a fresh synthesis would; behind
     it, non-speculative [Compiled] instances share the plan's sites per
     visibility. Both survive [flush_code_cache]: entries keyed by
     [(instr, encoding)] stay correct whatever memory now holds. *)
  let translator () =
    let { Plan.chain_ir; carried; _ } = Plan.block_plan plan in
    let keep c = bs.bs_visible.(c) || Plan.Iset.mem c carried in
    let build enc idx () =
      compile_program ~mem_fast_path:site_cache
        (Semir.Opt.optimize ~enc ~keep chain_ir.(idx))
    in
    let view : (int * int64, Semir.Compile.code) Hashtbl.t =
      Hashtbl.create 256
    in
    let shared =
      if site_cache && backend = Compiled && journal = None && not recording
      then Some (Plan.site_table plan bs.bs_visible)
      else None
    in
    let compile_site enc idx =
      let key = (idx, enc) in
      match if site_cache then Hashtbl.find_opt view key else None with
      | Some c ->
        stats.Iface.site_cache_hits <- stats.Iface.site_cache_hits + 1;
        c
      | None ->
        stats.Iface.sites_compiled <- stats.Iface.sites_compiled + 1;
        let c =
          match shared with
          | Some tbl -> Plan.shared_site tbl key (build enc idx)
          | None -> build enc idx ()
        in
        if site_cache then Hashtbl.add view key c;
        c
    in
    compile_site
  in
  let translator = if n_eps = 1 then Some (translator ()) else None in

  (* The translated [run_one]: a crossing fetches the window at the pc,
     looks it up in the decoded-instruction cache (decoding and
     translating on a miss) and runs the entry's site. Observed, it
     counts what the generic items would (the crossing, fetch, decode,
     and ir unless decode found no instruction), and a sampled crossing
     times fetch as "fetch", the lookup as "decode" and the site as
     "ir". *)
  let run_one_translated compile_site =
    let dcache = empty_dcache () in
    let fetch pc =
      Memory.load_into st.mem
        ~addr:(Int64.to_int pc land max_int)
        ~width:spec.instr_bytes ~signed:false fs enc_off
    in
    let lookup pc =
      let win = get64 fs enc_off in
      let slot = dcache_slot pc in
      let d = Array.unsafe_get dcache slot in
      if Int64.equal d.d_pc pc && Int64.equal d.d_win win then d
      else begin
        let idx = Decoder.decode_slot decoder fs enc_off in
        (* an illegal window keeps the generic decode's state: the whole
           window, the fetch's fall-through, and the fault its site
           raises *)
        let enc, size, site =
          if idx < 0 then (win, instr_bytes64, illegal_site)
          else
            let enc = Int64.logand win (Array.unsafe_get size_mask idx) in
            (enc, Array.unsafe_get size64 idx, compile_site enc idx)
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
        Array.unsafe_set dcache slot d;
        d
      end
    in
    let exec_site (di : Di.t) pc d =
      di.instr_index <- d.d_idx;
      di.encoding <- d.d_enc;
      set64 fs pc_off pc;
      set64 fs enc_off d.d_enc;
      set64 fs next_pc_off d.d_fall;
      if frame.di != di.info then frame.di <- di.info;
      d.d_site st frame;
      let n = get64 fs next_pc_off in
      di.next_pc <-
        (if Int64.equal n d.d_fall then d.d_fall
         else if Int64.equal n d.d_taken then d.d_taken
         else begin
           d.d_taken <- n;
           d.d_taken
         end);
      let f = st.fault in
      if di.fault != f then di.fault <- f
    in
    let count_segs (i : Instrument.t) d =
      count (Array.unsafe_get i.seg_calls 0);
      count (Array.unsafe_get i.seg_calls 1);
      if d.d_idx >= 0 then count (Array.unsafe_get i.seg_calls 2)
    in
    fun (di : Di.t) ->
      if not st.halted then begin
        let pc = st.pc in
        di.pc <- pc;
        auto_checkpoint di pc 0;
        (match ins with
        | None ->
          fetch pc;
          exec_site di pc (lookup pc)
        | Some i ->
          let smp = i.sampler in
          (* [Obs.Sample.tick], inlined, as in [exec_ep] *)
          if smp.left > 1 then begin
            smp.left <- smp.left - 1;
            fetch pc;
            let d = lookup pc in
            exec_site di pc d;
            count_segs i d
          end
          else begin
            Obs.Sample.rearm smp;
            let t0 = Obs.Clock.now () in
            fetch pc;
            let t1 = Obs.Clock.now () in
            let d = lookup pc in
            let t2 = Obs.Clock.now () in
            exec_site di pc d;
            let t3 = Obs.Clock.now () in
            Obs.Hist.record i.seg_ns.(0) (t1 - t0);
            Obs.Hist.record i.seg_ns.(1) (t2 - t1);
            if d.d_idx >= 0 then Obs.Hist.record i.seg_ns.(2) (t3 - t2);
            Obs.Hist.record i.ep_ns.(0) (t3 - t0);
            count_segs i d
          end;
          count i.crossings;
          count (Array.unsafe_get i.ep_calls 0));
        if not st.halted then retire di
      end
  in
  let run_one =
    match translator with
    | Some compile_site -> run_one_translated compile_site
    | None -> run_one_items
  in
  let run_one =
    match ins with Some i -> Instrument.run_one i spec st run_one | None -> run_one
  in

  (* --- block mode ------------------------------------------------------ *)
  (* Each record gets its own frame, so a site never repoints [frame.di].
     The ring serves a block's first dispatch and a non-block buildset's
     one-instruction batch. *)
  let owned dis =
    {
      o_dis = dis;
      o_frames =
        Array.map (fun (d : Di.t) -> { Semir.Frame.s = fs; di = d.info }) dis;
      o_results = Array.make (Array.length dis + 1) no_result;
    }
  in
  let ring =
    ref (owned (Array.init 4 (fun _ -> Di.create ~info_slots:slots.di_size)))
  in
  let ensure_ring n =
    let dis = !ring.o_dis in
    if Array.length dis < n then
      ring :=
        owned
          (Array.init (max n (2 * Array.length dis)) (fun i ->
               if i < Array.length dis then dis.(i)
               else Di.create ~info_slots:slots.di_size))
  in
  (* a one-instruction batch: the ring's first record, counted unless the
     instruction halted (an uncounted instruction, as in the block loop) *)
  let one_result () = result !ring (if st.halted then 0 else 1) in
  (* The translation cache, built for block buildsets only: the block
     loop, the chained fast loop and the flush of the block tables. *)
  let block_engine compile_site =
    let { Plan.is_ctrl; _ } = Plan.block_plan plan in
    let max_block = 64 in
    let blocks : (int64, block) Hashtbl.t = Hashtbl.create 1024 in
    (* Pages holding translated code, mapped to the blocks compiled from
       them; a write to such a page invalidates those blocks (and thereby
       every chain link into them, since dispatch re-checks [b_valid]). *)
    let page_blocks : (int, block list ref) Hashtbl.t = Hashtbl.create 16 in
    let last_block = ref dummy_block in
    if not skip_invalidate then
      Memory.add_code_write_hook st.mem (fun pidx ->
          match Hashtbl.find_opt page_blocks pidx with
          | None -> ()
          | Some l ->
            List.iter
              (fun b ->
                if b.b_valid then begin
                  b.b_valid <- false;
                  Hashtbl.remove blocks b.b_pc0;
                  stats.Iface.block_invalidations <-
                    stats.Iface.block_invalidations + 1
                end)
              !l;
            l := [];
            last_block := dummy_block);
    let build_block pc0 =
      let codes = ref [] and encs = ref [] and idxs = ref [] in
      let rev_pcs = ref [] in
      let n = ref 0 in
      let pc = ref pc0 in
      let stop = ref false in
      let stable = ref true in
      while not !stop do
        let enc = Memory.read st.mem ~addr:!pc ~width:spec.instr_bytes in
        let idx = Decoder.decode decoder enc in
        if idx < 0 then begin
          codes := illegal_site :: !codes;
          encs := enc :: !encs;
          idxs := idx :: !idxs;
          rev_pcs := !pc :: !rev_pcs;
          incr n;
          pc := Int64.add !pc instr_bytes64;
          stable := false;
          stop := true
        end
        else begin
          (* truncate to the decoded parcel: the tail of the fetch window
             belongs to the next instruction, and must not key the site
             cache or leak into operand fields *)
          let enc = Int64.logand enc (Array.unsafe_get size_mask idx) in
          if not class_store_free.(idx) then stable := false;
          codes := compile_site enc idx :: !codes;
          encs := enc :: !encs;
          idxs := idx :: !idxs;
          rev_pcs := !pc :: !rev_pcs;
          incr n;
          pc := Int64.add !pc (Array.unsafe_get size64 idx);
          if is_ctrl.(idx) || !n >= max_block then stop := true
        end
      done;
      stats.Iface.blocks_compiled <- stats.Iface.blocks_compiled + 1;
      if !stable then stats.Iface.stable_blocks <- stats.Iface.stable_blocks + 1;
      (* [pcs] carries the true site addresses plus the fall-through pc;
         the seeded [Stride4] defect replaces them with a uniform 4-byte
         walk, observable on any ISA whose real strides differ. *)
      let pcs =
        if stride4 then
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
          b_stable = !stable;
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
          match Hashtbl.find_opt page_blocks pidx with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.add page_blocks pidx l;
            l
        in
        l := b :: !l
      done;
      b
    in
    let find_block pc0 =
      match Hashtbl.find_opt blocks pc0 with
      | Some b ->
        stats.Iface.block_hits <- stats.Iface.block_hits + 1;
        b
      | None ->
        let b = build_block pc0 in
        Hashtbl.add blocks pc0 b;
        b
    in
    (* Chained dispatch: try the predecessor's successor cache before the
       hash table, installing / promoting on the way (most recent first). *)
    (* [trust] is the single-trust invariant ([b_valid] is the only thing
       dispatch believes); [Stale_chain] breaks it for every real block. *)
    let trust b =
      b.b_valid || (stale_chain && not (Int64.equal b.b_pc0 (-1L)))
    in
    let lookup_from prev pc0 =
      if not (chain && trust prev) then find_block pc0
      else if Int64.equal prev.b_s1_pc pc0 && trust prev.b_s1 then begin
        stats.Iface.chain_taken <- stats.Iface.chain_taken + 1;
        stats.Iface.block_hits <- stats.Iface.block_hits + 1;
        prev.b_s1
      end
      else if Int64.equal prev.b_s2_pc pc0 && trust prev.b_s2 then begin
        let b = prev.b_s2 in
        prev.b_s2_pc <- prev.b_s1_pc;
        prev.b_s2 <- prev.b_s1;
        prev.b_s1_pc <- pc0;
        prev.b_s1 <- b;
        stats.Iface.chain_taken <- stats.Iface.chain_taken + 1;
        stats.Iface.block_hits <- stats.Iface.block_hits + 1;
        b
      end
      else begin
        stats.Iface.chain_miss <- stats.Iface.chain_miss + 1;
        let b = find_block pc0 in
        prev.b_s2_pc <- prev.b_s1_pc;
        prev.b_s2 <- prev.b_s1;
        prev.b_s1_pc <- pc0;
        prev.b_s1 <- b;
        b
      end
    in
    (* A block's first [run_block] dispatch runs on the ring, whose
       records hold another block's header on every call. The second
       gives the block records of its own with the header written from
       its arrays (the fall-through as next pc), so a hot block's sites
       store a header field only when a next pc or a fault changes. A
       block that runs once costs no records, and invalidation drops the
       records with the block. *)
    let records b =
      match b.b_recs with
      | Owned o -> o
      | Warm ->
        let o =
          owned
            (Array.init (Array.length b.b_codes) (fun k ->
                 let d = Di.create ~info_slots:slots.di_size in
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
        ensure_ring (Array.length b.b_codes);
        !ring
    in
    (* One site loop for both kinds of record: each header field is
       compared before it is stored, and the next pc is chosen among the
       existing boxes and stored inside each branch. Bound to a variable,
       the chosen box would be unboxed and boxed again on every site. *)
    let run_block () =
      if st.halted then result !ring 0
      else begin
        let pc0 = st.pc in
        let b = lookup_from !last_block pc0 in
        if not (Int64.equal b.b_pc0 pc0) then
          dispatch_invariant_violation st ~want:pc0 ~got:b.b_pc0;
        last_block := b;
        let codes = b.b_codes
        and encs = b.b_encs
        and idxs = b.b_idxs
        and pcs = b.b_pcs in
        let len = Array.length codes in
        let recs = records b in
        let dis = recs.o_dis and frames = recs.o_frames in
        let executed = ref 0 in
        let k = ref 0 in
        (* [b_valid] re-checked per site: a store that hits this block's
           own code page stops execution after the faulting-free site that
           performed it, so stale sites never run. Stable blocks skip the
           recheck — none of their sites can store, so nothing can
           invalidate any block while they run. *)
        while
          !k < len && not st.halted && (b.b_valid || b.b_stable || stale_chain)
        do
          let di = Array.unsafe_get dis !k in
          let pc = Array.unsafe_get pcs !k in
          let enc = Array.unsafe_get encs !k in
          let fall = Array.unsafe_get pcs (!k + 1) in
          if di.pc != pc then di.pc <- pc;
          if di.encoding != enc then di.encoding <- enc;
          di.instr_index <- Array.unsafe_get idxs !k;
          if di.fault != None then di.fault <- None;
          auto_checkpoint di pc !executed;
          set64 fs pc_off pc;
          set64 fs enc_off enc;
          set64 fs next_pc_off fall;
          (Array.unsafe_get codes !k) st (Array.unsafe_get frames !k);
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
        else if !executed > 0 then
          st.pc <- (Array.unsafe_get dis (!k - 1)).next_pc;
        if !executed > 0 then begin
          st.instr_count <- Int64.add st.instr_count (Int64.of_int !executed);
          stats.instrs_executed <- stats.instrs_executed + !executed;
          match prof with
          | None -> ()
          | Some p -> Obs.Prof.note p ~pc:pc0 ~instrs:!executed
        end;
        result recs !executed
      end
    in
    (* The translation-cache hot path: block-to-block dispatch through the
       successor caches, no DI materialization, no per-instruction
       bookkeeping. Once per executed block, the synthesis-time constants
       [prof] and [ins] choose whether the profiler and the instruments
       see it, so chained dispatch survives both, and an unobserved
       interface pays two predicted branches per block and no call. *)
    let fast_di = Semir.Frame.info_bytes slots.di_size in
    let run_fast_chained n =
      let executed = ref 0 in
      frame.di <- fast_di;
      (match ins with Some i -> Instrument.chain_start i | None -> ());
      while !executed < n && not st.halted do
        let pc0 = st.pc in
        let b = lookup_from !last_block pc0 in
        if not (Int64.equal b.b_pc0 pc0) then
          dispatch_invariant_violation st ~want:pc0 ~got:b.b_pc0;
        last_block := b;
        let codes = b.b_codes and encs = b.b_encs and pcs = b.b_pcs in
        let len = Array.length codes in
        let k = ref 0 in
        let go = ref true in
        while !go do
          set64 fs pc_off (Array.unsafe_get pcs !k);
          set64 fs enc_off (Array.unsafe_get encs !k);
          set64 fs next_pc_off (Array.unsafe_get pcs (!k + 1));
          (Array.unsafe_get codes !k) st frame;
          if st.halted then go := false
          else begin
            incr k;
            if !k >= len || not (b.b_valid || b.b_stable) then go := false
          end
        done;
        (* a halting site is site [k], and the pc stays at it;
           otherwise [pcs.(k)] is the last executed site's fall-through *)
        if st.halted then st.pc <- Array.unsafe_get pcs !k
        else if !k > 0 then
          st.pc <- next_box b (get64 fs next_pc_off) (Array.unsafe_get pcs !k);
        if !k > 0 then begin
          st.instr_count <- Int64.add st.instr_count (Int64.of_int !k);
          stats.Iface.instrs_executed <- stats.Iface.instrs_executed + !k;
          executed := !executed + !k;
          (match prof with
          | None -> ()
          | Some p -> Obs.Prof.note p ~pc:pc0 ~instrs:!k);
          match ins with None -> () | Some i -> Instrument.chain_block i pc0 !k
        end
      done;
      !executed
    in
    (* Invalidate before dropping: chain links and [last_block] may still
       point at these blocks, and dispatch trusts only [b_valid]. The
       shared site cache survives — [(instr, encoding)] keys stay correct
       whatever memory now holds. The memory's code-page set also stays:
       other interfaces on the same machine may still have live blocks. *)
    let flush () =
      Hashtbl.iter (fun _ b -> b.b_valid <- false) blocks;
      Hashtbl.reset blocks;
      Hashtbl.reset page_blocks;
      last_block := dummy_block
    in
    (run_block, run_fast_chained, flush)
  in
  let engine =
    match translator with
    | Some compile_site when bs.bs_block -> Some (block_engine compile_site)
    | Some _ | None -> None
  in
  (* Non-block buildsets still offer [run_block] as a one-instruction
     batch so consumers can be written against one call style. *)
  let run_block =
    match (engine, ins) with
    | Some (run_block, _, _), None -> run_block
    | Some (run_block, _, _), Some i -> Instrument.run_block i run_block
    | None, _ ->
      fun () ->
        run_one !ring.o_dis.(0);
        one_result ()
  in

  let redirect pc = st.pc <- pc in
  let no_spec (_ : unit) =
    Sim_error.raisef ~component:"interface"
      ~context:[ ("isa", spec.name); ("buildset", bs.bs_name) ]
      "interface was synthesized without speculation"
  in
  let checkpoint () =
    match journal with Some j -> Specul.checkpoint j st | None -> no_spec ()
  in
  let rollback tok =
    match journal with Some j -> Specul.rollback j st tok | None -> no_spec ()
  in
  let commit_ckpt tok =
    match journal with Some j -> Specul.commit j tok | None -> no_spec ()
  in
  let flush_code_cache () =
    stats.Iface.block_invalidations <- stats.Iface.block_invalidations + 1;
    Option.iter (fun (_, _, flush) -> flush ()) engine
  in

  (* --- fast dispatch --------------------------------------------------- *)
  (* The generic loop reproduces the historical [run_n] exactly (and is
     what journaled, per-instruction and unchained interfaces get); the
     block engine's chained loop is the translation-cache hot path. Both
     return after at most [n] instructions plus block slack — the
     preemption point watchdogs rely on, so chained dispatch cannot spin
     past a slice. *)
  let run_fast_generic n =
    let start = st.instr_count in
    let executed () = Int64.to_int (Int64.sub st.instr_count start) in
    if bs.bs_block then
      while executed () < n && not st.halted do
        ignore (run_block ())
      done
    else begin
      let di = Di.create ~info_slots:slots.di_size in
      while executed () < n && not st.halted do
        run_one di
      done
    end;
    executed ()
  in
  let run_fast =
    match engine with
    | Some (_, run_fast_chained, _) when chain && Option.is_none journal ->
      run_fast_chained
    | _ -> run_fast_generic
  in
  {
    Iface.spec;
    bs;
    st;
    slots;
    journal;
    entry_names = Array.map fst bs.bs_entrypoints;
    run_one;
    run_block;
    step;
    retire;
    redirect;
    checkpoint;
    rollback;
    commit_ckpt;
    flush_code_cache;
    run_fast;
    stats;
  }
