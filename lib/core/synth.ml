(** The simulator synthesizer — the paper's contribution, mechanized.

    [make spec buildset_name] specializes a functional simulator for one
    interface: cells get storage per the buildset's visibility (DI slots
    vs. reused scratch), actions are grouped into the buildset's
    entrypoints and fused, dead information computation is eliminated,
    speculation hooks are compiled in only when asked for, and — for
    block-semantic buildsets — each basic block is specialized against its
    concrete instruction encodings and cached (the binary-translation
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
}

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
  }

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

(* ------------------------------------------------------------------ *)
(* Synthesis                                                           *)
(* ------------------------------------------------------------------ *)

let make ?(backend = Compiled) ?(allow_hidden_crossing = false) ?(chain = true)
    ?(site_cache = true) ?(absint = true) ?mutate ?cache ?obs ?st
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
  let hooks = Option.map Specul.hooks journal in
  let layout = st.State.regs in
  let loc = slots.Slots.loc in
  let frame =
    Semir.Frame.create ~di_slots:slots.di_size ~scratch_slots:slots.scratch_size
  in
  (* The engine moves the frame header through its unboxed slots. An
     [int64] field of a DI record or of [st] is written only when its
     value changes, and then with an existing box where one is at hand
     (a block's pc arrays, its successor cache). *)
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
     so they get the memory fast path outside block mode and their
     blocks skip the per-site SMC recheck. The analysis is sound, never
     required: [absint = false] degrades every verdict to "unsafe". *)
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
     hooks capture this instance's journal. Per-instruction interfaces
     get their code here, in set-up; block interfaces only on their first
     [run_one]/[step], which their block loops never make. *)
  let items () =
    let build () =
      Plan.compile_items bp ~store_free:class_store_free
        ~compile:(fun ~mem_fast_path ir -> compile_program ~mem_fast_path ir)
    in
    if backend = Compiled && journal = None then
      Plan.shared_items bp ~absint build
    else build ()
  in
  let ep_items = ref (if bs.bs_block then [||] else items ()) in

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
  (* Loops, not local recursive functions: a per-call closure would be
     the engine's largest allocation. *)
  let exec_items di (items : Plan.item array) =
    let k = ref 0 in
    while !k < Array.length items && not st.halted do
      exec_item di (Array.unsafe_get items !k);
      incr k
    done
  in
  let load_frame (di : Di.t) =
    set64 fs pc_off di.pc;
    set64 fs enc_off di.encoding;
    set64 fs next_pc_off di.next_pc;
    frame.di <- di.info
  in
  let save_frame (di : Di.t) =
    let e = get64 fs enc_off in
    if not (Int64.equal e di.encoding) then di.encoding <- e;
    let n = get64 fs next_pc_off in
    if not (Int64.equal n di.next_pc) then di.next_pc <- n;
    di.fault <- st.fault
  in

  let step di k =
    load_frame di;
    exec_items di !ep_items.(k);
    save_frame di
  in

  let auto_checkpoint (di : Di.t) =
    match journal with
    | None -> ()
    | Some j ->
      di.ckpt <- Specul.checkpoint j st;
      Specul.auto_trim j ~window:spec_window
  in

  let n_eps = Array.length bs.bs_entrypoints in
  let run_one (di : Di.t) =
    if not st.halted then begin
      di.pc <- st.pc;
      di.instr_index <- -1;
      di.fault <- None;
      auto_checkpoint di;
      load_frame di;
      let items = !ep_items in
      let k = ref 0 in
      while !k < n_eps && not st.halted do
        exec_items di (Array.unsafe_get items !k);
        incr k
      done;
      save_frame di;
      if not st.halted then begin
        st.pc <- di.next_pc;
        st.instr_count <- Int64.add st.instr_count 1L;
        stats.instrs_executed <- stats.instrs_executed + 1
      end
    end
  in

  (* --- block mode ------------------------------------------------------ *)
  (* Engine-owned DI ring returned by [run_block], with every possible
     [(ring, count)] result built in advance so a call returns one
     without allocating. *)
  let dis = ref (Array.init 4 (fun _ -> Di.create ~info_slots:slots.di_size)) in
  let results d = Array.init (Array.length d + 1) (fun n -> (d, n)) in
  let dis_results = ref (results !dis) in
  let ensure_dis n =
    if Array.length !dis < n then begin
      let bigger =
        Array.init (max n (2 * Array.length !dis)) (fun i ->
            if i < Array.length !dis then !dis.(i)
            else Di.create ~info_slots:slots.di_size)
      in
      dis := bigger;
      dis_results := results bigger
    end
  in
  (* a one-instruction batch: the ring's first record, counted unless the
     instruction faulted *)
  let one_result () =
    Array.unsafe_get !dis_results
      (if st.halted && st.fault <> None then 0 else 1)
  in
  (* The translation cache, built for block buildsets only: the block
     loop, the chained fast loop and the flush of the block tables. *)
  let block_engine () =
    let { Plan.chain_ir; is_ctrl; carried } = Plan.block_plan plan in
    let block_keep c = bs.bs_visible.(c) || Plan.Iset.mem c carried in
    let max_block = 64 in
    let blocks : (int64, block) Hashtbl.t = Hashtbl.create 1024 in
    (* Shared translation cache: specialization depends only on the
       encoding, never on the pc, so loops entered at several pcs,
       duplicated code and rebuilt blocks reuse compiled sites instead of
       recompiling. The cache survives [flush_code_cache]: entries keyed
       by [(instr, encoding)] stay correct whatever memory now holds. *)
    let site_tbl : (int * int64, Semir.Compile.code) Hashtbl.t =
      Hashtbl.create 256
    in
    let compile_site enc idx =
      let build () =
        stats.Iface.sites_compiled <- stats.Iface.sites_compiled + 1;
        let ir = Semir.Opt.optimize ~enc ~keep:block_keep chain_ir.(idx) in
        compile_program ~mem_fast_path:site_cache ir
      in
      if site_cache then begin
        let key = (idx, enc) in
        match Hashtbl.find_opt site_tbl key with
        | Some c ->
          stats.Iface.site_cache_hits <- stats.Iface.site_cache_hits + 1;
          c
        | None ->
          let c = build () in
          Hashtbl.add site_tbl key c;
          c
      end
      else build ()
    in
    let illegal_site : Semir.Compile.code =
     fun st fr ->
      State.raise_fault st (Fault.Illegal_instruction (Semir.Frame.enc fr))
    in
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
    let run_block () =
      if st.halted then Array.unsafe_get !dis_results 0
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
        ensure_dis len;
        let dis = !dis in
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
          let fall = Array.unsafe_get pcs (!k + 1) in
          di.pc <- pc;
          di.encoding <- Array.unsafe_get encs !k;
          di.instr_index <- Array.unsafe_get idxs !k;
          di.fault <- None;
          auto_checkpoint di;
          set64 fs pc_off pc;
          set64 fs enc_off di.encoding;
          set64 fs next_pc_off fall;
          frame.di <- di.info;
          (Array.unsafe_get codes !k) st frame;
          di.next_pc <- next_box b (get64 fs next_pc_off) fall;
          di.fault <- st.fault;
          if not st.halted then incr executed;
          incr k
        done;
        if !executed > 0 then begin
          (* the last executed site's next_pc is the continuation; on a
             halt the fetch pc stays put (rollback restores it anyway) *)
          if not st.halted then
            st.pc <- (Array.unsafe_get dis (!k - 1)).next_pc;
          st.instr_count <- Int64.add st.instr_count (Int64.of_int !executed);
          stats.instrs_executed <- stats.instrs_executed + !executed
        end;
        Array.unsafe_get !dis_results !executed
      end
    in
    (* The translation-cache hot path: block-to-block dispatch through the
       successor caches, no DI materialization, no per-instruction
       bookkeeping. [note] is the profiler hook, called once per executed
       block with the block's entry pc and executed-site count. It is
       bound statically at synthesis time — the unprofiled instance
       passes a constant no-op, so the only residual cost is one closure
       call per block (~amortized to noise by block length), and chained
       dispatch survives profiling. *)
    let fast_di = Semir.Frame.info_bytes slots.di_size in
    let run_fast_chained ~note n =
      let executed = ref 0 in
      frame.di <- fast_di;
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
        if !k > 0 then begin
          if not st.halted then begin
            (* [pcs.(k)] is the last executed site's fall-through *)
            st.pc <-
              next_box b (get64 fs next_pc_off) (Array.unsafe_get pcs !k)
          end;
          st.instr_count <- Int64.add st.instr_count (Int64.of_int !k);
          stats.Iface.instrs_executed <- stats.Iface.instrs_executed + !k;
          executed := !executed + !k;
          note pc0 !k
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
  let engine = if bs.bs_block then Some (block_engine ()) else None in
  (* Non-block buildsets still offer [run_block] as a one-instruction
     batch so consumers can be written against one call style. *)
  let run_block =
    match engine with
    | Some (run_block, _, _) -> run_block
    | None ->
      fun () ->
        run_one !dis.(0);
        one_result ()
  in

  let retire (di : Di.t) =
    st.pc <- di.next_pc;
    st.instr_count <- Int64.add st.instr_count 1L;
    stats.instrs_executed <- stats.instrs_executed + 1
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

  (* --- observability --------------------------------------------------- *)
  (* Instrumented call paths are selected here, at synthesis time — the
     compiled-in hook pattern. With [obs = None] the closures above are
     handed out untouched: no flag tests, no extra indirection, the
     zero-overhead guarantee. With [obs = Some _] every entrypoint call
     and engine segment is counted and timed into log2 histograms, and a
     per-instruction event goes to the trace ring when one is attached. *)
  let run_one, run_block, step =
    match obs with
    | None -> (run_one, run_block, step)
    (* profile-only contexts skip all of this: the profiler attribution
       wrapper below is the whole instrumentation *)
    | Some o when not o.Obs.full -> (run_one, run_block, step)
    | Some (o : Obs.t) ->
      let module R = Obs.Registry in
      let reg = o.Obs.reg in
      let crossings = R.counter reg "synth.entrypoint_calls" in
      let ep_names = Array.map fst bs.bs_entrypoints in
      let ep_calls =
        Array.map (fun nm -> R.counter reg ("synth.ep." ^ nm ^ ".calls")) ep_names
      in
      let ep_hist =
        Array.map (fun nm -> R.histogram reg ("synth.ep." ^ nm ^ ".ns")) ep_names
      in
      let seg_calls =
        Array.map
          (fun nm -> R.counter reg ("synth.seg." ^ nm ^ ".calls"))
          [| "fetch"; "decode"; "ir" |]
      in
      let seg_hist =
        Array.map
          (fun nm -> R.histogram reg ("synth.seg." ^ nm ^ ".ns"))
          [| "fetch"; "decode"; "ir" |]
      in
      let block_hist = R.histogram reg "synth.block.ns" in
      (* Fused-closure accounting: in per-instruction modes every
         IR-bearing segment holds one eagerly-compiled closure per
         instruction; in block mode closures are specialized per site
         and cached with the block. *)
      let n_code_segs = Plan.n_code_segs bp in
      R.probe reg "core.instrs_executed" (fun () ->
          R.Int stats.Iface.instrs_executed);
      (* block-cache gauges exist only where a block cache does, so a
         block pass sharing a registry with a per-instruction primary
         interface contributes them without fighting over names *)
      if bs.bs_block then begin
        R.probe reg "core.block_cache.hits" (fun () ->
            R.Int stats.Iface.block_hits);
        R.probe reg "core.block_cache.compiled" (fun () ->
            R.Int stats.Iface.blocks_compiled);
        R.probe reg "core.block_cache.invalidations" (fun () ->
            R.Int stats.Iface.block_invalidations);
        R.probe reg "core.block_cache.chain_taken" (fun () ->
            R.Int stats.Iface.chain_taken);
        R.probe reg "core.block_cache.chain_miss" (fun () ->
            R.Int stats.Iface.chain_miss);
        R.probe reg "core.block_cache.site_cache_hits" (fun () ->
            R.Int stats.Iface.site_cache_hits);
        R.probe reg "core.block_cache.stable_blocks" (fun () ->
            R.Int stats.Iface.stable_blocks)
      end;
      R.probe reg "core.absint_ns" (fun () -> R.Int stats.Iface.absint_ns);
      if not bs.bs_block then
        R.probe reg "core.absint_fastpath_classes" (fun () ->
            R.Int stats.Iface.fastpath_classes);
      R.probe reg "core.fused_closures_compiled" (fun () ->
          R.Int
            (if bs.bs_block then stats.Iface.sites_compiled
             else n_code_segs * n_instrs));
      R.probe reg "core.fused_closure_reuse" (fun () ->
          R.Int
            (if bs.bs_block then
               max 0
                 (stats.Iface.instrs_executed - stats.Iface.sites_compiled)
             else
               max 0
                 (seg_calls.(1).R.n + seg_calls.(2).R.n - (n_code_segs * n_instrs))));
      (match journal with Some j -> Specul.register_obs j o | None -> ());
      let exec_item_obs di item =
        let k =
          match item with
          | Plan.I_fetch -> 0
          | Plan.I_decode _ -> 1
          | Plan.I_chunk _ -> 2
        in
        let t0 = Obs.Clock.now_ns () in
        exec_item di item;
        let dt = Obs.Clock.elapsed_ns t0 in
        R.incr seg_calls.(k);
        Obs.Hist.record seg_hist.(k) dt
      in
      (* one observed entrypoint crossing: the timed unit of Table III *)
      let exec_ep_obs di k =
        let t0 = Obs.Clock.now_ns () in
        let items = !ep_items.(k) in
        let i = ref 0 in
        while !i < Array.length items && not st.halted do
          exec_item_obs di items.(!i);
          incr i
        done;
        let dt = Obs.Clock.elapsed_ns t0 in
        R.incr crossings;
        R.incr ep_calls.(k);
        Obs.Hist.record ep_hist.(k) dt
      in
      let ring_instr (di : Di.t) t0 =
        match o.Obs.ring with
        | None -> ()
        | Some ring ->
          let name =
            if di.instr_index >= 0 then spec.instrs.(di.instr_index).i_name
            else "?"
          in
          Obs.Ring.record ring ~ts_ns:t0 ~dur_ns:(Obs.Clock.elapsed_ns t0) ~name
            ~cat:"instr"
            ~args:[ ("pc", Obs.Ring.I di.pc) ]
      in
      let run_one_obs (di : Di.t) =
        if not st.halted then begin
          let t0 = Obs.Clock.now_ns () in
          di.pc <- st.pc;
          di.instr_index <- -1;
          di.fault <- None;
          auto_checkpoint di;
          load_frame di;
          let k = ref 0 in
          while !k < n_eps && not st.halted do
            exec_ep_obs di !k;
            incr k
          done;
          save_frame di;
          if not st.halted then begin
            st.pc <- di.next_pc;
            st.instr_count <- Int64.add st.instr_count 1L;
            stats.instrs_executed <- stats.instrs_executed + 1
          end;
          ring_instr di t0
        end
      in
      let step_obs di k =
        load_frame di;
        exec_ep_obs di k;
        save_frame di
      in
      let run_block_obs =
        if bs.bs_block then fun () ->
          let t0 = Obs.Clock.now_ns () in
          let (dis, n) as r = run_block () in
          let dt = Obs.Clock.elapsed_ns t0 in
          (* each executed site is one crossing of the block entrypoint *)
          R.add crossings n;
          R.add ep_calls.(0) n;
          Obs.Hist.record block_hist dt;
          (match o.Obs.ring with
          | Some ring when n > 0 ->
            Obs.Ring.record ring ~ts_ns:t0 ~dur_ns:dt ~name:"block" ~cat:"block"
              ~args:
                [ ("pc", Obs.Ring.I dis.(0).Di.pc);
                  ("instrs", Obs.Ring.I (Int64.of_int n)) ]
          | Some _ | None -> ());
          r
        else fun () ->
          run_one_obs !dis.(0);
          one_result ()
      in
      (run_one_obs, run_block_obs, step_obs)
  in

  (* --- hot-region profiling -------------------------------------------- *)
  (* Same compiled-in rule as the counters above, layered outside them so
     it works in both full and profile-only contexts. Attribution uses
     the retired-instruction delta, so halted entries and uncounted
     halting instructions attribute exactly what [instr_count] records.
     Block interfaces attribute whole blocks at their entry pc — the
     translation cache's block extents are the aggregation unit. Stepped
     flows attribute at [retire], where the timing simulator commits. *)
  let prof = match obs with Some o -> o.Obs.prof | None -> None in
  let run_one, run_block, retire =
    match prof with
    | None -> (run_one, run_block, retire)
    | Some p ->
      let note_delta before pc =
        let d = Int64.to_int (Int64.sub st.instr_count before) in
        if d > 0 then Obs.Prof.note p ~pc ~instrs:d
      in
      let run_one_p (di : Di.t) =
        let before = st.instr_count in
        run_one di;
        note_delta before di.pc
      in
      let run_block_p () =
        let before = st.instr_count in
        let (dis, n) as r = run_block () in
        if n > 0 then note_delta before dis.(0).Di.pc;
        r
      in
      let retire_p (di : Di.t) =
        retire di;
        Obs.Prof.note p ~pc:di.pc ~instrs:1
      in
      (run_one_p, run_block_p, retire_p)
  in

  (* --- fast dispatch --------------------------------------------------- *)
  (* The generic loop reproduces the historical [run_n] exactly (and is
     what instrumented, journaled, per-instruction and unchained
     interfaces get); the block engine's chained loop is the
     translation-cache hot path. Both return after at most [n]
     instructions plus block slack — the preemption point watchdogs rely
     on, so chained dispatch cannot spin past a slice. *)
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
  (* Chained dispatch is compatible with profile-only observation (the
     per-block [note] hook), but not with full instrumentation, which
     needs per-call DI materialization and timing. *)
  let run_fast =
    match engine with
    | Some (_, run_fast_chained, _)
      when chain && Option.is_none journal
           && (match obs with None -> true | Some o -> not o.Obs.full) -> (
      match prof with
      | None -> run_fast_chained ~note:(fun _ _ -> ())
      | Some p ->
        run_fast_chained ~note:(fun pc0 k -> Obs.Prof.note p ~pc:pc0 ~instrs:k))
    | _ -> run_fast_generic
  in
  (* Block interfaces compile their per-instruction code on first use. *)
  let run_one, step =
    if not bs.bs_block then (run_one, step)
    else
      let ensure () = if Array.length !ep_items = 0 then ep_items := items () in
      ( (fun di ->
          ensure ();
          run_one di),
        fun di k ->
          ensure ();
          step di k )
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
    prof;
    stats;
  }
