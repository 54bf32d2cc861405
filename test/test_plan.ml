(** Synthesis caches: interfaces made through one shared
    {!Specsim.Synth.cache} must be indistinguishable from freshly
    synthesized ones — retired count, register and memory digests and
    engine statistics — on every ISA and canonical buildset. Each run
    covers the three ways a shared plan could leak state: two live
    instances sharing compiled code (and its per-site page caches) on
    different machines, a speculative rollback (journal hooks stay per
    instance), and [run_one] on a block interface (translated sites
    shared with its block loop and with the plan). *)

let kernel name =
  List.find
    (fun (k : Vir.Kernels.sized) -> k.kname = name)
    Vir.Kernels.test_suite

let buildsets =
  List.map Specsim.Detail.buildset_name Specsim.Detail.table2_interfaces

type inst = {
  iface : Specsim.Iface.t;
  di : Specsim.Di.t;
  mutable units : int;
  mutable tok : int;
}

let boot ?cache (t : Workload.target) bs (k : Vir.Kernels.sized) =
  let iface = Specsim.Synth.make ?cache (Lazy.force t.spec) bs in
  ignore (Workload.load_image t k.program iface.st);
  {
    iface;
    di = Specsim.Di.create ~info_slots:iface.slots.di_size;
    units = 0;
    tok = -1;
  }

(* One unit of work: block interfaces alternate [run_block] with
   [run_one]; speculative ones checkpoint before unit 40, inside the
   kernel's loop, and roll back to it before unit 42. *)
let advance i =
  let f = i.iface and st = i.iface.st in
  if not st.halted then begin
    (match f.journal with
    | Some _ when i.units = 40 -> i.tok <- f.checkpoint ()
    | Some _ when i.units = 42 -> f.rollback i.tok
    | _ -> ());
    let n = Specsim.Iface.n_entrypoints f in
    if f.bs.bs_block && i.units mod 2 = 0 then ignore (f.run_block ())
    else if n = 1 then f.run_one i.di
    else begin
      let di = i.di in
      di.pc <- st.pc;
      di.instr_index <- -1;
      di.fault <- None;
      let e = ref 0 in
      while !e < n && not st.halted do
        f.step di !e;
        incr e
      done;
      if not st.halted then f.retire di
    end;
    i.units <- i.units + 1
  end

let budget = 1_000_000

let summary i =
  let st = i.iface.st and (s : Specsim.Iface.stats) = i.iface.stats in
  if not st.halted then Alcotest.failf "%s did not halt" i.iface.bs.bs_name;
  Printf.sprintf
    "retired=%Ld regs=%Lx mem=%Lx blocks=%d hits=%d invalidations=%d \
     sites=%d site_hits=%d chain=%d/%d instrs=%d"
    st.instr_count
    (Inject.Watchdog.regs_digest st.regs)
    (Machine.Memory.digest st.mem)
    s.blocks_compiled s.block_hits s.block_invalidations s.sites_compiled
    s.site_cache_hits s.chain_taken s.chain_miss s.instrs_executed

let fresh t bs k =
  let i = boot t bs k in
  while (not i.iface.st.halted) && i.units < budget do
    advance i
  done;
  summary i

(* The two shared instances run different kernels, so their machines
   never hold the same state or memory. *)
let test_isa (t : Workload.target) () =
  let cache = Specsim.Synth.cache (Lazy.force t.spec) in
  let ka = kernel "vec_sum" and kb = kernel "sort" in
  List.iter
    (fun bs ->
      let expect_a = fresh t bs ka and expect_b = fresh t bs kb in
      let a = boot ~cache t bs ka and b = boot ~cache t bs kb in
      while
        (not (a.iface.st.halted && b.iface.st.halted))
        && a.units + b.units < budget
      do
        advance a;
        advance b
      done;
      Alcotest.(check string) (bs ^ ": shared instance, vec_sum") expect_a
        (summary a);
      Alcotest.(check string) (bs ^ ": shared instance, sort") expect_b
        (summary b))
    buildsets

(* [run_fast]'s loops take the machine from the frame their code is
   handed: block_min's chained loop, step_all's flat walk, and the
   generic loop of one_all and of journaled block_decode_spec. Two
   instances made through one cache take turns, [run_fast k] each with
   [k] cycling through 1, 7 and 64, and each must end as it ends
   alone. *)
let fast_sizes = [| 1; 7; 64 |]

let advance_fast i =
  if not i.iface.st.halted then begin
    ignore (i.iface.run_fast fast_sizes.(i.units mod Array.length fast_sizes));
    i.units <- i.units + 1
  end

let test_fast_shared (t : Workload.target) () =
  let cache = Specsim.Synth.cache (Lazy.force t.spec) in
  let ka = kernel "vec_sum" and kb = kernel "sort" in
  let solo bs k =
    let i = boot t bs k in
    while (not i.iface.st.halted) && i.units < budget do
      advance_fast i
    done;
    summary i
  in
  List.iter
    (fun bs ->
      let expect_a = solo bs ka and expect_b = solo bs kb in
      let a = boot ~cache t bs ka and b = boot ~cache t bs kb in
      while
        (not (a.iface.st.halted && b.iface.st.halted))
        && a.units + b.units < budget
      do
        advance_fast a;
        advance_fast b
      done;
      Alcotest.(check string) (bs ^ ": shared run_fast, vec_sum") expect_a
        (summary a);
      Alcotest.(check string) (bs ^ ": shared run_fast, sort") expect_b
        (summary b))
    [ "block_min"; "step_all"; "one_all"; "block_decode_spec" ]

(* ------------------------------------------------------------------ *)
(* The optimizer on real sites                                         *)
(* ------------------------------------------------------------------ *)

(* The keep sets of the three non-speculative Block buildsets (the
   speculative ones share block_decode's and block_all's visibility). *)
let translating = [ "block_min"; "block_decode"; "block_all" ]

(* A segment's IR before optimization, as {!Specsim.Plan.optimize_segments}
   gathers it. *)
let raw_seg_ir (i : Lis.Spec.instr) (seg : Specsim.Plan.seg) =
  match seg with
  | Seg_fetch -> []
  | Seg_decode -> i.i_decode
  | Seg_ir syms -> List.concat_map (Specsim.Plan.sym_ir i) syms

(* Every site of the paper and hostile kernels' images under each
   translating keep set, and every instruction's per-segment IR under
   every canonical buildset, step_all's included. *)
let test_one_pass (t : Workload.target) () =
  let spec = Lazy.force t.spec in
  let plan = Specsim.Plan.create spec in
  let { Specsim.Plan.chain_ir; _ } = Specsim.Plan.block_plan plan in
  let sites =
    Gen_common.image_sites plan t
      (Gen_common.paper_kernels
      @ List.map
          (fun (k : Workload.Hostile.kernel) -> k.program)
          Workload.Hostile.test_suite)
  in
  List.iter
    (fun name ->
      let keep = Gen_common.site_keep plan name in
      List.iter
        (fun (idx, enc) ->
          let ir = chain_ir.(idx) in
          if
            Semir.Opt.optimize ~enc ~keep ir
            <> Gen_common.reference_optimize ~enc ~keep ir
          then
            Alcotest.failf "%s %s: site %s 0x%Lx differs from the reference"
              t.tname name spec.instrs.(idx).i_name enc)
        sites)
    translating;
  List.iter
    (fun name ->
      let bs = Lis.Spec.find_buildset spec name in
      let flat =
        Specsim.Plan.flat_segs
          (Array.map
             (fun (_, syms) -> Specsim.Plan.segments_of_entrypoint syms)
             bs.bs_entrypoints)
      in
      let got = Specsim.Plan.optimize_segments spec bs flat in
      Array.iteri
        (fun ii (instr : Lis.Spec.instr) ->
          let irs = Array.map (raw_seg_ir instr) flat in
          let n = Array.length irs in
          let downstream = Array.make (n + 1) Specsim.Plan.Iset.empty in
          for k = n - 1 downto 0 do
            downstream.(k) <-
              Specsim.Plan.Iset.union downstream.(k + 1)
                (Specsim.Plan.reads_of irs.(k))
          done;
          Array.iteri
            (fun k ir ->
              let keep c =
                bs.bs_visible.(c) || Specsim.Plan.Iset.mem c downstream.(k + 1)
              in
              if got.(ii).(k) <> Gen_common.reference_optimize ~keep ir then
                Alcotest.failf "%s %s: %s segment %d differs from the reference"
                  t.tname name instr.i_name k)
            irs)
        spec.instrs)
    buildsets

(* MD5 of the optimized sites of the paper kernels' images, per
   translating keep set, marshalled without sharing so that only the
   trees' structure counts; recorded with the four-pass optimizer. A
   change to the optimizer or its reference passes that alters any site
   fails here. *)
let pinned_sites =
  [
    ( "alpha",
      [
        ("block_min", "351188d6f01b990d72835b4f32279026");
        ("block_decode", "74aa182bb8e0006f11712378bc12733b");
        ("block_all", "bf3048858ee0d376c33d31aedc5b130f");
      ] );
    ( "arm",
      [
        ("block_min", "34afc2aeca0db5a554e3ba3251b80bfe");
        ("block_decode", "abdbd6cbdee2059d9c050866b3c0f64a");
        ("block_all", "b038726f28811ba3988c9d284748b692");
      ] );
    ( "ppc",
      [
        ("block_min", "5610e577a76fef66cfe73909ae08f43d");
        ("block_decode", "16d59e4e191b8a730a40755c7312a1cb");
        ("block_all", "2943e1e339faa6e30f8fec5255c3a1b9");
      ] );
    ( "riscv",
      [
        ("block_min", "4ac9e0a1bc8387d5f7a1c878a8f6731d");
        ("block_decode", "850233dcc5cf18d20cbd31aaeef04f4c");
        ("block_all", "d60694732b33b3edeed9cd840fc5601b");
      ] );
  ]

let test_pinned_sites (t : Workload.target) () =
  let plan = Specsim.Plan.create (Lazy.force t.spec) in
  let { Specsim.Plan.chain_ir; _ } = Specsim.Plan.block_plan plan in
  let sites = Gen_common.image_sites plan t Gen_common.paper_kernels in
  List.iter
    (fun (name, want) ->
      let keep = Gen_common.site_keep plan name in
      let out =
        List.map
          (fun (idx, enc) -> Semir.Opt.optimize ~enc ~keep chain_ir.(idx))
          sites
      in
      Alcotest.(check string)
        (t.tname ^ " " ^ name)
        want
        (Digest.to_hex
           (Digest.string (Marshal.to_string out [ Marshal.No_sharing ]))))
    (List.assoc t.tname pinned_sites)

(* Write hooks are compiled into code, and a cache shares code: an
   interface made without hooks must never run hooked code from the
   cache, nor one made with hooks plain code, whichever came first, for
   the generic items of a Step interface and the translated sites of a
   One interface. Hooked and plain runs retire the same state. *)
let test_hooks_apart (t : Workload.target) () =
  let spec = Lazy.force t.spec and k = kernel "vec_sum" in
  let fired = ref 0 in
  let hooks =
    {
      Semir.Hooks.on_reg_write = (fun _ _ -> incr fired);
      on_store = (fun _ _ _ -> incr fired);
    }
  in
  let cache = Specsim.Synth.cache spec in
  let run ?hooks bs =
    let iface = Specsim.Synth.make ~cache ?hooks spec bs in
    ignore (Workload.load_image t k.program iface.st);
    ignore (Specsim.Iface.run_n iface budget);
    Printf.sprintf "retired=%Ld regs=%Lx mem=%Lx" iface.st.instr_count
      (Inject.Watchdog.regs_digest iface.st.regs)
      (Machine.Memory.digest iface.st.mem)
  in
  List.iter
    (fun bs ->
      let plain = run bs in
      Alcotest.(check int) (bs ^ ": plain code fires no hook") 0 !fired;
      let hooked = run ~hooks bs in
      Alcotest.(check bool) (bs ^ ": hooked code fires") true (!fired > 0);
      Alcotest.(check string) (bs ^ ": same state hooked") plain hooked;
      let n = !fired in
      Alcotest.(check string) (bs ^ ": same state plain again") plain (run bs);
      Alcotest.(check int) (bs ^ ": plain code after hooked fires none") n
        !fired;
      fired := 0)
    [ "step_all"; "one_all"; "block_min" ];
  match Specsim.Synth.make ~cache ~hooks spec "step_all_spec" with
  | _ -> Alcotest.fail "hooks accepted on a speculative buildset"
  | exception Invalid_argument _ -> ()

let suite =
  List.map
    (fun (t : Workload.target) ->
      Alcotest.test_case
        ("shared cache = fresh synthesis: " ^ t.tname)
        `Quick (test_isa t))
    Workload.targets
  @ List.map
      (fun (t : Workload.target) ->
        Alcotest.test_case ("one pass = reference: " ^ t.tname) `Quick
          (test_one_pass t))
      Workload.targets
  @ List.map
      (fun (t : Workload.target) ->
        Alcotest.test_case ("pinned translated sites: " ^ t.tname) `Quick
          (test_pinned_sites t))
      Workload.targets
  @ List.map
      (fun (t : Workload.target) ->
        Alcotest.test_case ("hooked and plain code apart: " ^ t.tname) `Quick
          (test_hooks_apart t))
      Workload.targets
  @ List.map
      (fun (t : Workload.target) ->
        Alcotest.test_case
          ("run_fast on two machines sharing code: " ^ t.tname)
          `Quick (test_fast_shared t))
      Workload.targets

(* Shared items keep the compile function their lazy stubs call, so it
   captures no instance: once a hooked step_all interface is dropped,
   its machine is garbage although the cache keeps the items. *)
let test_stubs_hold_no_machine () =
  let spec = Lazy.force Workload.alpha.spec in
  let cache = Specsim.Synth.cache spec in
  let freed = ref false in
  let hooks =
    { Semir.Hooks.on_reg_write = (fun _ _ -> ()); on_store = (fun _ _ _ -> ()) }
  in
  let make () =
    let st = Lis.Spec.make_machine spec in
    Gc.finalise_last (fun () -> freed := true) st.Machine.State.mem;
    ignore (Specsim.Synth.make ~cache ~hooks ~st spec "step_all")
  in
  make ();
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "the dropped interface's memory is collected" true !freed;
  ignore (Sys.opaque_identity cache)

let suite =
  suite
  @ [
      Alcotest.test_case "hooked items hold no machine" `Quick
        test_stubs_hold_no_machine;
    ]
