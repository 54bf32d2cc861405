(** Synthesis caches: interfaces made through one shared
    {!Specsim.Synth.cache} must be indistinguishable from freshly
    synthesized ones — retired count, register and memory digests and
    engine statistics — on every ISA and canonical buildset. Each run
    covers the three ways a shared plan could leak state: two live
    instances sharing compiled code (and its per-site page caches) on
    different machines, a speculative rollback (journal hooks stay per
    instance), and [run_one] on a block interface (per-instruction code
    built on first use). *)

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
     sites=%d site_hits=%d chain=%d/%d instrs=%d fastpath=%d stable=%d"
    st.instr_count
    (Inject.Watchdog.regs_digest st.regs)
    (Machine.Memory.digest st.mem)
    s.blocks_compiled s.block_hits s.block_invalidations s.sites_compiled
    s.site_cache_hits s.chain_taken s.chain_miss s.instrs_executed
    s.fastpath_classes s.stable_blocks

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

let suite =
  List.map
    (fun (t : Workload.target) ->
      Alcotest.test_case
        ("shared cache = fresh synthesis: " ^ t.tname)
        `Quick (test_isa t))
    Workload.targets
