(** The four workloads. Each is one round of cells, run back to back by
    one client (a closed loop), repeated until the run's time is up; the
    seed sets every input. *)

type scale = Full | Smoke

type t = {
  name : string;
  cells : Cell.t list;  (** one round *)
  probes : Cell.t list;  (** run once, untraced, by a traced run *)
}

let names = [ "kernels"; "organizations"; "hostile"; "campaign" ]

(* A size drawn from the seed: [base] scaled by a factor in [0.95, 1.05]. *)
let size ~seed ~salt base =
  let u = Inject.Prng.uniform ~seed:(Int64.of_int seed) ~index:0L ~salt in
  max 1 (int_of_float (Float.round (float_of_int base *. (0.95 +. (0.1 *. u)))))

(** The eight paper kernels at ~25k dynamic instructions each (about a
    sixteenth of [Vir.Kernels.bench_suite]), so a round of every cell
    takes seconds and a run measures each cell several times. matmul's
    size is cubic in [n], so it is not varied. *)
let kernels ~scale ~seed =
  let s salt full smoke =
    size ~seed ~salt (match scale with Full -> full | Smoke -> smoke)
  in
  let fixed full smoke = match scale with Full -> full | Smoke -> smoke in
  Vir.Kernels.
    [
      { kname = "vec_sum"; program = vec_sum ~n:(s 1 1700 200) };
      { kname = "list_chase"; program = list_chase ~n:(s 2 160 32) ~steps:(s 3 4200 400) };
      { kname = "matmul"; program = matmul ~n:(fixed 11 5) };
      { kname = "sort"; program = sort ~n:(s 4 53 16) };
      { kname = "hash_loop"; program = hash_loop ~len:(s 5 1024 96) ~rounds:(fixed 3 2) };
      { kname = "str_ops"; program = str_ops ~len:(s 6 600 96) ~rounds:(fixed 2 1) };
      { kname = "crc32"; program = crc32 ~len:(s 7 160 24) ~rounds:(fixed 2 1) };
      { kname = "saturate"; program = saturate ~len:(s 8 600 96) ~rounds:(fixed 2 1) };
    ]

let kernel name ks =
  List.find (fun (k : Vir.Kernels.sized) -> String.equal k.kname name) ks

let with_reference ?tr (ks : Vir.Kernels.sized list) =
  List.map (fun (k : Vir.Kernels.sized) -> (k, Cell.expect_reference ?tr k.program)) ks

(* ------------------------------------------------------------------ *)
(* kernels: Table II / III                                              *)
(* ------------------------------------------------------------------ *)

let kernels_workload ?tr ~scale ~seed () =
  let ks = with_reference ?tr (kernels ~scale ~seed) in
  let cell ?observed ?backend ?chain ?site_cache ?absint ~tag isa bs
      ((k : Vir.Kernels.sized), expect) =
    let id tag = String.concat "/" [ "kernels"; isa; bs; k.kname; tag ] in
    Cell.program ~id:(id tag) ~key:(id "plain")
      ~isa ~bs ?observed ?backend ?chain ?site_cache ?absint ~expect k.program
  in
  let plain =
    List.concat_map
      (fun isa ->
        List.concat_map
          (fun bs -> List.map (cell ~tag:"plain" isa bs) ks)
          Cell.buildsets)
      Cell.isas
  in
  (* one kernel per (ISA, buildset) also runs fully observed; the same
     ones for every seed, so the seed does not pick the observed mix *)
  let observed =
    List.concat
      (List.mapi
         (fun i isa ->
           List.mapi
             (fun j bs ->
               cell ~observed:true ~tag:"observed" isa bs
                 (List.nth ks (((3 * i) + j) mod List.length ks)))
             Cell.buildsets)
         Cell.isas)
  in
  (* the synthesis switches that already exist, as a per-layer ablation *)
  let ablation =
    List.concat_map
      (fun (tag, backend, chain, site_cache, absint) ->
        List.concat_map
          (fun isa ->
            List.concat_map
              (fun bs ->
                List.map
                  (fun name ->
                    cell ~backend ~chain ~site_cache ~absint ~tag isa bs
                      (List.find (fun ((k : Vir.Kernels.sized), _) -> k.kname = name) ks))
                  [ "sort"; "list_chase"; "hash_loop"; "crc32" ])
              [ "block_min"; "one_all" ])
          [ "alpha"; "riscv" ])
      Specsim.Synth.
        [
          ("default", Compiled, true, true, true);
          ("no_chain", Compiled, false, true, true);
          ("no_site_cache", Compiled, true, false, true);
          ("no_absint", Compiled, true, true, false);
          ("interpreted", Interpreted, true, true, true);
        ]
  in
  { name = "kernels"; cells = plain @ observed; probes = ablation }

(* ------------------------------------------------------------------ *)
(* organizations: the paper's Fig. 1 consumers                         *)
(* ------------------------------------------------------------------ *)

(** A kernel that polls a memory-mapped timer, so the speculative
    functional-first organization actually rolls back (the paper kernels
    never read the timer). The timer value is masked out, so the
    reference executor's result stands; a trailing loop keeps the last
    timer read more than a speculation window away from the exit
    syscalls, which the journal cannot undo. *)
let timer_poll ~n =
  let open Vir.Lang in
  [
    Li (8, Int64.to_int32 Timing.Specff.default_config.timer_addr);
    Li (9, Int32.of_int n);
    Li (10, 0l);
    Li (4, 0l);
    Label "poll";
    Ldw (11, 8, 0);
    Andi (11, 11, 0);
    Add (4, 4, 11);
    Addi (4, 4, 3);
    Xor_ (4, 4, 10);
    Addi (10, 10, 1);
    Bcond (Ne, 10, 9, "poll");
    Li (10, 24l);
    Label "drain";
    Addi (10, 10, -1);
    Bcond (Ne, 10, 0, "drain");
  ]
  @ Vir.Kernels.epilogue

let pf = Printf.sprintf

(* Funcfirst.run, or — traced — the same loop driven here so the timing
   model's consume is timed apart from the engine call behind each DI. *)
let funcfirst tr (iface : Specsim.Iface.t) : Timing.Funcfirst.result =
  let ff = Timing.Funcfirst.create iface in
  match tr with
  | None -> Timing.Funcfirst.run ff ~budget:max_int
  | Some t ->
    let consume =
      Trace.call t (Trace.span t Trace.Rolled "timing.consume")
        (Timing.Funcfirst.consume ff)
    in
    let st = iface.st in
    let start = st.instr_count in
    if iface.bs.bs_block then
      while not st.halted do
        let dis, n = iface.run_block () in
        for k = 0 to n - 1 do
          consume dis.(k)
        done
      done
    else begin
      let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
      while not st.halted do
        iface.run_one di;
        if di.fault = None then consume di
      done
    end;
    let instructions = Int64.sub st.instr_count start in
    let cycles = Timing.Funcfirst.current_cycles ff in
    {
      instructions;
      cycles;
      ipc =
        (if Int64.equal cycles 0L then 0.
         else Int64.to_float instructions /. Int64.to_float cycles);
      icache_miss_rate = Timing.Cache.miss_rate ff.l1i;
      dcache_miss_rate = Timing.Cache.miss_rate ff.l1d;
      mispredict_rate = Timing.Predictor.misprediction_rate ff.predictor;
      dcache_modelled = ff.ea_slot <> None;
    }

let timing_run tr f = Cell.timed tr "timing.run" f

(* Simulated statistics of the timing organizations, recorded for the
   per-layer report (traced runs only). *)
let record tr ~org ~isa ~kernel ~instrs ~cycles ~ipc =
  Cell.bump tr "timing.instructions" (Int64.to_float instrs);
  Cell.bump tr "timing.cycles" (Int64.to_float cycles);
  Cell.bump tr (pf "ipc/%s/%s/%s" org isa kernel) ipc

let record_rates tr ~icache ~dcache ~mispredict =
  Cell.bump tr "timing.icache_miss_rate" icache;
  Cell.bump tr "timing.dcache_miss_rate" dcache;
  Cell.bump tr "timing.mispredict_rate" mispredict;
  Cell.bump tr "timing.rate_samples" 1.

let org_cell ~isa ~kernel ~org ~bs ~observed ~expect program =
  let id tag = String.concat "/" [ "organizations"; isa; org; kernel; tag ] in
  let one tr obs bs =
    let spec = Cell.load_spec tr isa in
    let iface = Cell.synth tr ?obs spec bs in
    let os = Cell.load_image tr ?obs isa spec program iface.st in
    (Cell.wrap tr iface, os)
  in
  let finish tr ~ifaces ~instrs ~stats st os =
    List.iter (Cell.iface_stats tr) ifaces;
    Cell.result ~instrs:(Int64.to_int instrs) ~stats:(Cell.outcome st os ^ " " ^ stats)
      (Cell.verdict expect st os)
  in
  Cell.make ~id:(id (if observed then "observed" else "plain")) ~key:(id "plain")
    ~isa ~bs ~observed (fun tr obs ->
      match org with
      | "funcfirst" | "funcfirst_block" ->
        let iface, os = one tr obs bs in
        fun () ->
          let r = timing_run tr (fun () -> funcfirst tr iface) in
          record tr ~org ~isa ~kernel ~instrs:r.instructions ~cycles:r.cycles ~ipc:r.ipc;
          record_rates tr ~icache:r.icache_miss_rate ~dcache:r.dcache_miss_rate
            ~mispredict:r.mispredict_rate;
          finish tr ~ifaces:[ iface ] ~instrs:r.instructions iface.st os
            ~stats:
              (pf "c=%Ld i$=%h d$=%h bp=%h" r.cycles r.icache_miss_rate
                 r.dcache_miss_rate r.mispredict_rate)
      | "directed" ->
        let iface, os = one tr obs bs in
        fun () ->
          let r =
            timing_run tr (fun () -> Timing.Directed.run iface ~budget:max_int)
          in
          record tr ~org ~isa ~kernel ~instrs:r.instructions ~cycles:r.cycles ~ipc:r.ipc;
          record_rates tr ~icache:r.icache_miss_rate ~dcache:r.dcache_miss_rate
            ~mispredict:0.;
          finish tr ~ifaces:[ iface ] ~instrs:r.instructions iface.st os
            ~stats:
              (pf "c=%Ld raw=%Ld flush=%Ld i$=%h d$=%h" r.cycles
                 r.raw_stall_cycles r.branch_flushes r.icache_miss_rate
                 r.dcache_miss_rate)
      | "specff" ->
        let iface, os = one tr obs bs in
        fun () ->
          let r =
            timing_run tr (fun () -> Timing.Specff.run iface ~budget:max_int)
          in
          record tr ~org ~isa ~kernel ~instrs:r.instructions ~cycles:r.cycles ~ipc:r.ipc;
          Cell.bump tr "timing.rollbacks" (Int64.to_float r.rollbacks);
          finish tr ~ifaces:[ iface ] ~instrs:r.instructions iface.st os
            ~stats:(pf "c=%Ld rollbacks=%Ld" r.cycles r.rollbacks)
      | "timingfirst" ->
        let timing, _ = one tr obs bs in
        let checker, cos = one tr obs bs in
        (* the paper's buggy timing model: every 991st instruction
           corrupts a register, which the checker must catch and repair *)
        let count = ref 0 in
        let bug (st : Machine.State.t) _ =
          incr count;
          if !count mod 991 = 0 then
            Machine.Regfile.write st.regs ~cls:0 ~idx:2
              (Int64.add (Machine.Regfile.read st.regs ~cls:0 ~idx:2) 1L)
        in
        fun () ->
          let r =
            timing_run tr (fun () ->
                Timing.Timingfirst.run ~bug ?obs ~timing ~checker ~budget:max_int ())
          in
          record tr ~org ~isa ~kernel ~instrs:r.instructions ~cycles:r.cycles ~ipc:r.ipc;
          Cell.bump tr "timing.timingfirst_mismatches" (Int64.to_float r.mismatches);
          finish tr ~ifaces:[ timing; checker ] ~instrs:r.instructions checker.st cos
            ~stats:
              (pf "c=%Ld mismatches=%Ld repairs=%d restores=%d" r.cycles
                 r.mismatches r.repairs r.restores)
      | "sampling" ->
        let spec = Cell.load_spec tr isa in
        let st = Lis.Spec.make_machine spec in
        let detailed = Cell.synth tr ?obs ~st spec "one_decode" in
        let fast = Cell.synth tr ?obs ~st spec "block_min" in
        let os = Cell.load_image tr ?obs isa spec program st in
        let detailed = Cell.wrap tr detailed and fast = Cell.wrap tr fast in
        fun () ->
          let r =
            timing_run tr (fun () ->
                Timing.Sampling.run ~detailed ~fast ~budget:max_int ())
          in
          record tr ~org ~isa ~kernel ~instrs:r.measured_instructions ~cycles:r.measured_cycles ~ipc:r.estimated_ipc;
          finish tr ~ifaces:[ detailed; fast ] ~instrs:r.instructions st os
            ~stats:
              (pf "measured=%Ld c=%Ld ipc=%h" r.measured_instructions
                 r.measured_cycles r.estimated_ipc)
      | _ -> invalid_arg ("ledger: unknown organization " ^ org))

(** Organization name, interface it runs on. *)
let organizations =
  [
    ("funcfirst", "one_decode");
    ("funcfirst_block", "block_decode");
    ("directed", "step_all");
    ("specff", "one_decode_spec");
    ("timingfirst", "one_min");
    ("sampling", "one_decode");
  ]

let organizations_workload ?tr ~scale ~seed () =
  let ks =
    with_reference ?tr
      (List.map
         (fun n -> kernel n (kernels ~scale ~seed))
         [ "sort"; "list_chase"; "hash_loop"; "crc32" ])
  in
  let timer =
    let p =
      timer_poll ~n:(size ~seed ~salt:20 (match scale with Full -> 6000 | Smoke -> 300))
    in
    ("timer_poll", p, Cell.expect_reference ?tr p)
  in
  let ks = List.map (fun ((k : Vir.Kernels.sized), e) -> (k.kname, k.program, e)) ks in
  let cells ~observed =
    List.concat
      (List.mapi
         (fun i isa ->
           List.concat_map
             (fun (org, bs) ->
               (* observed: one kernel per (ISA, organization), the same
                  for every seed *)
               let ks =
                 if observed then [ List.nth ks (i mod List.length ks) ]
                 else if org = "specff" then ks @ [ timer ]
                 else ks
               in
               List.map
                 (fun (kernel, program, expect) ->
                   org_cell ~isa ~kernel ~org ~bs ~observed ~expect program)
                 ks)
             organizations)
         Cell.isas)
  in
  { name = "organizations"; cells = cells ~observed:false @ cells ~observed:true; probes = [] }

(* ------------------------------------------------------------------ *)
(* hostile: the engine used against its grain                          *)
(* ------------------------------------------------------------------ *)

let hostile_workload ?tr ~scale ~seed () =
  let s salt full smoke = size ~seed ~salt (match scale with Full -> full | Smoke -> smoke) in
  let tramp = s 34 600 24 in
  let open Workload.Hostile in
  let suite =
    [
      ("gc_chase", gc_chase ~n:256 ~steps:(s 31 4000 200), None);
      ("interp", interp ~prog_len:(s 32 512 64) ~rounds:(match scale with Full -> 8 | Smoke -> 2), None);
      ("syscall_storm", syscall_storm ~n:(s 33 1800 60), None);
      ("trampoline", trampoline ~rounds:tramp, Some (trampoline_exit ~rounds:tramp));
    ]
  in
  let cells =
    List.concat_map
      (fun (name, program, exit) ->
        let expect =
          match exit with
          | Some exit -> { Cell.exit; output = None }
          | None -> Cell.expect_reference ?tr program
        in
        List.concat_map
          (fun isa ->
            List.concat_map
              (fun bs ->
                List.map
                  (fun observed ->
                    let id tag = String.concat "/" [ "hostile"; isa; bs; name; tag ] in
                    Cell.program
                      ~id:(id (if observed then "observed" else "plain"))
                      ~key:(id "plain") ~isa ~bs ~observed ~expect program)
                  [ false; true ])
              [ "block_min"; "one_all"; "step_all" ])
          Cell.isas)
      suite
  in
  { name = "hostile"; cells; probes = [] }

(* ------------------------------------------------------------------ *)
(* campaign: the journaled fuzz campaign and supervised runs           *)
(* ------------------------------------------------------------------ *)

let fuzz_isas = Fuzz.Driver.all_isas

(** The campaigns of one round, per fuzz ISA: one program each through
    the twelve candidate interfaces, from campaign seeds derived from the
    workload seed. Short campaigns keep each measurement close to the
    host-speed probe run before it (see README); arm's interfaces take
    ~4x longer to synthesize, so it runs fewer. *)
let fuzz_seeds ~scale ~seed isa =
  let n = match (scale, isa) with Smoke, _ -> 1 | Full, "arm" -> 6 | Full, _ -> 16 in
  List.init n (fun j -> Inject.Prng.derive ~seed:(Int64.of_int seed) ~salt:j)

let fuzz_budget = List.length Fuzz.Oracle.default_config.buildsets

let work_dir () = Filename.concat ".ledger" (pf "campaign-%d" (Unix.getpid ()))

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let fuzz_cell isa seed =
  Cell.make ~id:(pf "campaign/%s/fuzz/%Lx" isa seed) ~isa ~ops:fuzz_budget
    (fun tr _ ->
      (* what a campaign process loads before its first execution *)
      ignore (Cell.load_spec tr isa);
      let dir = Filename.concat (work_dir ()) isa in
      remove_tree dir;
      Unix.mkdir dir 0o755;
      let journal = Filename.concat dir "journal.jsonl" in
      let quarantine = Filename.concat dir "quarantine" in
      fun () ->
        let p =
          Cell.timed tr "fuzz.campaign.run" (fun () ->
              Fuzz.Campaign.run ~isa ~seed ~budget:fuzz_budget ~journal ~quarantine ())
        in
        let bad = p.p_quarantined + p.p_gave_up + (fuzz_budget - p.p_execs) in
        Cell.result ~ok_ops:(fuzz_budget - bad) ~instrs:0
          ~stats:
            (pf "programs=%d execs=%d clean=%d quarantined=%d gave_up=%d"
               p.p_programs p.p_execs p.p_clean p.p_quarantined p.p_gave_up)
          (if bad = 0 then None
           else Some (pf "%d oracle execution(s) diverged or gave up" bad)))

(* A supervised run ([lisim run --supervised]): the campaign runtime's
   lockstep path, a step_all shadow verifying every slice. Its fixed
   programs give the campaign workload a stable instruction stream. *)
let supervised_cell ~isa ~bs ~observed ~kernel ~expect program =
  let id tag = String.concat "/" [ "campaign"; isa; bs; kernel; tag ] in
  Cell.make ~id:(id (if observed then "observed" else "plain")) ~key:(id "plain")
    ~isa ~bs ~observed (fun tr obs ->
      let spec = Cell.load_spec tr isa in
      let oses = ref [] in
      let load st = oses := (st, Cell.load_image tr ?obs isa spec program st) :: !oses in
      let session =
        Cell.timed tr "super.degrade.create" (fun () ->
            Super.Degrade.create ?obs ~spec ~buildset:bs ~load ())
      in
      fun () ->
        let r =
          Cell.timed tr "super.degrade.run" (fun () ->
              Super.Degrade.run ~budget:max_int session)
        in
        let st = Super.Degrade.shadow_state session in
        let os = List.assq st !oses in
        Cell.result ~instrs:(Int64.to_int r.r_instructions)
          ~stats:(pf "%s digest=%Lx" (Cell.outcome st os) r.r_digest)
          (if r.r_demotions > 0 then Some (pf "%d demotion(s)" r.r_demotions)
           else Cell.verdict expect st os))

let campaign_workload ?tr ~scale ~seed () =
  let ks =
    with_reference ?tr
      (List.map (fun n -> kernel n (kernels ~scale ~seed)) [ "sort"; "crc32" ])
  in
  let supervised =
    List.concat_map
      (fun isa ->
        List.concat_map
          (fun bs ->
            List.concat_map
              (fun ((k : Vir.Kernels.sized), expect) ->
                List.map
                  (fun observed ->
                    supervised_cell ~isa ~bs ~observed ~kernel:k.kname ~expect k.program)
                  [ false; true ])
              ks)
          [ "block_min"; "one_all" ])
      Cell.isas
  in
  {
    name = "campaign";
    cells =
      List.concat_map
        (fun isa -> List.map (fuzz_cell isa) (fuzz_seeds ~scale ~seed isa))
        fuzz_isas
      @ supervised;
    probes = [];
  }

(** Layer probes of a traced campaign run, per fuzz ISA: the generator
    alone, single oracle executions and the syntheses each one boots, and
    the bare oracle loop ([Fuzz.Driver.hunt], same seeds and budget) that
    the supervised campaign's tax is measured against. [campaign_s isa]
    is the untraced [Fuzz.Campaign.run] time of one round's campaigns. *)
let campaign_probes t ~scale ~seed ~campaign_s =
  let tr = Some t and seed64 = Int64.of_int seed in
  let n_gen, n_programs = match scale with Full -> (200, 2) | Smoke -> (20, 1) in
  let ms t0 = float_of_int (Cell.elapsed t0) /. 1e6 in
  let per_isa =
    List.map
      (fun isa ->
        Trace.cell t ("campaign/probe/" ^ isa) (fun () ->
            let spec = Fuzz.Driver.spec_of_isa isa in
            let cx = Fuzz.Gen.make_ctx ~isa spec in
            for index = 0 to n_gen - 1 do
              ignore
                (Cell.timed ~sampled:true tr "fuzz.generate" (fun () ->
                     Fuzz.Gen.generate cx ~seed:seed64 ~index))
            done;
            let cfg = Fuzz.Oracle.default_config in
            let exec_ms =
              List.concat_map
                (fun index ->
                  let tc = Fuzz.Gen.generate cx ~seed:seed64 ~index in
                  List.map
                    (fun bs ->
                      let t0 = Cell.now () in
                      ignore
                        (Cell.timed ~sampled:true tr "fuzz.oracle.run_pair" (fun () ->
                             Fuzz.Oracle.run_pair spec cfg tc ~buildset:bs));
                      ms t0)
                    cfg.buildsets)
                (List.init n_programs Fun.id)
            in
            let synth_ms =
              Stat.median
                (List.map
                   (fun bs ->
                     let t0 = Cell.now () in
                     ignore (Cell.synth tr spec bs);
                     ms t0)
                   (cfg.reference :: cfg.buildsets))
            in
            let hunt_s =
              Stat.sum
                (List.map
                   (fun seed ->
                     (* from a collected heap, as every campaign cell starts *)
                     Gc.full_major ();
                     let t0 = Cell.now () in
                     let o =
                       Cell.timed tr "fuzz.driver.hunt" (fun () ->
                           Fuzz.Driver.hunt ~isa ~seed ~budget:fuzz_budget ())
                     in
                     if o.o_found <> None then failwith ("bare oracle loop diverged on " ^ isa);
                     ms t0 /. 1e3)
                   (fuzz_seeds ~scale ~seed isa))
            in
            (* every oracle execution boots a candidate and a reference *)
            (2. *. synth_ms *. float_of_int (List.length exec_ms), Stat.sum exec_ms, hunt_s,
             campaign_s isa)))
      fuzz_isas
  in
  let total f = Stat.sum (List.map f per_isa) in
  [
    ("fuzz.synth_share_pct", 100. *. total (fun (s, _, _, _) -> s) /. total (fun (_, e, _, _) -> e));
    ("super.tax_pct", 100. *. ((total (fun (_, _, _, c) -> c) /. total (fun (_, _, h, _) -> h)) -. 1.));
  ]

let make ?tr ~scale ~seed = function
  | "kernels" -> kernels_workload ?tr ~scale ~seed ()
  | "organizations" -> organizations_workload ?tr ~scale ~seed ()
  | "hostile" -> hostile_workload ?tr ~scale ~seed ()
  | "campaign" -> campaign_workload ?tr ~scale ~seed ()
  | w -> invalid_arg ("unknown workload " ^ w)
