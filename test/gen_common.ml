(** Shared test harnesses and generators.

    These used to live as per-file copies in test_dispatch,
    test_isa_props and test_core_units; the generator primitives now
    belong to the fuzzer (lib/fuzz) and this module owns the harnesses
    the suites build on them.

    Seed convention (shared with [lisim fuzz] and [lisim inject]): one
    64-bit campaign seed, stretched with the splitmix finalizer
    ({!Inject.Prng.derive}) into every per-purpose stream. For the test
    binary the seed comes from the [LISIM_SEED] environment variable
    (default 42); {!init_seed} derives the qcheck stream from it and
    prints the value, so any qcheck failure is reproducible with
    [LISIM_SEED=<printed value> dune runtest]. An explicit [QCHECK_SEED]
    in the environment still wins, since that is qcheck's own replay
    knob. *)

let seed_env = "LISIM_SEED"
let default_seed = 42L

let campaign_seed () =
  match Sys.getenv_opt seed_env with
  | None | Some "" -> default_seed
  | Some s -> (
    match Int64.of_string_opt s with
    | Some v -> v
    | None -> Printf.ksprintf failwith "%s=%S is not an integer" seed_env s)

(** Install the derived qcheck seed (unless [QCHECK_SEED] is already
    set) and print the campaign seed. Must run before [Alcotest.run]
    — qcheck reads its environment lazily at the first test. *)
let init_seed () =
  let seed = campaign_seed () in
  (match Sys.getenv_opt "QCHECK_SEED" with
  | Some s when s <> "" -> ()
  | _ ->
    let q =
      Int64.to_int
        (Int64.logand (Inject.Prng.derive ~seed ~salt:0) 0x3FFFFFFFL)
    in
    Unix.putenv "QCHECK_SEED" (string_of_int q));
  Printf.printf "lisim tests: campaign seed %Ld (%s=%Ld reproduces)\n%!" seed
    seed_env seed

(* ----------------------------------------------------------------- *)
(* Spec-derived encoding generators (re-exported from the fuzzer)      *)
(* ----------------------------------------------------------------- *)

(** [encoding_with_noise spec i noise] — an encoding of instruction [i]
    with every decoder-free bit taken from [noise]. *)
let encoding_with_noise = Fuzz.Gen.encoding_with_noise

let free_runs = Fuzz.Gen.free_runs

(* ----------------------------------------------------------------- *)
(* Demo-ISA program harness                                            *)
(* ----------------------------------------------------------------- *)

let demo_spec () = Lazy.force Demo_isa.spec

(** Run [program] under buildset [bs]; returns the interface (for stats)
    plus (exit status, instructions retired). [patch] runs after the
    image is loaded, before execution — used to pre-stage data.
    [block_loop] drives [run_block] to halt instead of [run_n]. *)
let run_demo ?chain ?site_cache ?mutate ?(block_loop = false)
    ?(patch = fun _ -> ()) bs program =
  let spec = demo_spec () in
  let iface = Specsim.Synth.make ?chain ?site_cache ?mutate spec bs in
  let st = iface.st in
  let os = Machine.Os_emu.create () in
  (match spec.abi with
  | Some abi -> Machine.Os_emu.install os abi st
  | None -> Alcotest.fail "demo ISA has no abi");
  Demo_isa.load_program st ~base:0x1000L program;
  patch st;
  let budget = 1_000_000 in
  if block_loop then begin
    while (not st.halted) && Int64.to_int st.instr_count < budget do
      ignore (iface.run_block ())
    done;
    if not st.halted then Alcotest.fail "program did not terminate"
  end
  else begin
    let executed = Specsim.Iface.run_n iface budget in
    if executed >= budget && not st.halted then
      Alcotest.fail "program did not terminate"
  end;
  (iface, Machine.State.exit_status st, st.instr_count)

(* ----------------------------------------------------------------- *)
(* Single-instruction harness (ISA semantics property tests)           *)
(* ----------------------------------------------------------------- *)

(** One interface per spec, shared across all properties of a suite —
    synthesis is the expensive part, resets are cheap. *)
let one_all spec = lazy (Specsim.Synth.make (Lazy.force spec) "one_all")

(** [run_single iface ~pre word] stages register state with [pre],
    places the 4-byte instruction [word] at 0x1000, runs exactly one
    instruction and returns the machine state for inspection. *)
let run_single (iface : Specsim.Iface.t Lazy.t) ~pre word : Machine.State.t =
  let iface = Lazy.force iface in
  let st = iface.st in
  pre st;
  Machine.Memory.write st.mem ~addr:0x1000L ~width:4 word;
  Machine.State.reset st ~pc:0x1000L;
  let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
  iface.run_one di;
  st

(* ----------------------------------------------------------------- *)
(* Random terminating VIR loops                                        *)
(* ----------------------------------------------------------------- *)

(** Small terminating VIR programs: a random straight-line body inside a
    counted loop, with aligned word loads/stores into a scratch buffer,
    exiting with the accumulator's low byte. *)
let vir_of_choices (choices : int list) ~iters : Vir.Lang.program =
  let open Vir.Lang in
  let body =
    List.map
      (fun n ->
        let d = 1 + ((n lsr 4) land 3) in
        let a = 1 + ((n lsr 6) land 3) in
        let b = 1 + ((n lsr 8) land 3) in
        let imm = (n lsr 10) land 0xFFF in
        match n land 7 with
        | 0 -> Add (d, a, b)
        | 1 -> Sub (d, a, b)
        | 2 -> Mul (d, a, b)
        | 3 -> Xor_ (d, a, b)
        | 4 -> Addi (d, a, imm - 2048)
        | 5 -> Shli (d, a, imm land 15)
        | 6 -> Stw (a, 5, 4 * (imm land 31))
        | _ -> Ldw (d, 5, 4 * (imm land 31)))
      choices
  in
  [
    Li (1, 3l); Li (2, 5l); Li (3, 7l); Li (4, 11l);
    Li (5, 0x4000l) (* scratch buffer *);
    Li (6, Int32.of_int iters);
    Li (7, 0l) (* accumulator *);
    Li (8, 0l);
    Label "loop";
  ]
  @ body
  @ [
      Add (7, 7, 1);
      Xor_ (7, 7, 2);
      Addi (6, 6, -1);
      Bcond (Ne, 6, 8, "loop");
      Andi (7, 7, 0xff);
      Li (0, 0l);
      Mv (1, 7);
      Sys;
    ]

let outcome_pair (o : Workload.outcome) = (o.exit_status, o.output)

(* ----------------------------------------------------------------- *)
(* Translated sites of program images                                  *)
(* ----------------------------------------------------------------- *)

(** [image_sites plan t programs] is every distinct (instruction,
    encoding) pair in the images of [programs] on [t], sorted: what a
    translating interface specializes its sites from. Each image is
    walked from the code base as the block engine walks it, decoding
    the fetch window and truncating it to the class's encoded width. *)
let image_sites (plan : Specsim.Plan.t) (t : Workload.target)
    (programs : Vir.Lang.program list) =
  let spec = plan.spec in
  let sites = Hashtbl.create 256 in
  List.iter
    (fun program ->
      let st = Lis.Spec.make_machine spec in
      ignore (Workload.load_image t program st);
      let words = List.length (t.encode ~base:Workload.code_base program) in
      let stop = Int64.add Workload.code_base (Int64.of_int (4 * words)) in
      let pc = ref Workload.code_base in
      while Int64.compare !pc stop < 0 do
        let win =
          Machine.Memory.read st.mem ~addr:!pc ~width:spec.instr_bytes
        in
        let idx = Specsim.Decoder.decode plan.decoder win in
        if idx < 0 then pc := Int64.add !pc (Int64.of_int spec.instr_bytes)
        else begin
          Hashtbl.replace sites (idx, Int64.logand win plan.size_mask.(idx)) ();
          pc := Int64.add !pc plan.size64.(idx)
        end
      done)
    programs;
  List.sort compare (Hashtbl.fold (fun site () acc -> site :: acc) sites [])

(** The four passes {!Semir.Opt.optimize} must reproduce exactly. *)
let reference_optimize ?enc ~keep p =
  let p =
    match enc with
    | Some enc -> Semir.Opt.specialize_enc ~enc p
    | None -> Semir.Opt.fold p
  in
  Semir.Opt.dce ~keep (Semir.Opt.const_prop p)

let paper_kernels =
  List.map (fun (k : Vir.Kernels.sized) -> k.program) Vir.Kernels.test_suite

(** The keep set a translating interface of buildset [name] optimizes
    its sites with: visible cells and cross-instruction carriers. *)
let site_keep (plan : Specsim.Plan.t) name =
  let bs = Lis.Spec.find_buildset plan.spec name in
  let carried = (Specsim.Plan.block_plan plan).carried in
  fun c -> bs.bs_visible.(c) || Specsim.Plan.Iset.mem c carried

(* ----------------------------------------------------------------- *)
(* The lockstep oracle                                                 *)
(* ----------------------------------------------------------------- *)

(** The fuzz oracle before the reference was recorded: [run_pair]
    booting and running its own step_all reference beside the
    candidate, kept verbatim (with its [advance], [driver] and
    [compare_sync]) so the recorded oracle can be checked against it. *)
module Lockstep = struct
  open Fuzz
  open Oracle

  (* One lockstep participant: interface plus its call-style driver. *)
  type style = Block | One | Step

  type drv = { iface : Specsim.Iface.t; style : style; di : Specsim.Di.t }

  let driver (iface : Specsim.Iface.t) : drv =
    let style =
      if iface.bs.bs_block then Block
      else if Specsim.Iface.n_entrypoints iface = 1 then One
      else Step
    in
    { iface; style; di = Specsim.Di.create ~info_slots:iface.slots.Specsim.Slots.di_size }

  (** [advance d] runs one unit (block / instruction) and returns
      [(retired, entrypoint_calls)] — the latter is what the compiled-in
      "synth.entrypoint_calls" counter must have grown by. *)
  let advance (d : drv) : int * int =
    let st = d.iface.st in
    if st.halted then (0, 0)
    else begin
      let before = st.instr_count in
      let eps =
        match d.style with
        | Block ->
          ignore (d.iface.run_block ());
          Int64.to_int (Int64.sub st.instr_count before)
        | One ->
          d.iface.run_one d.di;
          1
        | Step ->
          let di = d.di in
          di.pc <- st.pc;
          di.instr_index <- -1;
          di.fault <- None;
          let n = Specsim.Iface.n_entrypoints d.iface in
          let e = ref 0 in
          while !e < n && not st.halted do
            d.iface.step di !e;
            incr e
          done;
          if not st.halted then d.iface.retire di;
          !e
      in
      (Int64.to_int (Int64.sub st.instr_count before), eps)
    end

  let fault_str (st : Machine.State.t) =
    match st.fault with None -> "-" | Some f -> Machine.Fault.to_string f

  (** [run_pair spec cfg tc ~buildset] — lockstep one candidate against the
      reference; [None] means full agreement within the budget. [?prof]
      attaches a shared hot-region profiler to every candidate boot, so a
      whole campaign accumulates into one region table (the flame view of
      the campaign). [cache] is the caller's synthesis cache for [spec]
      (see {!Specsim.Synth.cache}); without one, the candidate and the
      reference still share a private one. *)
  let run_pair (spec : Lis.Spec.t) ?prof ?cache (cfg : config)
      (tc : Gen.testcase) ~buildset : divergence option =
    let cache =
      match cache with Some c -> c | None -> Specsim.Synth.cache spec
    in
    let obs =
      if cfg.check_crossings then Some (Obs.create ?prof ())
      else Option.map (fun p -> Obs.profile_only ~prof:p ()) prof
    in
    let cand =
      driver
        (boot spec tc ~buildset ~chain:cfg.chain ~site_cache:cfg.site_cache
           ?mutate:cfg.mutate ~cache ?obs ())
    in
    let refd =
      driver
        (boot spec tc ~buildset:cfg.reference ~chain:true ~site_cache:true ~cache
           ())
    in
    (* only a fully-instrumented context counts crossings; a profile-only
       one builds seed closures and its registry would read a false 0 *)
    let crossings =
      if cfg.check_crossings then
        Option.map
          (fun (o : Obs.t) ->
            Obs.Registry.counter o.Obs.reg "synth.entrypoint_calls")
          obs
      else None
    in
    let cst = cand.iface.st and rst = refd.iface.st in
    let expected = ref 0 in
    let total = ref 0 in
    let stuck = ref 0 in
    let next_mem = ref cfg.mem_interval in
    let div = ref None in
    let diverge kind detail =
      if !div = None then
        div :=
          Some
            {
              d_buildset = buildset;
              d_kind = kind;
              d_retired = cst.instr_count;
              d_detail = detail;
            }
    in
    let compare_mem () =
      if not (Machine.Memory.equal_contents cst.mem rst.mem) then
        (* digests only name the divergence in reports *)
        let mc = Machine.Memory.digest cst.mem
        and mr = Machine.Memory.digest rst.mem in
        diverge "mem"
          (Printf.sprintf "memory digest 0x%Lx, reference 0x%Lx" mc mr)
    in
    let compare_sync ~mem =
      if cst.halted <> rst.halted then
        diverge "halt"
          (Printf.sprintf "candidate %s, reference %s"
             (if cst.halted then "halted (" ^ fault_str cst ^ ")" else "running")
             (if rst.halted then "halted (" ^ fault_str rst ^ ")" else "running"))
      else if cst.halted && not (String.equal (fault_str cst) (fault_str rst))
      then
        diverge "fault"
          (Printf.sprintf "candidate fault %s, reference %s" (fault_str cst)
             (fault_str rst))
      else if (not cst.halted) && not (Int64.equal cst.pc rst.pc) then
        diverge "pc"
          (Printf.sprintf "fetch pc 0x%Lx, reference 0x%Lx" cst.pc rst.pc);
      if !div = None && not (Int64.equal cst.instr_count rst.instr_count) then
        diverge "count"
          (Printf.sprintf "retired %Ld, reference %Ld" cst.instr_count
             rst.instr_count);
      if !div = None && not (Machine.Regfile.equal cst.regs rst.regs) then begin
        (* digests only name the divergence in reports, as for memory *)
        let rc = Inject.Watchdog.regs_digest cst.regs
        and rr = Inject.Watchdog.regs_digest rst.regs in
        diverge "regs"
          (Printf.sprintf "register digest 0x%Lx, reference 0x%Lx" rc rr)
      end;
      (match crossings with
      | Some c when !div = None && c.Obs.Registry.n <> !expected ->
        diverge "crossings"
          (Printf.sprintf "entrypoint crossings %d, expected %d"
             c.Obs.Registry.n !expected)
      | _ -> ());
      if !div = None && mem then compare_mem ();
      (* every interface leaves the pc at the halting instruction; checked
         last, so a verdict that an earlier check gives stays first *)
      if !div = None && not (Int64.equal cst.pc rst.pc) then
        diverge "pc"
          (Printf.sprintf "halt pc 0x%Lx, reference 0x%Lx" cst.pc rst.pc)
    in
    let rec loop () =
      if !div <> None then ()
      else if cst.halted && rst.halted then ()
      else if !total >= cfg.max_instrs then ()
      else begin
        let n, eps = advance cand in
        expected := !expected + eps;
        total := !total + n;
        if n = 0 && not cst.halted then begin
          incr stuck;
          if !stuck > 4 then
            diverge "stuck"
              (Printf.sprintf
                 "no forward progress at pc 0x%Lx (invalid block dispatched?)"
                 cst.pc)
        end
        else stuck := 0;
        (* the reference follows, one instruction per unit *)
        let fed = ref 0 in
        while !div = None && !fed < n && not rst.halted do
          let m, _ = advance refd in
          if m = 0 && not rst.halted then
            diverge "stuck" "reference made no progress"
          else fed := !fed + m
        done;
        (* a halting instruction retires nothing, so when the candidate
           halts the reference needs one extra unit to take the same fault *)
        if !div = None && cst.halted && not rst.halted then ignore (advance refd);
        if !div = None then
          compare_sync
            ~mem:
              (cst.halted
              ||
              if !total >= !next_mem then begin
                next_mem := !total + cfg.mem_interval;
                true
              end
              else false);
        loop ()
      end
    in
    loop ();
    (* end of budget with both still running: full final comparison,
       including the canonical whole-state digest. A halt had its full
       comparison in the loop, memory and the pc at the halting
       instruction included. *)
    if !div = None && not cst.halted then begin
      compare_sync ~mem:true;
      if !div = None then begin
        let dc = Machine.Checkpoint.digest cst
        and dr = Machine.Checkpoint.digest rst in
        if not (Int64.equal dc dr) then
          diverge "state"
            (Printf.sprintf "state digest 0x%Lx, reference 0x%Lx" dc dr)
      end
    end;
    !div
end

let lockstep_run_pair = Lockstep.run_pair
