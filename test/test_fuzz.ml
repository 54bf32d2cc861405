(** Tests for the differential conformance fuzzer (lib/fuzz): generator
    validity and determinism, healthy-engine agreement across all
    buildsets, detection + shrinking of every seeded mutation mode,
    reproducer-file round trips, and replay of the checked-in corpus
    under [test/corpus/]. *)

let isas = Fuzz.Driver.all_isas
let spec_of = Fuzz.Driver.spec_of_isa

(* ----------------------------------------------------------------- *)
(* Generator                                                           *)
(* ----------------------------------------------------------------- *)

(* Every generated code word must decode, and the decoded instruction's
   (mask, match) must actually cover the word — the program generator is
   built on the spec's own encoding metadata, so a violation here means
   it drifted from the decoder. *)
let prop_generated_words_decode =
  QCheck.Test.make ~count:40 ~name:"fuzz generator emits decodable programs"
    QCheck.(pair (oneofl Fuzz.Driver.all_isas) small_nat)
    (fun (isa, index) ->
      let spec = spec_of isa in
      let cx = Fuzz.Gen.make_ctx ~isa spec in
      let tc = Fuzz.Gen.generate cx ~seed:7L ~index in
      let d = Specsim.Decoder.make spec in
      Array.for_all
        (fun w ->
          let idx = Specsim.Decoder.decode d w in
          idx >= 0
          &&
          let i = spec.instrs.(idx) in
          Int64.equal (Int64.logand w i.i_mask) i.i_match)
        tc.Fuzz.Gen.tc_code)

let test_generator_deterministic () =
  List.iter
    (fun isa ->
      let spec = spec_of isa in
      let cx = Fuzz.Gen.make_ctx ~isa spec in
      let a = Fuzz.Gen.generate cx ~seed:99L ~index:5 in
      let b = Fuzz.Gen.generate cx ~seed:99L ~index:5 in
      Alcotest.(check bool) (isa ^ ": same (seed, index), same testcase")
        true (a = b);
      let c = Fuzz.Gen.generate cx ~seed:99L ~index:6 in
      Alcotest.(check bool) (isa ^ ": next index differs") false
        (a.Fuzz.Gen.tc_code = c.Fuzz.Gen.tc_code))
    isas

(* ----------------------------------------------------------------- *)
(* Healthy engines: no divergence                                      *)
(* ----------------------------------------------------------------- *)

let test_healthy_no_divergence () =
  List.iter
    (fun isa ->
      let o = Fuzz.Driver.hunt ~isa ~seed:11L ~budget:60 () in
      match o.Fuzz.Driver.o_found with
      | None -> ()
      | Some (_, d) ->
        Alcotest.failf "%s: unexpected divergence — %s" isa
          (Fuzz.Oracle.pp_divergence d))
    isas

(* Disabling the translation caches is an architectural no-op, so the
   oracle must stay quiet there too (the A/B the CLI exposes as
   --no-chain / --no-site-cache). *)
let test_healthy_caches_off () =
  let cfg =
    { Fuzz.Oracle.default_config with chain = false; site_cache = false }
  in
  let o = Fuzz.Driver.hunt ~cfg ~isa:"tiny" ~seed:11L ~budget:48 () in
  match o.Fuzz.Driver.o_found with
  | None -> ()
  | Some (_, d) ->
    Alcotest.failf "caches off: unexpected divergence — %s"
      (Fuzz.Oracle.pp_divergence d)

(* ----------------------------------------------------------------- *)
(* Mutation testing: every seeded defect is detected and shrunk        *)
(* ----------------------------------------------------------------- *)

(* Only block interfaces host the mutated machinery, so restricting the
   candidate list keeps the kill checks fast without weakening them. *)
let block_only =
  List.filter
    (fun b -> String.length b >= 5 && String.equal (String.sub b 0 5) "block")
    Fuzz.Oracle.default_config.buildsets

let kill ?(seed = 42L) ~isa mutate ~budget =
  let name = Specsim.Synth.mutation_to_string mutate in
  let cfg =
    { Fuzz.Oracle.default_config with
      mutate = Some mutate;
      buildsets = block_only;
    }
  in
  let o = Fuzz.Driver.hunt ~cfg ~isa ~seed ~budget () in
  match o.Fuzz.Driver.o_shrunk with
  | None ->
    Alcotest.failf "%s/%s survived %d oracle executions" isa name budget
  | Some (tc, d) ->
    Alcotest.(check bool)
      (Printf.sprintf "%s/%s shrinks to <= 8 instructions (got %d)" isa name
         (Array.length tc.Fuzz.Gen.tc_code))
      true
      (Array.length tc.Fuzz.Gen.tc_code <= 8);
    Alcotest.(check bool)
      (Printf.sprintf "%s/%s divergence names a block buildset" isa name)
      true
      (List.mem d.Fuzz.Oracle.d_buildset block_only)

let test_kill_skip_invalidate () =
  kill ~isa:"tiny" Specsim.Synth.Skip_invalidate ~budget:200;
  kill ~isa:"alpha" Specsim.Synth.Skip_invalidate ~budget:400;
  kill ~isa:"riscv" ~seed:1L Specsim.Synth.Skip_invalidate ~budget:400

let test_kill_stale_chain () =
  kill ~isa:"tiny" Specsim.Synth.Stale_chain ~budget:200;
  kill ~isa:"riscv" ~seed:1L Specsim.Synth.Stale_chain ~budget:400

let test_kill_stride4 () =
  (* observable only where instrsize <> 4: tiny16 by construction, and
     riscv because RVC parcels make the real stride non-uniform — the
     uniform pc+4i walk the mutation reintroduces is caught immediately *)
  kill ~isa:"tiny" Specsim.Synth.Stride4 ~budget:64;
  kill ~isa:"riscv" Specsim.Synth.Stride4 ~budget:64

(* The bare hunt has one driver at every pool size: a pool of one scans
   on the calling domain, a larger pool in parallel rounds, and both
   report the first divergence in slot order with the same accounting. *)
let test_hunt_pool_parity () =
  let cfg =
    { Fuzz.Oracle.default_config with mutate = Some Specsim.Synth.Stride4 }
  in
  let hunt jobs =
    Fleet.with_pool ~jobs (fun fleet ->
        Fuzz.Driver.hunt ~cfg ~fleet ~isa:"tiny" ~seed:42L ~budget:50 ())
  in
  let o1 = hunt 1 and o4 = hunt 4 in
  let shrunk (o : Fuzz.Driver.outcome) =
    match o.o_shrunk with
    | Some (tc, d) -> (tc.Fuzz.Gen.tc_code, Fuzz.Oracle.pp_divergence d)
    | None -> Alcotest.fail "stride4 survived the hunt"
  in
  List.iter
    (fun (label, (o : Fuzz.Driver.outcome)) ->
      Alcotest.(check int) (label ^ ": divergence after 1 execution") 1
        o.o_execs;
      Alcotest.(check int) (label ^ ": in the first program") 1 o.o_programs;
      Alcotest.(check int) (label ^ ": shrunk to 1 instruction") 1
        (Array.length (fst (shrunk o)));
      Alcotest.(check int) (label ^ ": in 3 shrink executions") 3
        o.o_shrink_tests)
    [ ("jobs 1", o1); ("jobs 4", o4) ];
  Alcotest.(check (pair (array int64) string)) "same shrunk reproducer"
    (shrunk o1) (shrunk o4);
  Alcotest.(check bool) "same found testcase" true
    (Option.map fst o1.o_found = Option.map fst o4.o_found)

(* ----------------------------------------------------------------- *)
(* Reproducer files                                                    *)
(* ----------------------------------------------------------------- *)

let test_repro_roundtrip () =
  let spec = spec_of "tiny" in
  let cx = Fuzz.Gen.make_ctx ~isa:"tiny" spec in
  let tc = Fuzz.Gen.generate cx ~seed:5L ~index:3 in
  let cfg =
    { Fuzz.Oracle.default_config with
      mutate = Some Specsim.Synth.Stride4;
      chain = false;
      max_instrs = 512;
    }
  in
  let text = Fuzz.Repro.to_string cfg ~buildset:"block_min" tc in
  let r = Fuzz.Repro.parse text in
  Alcotest.(check bool) "testcase survives the round trip" true
    (r.Fuzz.Repro.r_tc = tc);
  Alcotest.(check (option string)) "buildset recorded" (Some "block_min")
    r.Fuzz.Repro.r_buildset;
  Alcotest.(check bool) "config survives the round trip" true
    (r.Fuzz.Repro.r_cfg = cfg);
  Alcotest.(check string) "re-rendering is byte-identical" text
    (Fuzz.Repro.to_string r.Fuzz.Repro.r_cfg
       ?buildset:r.Fuzz.Repro.r_buildset r.Fuzz.Repro.r_tc)

let test_repro_rejects_garbage () =
  List.iter
    (fun (label, text) ->
      match Fuzz.Repro.parse text with
      | exception Fuzz.Repro.Bad_repro _ -> ()
      | _ -> Alcotest.failf "%s: parse accepted a bad reproducer" label)
    [
      ("empty", "");
      ("bad header", "some-other-format v9\nend\n");
      ("no end", "lisim-fuzz-repro v1\nisa tiny\ncode 0x0\n");
      ("no code", "lisim-fuzz-repro v1\nisa tiny\nend\n");
      ( "bad mutation",
        "lisim-fuzz-repro v1\nisa tiny\nmutate nonsense\ncode 0x0\nend\n" );
    ]

(* ----------------------------------------------------------------- *)
(* Corpus replay                                                       *)
(* ----------------------------------------------------------------- *)

(* cwd is _build/default/test under `dune runtest`, the project root
   under a bare `dune exec test/main.exe`. *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let verdict_strings vs =
  List.map
    (fun (bs, d) ->
      match d with
      | None -> bs ^ ": ok"
      | Some d -> bs ^ ": " ^ Fuzz.Oracle.pp_divergence d)
    vs

(* Every checked-in reproducer must replay to its recorded verdict:
   files carrying a diverging buildset (fuzzer-found mutation kills)
   must still diverge there, files without one must be clean
   everywhere. Replay twice to pin determinism. *)
let test_corpus_replay () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun f ->
      let r = Fuzz.Repro.load ~path:(Filename.concat corpus_dir f) in
      let v1 = Fuzz.Driver.replay r in
      let v2 = Fuzz.Driver.replay r in
      Alcotest.(check (list string))
        (f ^ ": replay is deterministic")
        (verdict_strings v1) (verdict_strings v2);
      match r.Fuzz.Repro.r_buildset with
      | Some bs -> (
        match v1 with
        | (bs0, Some _) :: _ when String.equal bs0 bs -> ()
        | _ -> Alcotest.failf "%s: recorded buildset %s no longer diverges" f bs)
      | None ->
        List.iter
          (fun (bs, d) ->
            match d with
            | None -> ()
            | Some d ->
              Alcotest.failf "%s: %s unexpectedly diverges — %s" f bs
                (Fuzz.Oracle.pp_divergence d))
          v1)
    files

(* The first verdict of every diverging reproducer, word for word. The
   oracle decides by content and computes digests only to name a
   divergence, so the text, digests included, must not drift.
   skip-invalidate-arm is the corpus's only register divergence. *)
let pinned_verdicts =
  [
    ( "skip-invalidate-alpha.repro",
      "block_min: fault after 8 instruction(s): candidate fault -, reference \
       illegal instruction (encoding 0x20)" );
    ( "skip-invalidate-arm.repro",
      "block_min: regs after 64 instruction(s): register digest \
       0xba4ea42799fdf786, reference 0x3cdc97f46b147fd0" );
    ( "skip-invalidate-riscv.repro",
      "block_min: fault after 1 instruction(s): candidate fault illegal \
       instruction (encoding 0x0), reference illegal instruction (encoding \
       0x1002)" );
    ( "stale-chain-ppc.repro",
      "block_min: fault after 8 instruction(s): candidate fault illegal \
       instruction (encoding 0x0), reference illegal instruction (encoding \
       0x1020)" );
    ( "stale-chain-riscv.repro",
      "block_min: fault after 1 instruction(s): candidate fault illegal \
       instruction (encoding 0x0), reference illegal instruction (encoding \
       0x1002)" );
    ( "stride4-riscv.repro",
      "block_min: pc after 2 instruction(s): fetch pc 0x1008, reference 0x1006"
    );
    ( "stride4-tiny.repro",
      "block_min: pc after 64 instruction(s): fetch pc 0x1100, reference 0x1080"
    );
  ]

let test_corpus_verdicts_pinned () =
  let diverging =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".repro"
           && (Fuzz.Repro.load ~path:(Filename.concat corpus_dir f))
                .Fuzz.Repro.r_buildset
              <> None)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "every diverging reproducer is pinned"
    diverging (List.map fst pinned_verdicts);
  List.iter
    (fun (f, want) ->
      let r = Fuzz.Repro.load ~path:(Filename.concat corpus_dir f) in
      match Fuzz.Driver.replay r with
      | (_, Some d) :: _ ->
        Alcotest.(check string) f want (Fuzz.Oracle.pp_divergence d)
      | _ -> Alcotest.failf "%s: first verdict is clean" f)
    pinned_verdicts

(* Under Stride4 a block walks its sites 4 bytes apart, so on tiny16's
   2-byte instructions three ADDIs then SYS halt at 0x100c instead of
   0x1006, with the same registers and instruction count: only the pc
   at the halt tells the block interfaces from the reference. *)
let test_halt_pc_compared () =
  let spec = spec_of "tiny" in
  let addi = Fuzz.Tiny.addi ~ra:1 ~imm:1 ~rc:1 in
  let tc =
    {
      Fuzz.Gen.tc_isa = "tiny";
      tc_seed = 0L;
      tc_regs = [||];
      tc_mem = [||];
      tc_code = [| addi; addi; addi; Fuzz.Tiny.sys |];
    }
  in
  let cfg =
    { Fuzz.Oracle.default_config with mutate = Some Specsim.Synth.Stride4 }
  in
  let cache = Specsim.Synth.cache spec in
  List.iter
    (fun bs ->
      let want = if List.mem bs block_only then Some "pc" else None in
      Alcotest.(check (option string))
        (bs ^ ": verdict") want
        (Option.map
           (fun (d : Fuzz.Oracle.divergence) -> d.d_kind)
           (Fuzz.Oracle.run_pair spec ~cache cfg tc ~buildset:bs)))
    cfg.buildsets

(* ----------------------------------------------------------------- *)
(* The recorded reference                                              *)
(* ----------------------------------------------------------------- *)

(* Programs of the campaign seed (gen_common's convention), per ISA. *)
let seeded_programs isa ~salt n =
  let spec = spec_of isa in
  let cx = Fuzz.Gen.make_ctx ~isa spec in
  let seed = Inject.Prng.derive ~seed:(Gen_common.campaign_seed ()) ~salt in
  List.init n (fun index -> Fuzz.Gen.generate cx ~seed ~index)

(* The oracle that replays one recorded reference run to every candidate
   reads the same verdicts, word for word, as the lockstep oracle that
   ran a reference of its own beside each: healthy and defective
   engines, budgets that end in the middle of a block, crossing checks
   on and off. One record serves every candidate and configuration of a
   program, so it grows in the middle of the checks, as a campaign's
   does. The corpus's programs are checked too: they are the ones the
   defective engines diverge on. *)
let test_recorded_equals_lockstep () =
  let corpus =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort compare
    |> List.map (fun f ->
           let r = Fuzz.Repro.load ~path:(Filename.concat corpus_dir f) in
           r.Fuzz.Repro.r_tc)
  in
  let configs =
    List.concat_map
      (fun max_instrs ->
        List.concat_map
          (fun mutate ->
            List.map
              (fun check_crossings ->
                {
                  Fuzz.Oracle.default_config with
                  mutate;
                  max_instrs;
                  check_crossings;
                })
              [ true; false ])
          Specsim.Synth.
            [ None; Some Stale_chain; Some Skip_invalidate; Some Stride4 ])
      [ 37; 2048 ]
  in
  let verdict = Option.map Fuzz.Oracle.pp_divergence in
  List.iter
    (fun isa ->
      let spec = spec_of isa in
      let cache = Specsim.Synth.cache spec
      and lockstep_cache = Specsim.Synth.cache spec in
      List.iteri
        (fun p tc ->
          let record = Fuzz.Oracle.record () in
          List.iter
            (fun (cfg : Fuzz.Oracle.config) ->
              List.iter
                (fun bs ->
                  Alcotest.(check (option string))
                    (Printf.sprintf "%s program %d %s %s budget %d%s" isa p bs
                       (match cfg.mutate with
                       | Some m -> Specsim.Synth.mutation_to_string m
                       | None -> "healthy")
                       cfg.max_instrs
                       (if cfg.check_crossings then "" else " no crossings"))
                    (verdict
                       (Gen_common.lockstep_run_pair spec ~cache:lockstep_cache
                          cfg tc ~buildset:bs))
                    (verdict
                       (Fuzz.Oracle.run_pair spec ~cache ~record cfg tc
                          ~buildset:bs)))
                cfg.buildsets)
            configs)
        (seeded_programs isa ~salt:27 2
        @ List.filter (fun (tc : Fuzz.Gen.testcase) -> tc.tc_isa = isa) corpus))
    isas

(* Field by field, what the oracle compares of the reference. *)
let check_same_state label (sh : Machine.State.t) (live : Machine.State.t) =
  let check_bool what = Alcotest.(check bool) (label ^ ": " ^ what) true in
  check_bool "registers" (Machine.Regfile.equal sh.regs live.regs);
  check_bool "memory" (Machine.Memory.equal_contents sh.mem live.mem);
  Alcotest.(check int64)
    (label ^ ": memory digest")
    (Machine.Memory.digest live.mem)
    (Machine.Memory.digest sh.mem);
  Alcotest.(check int64) (label ^ ": pc") live.pc sh.pc;
  Alcotest.(check int64) (label ^ ": count") live.instr_count sh.instr_count;
  Alcotest.(check bool) (label ^ ": halted") live.halted sh.halted;
  Alcotest.(check string)
    (label ^ ": fault")
    (Fuzz.Oracle.fault_str live)
    (Fuzz.Oracle.fault_str sh);
  Alcotest.(check int64)
    (label ^ ": state digest")
    (Machine.Checkpoint.digest live)
    (Machine.Checkpoint.digest sh)

(* tiny16 programs that hold between them what a record must carry: a
   store into the code the program runs next, a store straddling a page,
   a syscall that returns and one that exits, and a halt on an illegal
   instruction. *)
let tiny_programs =
  let open Fuzz.Tiny in
  let illegal = 0xE000L in
  let tc regs code =
    {
      Fuzz.Gen.tc_isa = "tiny";
      tc_seed = 0L;
      tc_regs = regs;
      tc_mem = [| (0x4FF8L, 0x1122334455667788L) |];
      tc_code = code;
    }
  in
  (* the store at 0x1000 writes "R1 = 42; sys" over the two illegal
     words at 0x1008, which the exit then runs *)
  let patch =
    Int64.logor (addi ~ra:7 ~imm:42 ~rc:1) (Int64.shift_left sys 16)
  in
  [
    ( "store into code, syscalls, exit",
      tc
        [| (0, 1, 0x1000L); (0, 2, patch) |]
        [|
          stw ~ra:1 ~rb:2 ~imm:8;
          addi ~ra:7 ~imm:5 ~rc:0;
          sys;
          addi ~ra:7 ~imm:0 ~rc:0;
          illegal;
          illegal;
        |] );
    ( "straddling store, illegal instruction",
      tc
        [| (0, 3, 0x4FFEL); (0, 2, 0x0BADF00DL) |]
        [|
          stw ~ra:3 ~rb:2 ~imm:0;
          ldw ~ra:3 ~imm:0 ~rc:4;
          add ~ra:4 ~rb:2 ~rc:5;
          stw ~ra:3 ~rb:5 ~imm:1;
          illegal;
        |] );
  ]

(* After every unit, the halting one included, a shadow replaying the
   record holds what a live step_all reference holds after as many
   units of its own. *)
let test_shadow_replays_reference () =
  let cfg = Fuzz.Oracle.default_config in
  let replay_all label spec tc =
    let cache = Specsim.Synth.cache spec in
    let r = Fuzz.Oracle.record () in
    let sh = Fuzz.Oracle.shadow spec ~cache cfg r tc in
    let live =
      Fuzz.Oracle.driver
        (Fuzz.Oracle.boot spec tc ~buildset:cfg.reference ~chain:true
           ~site_cache:true ())
    in
    let lst = live.iface.st in
    check_same_state (label ^ " at boot") sh.sh_st lst;
    let k = ref 0 in
    while (not lst.halted) && !k < 2 * cfg.max_instrs do
      let n = Fuzz.Oracle.advance live in
      let m = Fuzz.Oracle.replay sh in
      incr k;
      let at = Printf.sprintf "%s unit %d" label !k in
      Alcotest.(check int) (at ^ ": retired") n m;
      check_same_state at sh.sh_st lst
    done;
    lst
  in
  let faults =
    List.map
      (fun (label, tc) ->
        let st = replay_all ("tiny " ^ label) (spec_of "tiny") tc in
        Alcotest.(check bool) (label ^ ": halts") true st.halted;
        Fuzz.Oracle.fault_str st)
      tiny_programs
  in
  Alcotest.(check (list string))
    "tiny16 programs halt by exit and by an illegal instruction"
    [ "exit(42)"; "illegal instruction (encoding 0xe000)" ]
    faults;
  List.iter
    (fun isa ->
      List.iteri
        (fun p tc ->
          let label = Printf.sprintf "%s program %d" isa p in
          ignore (replay_all label (spec_of isa) tc))
        (seeded_programs isa ~salt:28 3))
    isas

(* A record boots the reference once for all twelve candidates of a
   program, and runs it only as far as a candidate asks: a candidate
   that diverges after k instructions leaves it at most k + 1 units in,
   where the lockstep oracle's reference would have stopped. *)
let test_reference_once () =
  List.iter
    (fun isa ->
      let spec = spec_of isa in
      let cache = Specsim.Synth.cache spec in
      List.iter
        (fun tc ->
          let r = Fuzz.Oracle.record () in
          List.iter
            (fun bs ->
              ignore
                (Fuzz.Oracle.run_pair spec ~cache ~record:r
                   Fuzz.Oracle.default_config tc ~buildset:bs))
            Fuzz.Oracle.default_config.buildsets;
          Alcotest.(check int) (isa ^ ": one reference boot") 1 r.r_boots;
          Alcotest.(check bool)
            (isa ^ ": no further than the budget")
            true
            (r.r_units <= Fuzz.Oracle.default_config.max_instrs + 64 + 1))
        (seeded_programs isa ~salt:29 2))
    isas;
  (* stride4 diverges after 2 instructions on tiny16's block interfaces:
     in a first block "R0 = 5; branch", 4-byte strides put the branch at
     0x1004 and its target at 0x1006 *)
  let spec = spec_of "tiny" in
  let tc =
    {
      Fuzz.Gen.tc_isa = "tiny";
      tc_seed = 0L;
      tc_regs = [||];
      tc_mem = [||];
      tc_code =
        Fuzz.Tiny.
          [|
            addi ~ra:7 ~imm:5 ~rc:0;
            beqz ~ra:7 ~off:0;
            sys;
            addi ~ra:7 ~imm:1 ~rc:0;
          |];
    }
  in
  let cfg =
    { Fuzz.Oracle.default_config with mutate = Some Specsim.Synth.Stride4 }
  in
  let cache = Specsim.Synth.cache spec in
  let r = Fuzz.Oracle.record () in
  (match
     Fuzz.Oracle.run_pair spec ~cache ~record:r cfg tc ~buildset:"block_min"
   with
  | Some d ->
    Alcotest.(check string) "stride4 diverges on the pc" "pc" d.d_kind;
    Alcotest.(check bool)
      (Printf.sprintf "reference %d unit(s) in, divergence after %Ld" r.r_units
         d.d_retired)
      true
      (r.r_units <= Int64.to_int d.d_retired + 1)
  | None -> Alcotest.fail "stride4 survived block_min");
  (* A reference that raises raises for every candidate that reaches the
     unit where it did, and for no other: here its syscall, unit 2,
     which the block candidates never reach. *)
  let r = Fuzz.Oracle.record () in
  (* a shadow starts the record, booting the reference *)
  ignore (Fuzz.Oracle.shadow spec ~cache cfg r tc);
  (match r.r_ref with
  | Some d ->
    d.iface.st.syscall_handler <- (fun _ -> failwith "reference syscall")
  | None -> Alcotest.fail "record did not boot its reference");
  List.iter
    (fun bs ->
      let got =
        match
          Fuzz.Oracle.run_pair spec ~cache ~record:r cfg tc ~buildset:bs
        with
        | Some d -> d.d_kind
        | None -> "ok"
        | exception Failure m -> m
      in
      Alcotest.(check string)
        (bs ^ ": verdict")
        (if List.mem bs block_only then "pc" else "reference syscall")
        got)
    cfg.buildsets;
  Alcotest.(check int) "raising reference booted once" 1 r.r_boots;
  Alcotest.(check int) "raising reference recorded up to its syscall" 2
    r.r_units;
  (* a reference that fails to boot fails the same way for every
     candidate, booted once *)
  let cfg =
    { Fuzz.Oracle.default_config with reference = "no_such_interface" }
  in
  let r = Fuzz.Oracle.record () in
  let errors =
    List.map
      (fun bs ->
        match
          Fuzz.Oracle.run_pair spec ~cache ~record:r cfg tc ~buildset:bs
        with
        | _ -> "no error"
        | exception e -> Printexc.to_string e)
      cfg.buildsets
  in
  Alcotest.(check int) "failed boot attempted once" 1 r.r_boots;
  Alcotest.(check int) "every candidate raises" 1
    (List.length (List.sort_uniq compare errors));
  Alcotest.(check bool) "it is the boot's error" false
    (List.mem "no error" errors)

(* A record keeps one shadow machine for all twelve candidates of a
   program and resets it from the program's image before each one. After
   every candidate, the reset shadow holds what a machine freshly loaded
   with the image holds, page for page: the stores a replay made, into
   code, across a page or onto a page the image lacks, leave no trace. *)
let test_reused_shadow () =
  let cfg = Fuzz.Oracle.default_config in
  let pages (st : Machine.State.t) =
    Machine.Memory.fold_pages st.mem ~init:[] ~f:(fun acc idx _ -> idx :: acc)
  in
  let check label spec tc =
    let cache = Specsim.Synth.cache spec and r = Fuzz.Oracle.record () in
    let fresh = Lis.Spec.make_machine spec in
    Fuzz.Oracle.load_image spec (Specsim.Synth.decoder cache) tc fresh;
    List.iter
      (fun bs ->
        ignore (Fuzz.Oracle.run_pair spec ~cache ~record:r cfg tc ~buildset:bs);
        let sh = Fuzz.Oracle.shadow spec ~cache cfg r tc in
        let at = Printf.sprintf "%s, reset after %s" label bs in
        check_same_state at sh.sh_st fresh;
        Alcotest.(check (list int)) (at ^ ": pages") (pages fresh)
          (pages sh.sh_st))
      cfg.buildsets
  in
  List.iter
    (fun (label, tc) -> check ("tiny " ^ label) (spec_of "tiny") tc)
    tiny_programs;
  List.iter
    (fun isa ->
      List.iteri
        (fun p tc -> check (Printf.sprintf "%s program %d" isa p) (spec_of isa) tc)
        (seeded_programs isa ~salt:28 3))
    isas

let suite =
  [
    QCheck_alcotest.to_alcotest prop_generated_words_decode;
    Alcotest.test_case "generator is deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "healthy engines agree (all ISAs)" `Slow
      test_healthy_no_divergence;
    Alcotest.test_case "healthy with caches disabled" `Quick
      test_healthy_caches_off;
    Alcotest.test_case "mutation kill: skip-invalidate" `Slow
      test_kill_skip_invalidate;
    Alcotest.test_case "mutation kill: stale-chain" `Slow test_kill_stale_chain;
    Alcotest.test_case "mutation kill: stride4 (tiny16 only)" `Quick
      test_kill_stride4;
    Alcotest.test_case "reproducer round trip" `Quick test_repro_roundtrip;
    Alcotest.test_case "reproducer rejects garbage" `Quick
      test_repro_rejects_garbage;
    Alcotest.test_case "corpus replays to recorded verdicts" `Quick
      test_corpus_replay;
    Alcotest.test_case "hunt: same outcome at pool sizes 1 and 4" `Quick
      test_hunt_pool_parity;
    Alcotest.test_case "corpus verdicts read as pinned" `Quick
      test_corpus_verdicts_pinned;
    Alcotest.test_case "oracle compares the pc at a halt" `Quick
      test_halt_pc_compared;
    Alcotest.test_case "recorded reference = lockstep reference" `Slow
      test_recorded_equals_lockstep;
    Alcotest.test_case "shadow replays the reference" `Quick
      test_shadow_replays_reference;
    Alcotest.test_case "the reference runs once per program" `Quick
      test_reference_once;
    Alcotest.test_case "a reused shadow leaves no trace" `Quick
      test_reused_shadow;
  ]
