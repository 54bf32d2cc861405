(** lisim — command-line front end for the LIS toolchain.

    - [lisim list] shows the built-in ISAs, their buildsets and kernels.
    - [lisim check FILES...] parses and analyzes LIS description files.
    - [lisim emit] prints the synthesized OCaml for one interface.
    - [lisim run] executes a benchmark kernel through an interface
      (watchdog-guarded: budget, wall clock and spin detection);
      [--stats] compiles instrumentation in, [--trace-out] exports the
      event ring (JSONL or Perfetto-loadable Chrome trace JSON).
    - [lisim stats] runs the full instrumented profile and prints the
      counter/histogram table.
    - [lisim profile] runs a kernel through a profile-only interface and
      prints regions ranked by exact instruction counts; [--flame-out]
      exports a speedscope flame view of the region transition graph.
    - [lisim trace] prints the interface-visible information per
      instruction (text, JSONL or Chrome trace format).
    - [lisim validate] runs the rotating-interface validation (§V-D).
    - [lisim inject] runs a deterministic fault-injection campaign and
      reports detection coverage, latency and recovery statistics.
    - [lisim fuzz] runs the differential conformance fuzzer: spec-derived
      programs through all twelve interfaces in lockstep against the
      Step/All reference, with shrinking reproducers on divergence.

    Structured simulator errors ({!Machine.Sim_error}) are rendered as
    diagnostics with a per-component exit code, never as backtraces. *)

open Cmdliner

let isa_arg =
  let doc = "Instruction set: alpha, arm, ppc or riscv." in
  Arg.(value & opt string "alpha" & info [ "isa" ] ~docv:"ISA" ~doc)

let buildset_arg =
  let doc =
    "Interface buildset, e.g. one_all, block_min, step_all_spec. Canonical \
     names are <block|one|step>_<min|decode|all>[_spec]."
  in
  Arg.(value & opt string "one_all" & info [ "buildset"; "b" ] ~docv:"NAME" ~doc)

let kernel_arg =
  let doc =
    "Benchmark kernel: vec_sum, list_chase, matmul, sort, hash_loop, str_ops \
     (plus pathological watchdog workloads: spin, count_forever)."
  in
  Arg.(value & opt string "sort" & info [ "kernel"; "k" ] ~docv:"KERNEL" ~doc)

(* Exact kernel name, or a unique prefix ("hash" resolves to hash_loop). *)
let find_kernel name =
  let all = Vir.Kernels.bench_suite @ Vir.Kernels.pathological in
  match
    List.find_opt (fun (k : Vir.Kernels.sized) -> String.equal k.kname name) all
  with
  | Some k -> k
  | None -> (
    let is_prefix (k : Vir.Kernels.sized) =
      String.length name < String.length k.kname
      && String.equal (String.sub k.kname 0 (String.length name)) name
    in
    match List.filter is_prefix all with
    | [ k ] -> k
    | [] ->
      Machine.Sim_error.raisef ~component:"cli"
        ~context:[ ("kernel", name) ]
        "unknown kernel"
    | ks ->
      Machine.Sim_error.raisef ~component:"cli"
        ~context:
          [ ("kernel", name);
            ( "candidates",
              String.concat ", "
                (List.map (fun (k : Vir.Kernels.sized) -> k.kname) ks) ) ]
        "ambiguous kernel prefix")

(* ---------------- observability helpers -------------------------- *)

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Compile instrumentation into the run and print the \
           counter/histogram table afterwards (see 'lisim stats').")

let format_arg ~default =
  let doc =
    "Trace output format: $(b,text), $(b,jsonl) (one JSON object per \
     event) or $(b,chrome) (trace-event JSON, loadable in Perfetto / \
     chrome://tracing)."
  in
  Arg.(
    value
    & opt (enum [ ("text", "text"); ("jsonl", "jsonl"); ("chrome", "chrome") ]) default
    & info [ "format" ] ~docv:"FMT" ~doc)

let trace_cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-cap" ] ~docv:"N"
        ~doc:
          "Capacity of the trace event ring, in events (default 65536 for \
           'run --trace-out'; the traced instruction count for 'trace'). \
           Most recent events win when the ring wraps.")

let validate_trace_cap = function
  | Some n when n <= 0 ->
    Machine.Sim_error.raisef ~component:"cli"
      ~context:[ ("trace-cap", string_of_int n) ]
      "--trace-cap must be positive"
  | _ -> ()

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write periodic metrics snapshots to FILE: a JSONL time series of \
           every registry counter and histogram (plus profiler top-N \
           regions when one is attached), one line per interval, each line \
           flushed durably.")

let metrics_interval_arg =
  Arg.(
    value & opt int 1000
    & info [ "metrics-interval" ] ~docv:"MS"
        ~doc:
          "Wall-clock interval between metrics snapshots in milliseconds \
           (with --metrics-out). 0 snapshots at every opportunity.")

let open_metrics metrics_out ~interval_ms =
  match metrics_out with
  | None -> None
  | Some path ->
    if interval_ms < 0 then
      Machine.Sim_error.raisef ~component:"cli"
        ~context:[ ("metrics-interval", string_of_int interval_ms) ]
        "--metrics-interval must be non-negative";
    Some (Obs.Metrics.open_ ~interval_ms ~path ())

(* Final snapshot + close, with a one-line receipt so scripts can find
   the series. *)
let close_metrics metrics (o : Obs.t) =
  match metrics with
  | None -> ()
  | Some m ->
    Obs.metrics_close m o;
    Printf.printf "wrote %d metrics snapshot(s) to %s\n" (Obs.Metrics.seq m)
      (Obs.Metrics.path m)

let write_out out contents =
  match out with
  | None -> print_string contents
  | Some path ->
    let oc = open_out path in
    output_string oc contents;
    close_out oc

(* ---------------- parallelism ------------------------------------ *)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Campaign parallelism: spread independent cases over N domains. \
           Defaults to the LISIM_JOBS environment variable, then to the \
           host's recommended domain count. $(b,--jobs 1) runs the same \
           driver on the calling domain, with no domain spawned; results \
           (quarantined reproducers, merged counter totals) are identical \
           at every N.")

let resolve_jobs jobs =
  let bad what v =
    Machine.Sim_error.raisef ~component:"cli" ~context:[ (what, v) ]
      "%s must be a positive integer" what
  in
  match jobs with
  | Some n -> if n <= 0 then bad "--jobs" (string_of_int n) else n
  | None -> (
    match Sys.getenv_opt "LISIM_JOBS" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> bad "LISIM_JOBS" s)
    | None -> Domain.recommended_domain_count ())

let print_counters (o : Obs.t) =
  Format.printf "%a@?" Obs.Export.pp_snapshot (Obs.snapshot o)

(* Generic one-line-per-event text rendering (run --trace-out). *)
let text_of_events (events : Obs.Ring.event list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (e : Obs.Ring.event) ->
      Printf.bprintf b "%Ld %8d %-8s %-12s%s\n" e.ts_ns e.dur_ns e.cat e.name
        (String.concat ""
           (List.map
              (fun (k, v) ->
                Printf.sprintf " %s=%s" k
                  (match v with
                  | Obs.Ring.I i -> Printf.sprintf "0x%Lx" i
                  | Obs.Ring.S s -> s
                  | Obs.Ring.F f -> Printf.sprintf "%g" f))
              e.args)))
    events;
  Buffer.contents b

let events_to_string format events =
  match format with
  | "jsonl" -> Obs.Export.jsonl_of_events events
  | "chrome" -> Obs.Export.to_string (Obs.Export.chrome_of_events events) ^ "\n"
  | _ -> text_of_events events

(* Auxiliary profile passes behind [lisim stats] and [run --stats].
   When the primary buildset is not block-semantic, the kernel runs once
   more through a block interface so the block-cache and fused-closure
   counters are live; then a short timing-first checked window drives
   the checker.* and timing.* families. All passes share the primary
   registry (true counters aggregate; gauges are first-registration-wins,
   so the primary interface keeps the shared "core.*" names), making the
   printed table one aggregate profile of the kernel. *)
let profile_aux_passes (o : Obs.t) (t : Workload.target)
    (k : Vir.Kernels.sized) ~buildset ~budget =
  (* counters only — auxiliary passes must not pollute the trace ring *)
  let aux = { o with Obs.ring = None } in
  let spec = Lazy.force t.spec in
  let names = Lis.Spec.buildset_names spec in
  let is_block bs =
    String.length bs >= 5 && String.equal (String.sub bs 0 5) "block"
  in
  (if not (is_block buildset) then
     match List.find_opt is_block names with
     | Some bbs ->
       let lb = Workload.load ~obs:aux t ~buildset:bbs k.program in
       ignore (Specsim.Iface.run_n lb.iface budget)
     | None -> ());
  if List.mem "one_min" names then begin
    let lt = Workload.load t ~buildset:"one_min" k.program in
    let lc = Workload.load t ~buildset:"one_min" k.program in
    ignore
      (Timing.Timingfirst.run ~obs:aux ~timing:lt.iface ~checker:lc.iface
         ~budget:(min budget 50_000) ())
  end;
  (* a short supervised degradation window drives the super.* family *)
  let stats = Super.Supervisor.of_registry o.Obs.reg in
  let session =
    Super.Degrade.create ~stats ~spec ~buildset
      ~load:(fun st -> ignore (Workload.load_image t k.program st))
      ()
  in
  ignore (Super.Degrade.run ~budget:(min budget 20_000) session)

let parse_mutation m =
  match Specsim.Synth.mutation_of_string m with
  | Some m -> m
  | None ->
    Machine.Sim_error.raisef ~component:"cli" ~context:[ ("mutation", m) ]
      "unknown mutation (expected stale-chain, skip-invalidate or stride4)"

(* ---------------- list ------------------------------------------- *)

let list_cmd =
  let run () =
    Printf.printf "ISAs:\n";
    List.iter
      (fun (t : Workload.target) ->
        let spec = Lazy.force t.spec in
        Printf.printf "  %-6s %3d instructions, %d register classes, %s-endian\n"
          t.tname
          (Array.length spec.instrs)
          (Array.length spec.reg_classes)
          (match spec.endian with Machine.Memory.Little -> "little" | Big -> "big");
        Printf.printf "    buildsets: %s\n"
          (String.concat ", " (Lis.Spec.buildset_names spec)))
      Workload.targets;
    Printf.printf "Kernels: %s\n"
      (String.concat ", "
         (List.map (fun (k : Vir.Kernels.sized) -> k.kname) Vir.Kernels.bench_suite));
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in ISAs, buildsets and kernels.")
    Term.(const run $ const ())

(* ---------------- check ------------------------------------------ *)

let role_of_filename f =
  let base = Filename.basename f in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length base && (String.sub base i n = sub || go (i + 1))
    in
    go 0
  in
  if has "buildset" then Lis.Ast.Buildset_file
  else if has "os" then Lis.Ast.Os_support
  else Lis.Ast.Isa_description

(* One lintable unit: a name plus the sources that form one spec. *)
let builtin_unit = function
  | "alpha" -> ("alpha", Isa_alpha.Alpha.sources)
  | "arm" -> ("arm", Isa_arm.Arm.sources)
  | "ppc" -> ("ppc", Isa_ppc.Ppc.sources)
  | "riscv" -> ("riscv", Isa_riscv.Riscv.sources)
  | "demo" -> ("demo", Demo_isa.sources)
  | name ->
    Machine.Sim_error.raisef ~component:"cli" ~context:[ ("isa", name) ]
      "unknown built-in ISA (expected alpha, arm, ppc, riscv, demo or all)"

(* Directories expand to the .lis files inside them (sorted), so
   [lisim check examples] lints everything shipped there as one spec. *)
let expand_lis_files paths =
  List.concat_map
    (fun p ->
      if Sys.is_directory p then
        Sys.readdir p |> Array.to_list |> List.sort compare
        |> List.filter (fun f -> Filename.check_suffix f ".lis")
        |> List.map (Filename.concat p)
      else [ p ])
    paths

let read_source f =
  let ic = open_in_bin f in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  { Lis.Ast.src_role = role_of_filename f; src_name = f; src_text = text }

(* Lint one unit; returns its diagnostics plus the resolved spec (for
   consumers like --suggest-buildset that need more than diagnostics).
   Resolution errors from the accumulating front end become L001
   diagnostics so text and JSON consumers see one uniform stream. *)
let lint_unit ~flags (sources : Lis.Ast.source list) :
    Analysis.Diag.t list * Lis.Spec.t option =
  match Lis.Sema.load_all sources with
  | Error errs ->
    ( List.map
        (fun (span, msg) ->
          Analysis.Diag.make ~code:"L001" ~pass:"sema"
            ~severity:Analysis.Diag.Error span "%s" msg)
        errs,
      None )
  | Ok spec -> (
    match Analysis.Lint.run ~flags spec with
    | Ok diags -> (diags, Some spec)
    | Error msg ->
      Machine.Sim_error.raisef ~component:"cli" "%s" msg)

let check_cmd =
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILES"
          ~doc:
            "LIS description files forming one specification, or \
             directories containing them (roles inferred from names: *os* \
             = OS support, *buildset* = buildsets).")
  in
  let builtin =
    Arg.(
      value
      & opt (some string) None
      & info [ "builtin" ] ~docv:"ISA"
          ~doc:"Lint a built-in description: alpha, arm, ppc, riscv, demo or all.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit diagnostics as JSON: an array with one report object \
             per linted specification.")
  in
  let warn_flags =
    Arg.(
      value & opt_all string []
      & info [ "W" ] ~docv:"PASS"
          ~doc:
            "Select analysis passes: $(b,-W) $(i,PASS) enables one, \
             $(b,-Wno-)$(i,PASS) disables one, $(b,-W) $(b,all) / \
             $(b,-Wno-all) everything (processed left to right). Passes: \
             decoder, defuse, deadstate, rollback, width, buildset, \
             effect, visibility, journal, coverage (coverage is off by \
             default).")
  in
  let sarif =
    Arg.(
      value & flag
      & info [ "sarif" ]
          ~doc:
            "Emit diagnostics as a SARIF 2.1.0 document (one run per \
             linted specification) for CI annotation. Takes precedence \
             over --json.")
  in
  let suggest =
    Arg.(
      value & flag
      & info [ "suggest-buildset" ]
          ~doc:
            "Instead of diagnostics, print re-parseable LIS text for \
             every buildset whose visible set can be tightened to what \
             its entrypoint crossings (and, under speculation, its \
             cross-instruction carriers) actually require.")
  in
  let run files builtin json sarif suggest flags =
    try
      let units =
        (match files with
        | [] -> []
        | fs ->
          let expanded = expand_lis_files fs in
          let name =
            match expanded with
            | [ f ] -> Filename.basename f
            | f :: _ -> Filename.basename (Filename.dirname f)
            | [] -> "files"
          in
          [ (name, List.map read_source expanded) ])
        @
        match builtin with
        | None -> []
        | Some "all" -> List.map builtin_unit [ "alpha"; "arm"; "ppc"; "riscv"; "demo" ]
        | Some isa -> [ builtin_unit isa ]
      in
      if units = [] then begin
        prerr_endline "lisim check: nothing to check (give FILES or --builtin)";
        2
      end
      else begin
        let reports =
          List.map
            (fun (name, sources) ->
              let diags, spec = lint_unit ~flags sources in
              (name, diags, spec))
            units
        in
        let pairs = List.map (fun (n, ds, _) -> (n, ds)) reports in
        (if suggest then
           List.iter
             (fun (name, _, spec) ->
               match spec with
               | None ->
                 Printf.printf
                   "// %s: specification did not resolve; fix errors first\n"
                   name
               | Some spec ->
                 let sums = Analysis.Absint.summarize spec in
                 let any = ref false in
                 Array.iter
                   (fun (bs : Lis.Spec.buildset) ->
                     match Analysis.Absint.suggest_buildset spec sums bs with
                     | None -> ()
                     | Some text ->
                       any := true;
                       Printf.printf "// %s: tightened from '%s'\n%s\n" name
                         bs.bs_name text)
                   spec.buildsets;
                 if not !any then
                   Printf.printf "// %s: every buildset is already minimal\n"
                     name)
             reports
         else if sarif then
           print_endline (Analysis.Diag.sarif_report ~units:pairs)
         else if json then begin
           print_string "[";
           List.iteri
             (fun i (name, diags) ->
               if i > 0 then print_string ",";
               print_string
                 (Analysis.Diag.json_report ~unit_name:name diags))
             pairs;
           print_endline "]"
         end
         else
           List.iter
             (fun (name, diags) ->
               List.iter
                 (fun d -> Format.printf "%a@." Analysis.Diag.pp d)
                 diags;
               let e, w, n = Analysis.Diag.counts diags in
               if e + w + n = 0 then Printf.printf "%s: clean\n" name
               else
                 Printf.printf "%s: %d error(s), %d warning(s), %d note(s)\n"
                   name e w n)
             pairs);
        if List.exists (fun (_, ds) -> Analysis.Diag.has_errors ds) pairs
        then 1
        else 0
      end
    with Sys_error e ->
      prerr_endline e;
      1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically analyze LIS description files (lislint): decoder \
          soundness, def-before-use, dead state, rollback safety, \
          width/constant checks and buildset legality, with stable \
          diagnostic codes. Exits non-zero if any error-severity \
          diagnostic is produced.")
    Term.(const run $ files $ builtin $ json $ sarif $ suggest $ warn_flags)

(* ---------------- emit ------------------------------------------- *)

let emit_cmd =
  let run isa buildset =
    let t = Workload.find_target isa in
    let spec = Lazy.force t.spec in
    print_string (Specsim.Emit.buildset_to_ocaml spec buildset);
    0
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:"Print the synthesized OCaml source for one interface of a built-in ISA.")
    Term.(const run $ isa_arg $ buildset_arg)

(* ---------------- run -------------------------------------------- *)

let run_cmd =
  let max_instrs =
    Arg.(
      value
      & opt int 1_000_000_000
      & info [ "max-instructions" ] ~docv:"N"
          ~doc:"Watchdog: halt after N retired instructions.")
  in
  let max_seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:"Watchdog: halt after S wall-clock seconds.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Buffer per-instruction trace events in the observability ring \
             and write them to FILE at the end of the run (format per \
             --format; most recent events win when the ring wraps).")
  in
  let no_chain =
    Arg.(
      value & flag
      & info [ "no-chain" ]
          ~doc:
            "Disable direct block chaining: every block dispatch probes the \
             block hash table (the pre-translation-cache behaviour, for A/B \
             comparison).")
  in
  let no_site_cache =
    Arg.(
      value & flag
      & info [ "no-site-cache" ]
          ~doc:
            "Disable the shared (instruction, encoding) site cache, the \
             per-site memory fast paths and the sharing of compiled code \
             through the synthesis cache: every block compiles its own \
             sites, and a Step interface compiles its own per-segment code, \
             without the fast paths (the pre-translation-cache behaviour, \
             for A/B comparison).")
  in
  let supervised =
    Arg.(
      value & flag
      & info [ "supervised" ]
          ~doc:
            "Run under the supervised execution runtime: a step_all shadow \
             verifies every slice, and engine misbehaviour demotes the \
             interface down the chain / site-cache / step_all ladder \
             instead of aborting.")
  in
  let mutate_r =
    Arg.(
      value & opt (some string) None
      & info [ "mutate" ] ~docv:"MUTATION"
          ~doc:
            "With --supervised: seed a deliberate engine defect \
             (stale-chain, skip-invalidate or stride4) to exercise the \
             demotion ladder.")
  in
  let run_supervised (t : Workload.target) (k : Vir.Kernels.sized) ~buildset
      ~budget ~deadline ~mutate ~chain ~site_cache (obs : Obs.t option) =
    let spec = Lazy.force t.spec in
    let stats = Option.map (fun (o : Obs.t) -> Super.Supervisor.of_registry o.Obs.reg) obs in
    let oses = ref [] in
    let load st = oses := (st, Workload.load_image t k.program st) :: !oses in
    let session =
      Super.Degrade.create ?obs ?stats ?mutate ~chain ~site_cache ~spec
        ~buildset ~load ()
    in
    let r = Super.Degrade.run ?deadline ~budget session in
    let sst = Super.Degrade.shadow_state session in
    let code =
      match Machine.State.exit_status sst with
      | Some s ->
        let output =
          match List.assq_opt sst !oses with
          | Some os -> Machine.Os_emu.output os
          | None -> ""
        in
        Printf.printf "%s on %s/%s (supervised): exit=%d output=%S\n" k.kname
          t.Workload.tname buildset (s land 0xff) output;
        0
      | None ->
        Printf.printf "%s on %s/%s (supervised): %s%s\n" k.kname
          t.Workload.tname buildset
          (if r.Super.Degrade.r_halted then "halted without exit status"
           else "instruction budget exhausted before halt")
          (match sst.fault with
          | Some f -> " (" ^ Machine.Fault.to_string f ^ ")"
          | None -> "");
        1
    in
    Printf.printf
      "supervision: level=%s demotions=%d replays=%d verified slices=%d \
       instructions=%Ld digest=0x%Lx\n"
      r.Super.Degrade.r_final_level r.Super.Degrade.r_demotions
      r.Super.Degrade.r_replays r.Super.Degrade.r_slices
      r.Super.Degrade.r_instructions r.Super.Degrade.r_digest;
    code
  in
  let run isa buildset kernel max_instructions max_seconds stats trace_out
      trace_cap format no_chain no_site_cache supervised mutate
      metrics_out metrics_interval =
    let t = Workload.find_target isa in
    let k = find_kernel kernel in
    let mutate = Option.map parse_mutation mutate in
    validate_trace_cap trace_cap;
    let obs =
      if stats || trace_out <> None || metrics_out <> None then
        Some
          (Obs.create ~trace:(trace_out <> None)
             ?ring_capacity:(if trace_out <> None then trace_cap else None)
             ())
      else None
    in
    let metrics = open_metrics metrics_out ~interval_ms:metrics_interval in
    if supervised then begin
      let deadline =
        Option.map (fun s -> Unix.gettimeofday () +. s) max_seconds
      in
      let code =
        run_supervised t k ~buildset ~budget:max_instructions ~deadline ~mutate
          ~chain:(not no_chain) ~site_cache:(not no_site_cache) obs
      in
      (match obs with Some o when stats -> print_counters o | _ -> ());
      (match obs with Some o -> close_metrics metrics o | None -> ());
      code
    end
    else begin
    (match mutate with
    | Some _ ->
      Machine.Sim_error.raisef ~component:"cli"
        "--mutate requires --supervised (a seeded defect without the \
         supervising shadow would just corrupt the run)"
    | None -> ());
    let l =
      Workload.load ~chain:(not no_chain) ~site_cache:(not no_site_cache) ?obs
        t ~buildset k.program
    in
    let on_slice =
      match (metrics, obs) with
      | Some m, Some o -> Some (fun () -> Obs.metrics_tick m o)
      | _ -> None
    in
    let t0 = Unix.gettimeofday () in
    Inject.Watchdog.run_guarded
      ~config:{ max_instructions; max_seconds; deadline = None; check_interval = 4096 }
      ?on_slice l.iface;
    let dt = Unix.gettimeofday () -. t0 in
    let code =
      match Machine.State.exit_status l.iface.st with
      | Some s ->
        Printf.printf "%s on %s/%s: exit=%d output=%S\n" k.kname isa buildset
          (s land 0xff)
          (Machine.Os_emu.output l.os);
        Printf.printf "%Ld instructions in %.3f s (%.2f MIPS)\n"
          l.iface.st.instr_count dt
          (Int64.to_float l.iface.st.instr_count /. dt /. 1e6);
        0
      | None ->
        Printf.printf "%s on %s/%s: halted without exit status%s\n" k.kname isa
          buildset
          (match l.iface.st.fault with
          | Some f -> " (" ^ Machine.Fault.to_string f ^ ")"
          | None -> "");
        1
    in
    (match obs with
    | None -> ()
    | Some o ->
      if stats then begin
        profile_aux_passes o t k ~buildset ~budget:(min max_instructions 200_000);
        print_counters o
      end;
      (match trace_out with
      | None -> ()
      | Some path ->
        let events = Obs.events o in
        write_out (Some path) (events_to_string format events);
        Printf.printf "wrote %d trace events to %s (%s)\n" (List.length events)
          path format);
      close_metrics metrics o);
    code
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a benchmark kernel through one interface (watchdog-guarded). \
          With --stats the interface is synthesized with instrumentation \
          compiled in; with --trace-out the event ring is exported.")
    Term.(
      const run $ isa_arg $ buildset_arg $ kernel_arg $ max_instrs
      $ max_seconds $ stats_flag $ trace_out $ trace_cap_arg
      $ format_arg ~default:"chrome" $ no_chain $ no_site_cache $ supervised
      $ mutate_r $ metrics_out_arg $ metrics_interval_arg)

(* ---------------- profile ----------------------------------------- *)

let profile_cmd =
  let budget =
    Arg.(
      value
      & opt int 5_000_000
      & info [ "budget" ] ~docv:"N"
          ~doc:"Instruction budget (profiling stops here if the kernel has \
                not exited).")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Rows in the hot-region table.")
  in
  let flame_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame-out" ] ~docv:"FILE"
          ~doc:
            "Write a speedscope JSON document to FILE: a flame view of the \
             region transition graph plus per-region instruction weights \
             (load at speedscope.app).")
  in
  let regions =
    Arg.(
      value & opt int 64
      & info [ "regions" ] ~docv:"BYTES"
          ~doc:"Region granularity in bytes (a power of two).")
  in
  let run isa buildset kernel budget top flame_out regions =
    let t = Workload.find_target isa in
    let k = find_kernel kernel in
    if regions <= 0 || regions land (regions - 1) <> 0 then
      Machine.Sim_error.raisef ~component:"cli"
        ~context:[ ("regions", string_of_int regions) ]
        "--regions must be a positive power of two";
    let rec log2 v = if v <= 1 then 0 else 1 + log2 (v lsr 1) in
    let prof = Obs.Prof.create ~region_bits:(log2 regions) () in
    let o = Obs.profile_only ~prof () in
    (* profile-only context: the interface keeps its chained fast path,
       paying one cached-region attribution per block/retirement *)
    let l = Workload.load ~obs:o t ~buildset k.program in
    let t0 = Unix.gettimeofday () in
    ignore (Specsim.Iface.run_n l.iface budget);
    let dt = Unix.gettimeofday () -. t0 in
    let st = l.iface.st in
    Printf.printf "%s on %s/%s: %Ld instructions in %.3f s (%.2f MIPS)%s\n"
      k.kname isa buildset st.instr_count dt
      (Int64.to_float st.instr_count /. dt /. 1e6)
      (match Machine.State.exit_status st with
      | Some s -> Printf.sprintf ", exit=%d" (s land 0xff)
      | None -> ", budget exhausted");
    Obs.Prof.pp_report ~top Format.std_formatter prof;
    Format.pp_print_flush Format.std_formatter ();
    (match flame_out with
    | None -> ()
    | Some path ->
      write_out (Some path)
        (Obs.Export.to_string
           (Obs.Prof.speedscope
              ~name:(Printf.sprintf "%s on %s/%s" k.kname isa buildset)
              prof)
        ^ "\n");
      Printf.printf "wrote speedscope flame view to %s\n" path);
    0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile a kernel's hot regions: run it through a profile-only \
          interface (hot-region attribution compiled in, everything else \
          the seed closures) and print regions ranked by the instructions \
          they retired, with each one's share and sampled host time. \
          --flame-out exports a speedscope flame view of the region \
          transition graph.")
    Term.(
      const run $ isa_arg $ buildset_arg $ kernel_arg $ budget $ top
      $ flame_out $ regions)

(* ---------------- export ------------------------------------------ *)

let export_cmd =
  let dir =
    Arg.(value & opt string "descriptions" & info [ "dir" ] ~docv:"DIR"
           ~doc:"Output directory for the .lis files.")
  in
  let run isa dir =
    let t = Workload.find_target isa in
    let sources =
      match isa with
      | "alpha" -> Isa_alpha.Alpha.sources
      | "arm" -> Isa_arm.Arm.sources
      | "ppc" -> Isa_ppc.Ppc.sources
      | "riscv" -> Isa_riscv.Riscv.sources
      | _ -> failwith "unknown ISA"
    in
    ignore t;
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    List.iter
      (fun (s : Lis.Ast.source) ->
        let path = Filename.concat dir (Filename.basename s.src_name) in
        let oc = open_out path in
        output_string oc s.src_text;
        close_out oc;
        Printf.printf "wrote %s (%d lines of LIS)\n" path
          (Lis.Count.code_lines s.src_text))
      sources;
    0
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write a built-in ISA's LIS description files to disk (so they \
             can be edited and re-checked with 'lisim check').")
    Term.(const run $ isa_arg $ dir)

(* ---------------- trace ------------------------------------------- *)

let trace_cmd =
  let count =
    Arg.(value & opt int 30 & info [ "n" ] ~docv:"N" ~doc:"Instructions to trace.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the trace to FILE instead of stdout.")
  in
  let run isa buildset kernel n format out trace_cap =
    let t = Workload.find_target isa in
    let k = find_kernel kernel in
    validate_trace_cap trace_cap;
    let l = Workload.load t ~buildset k.program in
    let iface = l.iface in
    let spec = iface.spec in
    (* visible cells, in slot order *)
    let visible =
      List.init (Lis.Spec.n_cells spec) (fun c -> c)
      |> List.filter_map (fun c ->
             let slot = iface.slots.di_slot_of_cell.(c) in
             if slot >= 0 then Some (Lis.Spec.cell_name spec c, slot) else None)
    in
    (* Events go through the observability ring — the same machinery
       behind [run --trace-out] — then render per --format. The first
       two args of every event are the pc and the raw encoding; the rest
       are the interface-visible cells in slot order. *)
    let capacity =
      match trace_cap with Some c -> c | None -> max n 1
    in
    let ring = Obs.Ring.create ~capacity in
    let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
    let st = iface.st in
    let i = ref 0 in
    while (not st.halted) && !i < n do
      let t0 = Obs.Clock.now_ns () in
      iface.run_one di;
      let dur = Obs.Clock.elapsed_ns t0 in
      incr i;
      let name =
        if di.instr_index >= 0 then spec.instrs.(di.instr_index).i_name else "?"
      in
      Obs.Ring.record ring ~ts_ns:t0 ~dur_ns:dur ~name ~cat:"instr"
        ~args:
          (("pc", Obs.Ring.I di.pc)
          :: ("encoding", Obs.Ring.I di.encoding)
          :: List.map
               (fun (cell, slot) -> (cell, Obs.Ring.I (Specsim.Di.get di slot)))
               visible)
    done;
    let events = Obs.Ring.to_list ring in
    let contents =
      match format with
      | "jsonl" | "chrome" -> events_to_string format events
      | _ ->
        (* the historical text table, byte for byte *)
        let b = Buffer.create 4096 in
        Printf.bprintf b "%-10s %-10s %-12s %s\n" "pc" "encoding" "instr"
          (String.concat " " (List.map fst visible));
        List.iter
          (fun (e : Obs.Ring.event) ->
            let pc, enc, cells =
              match e.args with
              | ("pc", Obs.Ring.I pc) :: ("encoding", Obs.Ring.I enc) :: rest ->
                (pc, enc, rest)
              | _ -> (0L, 0L, [])
            in
            Printf.bprintf b "0x%-8Lx 0x%-8Lx %-12s %s\n" pc enc e.name
              (String.concat " "
                 (List.map
                    (fun (_, v) ->
                      match v with
                      | Obs.Ring.I x -> Printf.sprintf "%Lx" x
                      | _ -> "?")
                    cells)))
          events;
        Buffer.contents b
    in
    write_out out contents;
    0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Trace the first N instructions of a kernel, printing the \
             interface-visible information per instruction (as text, JSONL \
             events, or a Perfetto-loadable Chrome trace).")
    Term.(
      const run $ isa_arg $ buildset_arg $ kernel_arg $ count
      $ format_arg ~default:"text" $ out $ trace_cap_arg)

(* ---------------- mix --------------------------------------------- *)

let mix_cmd =
  let run isa kernel stats =
    let t = Workload.find_target isa in
    let k = find_kernel kernel in
    let obs = if stats then Some (Obs.create ()) else None in
    let s = Instr_mix.collect ?obs t k.program in
    Format.printf "%s on %s:@." k.kname isa;
    Instr_mix.print Format.std_formatter s;
    (match obs with Some o -> print_counters o | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "mix"
       ~doc:"Dynamic instruction-mix statistics for a kernel (a Decode-level \
             functional-first consumer).")
    Term.(const run $ isa_arg $ kernel_arg $ stats_flag)

(* ---------------- inject ----------------------------------------- *)

let inject_cmd =
  let isa =
    Arg.(
      value & opt string "all"
      & info [ "isa" ] ~docv:"ISA"
          ~doc:"Instruction set to inject into: alpha, arm, ppc, riscv or all.")
  in
  let seed =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Campaign seed. Same seed, same campaign, instruction for \
                instruction.")
  in
  let rate =
    Arg.(
      value & opt float 1e-4
      & info [ "rate" ] ~docv:"RATE"
          ~doc:"Per-instruction injection probability, within [0, 1].")
  in
  let budget =
    Arg.(
      value & opt int 300_000
      & info [ "budget" ] ~docv:"N"
          ~doc:"Checker-instruction budget per campaign cell.")
  in
  let sites =
    Arg.(
      value & opt string "all"
      & info [ "sites" ] ~docv:"SITES"
          ~doc:"Comma-separated injection sites among reg, mem, pc, fault, di \
                — or all.")
  in
  let min_coverage =
    Arg.(
      value & opt (some float) None
      & info [ "min-coverage" ] ~docv:"PCT"
          ~doc:"Fail (exit 1) if detection coverage drops below PCT percent \
                or a recovered run diverges from the reference.")
  in
  let kernel_c =
    Arg.(
      value & opt string "sort"
      & info [ "kernel"; "k" ] ~docv:"KERNEL"
          ~doc:"Campaign kernel (from the test suite).")
  in
  let buildset_c =
    Arg.(
      value & opt string "one_min"
      & info [ "buildset"; "b" ] ~docv:"NAME" ~doc:"Interface buildset.")
  in
  let journal =
    Arg.(
      value & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Run the campaign supervised: one durable JSONL record per ISA \
             cell appended to FILE, deterministic failures quarantined as \
             replay-command files instead of aborting the sweep.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"With --journal: skip cells the journal already records.")
  in
  let quarantine =
    Arg.(
      value & opt string "quarantine"
      & info [ "quarantine" ] ~docv:"DIR"
          ~doc:"Directory quarantined replay files are written into (with \
                --journal).")
  in
  let run isa seed rate budget sites min_coverage kernel buildset stats journal
      resume quarantine metrics_out metrics_interval jobs =
    let jobs = resolve_jobs jobs in
    let isas =
      match isa with "all" -> [ "alpha"; "arm"; "ppc"; "riscv" ] | i -> [ i ]
    in
    let sites =
      match sites with
      | "all" -> Inject.Injector.all_sites
      | s ->
        String.split_on_char ',' s
        |> List.map (fun name ->
               match Inject.Injector.site_of_string (String.trim name) with
               | Some site -> site
               | None ->
                 Machine.Sim_error.raisef ~component:"cli"
                   ~context:[ ("site", name) ]
                   "unknown injection site (expected reg, mem, pc, fault, di)")
    in
    let cfg =
      { Inject.Campaign.default_config with seed; rate; budget; sites; buildset }
    in
    let obs =
      if stats || metrics_out <> None then Some (Obs.create ()) else None
    in
    let metrics = open_metrics metrics_out ~interval_ms:metrics_interval in
    let reports =
      match journal with
      | Some journal ->
        let sstats =
          Option.map
            (fun (o : Obs.t) -> Super.Supervisor.of_registry o.Obs.reg)
            obs
        in
        let cells =
          Fleet.with_pool ~jobs (fun fleet ->
              Super.Inject_run.run ~isas ~kernel ?obs ?stats:sstats ?metrics
                ~fleet ~journal ~quarantine ~resume cfg)
        in
        Format.printf "%a" Super.Inject_run.pp_cells cells;
        (* coverage gating applies only to cells executed this run *)
        List.filter_map (fun c -> c.Super.Inject_run.c_report) cells
      | None ->
        let reports =
          Fleet.with_pool ~jobs (fun fleet ->
              Inject.Campaign.run ?obs ~isas ~kernel ~fleet cfg)
        in
        List.iter (Format.printf "%a@." Inject.Campaign.pp_report) reports;
        Format.printf "%a" Inject.Campaign.pp_summary reports;
        reports
    in
    (match obs with Some o when stats -> print_counters o | _ -> ());
    (match obs with Some o -> close_metrics metrics o | None -> ());
    match min_coverage with
    | None -> 0
    | Some pct ->
      let ok r =
        (100. *. Inject.Campaign.coverage r >= pct || r.Inject.Campaign.r_architectural = 0)
        && r.Inject.Campaign.r_outcome_ok
      in
      if List.for_all ok reports then 0 else 1
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:"Run a deterministic fault-injection campaign through the \
             timing-first checker and report detection coverage, detection \
             latency and recovery statistics.")
    Term.(
      const run $ isa $ seed $ rate $ budget $ sites $ min_coverage $ kernel_c
      $ buildset_c $ stats_flag $ journal $ resume $ quarantine
      $ metrics_out_arg $ metrics_interval_arg $ jobs_arg)

(* ---------------- stats ------------------------------------------ *)

let stats_cmd =
  let budget =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "budget" ] ~docv:"N"
          ~doc:"Instruction budget for the primary pass (auxiliary passes \
                are capped below it).")
  in
  let run isa buildset kernel budget =
    let t = Workload.find_target isa in
    let k = find_kernel kernel in
    let o = Obs.create () in
    let l = Workload.load ~obs:o t ~buildset k.program in
    ignore (Specsim.Iface.run_n l.iface budget);
    profile_aux_passes o t k ~buildset ~budget;
    Format.printf "%s on %s/%s: instrumented profile@." k.kname isa buildset;
    print_counters o;
    0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a kernel through an instrumented interface and print the \
          counter/histogram table: exact entrypoint crossings and \
          per-segment latency histograms of a jittered 1-in-256 sample \
          (gauge synth.latency_sample_every), block-cache and \
          fused-closure reuse, \
          speculation journal, timing-model and checker counters. The \
          profile aggregates the primary run with a block-translation pass \
          and a short timing-first checked window.")
    Term.(const run $ isa_arg $ buildset_arg $ kernel_arg $ budget)

(* ---------------- validate --------------------------------------- *)

let validate_cmd =
  let run isa kernel =
    let t = Workload.find_target isa in
    let k = find_kernel kernel in
    let spec = Lazy.force t.spec in
    let buildsets = Lis.Spec.buildset_names spec in
    let expected = Workload.reference k.program in
    let got = Workload.run_rotating t ~buildsets k.program in
    if Workload.agrees expected got then begin
      Printf.printf
        "OK: %s on %s agrees with the reference under rotating interfaces \
         (%d interfaces, %Ld instructions)\n"
        k.kname isa (List.length buildsets) got.instructions;
      0
    end
    else begin
      Printf.printf "MISMATCH: exit %d vs %d, output %S vs %S\n"
        expected.exit_status got.exit_status expected.output got.output;
      1
    end
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Rotating-interface validation (paper §V-D): every dynamic \
             instruction or basic block runs through a different interface.")
    Term.(const run $ isa_arg $ kernel_arg)

(* ---------------- fuzz ------------------------------------------- *)

let fuzz_cmd =
  let isa =
    Arg.(
      value & opt string "all"
      & info [ "isa" ] ~docv:"ISA"
          ~doc:"Instruction set to fuzz: alpha, arm, ppc, riscv, tiny (the \
                2-byte toy ISA) or all.")
  in
  let seed =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Campaign seed (splitmix convention shared with 'lisim \
                inject' and the test suites). Same seed, same campaign, \
                draw for draw.")
  in
  let budget =
    Arg.(
      value & opt int 10_000
      & info [ "budget" ] ~docv:"N"
          ~doc:"Oracle-execution budget per ISA; one execution is one \
                candidate interface run in lockstep against the reference.")
  in
  let max_instrs =
    Arg.(
      value & opt int 2048
      & info [ "max-instructions" ] ~docv:"N"
          ~doc:"Retirement budget per program run.")
  in
  let replay =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a written reproducer instead of searching: rebuild \
                the recorded machines and report per-buildset verdicts \
                (byte-for-byte deterministic).")
  in
  let out =
    Arg.(
      value & opt string "."
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory reproducer files are written into.")
  in
  let no_chain =
    Arg.(
      value & flag
      & info [ "no-chain" ]
          ~doc:"Fuzz candidate block engines with successor chaining \
                disabled (A/B against the cached engine).")
  in
  let no_site =
    Arg.(
      value & flag
      & info [ "no-site-cache" ]
          ~doc:"Fuzz candidate interfaces with the shared site cache, the \
                per-site memory fast paths and the sharing of compiled code \
                disabled, Step interfaces included.")
  in
  let mutate =
    Arg.(
      value & opt (some string) None
      & info [ "mutate" ] ~docv:"MUTATION"
          ~doc:"Fuzzer self-test: deliberately re-break the candidate \
                engine with one of stale-chain, skip-invalidate or stride4 \
                and check the campaign finds it (exit 1 expected; with \
                --journal the supervised campaign quarantines it and exits \
                0).")
  in
  let journal =
    Arg.(
      value & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Run the supervised campaign: append one durable JSONL record \
             per case to FILE, quarantine divergences as replayable \
             reproducers instead of aborting, and exit 0. Combine with \
             --resume to skip cases the journal already has.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "With --journal: load the journal first and skip completed \
             cases (their budget slots are still consumed, so the case \
             window is identical to the interrupted run).")
  in
  let quarantine =
    Arg.(
      value & opt string "quarantine"
      & info [ "quarantine" ] ~docv:"DIR"
          ~doc:"Directory quarantined reproducers are written into (with \
                --journal).")
  in
  let flame_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame-out" ] ~docv:"FILE"
          ~doc:
            "With --journal: attach a hot-region profiler to every oracle \
             candidate and write a campaign-wide speedscope flame view to \
             FILE — where the generated programs actually spent their \
             instructions.")
  in
  let run isa seed budget max_instrs replay out no_chain no_site mutate journal
      resume quarantine metrics_out metrics_interval flame_out jobs =
    let jobs = resolve_jobs jobs in
    let mutate = Option.map parse_mutation mutate in
    let cfg =
      {
        Fuzz.Oracle.default_config with
        chain = not no_chain;
        site_cache = not no_site;
        mutate;
        max_instrs;
      }
    in
    match replay with
    | Some path ->
      let r = Fuzz.Repro.load ~path in
      let rcfg = r.Fuzz.Repro.r_cfg in
      let rcfg =
        {
          rcfg with
          Fuzz.Oracle.chain = rcfg.Fuzz.Oracle.chain && not no_chain;
          site_cache = rcfg.Fuzz.Oracle.site_cache && not no_site;
          mutate =
            (match mutate with Some _ -> mutate | None -> rcfg.Fuzz.Oracle.mutate);
        }
      in
      let tc = r.Fuzz.Repro.r_tc in
      Printf.printf "replay %s: isa %s, %d instruction(s), seed 0x%Lx\n" path
        tc.Fuzz.Gen.tc_isa
        (Array.length tc.Fuzz.Gen.tc_code)
        tc.Fuzz.Gen.tc_seed;
      let results = Fuzz.Driver.replay { r with Fuzz.Repro.r_cfg = rcfg } in
      List.iter
        (fun (bs, dv) ->
          match dv with
          | None -> Printf.printf "  %-16s ok\n" bs
          | Some (d : Fuzz.Oracle.divergence) ->
            Printf.printf "  %-16s DIVERGES — %s after %Ld instruction(s): %s\n"
              bs d.Fuzz.Oracle.d_kind d.Fuzz.Oracle.d_retired
              d.Fuzz.Oracle.d_detail)
        results;
      let n =
        List.length (List.filter (fun (_, d) -> Option.is_some d) results)
      in
      Printf.printf "replay %s: %d diverging / %d checked\n" path n
        (List.length results);
      if n > 0 then 1 else 0
    | None when journal <> None ->
      let journal = Option.get journal in
      let isas =
        match isa with "all" -> Fuzz.Driver.all_isas | i -> [ i ]
      in
      let prof = Option.map (fun _ -> Obs.Prof.create ()) flame_out in
      let o = Obs.create ?prof () in
      let stats = Super.Supervisor.of_registry o.Obs.reg in
      let metrics = open_metrics metrics_out ~interval_ms:metrics_interval in
      (* case ids embed the isa, so one journal serves the whole sweep *)
      Fleet.with_pool ~jobs (fun fleet ->
          List.iter
            (fun isa ->
              let p =
                Fuzz.Campaign.run ~cfg ~obs:o ~stats ?metrics ~fleet ~isa ~seed
                  ~budget ~journal ~quarantine ~resume ()
              in
              Format.printf "%a" Fuzz.Campaign.pp_report p)
            isas);
      close_metrics metrics o;
      (match (flame_out, prof) with
      | Some path, Some p ->
        write_out (Some path)
          (Obs.Export.to_string
             (Obs.Prof.speedscope
                ~name:(Printf.sprintf "fuzz %s seed %Ld" isa seed)
                p)
          ^ "\n");
        Printf.printf "wrote campaign flame view to %s\n" path
      | _ -> ());
      Printf.printf "journal: %s\nquarantine: %d reproducer(s) in %s\n" journal
        (Super.Quarantine.count (Super.Quarantine.create ~dir:quarantine))
        quarantine;
      0
    | None ->
      if flame_out <> None then
        Machine.Sim_error.raisef ~component:"cli"
          "--flame-out requires --journal (the profiler rides the \
           supervised campaign's observability context)";
      let isas =
        match isa with "all" -> Fuzz.Driver.all_isas | i -> [ i ]
      in
      (* the bare hunt is uninstrumented; with --metrics-out the series
         still gets a per-ISA heartbeat (timestamps + an empty registry) *)
      let mobs = Obs.create () in
      let metrics = open_metrics metrics_out ~interval_ms:metrics_interval in
      let rc = ref 0 in
      Fleet.with_pool ~jobs (fun fleet ->
      List.iter
        (fun isa ->
          let o = Fuzz.Driver.hunt ~cfg ~fleet ~isa ~seed ~budget () in
          (match metrics with
          | Some m -> Obs.metrics_tick m mobs
          | None -> ());
          match o.Fuzz.Driver.o_found with
          | None ->
            Printf.printf
              "fuzz %s: no divergence (%d programs, %d oracle executions, \
               seed %Ld)\n"
              isa o.Fuzz.Driver.o_programs o.Fuzz.Driver.o_execs seed
          | Some (_, d) ->
            rc := 1;
            Printf.printf
              "fuzz %s: DIVERGENCE after %d oracle executions (seed %Ld)\n"
              isa o.Fuzz.Driver.o_execs seed;
            Printf.printf "  %s\n" (Fuzz.Oracle.pp_divergence d);
            (match o.Fuzz.Driver.o_shrunk with
            | None -> ()
            | Some (stc, sd) ->
              Printf.printf
                "  shrunk to %d instruction(s) in %d oracle executions\n"
                (Array.length stc.Fuzz.Gen.tc_code)
                o.Fuzz.Driver.o_shrink_tests;
              Printf.printf "  %s\n" (Fuzz.Oracle.pp_divergence sd);
              if not (Sys.file_exists out) then Unix.mkdir out 0o755;
              let path =
                Filename.concat out
                  (Printf.sprintf "fuzz-%s-%s.repro" isa
                     sd.Fuzz.Oracle.d_buildset)
              in
              Fuzz.Repro.write ~path cfg ~buildset:sd.Fuzz.Oracle.d_buildset
                stc;
              Printf.printf "  reproducer written to %s\n" path))
        isas);
      close_metrics metrics mobs;
      !rc
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential conformance fuzzing: generate random-but-valid \
          programs from the resolved LIS spec, run them through all twelve \
          synthesized interfaces in lockstep against the Step/All \
          reference (architectural state, memory digests, exit codes and \
          Obs crossing counts compared at every sync point), and shrink \
          any divergence to a minimal deterministic reproducer.")
    Term.(
      const run $ isa $ seed $ budget $ max_instrs $ replay $ out $ no_chain
      $ no_site $ mutate $ journal $ resume $ quarantine $ metrics_out_arg
      $ metrics_interval_arg $ flame_out $ jobs_arg)

let () =
  let info =
    Cmd.info "lisim" ~version:"1.0.0"
      ~doc:"Single-specification functional-to-timing simulator synthesis."
  in
  let group =
    Cmd.group info
      [ list_cmd; check_cmd; emit_cmd; run_cmd; profile_cmd; export_cmd;
        trace_cmd; mix_cmd; inject_cmd; validate_cmd; stats_cmd; fuzz_cmd ]
  in
  try exit (Cmd.eval' ~catch:false group) with
  | Machine.Sim_error.Error e ->
    (* stable one-line diagnostic + stable exit code (see README table) *)
    Format.eprintf "lisim: %s@." (Machine.Sim_error.one_line e);
    exit (Machine.Sim_error.exit_code e)
