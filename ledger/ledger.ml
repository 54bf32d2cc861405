(* The performance ledger: four workloads, their end-to-end metrics, and a
   traced run that breaks them down by layer. See README.md.

     ledger.exe run --workload W --seed S [--seconds N] [--trace 0|1]
                    [--trace-file FILE] [--out FILE]
     ledger.exe compare A.jsonl B.jsonl
     ledger.exe smoke
     ledger.exe tables [--seed S] [--seconds N]
     ledger.exe golden

   Run from the repository root: BENCHMARK.json names the metrics, their
   units, directions and bounds, and ledger/golden/sim_stats.json holds
   the simulated statistics every run is checked against. *)

module J = Obs.Export

let pf = Printf.sprintf
let golden_path = Filename.concat "ledger" (Filename.concat "golden" "sim_stats.json")
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type def = { name : string; unit_ : string; better : string; bound : float }

let benchmark () =
  let j = J.parse (read_file "BENCHMARK.json") in
  let defs key =
    match J.member key j with
    | Some (J.Arr ds) ->
      List.map
        (fun d ->
          let str k = Option.value ~default:"" (J.member_string k d) in
          {
            name = str "name";
            unit_ = str "unit";
            better = str "better";
            bound =
              (match J.member "bound" d with
              | Some (J.Float f) -> f
              | Some (J.Int i) -> Int64.to_float i
              | _ -> nan);
          })
        ds
    | _ -> failwith ("BENCHMARK.json has no " ^ key)
  in
  (defs "end_to_end", defs "per_layer")

(* ------------------------------------------------------------------ *)
(* Running a workload                                                  *)
(* ------------------------------------------------------------------ *)

type sample = {
  traced : bool;
  round : int;
  probe_ns : int;  (** the contention probe run just before the cell *)
  cell : Cell.t;
  m : Cell.m;
}

type outcome = {
  samples : sample list;  (** every round's cells, then the probes *)
  attempted : int;
  failed : int;
  failures : string list;
  golden_checked : bool;
  wall_s : float;  (** measuring time: all rounds *)
  probe_us : float * float;  (** median and 10th percentile of the probe *)
  e2e : (string * string * float) list;  (** name, unit, value *)
  layers : (string * string * float) list;  (** traced runs only *)
  tracer : Trace.t option;
}

let scale_name = function Work.Full -> "full" | Work.Smoke -> "smoke"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(** Golden statistics of [workload] at [seed]: [None] when the golden
    file has no entry for the seed (only seeds 1 and 2 are recorded). *)
let golden ~scale ~seed ~workload =
  if not (Sys.file_exists golden_path) then None
  else
    match J.member (pf "%s:%d" (scale_name scale) seed) (J.parse (read_file golden_path)) with
    | None -> None
    | Some g ->
      let tbl = Hashtbl.create 512 in
      (match J.member workload g with
      | Some (J.Obj kvs) ->
        List.iter (function k, J.Str s -> Hashtbl.replace tbl k s | _ -> ()) kvs
      | _ -> ());
      Some tbl

let ok s = s.m.failure = None && s.m.instrs > 0

(* a fuzz campaign measures no single interface *)
let is_campaign s = String.equal s.cell.bs ""
let ns_per_instr (m : Cell.m) = float_of_int m.run_ns /. float_of_int m.instrs

(* Median over rounds per cell, one value per cell. *)
let per_cell f ss =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Hashtbl.replace tbl s.cell.id
        (f s.m :: Option.value ~default:[] (Hashtbl.find_opt tbl s.cell.id)))
    ss;
  Hashtbl.fold (fun _ v acc -> Stat.median v :: acc) tbl []

let mips ss = Stat.geomean (per_cell (fun m -> 1e3 /. ns_per_instr m) ss)

(** Host time scaled to the reference host's speed: each cell's set-up
    and run time times [probe_ref_ns] over the probe run just before it
    ({!Cell.probe}). The reference is the probe's time on the 2-core
    host the bounds were set on, with no other tenant busy. *)
let probe_ref_ns = 750_000.

let normalize s =
  let scale ns = int_of_float (float_of_int ns *. probe_ref_ns /. float_of_int s.probe_ns) in
  { s with m = { s.m with setup_ns = scale s.m.setup_ns; run_ns = scale s.m.run_ns } }

(** [measure ~traced ~round c run] collects the heap, runs the probe, then
    [run ()], cell [c]'s execution. Starting every cell from a collected
    heap keeps the garbage of the cells before it out of its time and out
    of the heap's peak, so neither depends on the order or number of
    cells run before. *)
let measure ~traced ~round (c : Cell.t) run =
  Gc.full_major ();
  let probe_ns = Cell.probe () in
  { traced; round; probe_ns; cell = c; m = run () }

let sum f ss = Stat.sum (List.map f ss)

(* every cell weighs the same, however many of its runs were measured *)
let per_instr f ss =
  Stat.sum (per_cell f ss) /. Stat.sum (per_cell (fun m -> float_of_int m.instrs) ss)

let words_per_instr = per_instr (fun m -> m.words)

let end_to_end ~workload ~heap_top_words plain =
  let sim observed = List.filter (fun s -> ok s && s.cell.observed = observed) plain in
  let ns = per_cell ns_per_instr (sim false) in
  (* operations per second of wall time (set-up included): per ISA the
     median over its cells, because a fuzz program's cost is heavy-tailed
     and a sum would follow the few longest programs the seed drew *)
  let rate_cells =
    List.filter
      (fun s ->
        (not s.cell.observed)
        && if workload = "campaign" then is_campaign s else s.m.instrs > 0)
      plain
  in
  let execs_per_s =
    Stat.geomean
      (List.map
         (fun isa ->
           Stat.band 0.5
             (per_cell
                (fun m -> float_of_int m.ops *. 1e9 /. float_of_int (m.setup_ns + m.run_ns))
                (List.filter (fun s -> s.cell.isa = isa) rate_cells)))
         (List.sort_uniq compare (List.map (fun s -> s.cell.isa) rate_cells)))
  in
  [
    ("mips", "MIPS", mips (sim false));
    ("ns_per_instr_p50", "ns", Stat.band 0.5 ns);
    ("ns_per_instr_p90", "ns", Stat.band 0.9 ns);
    ("mips_observed", "MIPS", mips (sim true));
    ("execs_per_s", "execs/s", execs_per_s);
    ("setup_s", "s", Stat.sum (per_cell (fun m -> float_of_int m.setup_ns /. 1e9) plain));
    ("alloc_words_per_instr", "words", words_per_instr (sim false));
    ("heap_peak_mb", "MB", float_of_int heap_top_words *. 8. /. 1048576.);
  ]

(** The paper's Table III: host ns per instruction of the base interface,
    then what each added level of detail costs, from [ns bs], the ns per
    instruction of the cells on buildset [bs]. Metric key, row label,
    value. *)
let table3 ns =
  let d a b = ns a -. ns b in
  [
    ("base", "base cost (one_min)", ns "one_min");
    ("decode_info", "+ decode information", d "one_decode" "one_min");
    ("full_info", "+ full information", d "one_all" "one_min");
    ("block_call", "+ block call", d "block_min" "one_min");
    ("multi_call", "+ multiple calls", d "step_all" "one_all");
    ( "speculation", "+ speculation",
      (d "one_all_spec" "one_all" +. d "one_decode_spec" "one_decode"
     +. d "block_all_spec" "block_all")
      /. 3. );
  ]

let layer_metrics ~workload t ~plain ~traced ~probes ~extras =
  let agg = Trace.agg t in
  let c = Cell.counter in
  let ratio a b = if b = 0. then 0. else a /. b in
  let calls name = float_of_int (agg name).calls in
  let self name = float_of_int (agg name).self in
  let per_call name = ratio (float_of_int (agg name).ns) (calls name) in
  let median_of name = match Cell.samples_of name with [] -> 0. | l -> Stat.median l in
  let sim = List.filter (fun s -> ok s && not s.cell.observed) plain in
  let block_instrs =
    sum
      (fun s -> float_of_int s.m.instrs)
      (List.filter
         (fun s ->
           ok s && Cell.style_of_bs s.cell.bs = Cell.Block
           && not (String.starts_with ~prefix:"campaign/" s.cell.id))
         traced)
  in
  let supervised_instrs =
    sum
      (fun s -> float_of_int s.m.instrs)
      (List.filter (fun s -> ok s && String.starts_with ~prefix:"campaign/" s.cell.id) traced)
  in
  (* a hit rate with its base: hits / (hits + misses) *)
  let rate name base_name hit miss =
    let base = c hit +. c miss in
    [ ("engine." ^ name, "fraction", ratio (c hit) base); ("engine." ^ base_name, "count", base) ]
  in
  (* geomean over (ISA, kernel) cells *)
  let table3_ns bs =
    if workload <> "kernels" then 0.
    else
      Stat.geomean
        (per_cell ns_per_instr (List.filter (fun s -> String.equal s.cell.bs bs) sim))
  in
  let ablation tag =
    let ss =
      List.filter
        (fun s -> ok s && String.ends_with ~suffix:("/" ^ tag) s.cell.id)
        probes
    in
    if ss = [] then 0. else Stat.geomean (per_cell ns_per_instr ss)
  in
  let gc pred =
    match List.filter (fun s -> pred s.cell.bs) sim with
    | [] -> 0.
    | ss -> words_per_instr ss
  in
  let not_spec st bs = Cell.style_of_bs bs = st && not (Cell.is_spec bs) in
  (* observed vs plain runs of the same cell, paired by key *)
  let obs_overhead bs =
    let pairs =
      List.filter
        (fun s -> ok s && s.cell.observed && String.equal s.cell.bs bs)
        plain
    in
    match pairs with
    | [] -> 0.
    | _ ->
      let med id =
        Stat.median
          (List.map
             (fun s -> ns_per_instr s.m)
             (List.filter (fun s -> ok s && String.equal s.cell.id id) plain))
      in
      let ids = List.sort_uniq compare (List.map (fun s -> (s.cell.id, s.cell.key)) pairs) in
      100. *. (Stat.geomean (List.map (fun (o, p) -> med o /. med p) ids) -. 1.)
  in
  let sampling_err =
    let errs =
      Hashtbl.fold
        (fun name est acc ->
          match String.split_on_char '/' name with
          | [ "ipc"; "sampling"; isa; kernel ] ->
            let truth = c (pf "ipc/funcfirst/%s/%s" isa kernel) in
            if truth > 0. then (100. *. Float.abs (est -. truth) /. truth) :: acc else acc
          | _ -> acc)
        Cell.counters []
    in
    match errs with [] -> 0. | l -> Stat.sum l /. float_of_int (List.length l)
  in
  let rates name = ratio (c name) (c "timing.rate_samples") in
  let traced_mips = mips (List.filter (fun s -> ok s && not s.cell.observed) traced) in
  let extra name = Option.value ~default:0. (List.assoc_opt name extras) in
  List.map (fun isa -> ("lis.load_ms." ^ isa, "ms", per_call ("lis.load." ^ isa) /. 1e6)) Cell.isas
  @ [
      ("synth.make_ms_p50", "ms", median_of "core.synth.make" /. 1e6);
      ("synth.calls", "count", calls "core.synth.make");
      ("engine.self_ns_per_instr.block", "ns", ratio (self "core.engine.run_block") block_instrs);
      ("engine.self_ns_per_instr.one", "ns", ratio (self "core.engine.run_one") (calls "core.engine.run_one"));
      ( "engine.self_ns_per_instr.step", "ns",
        ratio (self "core.engine.step" +. self "core.engine.retire") (calls "core.engine.retire") );
    ]
  @ rate "chain_rate" "chain_lookups" "engine.chain_taken" "engine.chain_miss"
  @ rate "block_hit_rate" "block_lookups" "engine.block_hits" "engine.blocks_compiled"
  @ rate "site_reuse_rate" "site_lookups" "engine.site_cache_hits" "engine.sites_compiled"
  @ [
      ("engine.blocks_compiled", "count", c "engine.blocks_compiled");
      ("engine.block_invalidations", "count", c "engine.block_invalidations");
    ]
  @ List.map (fun (k, _, v) -> (pf "table3.%s_ns" k, "ns", v)) (table3 table3_ns)
  @ [
      ("ablation.default_ns_per_instr", "ns", ablation "default");
      ("ablation.no_chain_ns_per_instr", "ns", ablation "no_chain");
      ("ablation.no_site_cache_ns_per_instr", "ns", ablation "no_site_cache");
      ("ablation.no_absint_ns_per_instr", "ns", ablation "no_absint");
      ("ablation.interpreted_ns_per_instr", "ns", ablation "interpreted");
      ("gc.minor_words_per_instr.block", "words", gc (not_spec Cell.Block));
      ("gc.minor_words_per_instr.one", "words", gc (not_spec Cell.One));
      ("gc.minor_words_per_instr.step", "words", gc (not_spec Cell.Step));
      ("gc.minor_words_per_instr.spec", "words", gc Cell.is_spec);
      ("gc.promoted_words_per_instr", "words", per_instr (fun m -> m.promoted) sim);
      ("specul.rollbacks", "count", c "specul.rollbacks");
      ("specul.rollback_us_p50", "us", median_of "core.specul.rollback" /. 1e3);
      ("specul.checkpoints", "count", c "specul.checkpoints");
      ("os.syscalls", "count", calls "machine.os.syscall");
      ("workload.load_image_us", "us", per_call "workload.load_image" /. 1e3);
      ("timing.consume_ns_per_instr", "ns", per_call "timing.consume");
      ("timing.cycles", "cycles", c "timing.cycles");
      ("timing.ipc", "instr/cycle", ratio (c "timing.instructions") (c "timing.cycles"));
      ("timing.icache_miss_rate", "fraction", rates "timing.icache_miss_rate");
      ("timing.dcache_miss_rate", "fraction", rates "timing.dcache_miss_rate");
      ("timing.mispredict_rate", "fraction", rates "timing.mispredict_rate");
      ("timing.rollbacks", "count", c "timing.rollbacks");
      ("timing.sampling_ipc_err_pct", "%", sampling_err);
      ("timing.timingfirst_mismatches", "count", c "timing.timingfirst_mismatches");
      ("obs.overhead_pct.block_min", "%", obs_overhead "block_min");
      ("obs.overhead_pct.one_all", "%", obs_overhead "one_all");
      ("obs.overhead_pct.step_all", "%", obs_overhead "step_all");
      ("fuzz.generate_us_p50", "us", median_of "fuzz.generate" /. 1e3);
      ("fuzz.exec_ms_p50", "ms", median_of "fuzz.oracle.run_pair" /. 1e6);
      ("fuzz.synth_share_pct", "%", extra "fuzz.synth_share_pct");
      ("super.tax_pct", "%", extra "super.tax_pct");
      ("super.degrade_ns_per_instr", "ns", ratio (float_of_int (agg "super.degrade.run").ns) supervised_instrs);
      ( "trace.overhead_pct", "%",
        if traced_mips > 0. then 100. *. ((mips (List.filter (fun s -> ok s && not s.cell.observed) plain) /. traced_mips) -. 1.) else 0. );
      ("trace.spans", "count", float_of_int t.n_spans);
      ("trace.min_self_ns", "ns", float_of_int t.min_self);
    ]

(* The span an ablation probe runs under names the layer its switch
   swaps out. *)
let probe_span (c : Cell.t) =
  match List.rev (String.split_on_char '/' c.id) with
  | "interpreted" :: _ -> "semir.ablation.interpreted"
  | "no_absint" :: _ -> "core.synth.ablation.no_absint"
  | tag :: _ -> "core.engine.ablation." ^ tag
  | [] -> c.id

let execute ?(check_golden = true) ~scale ~workload ~seed ~seconds ~trace () =
  List.iter (fun isa -> ignore (Fuzz.Driver.spec_of_isa isa)) Fuzz.Driver.all_isas;
  Hashtbl.reset Cell.counters;
  Hashtbl.reset Cell.samples;
  let tracer = if trace then Some (Trace.create ()) else None in
  let w =
    match tracer with
    | Some t ->
      Trace.cell t ("build/" ^ workload) (fun () ->
          Work.make ?tr:tracer ~scale ~seed workload)
    | None -> Work.make ~scale ~seed workload
  in
  if workload = "campaign" then mkdir_p (Work.work_dir ());
  let start = Cell.now () in
  let acc = ref [] in
  let round = ref 0 in
  (* the heap's peak over the first round, when every cell has run once:
     later rounds can only add the heap growth of a long-lived process,
     which would make the peak depend on how many rounds fit the run *)
  let heap_top_words = ref 0 in
  (* a traced run alternates untraced and traced rounds *)
  while !round < (if trace then 2 else 1) || float_of_int (Cell.elapsed start) /. 1e9 < seconds do
    let traced = trace && !round land 1 = 1 in
    let tr = if traced then tracer else None in
    List.iter
      (fun (c : Cell.t) -> acc := measure ~traced ~round:!round c (fun () -> c.exec tr) :: !acc)
      w.cells;
    if !round = 0 then heap_top_words := (Gc.quick_stat ()).top_heap_words;
    incr round
  done;
  let wall_s = float_of_int (Cell.elapsed start) /. 1e9 in
  let samples = List.rev !acc in
  let plain = List.map normalize (List.filter (fun s -> not s.traced) samples) in
  let traced = List.map normalize (List.filter (fun s -> s.traced) samples) in
  let probes, extras =
    match tracer with
    | None -> ([], [])
    | Some t ->
      let probes =
        List.map
          (fun (c : Cell.t) ->
            normalize
              (measure ~traced:false ~round:(-1) c (fun () ->
                   Trace.cell t (probe_span c) (fun () -> c.exec None))))
          w.probes
      in
      let extras =
        if workload <> "campaign" then []
        else
          (* host seconds as measured, like the bare loop's in the probes *)
          let campaign_s isa =
            Stat.sum
              (per_cell
                 (fun m -> float_of_int m.run_ns /. 1e9)
                 (List.filter
                    (fun s -> (not s.traced) && is_campaign s && s.cell.isa = isa)
                    samples))
          in
          Work.campaign_probes t ~scale ~seed ~campaign_s
      in
      (probes, extras)
  in
  if workload = "campaign" then Work.remove_tree (Work.work_dir ());
  let all = samples @ probes in
  (* simulated statistics: golden for seeds 1 and 2, else the plain
     cell's first run; every other run of a cell must repeat them *)
  let gold = if check_golden then golden ~scale ~seed ~workload else None in
  let expected = Hashtbl.create 512 in
  (match gold with
  | Some g -> Hashtbl.iter (Hashtbl.replace expected) g
  | None ->
    List.iter
      (fun s ->
        if String.equal s.cell.id s.cell.key && not (Hashtbl.mem expected s.cell.key) then
          Hashtbl.replace expected s.cell.key s.m.stats)
      all);
  let failures = ref [] in
  let failed =
    sum
      (fun s ->
        let mismatch =
          match Hashtbl.find_opt expected s.cell.key with
          | Some e when String.equal e s.m.stats -> None
          | Some e -> Some (pf "statistics %s, expected %s" s.m.stats e)
          | None -> Some "no golden statistics for this cell"
        in
        match (s.m.failure, mismatch) with
        | None, None -> 0.
        | f, m ->
          let why = Option.value ~default:"" (match f with Some _ -> f | None -> m) in
          failures := pf "%s: %s" s.cell.id why :: !failures;
          float_of_int (if s.m.failed > 0 then s.m.failed else s.m.ops))
      all
  in
  let e2e = end_to_end ~workload ~heap_top_words:!heap_top_words plain in
  let layers =
    match tracer with
    | None -> []
    | Some t -> layer_metrics ~workload t ~plain ~traced ~probes ~extras
  in
  {
    samples = all;
    attempted = int_of_float (sum (fun s -> float_of_int s.m.ops) all);
    failed = int_of_float failed;
    failures = List.rev !failures;
    golden_checked = gold <> None;
    wall_s;
    probe_us =
      (let us = List.map (fun s -> float_of_int s.probe_ns /. 1e3) samples in
       (Stat.median us, Stat.quantile 0.1 us));
    e2e;
    layers;
    tracer;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(* The metrics BENCHMARK.json lists, with the unit each is computed in;
   an [Error] names one the code does not compute or computes in
   another unit. *)
let select defs values =
  List.fold_right
    (fun d acc ->
      match (acc, List.find_opt (fun (n, _, _) -> String.equal n d.name) values) with
      | Error e, _ -> Error e
      | Ok _, None -> Error (pf "metric %s is not computed" d.name)
      | Ok _, Some (_, u, _) when not (String.equal u d.unit_) ->
        Error (pf "metric %s is computed in %s, BENCHMARK.json says %s" d.name u d.unit_)
      | Ok l, Some (_, u, v) -> Ok ((d.name, u, if Float.is_nan v then 0. else v) :: l))
    defs (Ok [])

let metrics_json ms =
  J.Obj (List.map (fun (n, u, v) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ])) ms)

let run_cmd ~workload ~seed ~seconds ~trace ~trace_file ~out =
  let e2e_defs, layer_defs = benchmark () in
  let o = execute ~scale:Work.Full ~workload ~seed ~seconds ~trace () in
  let rounds = List.sort_uniq compare (List.map (fun s -> s.round) o.samples) in
  Printf.printf
    "workload %s, seed %d: %d cells x %d rounds in %.1f s (%d operations, %d failed); golden %s\n"
    workload seed
    (List.length (List.filter (fun s -> s.round = 0) o.samples))
    (List.length (List.filter (fun r -> r >= 0) rounds))
    o.wall_s o.attempted o.failed
    (if o.golden_checked then "checked" else "not recorded for this seed; runs must agree");
  Printf.printf
    "ns_per_instr percentiles over %d cells; host-speed probe median %.0f us, p10 %.0f us (reference %.0f us)\n"
    (List.length
       (List.filter (fun s -> s.round = 0 && s.m.instrs > 0 && not s.cell.observed) o.samples))
    (fst o.probe_us) (snd o.probe_us) (probe_ref_ns /. 1e3);
  List.iter (fun f -> prerr_endline ("FAIL " ^ f)) o.failures;
  let defs, values = if trace then (layer_defs, o.layers) else (e2e_defs, o.e2e) in
  (match o.tracer with
  | Some t ->
    let path = match trace_file with Some p -> p | None -> pf ".ledger/trace-%s-%d.json" workload seed in
    mkdir_p (Filename.dirname path);
    Trace.write t path;
    let tracing = List.assoc "trace.overhead_pct" (List.map (fun (n, _, v) -> (n, v)) o.layers) in
    Printf.printf "trace: %d spans written to %s; tracing overhead %.1f%% of untraced MIPS\n"
      t.n_spans path tracing
  | None -> ());
  match select defs values with
  | Error e ->
    prerr_endline ("ledger: " ^ e);
    exit 2
  | Ok ms ->
    List.iter (fun (n, u, v) -> Printf.printf "%-38s %16.6g %s\n" n v u) ms;
    let positive = List.for_all (fun (_, _, v) -> v > 0.) ms in
    if (not trace) && not positive then prerr_endline "ledger: an end-to-end metric is not positive";
    let correct = o.failed = 0 && (trace || positive) in
    let result =
      J.Obj
        [
          ("correct", J.Bool correct);
          ("attempted", J.Int (Int64.of_int o.attempted));
          ("failed", J.Int (Int64.of_int o.failed));
          ("metrics", metrics_json ms);
        ]
    in
    Option.iter
      (fun path ->
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
        J.to_channel oc
          (J.Obj
             [
               ("workload", J.Str workload);
               ("seed", J.Int (Int64.of_int seed));
               ("trace", J.Bool trace);
               ("correct", J.Bool correct);
               ("metrics", metrics_json ms);
             ]);
        output_char oc '\n';
        close_out oc)
      out;
    print_endline (J.to_string result)

(* ------------------------------------------------------------------ *)
(* compare: the paired comparison of two sets of runs                  *)
(* ------------------------------------------------------------------ *)

let compare_cmd a b =
  let e2e_defs, _ = benchmark () in
  let load path =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map J.parse
  in
  let ra = load a and rb = load b in
  let values runs workload name =
    List.filter_map
      (fun r ->
        if J.member_string "workload" r = Some workload then
          match J.member "metrics" r with
          | Some m -> (
            match J.member name m with
            | Some v -> (
              match J.member "value" v with
              | Some (J.Float f) -> Some f
              | Some (J.Int i) -> Some (Int64.to_float i)
              | _ -> None)
            | None -> None)
          | None -> None
        else None)
      runs
  in
  let workloads =
    List.filter
      (fun w -> List.exists (fun r -> J.member_string "workload" r = Some w) (ra @ rb))
      Work.names
  in
  let worse = ref false in
  Printf.printf "%-14s %-22s %27s %27s %6s %8s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "B wins" "change" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun d ->
          match (values ra w d.name, values rb w d.name) with
          | [], _ | _, [] -> ()
          | va, vb ->
            let sign = if d.better = "higher" then 1. else -1. in
            let ma = Stat.median va and mb = Stat.median vb in
            let qa1, qa3 = Stat.quartiles va and qb1, qb3 = Stat.quartiles vb in
            let spread q1 q3 m = if Float.is_nan q1 then 0. else (q3 -. q1) /. m in
            let pairs = List.combine (List.filteri (fun i _ -> i < List.length vb) va)
                (List.filteri (fun i _ -> i < List.length va) vb) in
            let wins = List.length (List.filter (fun (x, y) -> sign *. (y -. x) > 0.) pairs) in
            let gain = sign *. (mb -. ma) /. ma in
            let all_better =
              List.for_all (fun y -> List.for_all (fun x -> sign *. (y -. x) > 0.) va) vb
            in
            let verdict =
              if all_better then "better (every B run beats every A run)"
              else if spread qa1 qa3 ma > d.bound || spread qb1 qb3 mb > d.bound then "unresolved"
              else if -.gain > d.bound then begin
                worse := true;
                "WORSE than the bound"
              end
              else if gain > 0. && 10 * wins >= 9 * List.length pairs
                      && sign *. (mb -. ma) > Float.abs (qa3 -. qa1)
              then "better"
              else "within bound"
            in
            Printf.printf "%-14s %-22s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %3d/%-2d %+7.2f%%  %s\n"
              w d.name ma qa1 qa3 mb qb1 qb3 wins (List.length pairs) (100. *. gain) verdict)
        e2e_defs)
    workloads;
  if !worse then exit 1

(* ------------------------------------------------------------------ *)
(* smoke, golden, tables                                               *)
(* ------------------------------------------------------------------ *)

let smoke_cmd () =
  let e2e_defs, layer_defs = benchmark () in
  let problems = ref [] in
  let problem w fmt = Printf.ksprintf (fun s -> problems := pf "%s: %s" w s :: !problems) fmt in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun w ->
      let o = execute ~scale:Work.Smoke ~workload:w ~seed:1 ~seconds:0. ~trace:true () in
      List.iter (fun f -> problem w "%s" f) o.failures;
      if o.failed > 0 then problem w "%d of %d operations failed" o.failed o.attempted;
      if not o.golden_checked then problem w "no golden statistics";
      (match (select e2e_defs o.e2e, select layer_defs o.layers) with
      | Error e, _ | _, Error e -> problem w "%s" e
      | Ok _, Ok _ -> ());
      match o.tracer with
      | None -> problem w "no trace"
      | Some t ->
        let path = pf ".ledger/smoke-%s.json" w in
        mkdir_p ".ledger";
        Trace.write t path;
        (match J.member "traceEvents" (J.parse (read_file path)) with
        | Some (J.Arr (_ :: _)) -> ()
        | _ -> problem w "trace file %s has no events" path);
        if t.min_self < 0 then problem w "negative self time (%d ns)" t.min_self;
        Printf.printf "smoke %-14s %5d operations, %d spans, min self time %d ns\n%!" w
          o.attempted t.n_spans t.min_self)
    Work.names;
  Printf.printf "smoke: %.1f s\n" (Unix.gettimeofday () -. t0);
  match List.rev !problems with
  | [] -> print_endline "smoke: OK"
  | ps ->
    List.iter (fun p -> print_endline ("smoke: " ^ p)) ps;
    exit 1

(* Regenerate the golden simulated statistics: one untraced round of
   every workload at seeds 1 and 2 (and the smoke scale at seed 1). *)
let golden_cmd () =
  let entry scale seed =
    ( pf "%s:%d" (scale_name scale) seed,
      J.Obj
        (List.map
           (fun w ->
             let o =
               execute ~check_golden:false ~scale ~workload:w ~seed ~seconds:0. ~trace:false ()
             in
             if o.failed > 0 then begin
               List.iter prerr_endline o.failures;
               failwith (pf "%s at seed %d fails; not recording it" w seed)
             end;
             ( w,
               J.Obj
                 (List.filter_map
                    (fun s ->
                      if String.equal s.cell.id s.cell.key then Some (s.cell.id, J.Str s.m.stats)
                      else None)
                    o.samples) ))
           Work.names) )
  in
  let doc = J.Obj [ entry Work.Full 1; entry Work.Full 2; entry Work.Smoke 1 ] in
  let buf = Buffer.create 65536 in
  (* one cell per line, so a change to the statistics reads as a diff *)
  let rec pp indent = function
    | J.Obj kvs ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          Buffer.add_string buf (String.make (indent + 2) ' ');
          Buffer.add_string buf (J.to_string (J.Str k));
          Buffer.add_string buf ": ";
          pp (indent + 2) v;
          if i < List.length kvs - 1 then Buffer.add_char buf ',';
          Buffer.add_char buf '\n')
        kvs;
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf '}'
    | v -> Buffer.add_string buf (J.to_string v)
  in
  pp 0 doc;
  Buffer.add_char buf '\n';
  mkdir_p (Filename.dirname golden_path);
  Out_channel.with_open_bin golden_path (fun oc -> Buffer.output_buffer oc buf);
  print_endline ("wrote " ^ golden_path)

(* Tables II and III of the paper from the kernels workload's cells, plus
   the fast-forward path ([Iface.run_n]: chained blocks, no DI records) as
   its own row. *)
let tables_cmd ~seed ~seconds =
  let o = execute ~scale:Work.Full ~workload:"kernels" ~seed ~seconds ~trace:false () in
  if o.failed > 0 then List.iter prerr_endline o.failures;
  let sim = List.filter (fun s -> ok s && not s.cell.observed) o.samples in
  let cell_mips pred = mips (List.filter pred sim) in
  let fast_forward isa =
    let ks = Work.kernels ~scale:Work.Full ~seed in
    let cells =
      List.map
        (fun (k : Vir.Kernels.sized) ->
          Cell.make ~id:k.kname ~isa ~bs:"block_min" (fun tr _ ->
              let spec = Cell.load_spec tr isa in
              let iface = Cell.synth tr spec "block_min" in
              ignore (Cell.load_image tr isa spec k.program iface.st);
              fun () ->
                ignore (Specsim.Iface.run_n iface max_int);
                Cell.result ~instrs:(Int64.to_int iface.st.instr_count) ~stats:"" None))
        ks
    in
    mips
      (List.map
         (fun (c : Cell.t) ->
           normalize (measure ~traced:false ~round:0 c (fun () -> c.exec None)))
         cells)
  in
  print_endline "Table II: simulation speed (MIPS), geomean over the kernels";
  Printf.printf "%-30s" "interface";
  List.iter (fun isa -> Printf.printf " %9s" isa) Cell.isas;
  print_newline ();
  List.iter
    (fun bs ->
      Printf.printf "%-30s" bs;
      List.iter
        (fun isa ->
          Printf.printf " %9.3f" (cell_mips (fun s -> s.cell.isa = isa && s.cell.bs = bs)))
        Cell.isas;
      print_newline ())
    Cell.buildsets;
  Printf.printf "%-30s" "block_min fast-forward (run_n)";
  List.iter (fun isa -> Printf.printf " %9.3f" (fast_forward isa)) Cell.isas;
  print_endline "\n\nTable III: host ns per simulated instruction";
  let ns isa bs =
    Stat.geomean
      (per_cell ns_per_instr (List.filter (fun s -> s.cell.isa = isa && s.cell.bs = bs) sim))
  in
  let columns = List.map (fun isa -> table3 (ns isa)) Cell.isas in
  List.iteri
    (fun i (_, row, _) ->
      Printf.printf "%-30s" row;
      List.iter (fun col -> let _, _, v = List.nth col i in Printf.printf " %9.1f" v) columns;
      print_newline ())
    (List.hd columns)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: ledger.exe [run] --workload W --seed S [--seconds N] [--trace 0|1]\n\
    \                  [--trace-file FILE] [--out FILE]\n\
    \       ledger.exe compare A.jsonl B.jsonl\n\
    \       ledger.exe smoke | golden | tables [--seed S] [--seconds N]\n\
     workloads: kernels organizations hostile campaign";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let cmd, args =
    match args with
    | ("run" | "compare" | "smoke" | "golden" | "tables") as c :: rest -> (c, rest)
    | _ -> ("run", args)
  in
  let rec flags acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> flags ((k, v) :: acc) rest
    | [] -> acc
    | a :: _ ->
      prerr_endline ("ledger: unexpected argument " ^ a);
      usage ()
  in
  let get k = List.assoc_opt k (if cmd = "compare" then [] else flags [] args) in
  let int_flag k default =
    match get k with
    | None -> default
    | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None ->
        prerr_endline (pf "ledger: %s needs an integer" k);
        usage ())
  in
  let seconds () = float_of_int (int_flag "--seconds" 20) in
  match cmd with
  | "compare" -> (match args with [ a; b ] -> compare_cmd a b | _ -> usage ())
  | "smoke" -> smoke_cmd ()
  | "golden" -> golden_cmd ()
  | "tables" -> tables_cmd ~seed:(int_flag "--seed" 1) ~seconds:(seconds ())
  | _ ->
    let workload =
      match get "--workload" with
      | Some w when List.mem w Work.names -> w
      | _ -> usage ()
    in
    let trace =
      match get "--trace" with
      | None | Some "0" -> false
      | Some "1" -> true
      | Some _ -> usage ()
    in
    if get "--seed" = None then usage ();
    run_cmd ~workload ~seed:(int_flag "--seed" 1) ~seconds:(seconds ()) ~trace
      ~trace_file:(get "--trace-file") ~out:(get "--out")
