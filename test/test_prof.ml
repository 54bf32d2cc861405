(** Hot-region execution profiler: decay-window math against a replayed
    model, region aggregation against a brute-force per-pc tally,
    metrics JSONL round-trip, Prometheus text-format lint, speedscope
    structure, and a qcheck property that a profile-only context is
    architecturally transparent across every registered ISA. *)

module P = Obs.Prof

(* ---------------- construction ----------------------------------- *)

let test_create_validation () =
  Alcotest.check_raises "region_bits too large"
    (Invalid_argument "Prof.create: region_bits must be within [0, 62]")
    (fun () -> ignore (P.create ~region_bits:63 ()));
  Alcotest.check_raises "negative region_bits"
    (Invalid_argument "Prof.create: region_bits must be within [0, 62]")
    (fun () -> ignore (P.create ~region_bits:(-1) ()));
  Alcotest.check_raises "zero half_life"
    (Invalid_argument "Prof.create: half_life must be positive") (fun () ->
      ignore (P.create ~half_life:0 ()));
  Alcotest.check_raises "zero sample interval"
    (Invalid_argument "Prof.create: sample_ns_every must be positive")
    (fun () -> ignore (P.create ~sample_ns_every:0 ()))

(* ---------------- decay-window math ------------------------------- *)

(* Replay the documented model independently: attribution groups into
   visits (maximal same-region runs); a visit closing first decays the
   region's window to "now" by [exp (-ln 2 * dt / half_life)] and then
   credits the whole visit; a report decays every region to "now". The
   implementation keeps hotness in 2^-16 fixed point, so each decay may
   truncate by up to one fixed-point unit — the tolerance covers that. *)
let model_hotness ~region_bits ~half_life notes =
  let hl = float_of_int half_life in
  let decay hot dt =
    if dt > 0 && hot > 0. then
      hot *. Float.exp (-.Float.log 2. *. float_of_int dt /. hl)
    else hot
  in
  let tbl = Hashtbl.create 8 in
  let total = ref 0 in
  let cur = ref (-1) in
  let visit = ref 0 in
  let close () =
    if !cur >= 0 && !visit > 0 then begin
      let hot, at =
        match Hashtbl.find_opt tbl !cur with Some x -> x | None -> (0., 0)
      in
      Hashtbl.replace tbl !cur
        (decay hot (!total - at) +. float_of_int !visit, !total);
      visit := 0
    end
  in
  List.iter
    (fun (pc, n) ->
      let id = Int64.to_int pc lsr region_bits in
      if id <> !cur then begin
        close ();
        cur := id
      end;
      visit := !visit + n;
      total := !total + n)
    notes;
  close ();
  Hashtbl.fold
    (fun id (hot, at) acc -> (id, decay hot (!total - at)) :: acc)
    tbl []

let test_decay_vs_model () =
  let region_bits = 6 and half_life = 100 in
  (* a deterministic pseudo-random attribution sequence over 4 regions,
     with visit lengths long and short relative to the half-life *)
  let seed = ref 12345 in
  let rand m =
    seed := ((!seed * 1103515245) + 12321) land 0x3FFFFFFF;
    !seed mod m
  in
  let notes =
    List.init 400 (fun _ ->
        (Int64.of_int (0x1000 + (rand 4 * 64) + rand 64), 1 + rand 250))
  in
  let p = P.create ~region_bits ~half_life () in
  List.iter (fun (pc, instrs) -> P.note p ~pc ~instrs) notes;
  let expected = model_hotness ~region_bits ~half_life notes in
  let got = P.report p in
  Alcotest.(check int) "region count" (List.length expected) (List.length got);
  List.iter
    (fun (r : P.region) ->
      let e = List.assoc r.P.rg_id expected in
      (* fixed-point truncation: <= 2^-16 per decay event *)
      Alcotest.(check (float 0.05))
        (Printf.sprintf "hotness of region %d" r.P.rg_id)
        e r.P.rg_hotness)
    got;
  (* ranking: hottest first, and shares sum to 1 *)
  let hots = List.map (fun (r : P.region) -> r.P.rg_hotness) got in
  Alcotest.(check bool) "sorted by hotness" true
    (List.sort (fun a b -> Float.compare b a) hots = hots);
  let share = List.fold_left (fun a (r : P.region) -> a +. r.P.rg_share) 0. got in
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 share

let test_decay_cools_idle_region () =
  (* a region that stops executing halves every half_life instructions
     of *total* execution — simulated work, not wall time *)
  let p = P.create ~half_life:1_000 () in
  P.note p ~pc:0x1000L ~instrs:1_000;
  (* 2 half-lives of work elsewhere *)
  P.note p ~pc:0x9000L ~instrs:2_000;
  let r =
    List.find (fun (r : P.region) -> r.P.rg_lo = 0x1000L) (P.report p)
  in
  Alcotest.(check (float 1.0)) "halved twice" 250. r.P.rg_hotness;
  Alcotest.(check int) "exact instrs untouched by decay" 1_000 r.P.rg_instrs

(* ---------------- region aggregation vs brute force --------------- *)

(* On a per-instruction interface the profiler's per-region counts must
   equal a brute-force tally of the pc before every retired
   instruction. *)
let test_aggregation_vs_bruteforce () =
  let k = List.nth Vir.Kernels.test_suite 3 in
  let prof = P.create () in
  let o = Obs.profile_only ~prof () in
  let l = Workload.load ~obs:o Workload.alpha ~buildset:"one_all" k.program in
  let st = l.iface.st in
  let di = Specsim.Di.create ~info_slots:l.iface.slots.di_size in
  let tally = Hashtbl.create 32 in
  let budget = 200_000 in
  let steps = ref 0 in
  while (not st.halted) && !steps < budget do
    let pc = st.pc in
    let before = st.instr_count in
    l.iface.run_one di;
    if Int64.sub st.instr_count before = 1L then begin
      let id = Int64.to_int pc lsr P.region_bits prof in
      Hashtbl.replace tally id
        (1 + Option.value ~default:0 (Hashtbl.find_opt tally id))
    end;
    incr steps
  done;
  Alcotest.(check bool) "kernel terminated" true st.halted;
  Alcotest.(check int) "distinct regions agree" (Hashtbl.length tally)
    (P.n_regions prof);
  Hashtbl.iter
    (fun id n ->
      Alcotest.(check int)
        (Printf.sprintf "region %d instruction count" id)
        n
        (P.instrs_of prof ~pc:(Int64.of_int (id lsl P.region_bits prof))))
    tally;
  Alcotest.(check int) "total attributed = retired" (Int64.to_int st.instr_count)
    (P.total_instrs prof)

(* Block interfaces aggregate at block boundaries (a block is charged
   whole to its entry region), so per-region counts legitimately differ
   from the per-pc tally — but the total must still be exact, whether the
   profiler rides alone or inside full observation (both keep the chained
   loop and attribute through its per-block note). *)
let test_block_totals_exact () =
  let k = List.nth Vir.Kernels.test_suite 3 in
  List.iter
    (fun context ->
      let prof = P.create () in
      let l =
        Workload.load ~obs:(context prof) Workload.alpha ~buildset:"block_min"
          k.program
      in
      let outcome = Workload.run_to_completion l in
      Alcotest.(check int) "total attributed = retired"
        (Int64.to_int outcome.Workload.instructions)
        (P.total_instrs prof);
      let report_sum =
        List.fold_left
          (fun a (r : P.region) -> a + r.P.rg_instrs)
          0 (P.report prof)
      in
      Alcotest.(check int) "report sums to total" (P.total_instrs prof)
        report_sum)
    [ (fun prof -> Obs.profile_only ~prof ()); (fun prof -> Obs.create ~prof ()) ]

(* ---------------- metrics JSONL round-trip ------------------------ *)

let test_metrics_jsonl_roundtrip () =
  let path = Filename.temp_file "lisim-test-metrics" ".jsonl" in
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "t.count" in
  let h = Obs.Registry.histogram reg "t.lat" in
  let prof = P.create () in
  P.note prof ~pc:0x1000L ~instrs:7;
  (* interval 0: every tick writes *)
  let m = Obs.Metrics.open_ ~interval_ms:0 ~prof_top:5 ~path () in
  Obs.Registry.add c 1;
  Obs.Hist.record h 100;
  Obs.Metrics.tick ~prof m reg;
  Obs.Registry.add c 1;
  Obs.Metrics.tick ~prof m reg;
  Obs.Metrics.close ~prof m reg;
  (* close is idempotent and post-close ticks are ignored *)
  Obs.Metrics.tick ~prof m reg;
  Obs.Metrics.close ~prof m reg;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Sys.remove path;
  Alcotest.(check int) "2 ticks + close snapshot" 3 (List.length lines);
  List.iteri
    (fun i line ->
      match Obs.Export.parse_opt line with
      | Some j ->
        Alcotest.(check bool) "v=1" true
          (Obs.Export.member "v" j = Some (Obs.Export.Int 1L));
        Alcotest.(check bool) "seq increments" true
          (Obs.Export.member "seq" j = Some (Obs.Export.Int (Int64.of_int i)));
        (match Obs.Export.member "counters" j with
        | Some (Obs.Export.Obj kvs) ->
          Alcotest.(check bool) "counter present" true
            (List.mem_assoc "t.count" kvs);
          Alcotest.(check bool) "histogram present" true
            (List.mem_assoc "t.lat" kvs)
        | _ -> Alcotest.fail "counters object missing");
        (match Obs.Export.member "prof" j with
        | Some (Obs.Export.Arr (Obs.Export.Obj top :: _)) ->
          Alcotest.(check bool) "prof top region" true
            (List.assoc "instrs" top = Obs.Export.Int 7L)
        | _ -> Alcotest.fail "prof top-N missing")
      | None -> Alcotest.fail (Printf.sprintf "line %d unparseable" i))
    lines;
  (* the last line carries the final counter value *)
  match Obs.Export.parse_opt (List.nth lines 2) with
  | Some j -> (
    match Obs.Export.member "counters" j with
    | Some (Obs.Export.Obj kvs) ->
      Alcotest.(check bool) "final counter value" true
        (List.assoc "t.count" kvs = Obs.Export.Int 2L)
    | _ -> Alcotest.fail "counters missing")
  | None -> Alcotest.fail "last line unparseable"

(* ---------------- Prometheus text format -------------------------- *)

let prom_name_ok s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let test_prom_lint () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "z.calls" in
  Obs.Registry.add c 42;
  Obs.Registry.probe reg "a.rate" (fun () -> Obs.Registry.Float 1.5);
  let h = Obs.Registry.histogram reg "m.lat.ns" in
  List.iter (Obs.Hist.record h) [ 1; 3; 3; 100; 5000 ];
  ignore (Obs.Registry.histogram reg "empty.hist");
  let text = Obs.Export.prom (Obs.Registry.snapshot reg) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  let typed = Hashtbl.create 8 in
  let bucket_cum = Hashtbl.create 8 in
  let values = Hashtbl.create 8 in
  List.iter
    (fun line ->
      if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
          Alcotest.(check bool) ("TYPE name valid: " ^ name) true
            (prom_name_ok name);
          Alcotest.(check bool) ("TYPE kind valid: " ^ kind) true
            (kind = "gauge" || kind = "histogram");
          Hashtbl.replace typed name kind
        | _ -> Alcotest.fail ("malformed TYPE line: " ^ line)
      end
      else begin
        (* <name>[{le="..."}] <value> *)
        match String.index_opt line ' ' with
        | None -> Alcotest.fail ("malformed sample line: " ^ line)
        | Some sp ->
          let series = String.sub line 0 sp in
          let v = String.sub line (sp + 1) (String.length line - sp - 1) in
          let value =
            match v with
            | "+Inf" -> Float.infinity
            | "-Inf" -> Float.neg_infinity
            | _ -> float_of_string v
          in
          let name, le =
            match String.index_opt series '{' with
            | None -> (series, None)
            | Some b ->
              let base = String.sub series 0 b in
              let label = String.sub series b (String.length series - b) in
              Alcotest.(check bool) ("le label shape: " ^ label) true
                (String.length label > 6
                && String.sub label 0 5 = "{le=\""
                && label.[String.length label - 2] = '"'
                && label.[String.length label - 1] = '}');
              (base, Some (String.sub label 5 (String.length label - 7)))
          in
          Alcotest.(check bool) ("series name valid: " ^ name) true
            (prom_name_ok name);
          (match le with
          | Some _ ->
            (* cumulative buckets never decrease *)
            let prev =
              Option.value ~default:0. (Hashtbl.find_opt bucket_cum name)
            in
            Alcotest.(check bool) ("cumulative: " ^ series) true (value >= prev);
            Hashtbl.replace bucket_cum name value
          | None -> Hashtbl.replace values name value)
      end)
    lines;
  (* every family was typed, prefixed, and the histogram invariants hold *)
  Alcotest.(check (option string)) "counter is a gauge" (Some "gauge")
    (Hashtbl.find_opt typed "lisim_z_calls");
  Alcotest.(check (option string)) "probe is a gauge" (Some "gauge")
    (Hashtbl.find_opt typed "lisim_a_rate");
  Alcotest.(check (option string)) "histogram typed" (Some "histogram")
    (Hashtbl.find_opt typed "lisim_m_lat_ns");
  Alcotest.(check (option (float 0.)) ) "counter value" (Some 42.)
    (Hashtbl.find_opt values "lisim_z_calls");
  Alcotest.(check (option (float 0.))) "+Inf bucket = count" (Some 5.)
    (Hashtbl.find_opt bucket_cum "lisim_m_lat_ns_bucket");
  Alcotest.(check (option (float 0.))) "_count" (Some 5.)
    (Hashtbl.find_opt values "lisim_m_lat_ns_count");
  Alcotest.(check (option (float 0.))) "_sum" (Some (float_of_int (1 + 3 + 3 + 100 + 5000)))
    (Hashtbl.find_opt values "lisim_m_lat_ns_sum");
  (* empty histogram still scrapes: zero everywhere, no finite buckets *)
  Alcotest.(check (option (float 0.))) "empty hist +Inf bucket" (Some 0.)
    (Hashtbl.find_opt bucket_cum "lisim_empty_hist_bucket");
  Alcotest.(check (option (float 0.))) "empty hist count" (Some 0.)
    (Hashtbl.find_opt values "lisim_empty_hist_count");
  (* families appear in name-sorted order (snapshot order) *)
  let type_order =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "#"; "TYPE"; name; _ ] -> Some name
        | _ -> None)
      lines
  in
  Alcotest.(check (list string)) "sorted family order"
    [ "lisim_a_rate"; "lisim_empty_hist"; "lisim_m_lat_ns"; "lisim_z_calls" ]
    type_order

(* ---------------- speedscope export ------------------------------- *)

let test_speedscope_structure () =
  let p = P.create () in
  P.note p ~pc:0x1000L ~instrs:10;
  P.note p ~pc:0x2000L ~instrs:5;
  P.note p ~pc:0x1008L ~instrs:3;
  let j = P.speedscope ~name:"t" p in
  (* the document round-trips through the serializer *)
  let j = Obs.Export.parse (Obs.Export.to_string j) in
  (match Obs.Export.member "$schema" j with
  | Some (Obs.Export.Str s) ->
    Alcotest.(check string) "schema url"
      "https://www.speedscope.app/file-format-schema.json" s
  | _ -> Alcotest.fail "$schema missing");
  let frames =
    match Obs.Export.member "shared" j with
    | Some shared -> (
      match Obs.Export.member "frames" shared with
      | Some (Obs.Export.Arr fs) -> fs
      | _ -> Alcotest.fail "frames missing")
    | None -> Alcotest.fail "shared missing"
  in
  Alcotest.(check int) "one frame per region" 2 (List.length frames);
  match Obs.Export.member "profiles" j with
  | Some (Obs.Export.Arr profiles) ->
    Alcotest.(check int) "two profiles" 2 (List.length profiles);
    List.iter
      (fun prof ->
        let arr field =
          match Obs.Export.member field prof with
          | Some (Obs.Export.Arr xs) -> xs
          | _ -> Alcotest.fail (field ^ " missing")
        in
        let samples = arr "samples" and weights = arr "weights" in
        Alcotest.(check int) "samples/weights aligned" (List.length samples)
          (List.length weights);
        (* every sample is a stack of in-range frame indices *)
        List.iter
          (fun s ->
            match s with
            | Obs.Export.Arr stack ->
              List.iter
                (fun f ->
                  match f with
                  | Obs.Export.Int i ->
                    Alcotest.(check bool) "frame index in range" true
                      (i >= 0L && i < Int64.of_int (List.length frames))
                  | _ -> Alcotest.fail "non-int frame index")
                stack
            | _ -> Alcotest.fail "sample is not a stack")
          samples;
        (* endValue equals the weight total *)
        let total =
          List.fold_left
            (fun a w ->
              match w with Obs.Export.Int i -> Int64.add a i | _ -> a)
            0L weights
        in
        Alcotest.(check bool) "endValue = sum of weights" true
          (Obs.Export.member "endValue" prof = Some (Obs.Export.Int total)))
      profiles;
    (* profile 0 weighs instructions: 10 + 5 + 3; profile 1 weighs the
       two region transitions *)
    let end_value p =
      match Obs.Export.member "endValue" p with
      | Some (Obs.Export.Int i) -> Int64.to_int i
      | _ -> -1
    in
    Alcotest.(check int) "instructions total" 18
      (end_value (List.nth profiles 0));
    Alcotest.(check int) "transition total" 2 (end_value (List.nth profiles 1))
  | _ -> Alcotest.fail "profiles missing"

(* ---------------- architectural transparency ---------------------- *)

let regs_digest (regs : Machine.Regfile.t) =
  let acc = ref 0L in
  for i = 0 to Machine.Regfile.total regs - 1 do
    acc := Int64.add (Int64.mul !acc 1099511628211L) (Machine.Regfile.read_flat regs i)
  done;
  !acc

(* A profile-only context must not change what the machine computes:
   same retirements, same pc, same registers, memory and OS-visible
   output on every ISA and on block, one-call and stepped interfaces. *)
let test_profiler_transparent =
  let n_kernels = List.length Vir.Kernels.test_suite in
  let n_targets = List.length Workload.targets in
  QCheck.Test.make ~count:30
    ~name:"profile-only context is architecturally transparent"
    QCheck.(
      quad
        (int_range 0 (n_targets - 1))
        (int_range 0 2)
        (int_range 0 (n_kernels - 1))
        (int_range 1 5_000))
    (fun (ti, bi, ki, budget) ->
      let t = List.nth Workload.targets ti in
      let bs = List.nth [ "block_min"; "one_all"; "step_all" ] bi in
      let k = List.nth Vir.Kernels.test_suite ki in
      let run obs =
        let l = Workload.load ?obs t ~buildset:bs k.Vir.Kernels.program in
        let executed = Specsim.Iface.run_n l.iface budget in
        let st = l.iface.st in
        ( executed,
          st.instr_count,
          st.pc,
          st.halted,
          regs_digest st.regs,
          Machine.Memory.digest st.mem,
          Machine.Os_emu.output l.os )
      in
      let prof = P.create () in
      let off = run None in
      let on_ = run (Some (Obs.profile_only ~prof ())) in
      let (_, instr_count, _, _, _, _, _) = on_ in
      off = on_ && P.total_instrs prof = Int64.to_int instr_count)

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "decay vs replayed model" `Quick test_decay_vs_model;
    Alcotest.test_case "decay cools idle region" `Quick
      test_decay_cools_idle_region;
    Alcotest.test_case "aggregation vs brute force" `Quick
      test_aggregation_vs_bruteforce;
    Alcotest.test_case "block totals exact" `Quick test_block_totals_exact;
    Alcotest.test_case "metrics jsonl round-trip" `Quick
      test_metrics_jsonl_roundtrip;
    Alcotest.test_case "prometheus format lint" `Quick test_prom_lint;
    Alcotest.test_case "speedscope structure" `Quick test_speedscope_structure;
    QCheck_alcotest.to_alcotest test_profiler_transparent;
  ]
