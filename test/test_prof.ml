(** Hot-region execution profiler: ranking by exact instructions, merge
    against one profiler over the whole stream, region aggregation
    against a brute-force per-pc tally, metrics JSONL round-trip,
    Prometheus text-format lint, speedscope structure, a qcheck property
    that a profile-only context is architecturally transparent across
    every registered ISA, and exact attribution through every call
    style. *)

module P = Obs.Prof

(* ---------------- construction ----------------------------------- *)

let test_create_validation () =
  Alcotest.check_raises "region_bits too large"
    (Invalid_argument "Prof.create: region_bits must be within [0, 62]")
    (fun () -> ignore (P.create ~region_bits:63 ()));
  Alcotest.check_raises "negative region_bits"
    (Invalid_argument "Prof.create: region_bits must be within [0, 62]")
    (fun () -> ignore (P.create ~region_bits:(-1) ()))

(* ---------------- ranking and merge ------------------------------ *)

let test_report_ranks_by_instrs () =
  let p = P.create () in
  (* four 64-byte regions: 0x10c0 retires 30, 0x1040 25, and 0x1000 and
     0x1080 tie at 20 *)
  List.iter
    (fun (pc, instrs) -> P.note p ~pc ~instrs)
    [
      (0x1000L, 5); (0x1040L, 20); (0x1080L, 5); (0x10c0L, 30);
      (0x1008L, 15); (0x1088L, 15); (0x107cL, 5);
    ];
  Alcotest.(check (list (pair int64 int)))
    "instructions descending, then address"
    [ (0x10c0L, 30); (0x1040L, 25); (0x1000L, 20); (0x1080L, 20) ]
    (List.map (fun (r : P.region) -> (r.rg_lo, r.rg_instrs)) (P.report p));
  let share =
    List.fold_left (fun a (r : P.region) -> a +. r.P.rg_share) 0. (P.report p)
  in
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 share;
  Alcotest.(check bool) "a report leaves the profiler as it was" true
    (P.report p = P.report p)

(* Split one attribution stream in two, profile each half, and merge:
   the result must be the profiler of the whole stream, except for the
   one transition edge across the split, which neither half saw. *)
let test_merge_exact =
  QCheck.Test.make ~count:200 ~name:"merge = one profiler over both streams"
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 300)
           (triple (int_range 0 5) (int_range 0 63) (int_range 1 100)))
        small_nat)
    (fun (stream, cut) ->
      let notes =
        List.map
          (fun (region, off, instrs) ->
            (Int64.of_int (0x1000 + (64 * region) + off), instrs))
          stream
      in
      let cut = cut mod (List.length notes + 1) in
      let feed notes =
        let p = P.create () in
        List.iter (fun (pc, instrs) -> P.note p ~pc ~instrs) notes;
        p
      in
      let whole = feed notes in
      let into = feed (List.filteri (fun i _ -> i < cut) notes) in
      let src = feed (List.filteri (fun i _ -> i >= cut) notes) in
      let summed = Hashtbl.create 16 in
      List.iter
        (fun (s, d, n) ->
          Hashtbl.replace summed (s, d)
            (n + Option.value ~default:0 (Hashtbl.find_opt summed (s, d))))
        (P.edges into @ P.edges src);
      P.merge ~into src;
      let by_pair l = List.sort compare l in
      let shape p =
        List.map
          (fun (r : P.region) ->
            (r.rg_id, r.rg_lo, r.rg_hi, r.rg_instrs, r.rg_share))
          (P.report p)
      in
      P.total_instrs into = P.total_instrs whole
      && P.n_regions into = P.n_regions whole
      && shape into = shape whole
      && by_pair (List.map (fun (s, d, n) -> ((s, d), n)) (P.edges into))
         = by_pair (Hashtbl.fold (fun k n acc -> (k, n) :: acc) summed []))

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

(* ---------------- attribution through every call style ---------- *)

(* Every retired instruction is attributed exactly once, whichever call
   style retired it, in a profile-only and in a full context: stepped
   through a timing-directed pipeline (which also fetches and decodes
   wrong-path instructions it never retires), one instruction or one
   block at a time under a timing-first model, the one-instruction
   batch of a non-block [run_block], [run_one] on a block interface, and
   [run_n] through the journaled generic loop and a Step interface. *)
let test_every_call_style () =
  let k = List.nth Vir.Kernels.test_suite 3 in
  let budget = 200_000 in
  let running (iface : Specsim.Iface.t) =
    (not iface.st.halted) && Int64.to_int iface.st.instr_count < budget
  in
  let drive_run_block (iface : Specsim.Iface.t) =
    while running iface do
      ignore (iface.run_block ())
    done
  in
  let drive_run_one (iface : Specsim.Iface.t) =
    let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
    while running iface do
      iface.run_one di
    done
  in
  let directed iface = ignore (Timing.Directed.run iface ~budget) in
  let funcfirst iface = ignore (Timing.Funcfirst.(run (create iface) ~budget)) in
  let run_n iface = ignore (Specsim.Iface.run_n iface budget) in
  let styles =
    [
      ("step_all", "Directed.run", directed);
      ("one_decode", "Funcfirst.run", funcfirst);
      ("block_decode", "Funcfirst.run", funcfirst);
      ("one_all", "run_block", drive_run_block);
      ("block_min", "run_one", drive_run_one);
      ("block_decode_spec", "run_n", run_n);
      ("step_all", "run_n", run_n);
    ]
  in
  List.iter
    (fun (t : Workload.target) ->
      List.iter
        (fun (context, obs) ->
          List.iter
            (fun (bs, style, drive) ->
              let prof = P.create () in
              let l = Workload.load ~obs:(obs prof) t ~buildset:bs k.program in
              drive l.iface;
              let what =
                Printf.sprintf "%s %s %s (%s)" t.tname bs style context
              in
              let st = l.iface.st in
              Alcotest.(check bool) (what ^ ": kernel halted") true st.halted;
              Alcotest.(check int) (what ^ ": attributed = retired")
                (Int64.to_int st.instr_count) (P.total_instrs prof);
              Alcotest.(check int) (what ^ ": report sums to total")
                (P.total_instrs prof)
                (List.fold_left
                   (fun a (r : P.region) -> a + r.P.rg_instrs)
                   0 (P.report prof)))
            styles)
        [
          ("profile-only", fun prof -> Obs.profile_only ~prof ());
          ("full", fun prof -> Obs.create ~prof ());
        ])
    [ Workload.alpha; Workload.riscv ]

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "report ranks by instructions" `Quick
      test_report_ranks_by_instrs;
    QCheck_alcotest.to_alcotest test_merge_exact;
    Alcotest.test_case "aggregation vs brute force" `Quick
      test_aggregation_vs_bruteforce;
    Alcotest.test_case "block totals exact" `Quick test_block_totals_exact;
    Alcotest.test_case "metrics jsonl round-trip" `Quick
      test_metrics_jsonl_roundtrip;
    Alcotest.test_case "prometheus format lint" `Quick test_prom_lint;
    Alcotest.test_case "speedscope structure" `Quick test_speedscope_structure;
    QCheck_alcotest.to_alcotest test_profiler_transparent;
    Alcotest.test_case "attribution exact through every call style" `Quick
      test_every_call_style;
  ]
