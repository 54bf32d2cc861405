(** Observability layer: ring wrap-around and ordering, histogram bucket
    boundaries and merge, counter/snapshot isolation, exporter round
    trips (JSONL and the Chrome trace-event format), the latency
    sampler's gaps, and a qcheck property tying entrypoint-crossing
    counts to executed instructions for every buildset of every ISA. *)

(* ---------------- ring buffer ------------------------------------ *)

let ev ?(ts = 0L) ?(dur = 0) ?(args = []) name =
  (ts, dur, name, args)

let record_all ring evs =
  List.iter
    (fun (ts_ns, dur_ns, name, args) ->
      Obs.Ring.record ring ~ts_ns ~dur_ns ~name ~cat:"test" ~args)
    evs

let names ring =
  List.map (fun (e : Obs.Ring.event) -> e.name) (Obs.Ring.to_list ring)

let test_ring_basic () =
  let r = Obs.Ring.create ~capacity:8 in
  Alcotest.(check int) "capacity" 8 (Obs.Ring.capacity r);
  Alcotest.(check int) "empty length" 0 (Obs.Ring.length r);
  Alcotest.(check (list string)) "empty list" [] (names r);
  record_all r [ ev "a"; ev "b"; ev "c" ];
  Alcotest.(check int) "length" 3 (Obs.Ring.length r);
  Alcotest.(check int) "total" 3 (Obs.Ring.total_recorded r);
  Alcotest.(check (list string)) "oldest first" [ "a"; "b"; "c" ] (names r)

let test_ring_wraparound () =
  let r = Obs.Ring.create ~capacity:4 in
  record_all r (List.init 10 (fun i -> ev (Printf.sprintf "e%d" i)));
  Alcotest.(check int) "length capped" 4 (Obs.Ring.length r);
  Alcotest.(check int) "total counts everything" 10 (Obs.Ring.total_recorded r);
  Alcotest.(check (list string))
    "most recent, oldest first"
    [ "e6"; "e7"; "e8"; "e9" ]
    (names r)

let test_ring_exact_fill () =
  (* filling to exactly capacity must not drop or rotate anything *)
  let r = Obs.Ring.create ~capacity:4 in
  record_all r (List.init 4 (fun i -> ev (Printf.sprintf "e%d" i)));
  Alcotest.(check (list string)) "full, in order" [ "e0"; "e1"; "e2"; "e3" ] (names r);
  record_all r [ ev "e4" ];
  Alcotest.(check (list string))
    "one past capacity evicts the oldest"
    [ "e1"; "e2"; "e3"; "e4" ]
    (names r)

let test_ring_clear () =
  let r = Obs.Ring.create ~capacity:4 in
  record_all r (List.init 7 (fun i -> ev (Printf.sprintf "e%d" i)));
  Obs.Ring.clear r;
  Alcotest.(check int) "length" 0 (Obs.Ring.length r);
  Alcotest.(check int) "total" 0 (Obs.Ring.total_recorded r);
  record_all r [ ev "x" ];
  Alcotest.(check (list string)) "usable after clear" [ "x" ] (names r)

let test_ring_bad_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Obs.Ring.create ~capacity:0))

(* ---------------- histograms ------------------------------------- *)

let test_hist_bucket_boundaries () =
  (* bucket 0 absorbs 0, 1 and negatives; bucket i holds [2^i, 2^(i+1)) *)
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b (Obs.Hist.bucket_of v))
    [
      (-5, 0); (0, 0); (1, 0);
      (2, 1); (3, 1);
      (4, 2); (7, 2);
      (8, 3); (15, 3);
      (1023, 9); (1024, 10); (2047, 10); (2048, 11);
    ];
  Alcotest.(check int) "bucket_lo 0" 0 (Obs.Hist.bucket_lo 0);
  Alcotest.(check int) "bucket_hi 0" 1 (Obs.Hist.bucket_hi 0);
  Alcotest.(check int) "bucket_lo 10" 1024 (Obs.Hist.bucket_lo 10);
  Alcotest.(check int) "bucket_hi 10" 2047 (Obs.Hist.bucket_hi 10);
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.record h) [ 0; 1; 2; 3; 4; 7; 1024 ];
  Alcotest.(check (list (triple int int int)))
    "nonzero buckets, low to high"
    [ (0, 1, 2); (2, 3, 2); (4, 7, 2); (1024, 2047, 1) ]
    (Obs.Hist.nonzero_buckets h);
  Alcotest.(check int) "count" 7 (Obs.Hist.count h);
  Alcotest.(check int) "sum ignores sign-free zero floor" (0 + 1 + 2 + 3 + 4 + 7 + 1024) (Obs.Hist.sum h);
  Alcotest.(check int) "max" 1024 (Obs.Hist.max_value h)

let test_hist_negative_sample () =
  (* a clock step backwards must round to zero, not corrupt the sum *)
  let h = Obs.Hist.create () in
  Obs.Hist.record h (-100);
  Obs.Hist.record h 6;
  Alcotest.(check int) "count" 2 (Obs.Hist.count h);
  Alcotest.(check int) "sum floors negatives at 0" 6 (Obs.Hist.sum h);
  Alcotest.(check int) "max untouched by negatives" 6 (Obs.Hist.max_value h)

let test_hist_merge () =
  let a = Obs.Hist.create () and b = Obs.Hist.create () in
  List.iter (Obs.Hist.record a) [ 2; 3; 100 ];
  List.iter (Obs.Hist.record b) [ 2; 5000 ];
  Obs.Hist.merge ~into:a b;
  Alcotest.(check int) "count adds" 5 (Obs.Hist.count a);
  Alcotest.(check int) "sum adds" (2 + 3 + 100 + 2 + 5000) (Obs.Hist.sum a);
  Alcotest.(check int) "max combines" 5000 (Obs.Hist.max_value a);
  Alcotest.(check (list (triple int int int)))
    "bucket counts combine"
    [ (2, 3, 3); (64, 127, 1); (4096, 8191, 1) ]
    (Obs.Hist.nonzero_buckets a);
  (* src is untouched *)
  Alcotest.(check int) "src count unchanged" 2 (Obs.Hist.count b)

let test_hist_percentile () =
  let h = Obs.Hist.create () in
  for _ = 1 to 99 do
    Obs.Hist.record h 10
  done;
  Obs.Hist.record h 100_000;
  (* p50 lands in the [8,15] bucket but is capped by the recorded max *)
  Alcotest.(check int) "p50" 15 (Obs.Hist.percentile h 50.);
  Alcotest.(check int) "p100 is the max" 100_000 (Obs.Hist.percentile h 100.);
  Alcotest.(check int) "empty percentile" 0
    (Obs.Hist.percentile (Obs.Hist.create ()) 50.)

let test_hist_percentile_edges () =
  let empty = Obs.Hist.create () in
  Alcotest.(check (option int)) "empty -> None" None
    (Obs.Hist.percentile_opt empty 50.);
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.record h) [ 10; 10; 700 ];
  (* p <= 0: rank clamps to 1, the lowest non-empty bucket's upper bound *)
  Alcotest.(check int) "p0 = lowest bucket hi" 15 (Obs.Hist.percentile h 0.);
  Alcotest.(check int) "negative p clamps too" 15 (Obs.Hist.percentile h (-5.));
  (* ranks round up: p50 of 3 samples is rank 2, still in [8,15] *)
  Alcotest.(check int) "p50 rank ceils" 15 (Obs.Hist.percentile h 50.);
  (* rank 3 lands in [512,1023] but is capped at the recorded max *)
  Alcotest.(check int) "capped at max" 700 (Obs.Hist.percentile h 67.);
  Alcotest.(check int) "p>100 clamps to max" 700 (Obs.Hist.percentile h 150.);
  Alcotest.(check (option int)) "opt agrees when non-empty" (Some 700)
    (Obs.Hist.percentile_opt h 100.)

(* Renderers must not turn "no samples" into a literal 0 percentile. *)
let test_export_empty_hist_percentiles () =
  let reg = Obs.Registry.create () in
  ignore (Obs.Registry.histogram reg "e.h");
  match Obs.Export.json_of_snapshot (Obs.Registry.snapshot reg) with
  | Obs.Export.Obj [ ("e.h", Obs.Export.Obj fields) ] ->
    Alcotest.(check bool) "p50 is null" true
      (List.assoc "p50" fields = Obs.Export.Null);
    Alcotest.(check bool) "p99 is null" true
      (List.assoc "p99" fields = Obs.Export.Null);
    Alcotest.(check bool) "count is 0" true
      (List.assoc "count" fields = Obs.Export.Int 0L)
  | _ -> Alcotest.fail "unexpected snapshot shape"

(* Satellite: every renderer consumes the name-sorted snapshot, so
   output order is deterministic regardless of registration order. *)
let test_export_ordering_stable () =
  let reg = Obs.Registry.create () in
  ignore (Obs.Registry.counter reg "z.last");
  ignore (Obs.Registry.histogram reg "m.mid");
  ignore (Obs.Registry.counter reg "a.first");
  let snap = Obs.Registry.snapshot reg in
  Alcotest.(check (list string)) "snapshot is name-sorted"
    [ "a.first"; "m.mid"; "z.last" ]
    (List.map fst snap);
  (match Obs.Export.json_of_snapshot snap with
  | Obs.Export.Obj kvs ->
    Alcotest.(check (list string)) "json keys sorted"
      [ "a.first"; "m.mid"; "z.last" ]
      (List.map fst kvs)
  | _ -> Alcotest.fail "unexpected snapshot shape");
  let pp = Format.asprintf "%a" Obs.Export.pp_snapshot snap in
  let pos name =
    let rec find i =
      if i + String.length name > String.length pp then -1
      else if String.sub pp i (String.length name) = name then i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check bool) "pp order a < m" true (pos "a.first" < pos "m.mid");
  Alcotest.(check bool) "pp order m < z" true (pos "m.mid" < pos "z.last")

(* ---------------- registry --------------------------------------- *)

let test_counter_identity () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "x.a" in
  Obs.Registry.incr c;
  Obs.Registry.add c 4;
  (* find-or-create returns the same underlying cell *)
  let c' = Obs.Registry.counter reg "x.a" in
  Alcotest.(check int) "shared cell" 5 (Obs.Registry.get c')

let test_snapshot_isolation () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "x.a" in
  let h = Obs.Registry.histogram reg "x.h" in
  Obs.Registry.add c 5;
  Obs.Hist.record h 4;
  let snap = Obs.Registry.snapshot reg in
  Obs.Registry.add c 100;
  Obs.Hist.record h 4;
  Obs.Hist.record h 4;
  Alcotest.(check (option int)) "counter frozen" (Some 5)
    (Obs.Registry.find_int snap "x.a");
  (match Obs.Registry.find snap "x.h" with
  | Some (Obs.Registry.Histogram hc) ->
    Alcotest.(check int) "histogram deep-copied" 1 (Obs.Hist.count hc)
  | _ -> Alcotest.fail "histogram missing from snapshot");
  (* snapshots also survive reset *)
  Obs.Registry.reset reg;
  Alcotest.(check (option int)) "snapshot survives reset" (Some 5)
    (Obs.Registry.find_int snap "x.a");
  Alcotest.(check (option int)) "live counter reset" (Some 0)
    (Obs.Registry.find_int (Obs.Registry.snapshot reg) "x.a")

let test_probe_first_wins () =
  let reg = Obs.Registry.create () in
  Obs.Registry.probe reg "x.gauge" (fun () -> Obs.Registry.Int 1);
  Obs.Registry.probe reg "x.gauge" (fun () -> Obs.Registry.Int 2);
  Alcotest.(check (option int)) "first registration wins" (Some 1)
    (Obs.Registry.find_int (Obs.Registry.snapshot reg) "x.gauge");
  (* probes re-sample at snapshot time and survive reset *)
  let n = ref 10 in
  Obs.Registry.probe reg "x.live" (fun () -> Obs.Registry.Int !n);
  n := 11;
  Alcotest.(check (option int)) "probe samples at snapshot" (Some 11)
    (Obs.Registry.find_int (Obs.Registry.snapshot reg) "x.live");
  Obs.Registry.reset reg;
  Alcotest.(check (option int)) "probe unaffected by reset" (Some 11)
    (Obs.Registry.find_int (Obs.Registry.snapshot reg) "x.live")

(* ---------------- exporters -------------------------------------- *)

let sample_events =
  [
    {
      Obs.Ring.ts_ns = 1_000L;
      dur_ns = 250;
      name = "LDQ \"quoted\"";
      cat = "instr";
      args = [ ("pc", Obs.Ring.I 4096L); ("note", Obs.Ring.S "a\nb\t\\") ];
    };
    {
      Obs.Ring.ts_ns = 2_500L;
      dur_ns = 0;
      name = "block";
      cat = "block";
      args = [ ("frac", Obs.Ring.F 0.5) ];
    };
  ]

let test_json_roundtrip () =
  let open Obs.Export in
  let doc =
    Obj
      [
        ("i", Int 42L);
        ("neg", Int (-7L));
        ("f", Float 1.5);
        ("s", Str "a\"b\\c\nd\te\r \x01");
        ("b", Bool true);
        ("n", Null);
        ("arr", Arr [ Int 1L; Str "x"; Obj [] ]);
      ]
  in
  Alcotest.(check bool) "round trip" true (parse (to_string doc) = doc);
  Alcotest.(check bool) "bad json rejected" true (parse_opt "{\"a\": " = None);
  Alcotest.(check bool) "trailing data rejected" true (parse_opt "1 2" = None)

let test_jsonl_export () =
  let lines =
    String.split_on_char '\n' (Obs.Export.jsonl_of_events sample_events)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      match Obs.Export.parse_opt line with
      | Some (Obs.Export.Obj kvs) ->
        Alcotest.(check bool) "has name" true (List.mem_assoc "name" kvs);
        Alcotest.(check bool) "has ts_ns" true (List.mem_assoc "ts_ns" kvs)
      | _ -> Alcotest.fail "line is not a JSON object")
    lines;
  (match Obs.Export.parse_opt (List.hd lines) with
  | Some j ->
    Alcotest.(check bool) "escaped name survives" true
      (Obs.Export.member "name" j = Some (Obs.Export.Str "LDQ \"quoted\""))
  | None -> Alcotest.fail "unparseable first line")

let test_chrome_export () =
  let open Obs.Export in
  let doc = to_string (chrome_of_events sample_events) in
  let j = parse doc in
  (match member "displayTimeUnit" j with
  | Some (Str "ns") -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing");
  match member "traceEvents" j with
  | Some (Arr evs) ->
    Alcotest.(check int) "all events exported" 2 (List.length evs);
    List.iter
      (fun e ->
        (* the fields Perfetto / chrome://tracing require of a complete
           event: name, ph="X", ts (µs), dur, pid, tid *)
        Alcotest.(check bool) "ph is X" true (member "ph" e = Some (Str "X"));
        List.iter
          (fun field ->
            match member field e with
            | Some (Int _ | Float _ | Str _) -> ()
            | _ -> Alcotest.fail (field ^ " missing"))
          [ "name"; "cat"; "ts"; "dur"; "pid"; "tid" ])
      evs;
    (* microsecond conversion: 1000 ns -> 1.0 µs *)
    (match member "ts" (List.hd evs) with
    | Some (Float us) -> Alcotest.(check (float 1e-9)) "ts in µs" 1.0 us
    | _ -> Alcotest.fail "ts not a float")
  | _ -> Alcotest.fail "traceEvents missing"

(* An instrumented run end-to-end: the ring fills with real instruction
   events and the Chrome export of that ring parses and keeps them all —
   the CLI's run --trace-out path without the process spawn. *)
let test_chrome_export_from_run () =
  let o = Obs.create ~ring_capacity:64 () in
  let k = List.hd Vir.Kernels.pathological (* spin *) in
  let l = Workload.load ~obs:o Workload.alpha ~buildset:"one_all" k.program in
  let executed = Specsim.Iface.run_n l.iface 100 in
  Alcotest.(check bool) "ran instructions" true (executed >= 100);
  let events = Obs.events o in
  Alcotest.(check int) "ring capped" 64 (List.length events);
  let j = Obs.Export.parse (Obs.Export.to_string (Obs.Export.chrome_of_events events)) in
  match Obs.Export.member "traceEvents" j with
  | Some (Obs.Export.Arr evs) ->
    Alcotest.(check int) "every ring event exported" 64 (List.length evs)
  | _ -> Alcotest.fail "traceEvents missing"

(* ---------------- latency sampler -------------------------------- *)

let every = Obs.Sample.every

(* the positions (0-based event indices) of the first [n] samples *)
let sample_positions n =
  let s = Obs.Sample.create () in
  let pos = Array.make n 0 in
  let i = ref 0 and k = ref 0 in
  while !k < n do
    if Obs.Sample.tick s then begin
      pos.(!k) <- !i;
      incr k
    end;
    incr i
  done;
  pos

let gaps pos = Array.mapi (fun k p -> if k = 0 then p + 1 else p - pos.(k - 1)) pos

let test_sampler_reproducible_and_bounded () =
  let a = sample_positions 10_000 and b = sample_positions 10_000 in
  Alcotest.(check bool) "two samplers, same positions" true (a = b);
  Array.iter
    (fun g ->
      if g < 1 || g > (2 * every) - 1 then
        Alcotest.failf "gap %d outside [1, %d]" g ((2 * every) - 1))
    (gaps a)

let test_sampler_mean_gap () =
  let n = 100_000 in
  let pos = sample_positions n in
  let mean = float_of_int (pos.(n - 1) + 1) /. float_of_int n in
  if Float.abs (mean -. float_of_int every) > 0.05 *. float_of_int every then
    Alcotest.failf "mean gap %.2f, expected %d within 5%%" mean every

(* A loop of period [p] puts event i on site [i mod p]: every site must
   get samples. A fixed countdown of [every] (a power of two) misses
   sites at every even period, which the check must catch. *)
let residues_hit pos p =
  let hit = Array.make p false in
  Array.iter (fun i -> hit.(i mod p) <- true) pos;
  Array.for_all Fun.id hit

let test_sampler_no_aliasing () =
  let pos = sample_positions 10_000 in
  for p = 2 to 64 do
    if not (residues_hit pos p) then
      Alcotest.failf "loop period %d: a site is never sampled" p
  done;
  let countdown = Array.init 10_000 (fun k -> ((k + 1) * every) - 1) in
  for p = 2 to 64 do
    Alcotest.(check bool)
      (Printf.sprintf "fixed countdown aliases at period %d" p)
      (p mod 2 = 1) (residues_hit countdown p)
  done

(* ---------------- crossings property ----------------------------- *)

let count_forever = List.nth Vir.Kernels.pathological 1

(* The synthesized instrumentation counts one crossing per entrypoint
   call. Driving N instructions of a never-halting loop must give
   exactly N * n_entrypoints crossings for per-instruction interfaces
   and N for block interfaces (each executed site is one crossing of the
   block entrypoint, counted by the chained loop's per-block note) — for
   every buildset of every ISA, riscv's mixed 2/4-byte blocks
   included. *)
let test_crossings_property =
  QCheck.Test.make ~count:15 ~name:"entrypoint crossings = instrs * entrypoints"
    QCheck.(int_range 1 200)
    (fun budget ->
      List.for_all
        (fun (t : Workload.target) ->
          let spec = Lazy.force t.spec in
          let cache = Specsim.Synth.cache spec in
          List.for_all
            (fun bs ->
              let o = Obs.create () in
              let l =
                Workload.load ~cache ~obs:o t ~buildset:bs count_forever.program
              in
              let executed = Specsim.Iface.run_n l.iface budget in
              let n_eps =
                if l.iface.bs.bs_block then 1
                else Specsim.Iface.n_entrypoints l.iface
              in
              let snap = Obs.snapshot o in
              match Obs.Registry.find_int snap "synth.entrypoint_calls" with
              | Some crossings -> crossings = executed * n_eps
              | None -> false)
            (Lis.Spec.buildset_names spec))
        Workload.targets)

let hist_count snap name =
  match Obs.Registry.find snap name with
  | Some (Obs.Registry.Histogram h) -> Obs.Hist.count h
  | _ -> Alcotest.failf "histogram %s missing" name

(* Histograms hold samples, counters hold every call: scaled by the
   published rate, each histogram's count must come back to its
   counter's. *)
let test_histograms_are_samples () =
  List.iter
    (fun bs ->
      let o = Obs.create () in
      let l = Workload.load ~obs:o Workload.alpha ~buildset:bs count_forever.program in
      ignore (Specsim.Iface.run_n l.iface 20_000);
      let snap = Obs.snapshot o in
      Alcotest.(check (option int)) "rate gauge" (Some every)
        (Obs.Registry.find_int snap "synth.latency_sample_every");
      let names =
        Array.to_list
          (Array.map (fun n -> "synth.ep." ^ n) l.iface.entry_names)
        @ [ "synth.seg.fetch"; "synth.seg.decode"; "synth.seg.ir" ]
      in
      List.iter
        (fun name ->
          let calls =
            Option.value ~default:0
              (Obs.Registry.find_int snap (name ^ ".calls"))
          in
          let scaled = hist_count snap (name ^ ".ns") * every in
          if calls > 0
             && Float.abs (float_of_int (scaled - calls))
                > 0.25 *. float_of_int calls
          then
            Alcotest.failf "%s %s: %d samples x %d = %d against %d calls" bs
              name (scaled / every) every scaled calls)
        names)
    [ "one_all"; "step_all" ]

(* Observation keeps the chained loop, which must still time blocks at
   the published rate. The ring, which gets one event per block, counts
   the blocks. *)
let test_chained_blocks_sampled () =
  let capacity = 65_536 in
  let o = Obs.create ~ring_capacity:capacity () in
  let l =
    Workload.load ~obs:o Workload.alpha ~buildset:"block_min"
      count_forever.program
  in
  ignore (Specsim.Iface.run_n l.iface 60_000);
  let blocks =
    List.length
      (List.filter (fun (e : Obs.Ring.event) -> e.cat = "block") (Obs.events o))
  in
  Alcotest.(check bool) "ring holds every block" true
    (blocks > 0 && blocks < capacity);
  let samples = hist_count (Obs.snapshot o) "synth.block.ns" in
  if Float.abs (float_of_int ((samples * every) - blocks))
     > 0.25 *. float_of_int blocks
  then
    Alcotest.failf "%d block samples x %d = %d against %d blocks" samples
      every (samples * every) blocks;
  Alcotest.(check bool) "dispatch stayed chained" true
    (l.iface.stats.chain_taken > 0)

let test_twelve_buildsets () =
  (* the property above must quantify over the full paper matrix *)
  let spec = Lazy.force Workload.alpha.spec in
  Alcotest.(check int) "twelve buildsets" 12
    (List.length (Lis.Spec.buildset_names spec))

let suite =
  [
    Alcotest.test_case "ring basic" `Quick test_ring_basic;
    Alcotest.test_case "ring wrap-around" `Quick test_ring_wraparound;
    Alcotest.test_case "ring exact fill" `Quick test_ring_exact_fill;
    Alcotest.test_case "ring clear" `Quick test_ring_clear;
    Alcotest.test_case "ring bad capacity" `Quick test_ring_bad_capacity;
    Alcotest.test_case "hist bucket boundaries" `Quick test_hist_bucket_boundaries;
    Alcotest.test_case "hist negative sample" `Quick test_hist_negative_sample;
    Alcotest.test_case "hist merge" `Quick test_hist_merge;
    Alcotest.test_case "hist percentile" `Quick test_hist_percentile;
    Alcotest.test_case "hist percentile edges" `Quick test_hist_percentile_edges;
    Alcotest.test_case "export empty-hist percentiles" `Quick
      test_export_empty_hist_percentiles;
    Alcotest.test_case "export ordering stable" `Quick
      test_export_ordering_stable;
    Alcotest.test_case "counter identity" `Quick test_counter_identity;
    Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
    Alcotest.test_case "probe first wins" `Quick test_probe_first_wins;
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "jsonl export" `Quick test_jsonl_export;
    Alcotest.test_case "chrome export" `Quick test_chrome_export;
    Alcotest.test_case "chrome export from run" `Quick test_chrome_export_from_run;
    Alcotest.test_case "sampler reproducible, gaps bounded" `Quick
      test_sampler_reproducible_and_bounded;
    Alcotest.test_case "sampler mean gap" `Quick test_sampler_mean_gap;
    Alcotest.test_case "sampler does not alias loops" `Quick
      test_sampler_no_aliasing;
    QCheck_alcotest.to_alcotest test_crossings_property;
    Alcotest.test_case "histograms are samples" `Quick
      test_histograms_are_samples;
    Alcotest.test_case "chained blocks sampled" `Quick
      test_chained_blocks_sampled;
    Alcotest.test_case "twelve buildsets" `Quick test_twelve_buildsets;
  ]
