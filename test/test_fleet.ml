(* Domain fleet: pool correctness, static task assignment, and the
   central contract — a parallel campaign is observably identical to the
   sequential one at the same seed. *)

let tmp_path name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "lisim-test-fleet" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat dir (Printf.sprintf "%s.%d" name (Unix.getpid ()))

let rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat path f))
        (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* ----------------------------------------------------------------- *)
(* Pool: map, worker state, exception propagation                      *)
(* ----------------------------------------------------------------- *)

(* The pool tests run at a pool of one as well: its tasks run on the
   calling domain, in task order, under the same contract. *)

let test_fleet_map () =
  List.iter
    (fun jobs ->
      Fleet.with_pool ~jobs (fun fl ->
          Alcotest.(check int) "jobs" jobs (Fleet.jobs fl);
          let workers = Array.make (Fleet.jobs fl) () in
          let out =
            Fleet.map fl ~workers
              ~tasks:(Array.init 100 (fun k () -> k * k))
          in
          Alcotest.(check (array int))
            "results by task index"
            (Array.init 100 (fun k -> k * k))
            out;
          (* second batch on the same pool *)
          let out2 =
            Fleet.map fl ~workers ~tasks:(Array.init 7 (fun k () -> k + 1))
          in
          Alcotest.(check (array int)) "pool is reusable"
            (Array.init 7 (fun k -> k + 1))
            out2))
    [ 4; 1 ]

let test_fleet_worker_state () =
  (* every task sees exactly the state of the worker that ran it, and
     per-worker tallies sum to the batch size *)
  List.iter
    (fun jobs ->
      Fleet.with_pool ~jobs (fun fl ->
          let workers = Array.init (Fleet.jobs fl) (fun i -> (i, ref 0)) in
          let caller = Domain.self () in
          Fleet.run fl ~workers
            ~tasks:
              (Array.init 50 (fun _ (slot, tally) ->
                   incr tally;
                   (slot, Domain.self ())))
            ~complete:(fun _ (slot, dom) ->
              Alcotest.(check bool) "slot in range" true
                (slot >= 0 && slot < jobs);
              (* a pool of one runs every task on the calling domain *)
              Alcotest.(check bool) "on the caller's domain iff a pool of one"
                (jobs = 1) (dom = caller));
          let total =
            Array.fold_left (fun acc (_, t) -> acc + !t) 0 workers
          in
          Alcotest.(check int) "per-worker tallies sum to batch" 50 total))
    [ 3; 1 ]

let test_fleet_exception () =
  List.iter
    (fun jobs ->
      Fleet.with_pool ~jobs (fun fl ->
          let workers = Array.make (Fleet.jobs fl) () in
          let ran = Atomic.make 0 in
          let raised =
            try
              Fleet.run fl ~workers
                ~tasks:
                  (Array.init 10 (fun k () ->
                       Atomic.incr ran;
                       if k = 3 || k = 7 then
                         Machine.Sim_error.raisef ~component:"vir" "task %d" k;
                       k))
                ~complete:(fun _ _ -> ());
              None
            with Machine.Sim_error.Error e -> Some e
          in
          (match raised with
          | Some e ->
            Alcotest.(check string) "taxonomy preserved" "vir"
              e.Machine.Sim_error.component;
            Alcotest.(check string) "lowest-index failure wins" "task 3"
              e.Machine.Sim_error.what
          | None -> Alcotest.fail "expected Sim_error to propagate");
          Alcotest.(check int) "re-raised after the batch drains" 10
            (Atomic.get ran);
          (* the pool survives a raising batch *)
          let out =
            Fleet.map fl ~workers ~tasks:(Array.init 4 (fun k () -> k))
          in
          Alcotest.(check (array int)) "pool usable after exception"
            [| 0; 1; 2; 3 |] out))
    [ 2; 1 ]

let test_fleet_assignment () =
  (* static assignment: worker s runs tasks s, s + jobs, s + 2 jobs, ...
     of every batch, in ascending order, and nothing else *)
  List.iter
    (fun jobs ->
      Fleet.with_pool ~jobs (fun fl ->
          let ran = Array.init jobs (fun _ -> ref []) in
          let batches = 20 and n = 203 in
          for _ = 1 to batches do
            Fleet.run fl ~workers:ran
              ~tasks:(Array.init n (fun k r -> r := k :: !r))
              ~complete:(fun _ () -> ())
          done;
          Array.iteri
            (fun s r ->
              let mine =
                List.filter (fun k -> k mod jobs = s) (List.init n Fun.id)
              in
              Alcotest.(check (list int))
                (Printf.sprintf "jobs %d: worker %d's tasks" jobs s)
                (List.concat (List.init batches (fun _ -> mine)))
                (List.rev !r))
            ran))
    [ 1; 2; 4 ]

(* one batch of 12 tasks whose [complete] always raises, [raising_task]
   raising too: every task runs, [complete] is called once, and the
   exception that [run] re-raises after the drain is returned *)
let complete_raises_batch fl ~jobs ~raising_task =
  let ran = Atomic.make 0 and calls = ref 0 in
  let raised =
    try
      Fleet.run fl ~workers:(Array.make jobs ())
        ~tasks:
          (Array.init 12 (fun k () ->
               Atomic.incr ran;
               if Some k = raising_task then
                 Machine.Sim_error.raisef ~component:"vir" "task %d" k))
        ~complete:(fun _ () ->
          incr calls;
          failwith "complete");
      None
    with exn -> Some exn
  in
  Alcotest.(check int) "every task runs" 12 (Atomic.get ran);
  Alcotest.(check int) "complete is not called again" 1 !calls;
  raised

let test_fleet_complete_raises () =
  (* a raising [complete] is not called again, every task still runs,
     and its exception surfaces after the batch drains *)
  List.iter
    (fun jobs ->
      Fleet.with_pool ~jobs (fun fl ->
          match complete_raises_batch fl ~jobs ~raising_task:None with
          | Some (Failure m) ->
            Alcotest.(check string) "callback's exception" "complete" m
          | _ -> Alcotest.fail "expected the callback's Failure"))
    [ 1; 4 ]

let test_fleet_task_beats_complete () =
  (* when a task raised too, the task's exception wins over the
     callback's *)
  List.iter
    (fun jobs ->
      Fleet.with_pool ~jobs (fun fl ->
          match complete_raises_batch fl ~jobs ~raising_task:(Some 7) with
          | Some (Machine.Sim_error.Error e) ->
            Alcotest.(check string) "the task's exception wins" "task 7"
              e.Machine.Sim_error.what
          | _ -> Alcotest.fail "expected the task's Sim_error"))
    [ 1; 4 ]

let test_fleet_run_after_shutdown () =
  List.iter
    (fun jobs ->
      let fl = Fleet.create ~jobs () in
      Fleet.shutdown fl;
      let ran = ref false in
      match
        Fleet.run fl ~workers:(Array.make jobs ())
          ~tasks:[| (fun () -> ran := true) |]
          ~complete:(fun _ () -> ())
      with
      | () -> Alcotest.fail "run after shutdown must be rejected"
      | exception Machine.Sim_error.Error e ->
        Alcotest.(check string) "fleet component" "fleet"
          e.Machine.Sim_error.component;
        Alcotest.(check bool) "no task ran" false !ran)
    [ 1; 4 ]

let test_fleet_states () =
  (* a pool of one hands its worker the caller's state and joins
     nothing; a larger pool makes one fresh state per worker and joins
     each back, in worker order *)
  List.iter
    (fun jobs ->
      Fleet.with_pool ~jobs (fun fl ->
          let made = ref 0 and joined = ref [] in
          let states =
            Fleet.with_states fl ~caller:(-1)
              ~fresh:(fun () ->
                incr made;
                !made)
              ~join:(fun s -> joined := s :: !joined)
              Fun.id
          in
          let fresh = List.init (if jobs = 1 then 0 else jobs) (fun i -> i + 1) in
          Alcotest.(check (array int)) "worker states"
            (if jobs = 1 then [| -1 |] else Array.of_list fresh)
            states;
          Alcotest.(check (list int)) "joined" fresh (List.rev !joined)))
    [ 1; 4 ]

let test_fleet_bad_jobs () =
  match Fleet.create ~jobs:0 () with
  | (_ : Fleet.t) -> Alcotest.fail "jobs 0 must be rejected"
  | exception Machine.Sim_error.Error e ->
    Alcotest.(check string) "fleet component" "fleet"
      e.Machine.Sim_error.component

(* ----------------------------------------------------------------- *)
(* Per-case PRNG derivation: golden pins                               *)
(* ----------------------------------------------------------------- *)

let test_case_seed_golden () =
  (* pinned against splitmix64: derive ~seed ~salt:index. Changing the
     derivation silently re-seeds every campaign — these exact values
     are load-bearing for reproducer stability. *)
  List.iter
    (fun (seed, index, expect) ->
      Alcotest.(check int64)
        (Printf.sprintf "case_seed 0x%Lx %d" seed index)
        expect
        (Fuzz.Gen.case_seed ~seed ~index))
    [
      (0xBEEFL, 0, 0xC3FF1DE7F67D8680L);
      (0xBEEFL, 1, 0x4379E026D56A4E43L);
      (0xBEEFL, 7, 0x0616267B1C200478L);
      (0xDEADL, 0, 0x6D008D989A53CE5EL);
      (0xDEADL, 42, 0x571BF3C179B845B0L);
    ]

let test_case_gen_schedule_independent () =
  (* case k's program is identical whether generated alone or mid-way
     through a campaign sweep — generation is a pure function of
     (seed, index), never of visit order *)
  let spec = Fuzz.Driver.spec_of_isa "tiny" in
  let seed = 0xF00D5L in
  let alone =
    let cx = Fuzz.Gen.make_ctx ~isa:"tiny" spec in
    Fuzz.Gen.generate cx ~seed ~index:5
  in
  let swept =
    let cx = Fuzz.Gen.make_ctx ~isa:"tiny" spec in
    let last = ref None in
    for i = 0 to 5 do
      last := Some (Fuzz.Gen.generate cx ~seed ~index:i)
    done;
    Option.get !last
  in
  Alcotest.(check int64) "same per-case seed" alone.Fuzz.Gen.tc_seed
    swept.Fuzz.Gen.tc_seed;
  Alcotest.(check (array int64)) "same code" alone.Fuzz.Gen.tc_code
    swept.Fuzz.Gen.tc_code;
  Alcotest.(check bool) "same initial registers" true
    (alone.Fuzz.Gen.tc_regs = swept.Fuzz.Gen.tc_regs);
  Alcotest.(check bool) "same initial memory" true
    (alone.Fuzz.Gen.tc_mem = swept.Fuzz.Gen.tc_mem)

(* ----------------------------------------------------------------- *)
(* Campaign determinism: --jobs 4 == --jobs 1                          *)
(* ----------------------------------------------------------------- *)

type totals = {
  t_cases : int;
  t_retries : int;
  t_transient : int;
  t_gave_up : int;
  t_quarantined : int;
  t_demotions : int;
  t_replays : int;
  t_slices : int;
}

let run_campaign ~isa ~cfg ~seed ~budget ~tag ~fleet =
  let journal = tmp_path (tag ^ "-journal") in
  let quarantine = tmp_path (tag ^ "-quarantine") in
  rm_rf journal;
  rm_rf quarantine;
  let obs = Obs.create () in
  let stats = Super.Supervisor.of_registry obs.Obs.reg in
  let p =
    Fuzz.Campaign.run ~cfg ~obs ~stats ?fleet ~isa ~seed ~budget ~journal
      ~quarantine ()
  in
  let files =
    if Sys.file_exists quarantine then
      Array.to_list (Sys.readdir quarantine) |> List.sort String.compare
    else []
  in
  let contents =
    List.map
      (fun f ->
        let ic = open_in_bin (Filename.concat quarantine f) in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        (f, s))
      files
  in
  let g c = Obs.Registry.get c in
  let totals =
    {
      t_cases = g stats.Super.Supervisor.s_cases;
      t_retries = g stats.Super.Supervisor.s_retries;
      t_transient = g stats.Super.Supervisor.s_transient;
      t_gave_up = g stats.Super.Supervisor.s_gave_up;
      t_quarantined = g stats.Super.Supervisor.s_quarantined;
      t_demotions = g stats.Super.Supervisor.s_demotions;
      t_replays = g stats.Super.Supervisor.s_replays;
      t_slices = g stats.Super.Supervisor.s_slices;
    }
  in
  rm_rf journal;
  rm_rf quarantine;
  (p, contents, totals)

let check_jobs_invariant ~isa ~cfg ~seed ~budget =
  let p1, q1, t1 =
    run_campaign ~isa ~cfg ~seed ~budget
      ~tag:(Printf.sprintf "%s-j1" isa)
      ~fleet:None
  in
  let p4, q4, t4 =
    Fleet.with_pool ~jobs:4 (fun fl ->
        run_campaign ~isa ~cfg ~seed ~budget
          ~tag:(Printf.sprintf "%s-j4" isa)
          ~fleet:(Some fl))
  in
  Alcotest.(check int)
    (isa ^ ": same clean count")
    p1.Fuzz.Campaign.p_clean p4.Fuzz.Campaign.p_clean;
  Alcotest.(check int)
    (isa ^ ": same quarantined count")
    p1.Fuzz.Campaign.p_quarantined p4.Fuzz.Campaign.p_quarantined;
  Alcotest.(check int)
    (isa ^ ": same gave-up count")
    p1.Fuzz.Campaign.p_gave_up p4.Fuzz.Campaign.p_gave_up;
  Alcotest.(check int)
    (isa ^ ": same cases executed")
    p1.Fuzz.Campaign.p_cases p4.Fuzz.Campaign.p_cases;
  Alcotest.(check (list string))
    (isa ^ ": same quarantined-reproducer set")
    (List.map fst q1) (List.map fst q4);
  List.iter2
    (fun (f, a) (_, b) ->
      Alcotest.(check string) (isa ^ ": reproducer bytes " ^ f) a b)
    q1 q4;
  Alcotest.(check bool)
    (isa ^ ": same merged counter totals")
    true (t1 = t4)

let test_campaign_jobs_deterministic_tiny () =
  (* a seeded defect: the parallel campaign must quarantine the exact
     same reproducers the sequential one does *)
  let cfg =
    {
      Fuzz.Oracle.default_config with
      mutate = Some Specsim.Synth.Stride4;
      buildsets = [ "block_min" ];
    }
  in
  check_jobs_invariant ~isa:"tiny" ~cfg ~seed:0xBEEFL ~budget:10

let test_campaign_jobs_deterministic_alpha () =
  let cfg =
    { Fuzz.Oracle.default_config with buildsets = [ "block_min" ] }
  in
  check_jobs_invariant ~isa:"alpha" ~cfg ~seed:11L ~budget:6

let test_campaign_jobs_deterministic_ppc () =
  let cfg =
    { Fuzz.Oracle.default_config with buildsets = [ "block_min" ] }
  in
  check_jobs_invariant ~isa:"ppc" ~cfg ~seed:12L ~budget:6

(* ----------------------------------------------------------------- *)
(* The sequential driver's outputs, pinned                             *)
(* ----------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* [s] with every occurrence of [sub] replaced by [by] *)
let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i < String.length s then
      if i + n <= String.length s && String.sub s i n = sub then begin
        Buffer.add_string b by;
        go (i + n)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let md5 s = Digest.to_hex (Digest.string s)

(* What the sequential driver produced for the three campaigns above,
   recorded before every campaign ran through the fleet path: the
   report, each quarantined reproducer's name with the MD5 of its bytes,
   the MD5 of the journal bytes and of its sorted lines (quarantine
   directory written as <q>), and the eight super.* totals. *)
type golden = {
  g_report : Fuzz.Campaign.report;
  g_reproducers : (string * string) list;
  g_journal : string;
  g_journal_sorted : string;
  g_totals : totals;
}

let check_pinned ~isa ~cfg ~seed ~budget (g : golden) =
  List.iter
    (fun jobs ->
      let label = Printf.sprintf "%s jobs %d" isa jobs in
      let journal = tmp_path (label ^ "-pinned-journal") in
      let quarantine = tmp_path (label ^ "-pinned-quarantine") in
      rm_rf journal;
      rm_rf quarantine;
      let obs = Obs.create () in
      let stats = Super.Supervisor.of_registry obs.Obs.reg in
      let p =
        Fleet.with_pool ~jobs (fun fleet ->
            Fuzz.Campaign.run ~cfg ~obs ~stats ~fleet ~isa ~seed ~budget
              ~journal ~quarantine ())
      in
      let reproducers =
        if Sys.file_exists quarantine then
          Array.to_list (Sys.readdir quarantine)
          |> List.sort String.compare
          |> List.map (fun f -> (f, md5 (read_file (Filename.concat quarantine f))))
        else []
      in
      let jbytes = replace_all ~sub:quarantine ~by:"<q>" (read_file journal) in
      rm_rf journal;
      rm_rf quarantine;
      let g' c = Obs.Registry.get c in
      let s = stats in
      Alcotest.(check bool) (label ^ ": report") true (p = g.g_report);
      Alcotest.(check (list (pair string string)))
        (label ^ ": reproducer names and bytes")
        g.g_reproducers reproducers;
      (* a pool of one journals in slot order, a larger pool in
         completion order *)
      if jobs = 1 then
        Alcotest.(check string) (label ^ ": journal bytes") g.g_journal
          (md5 jbytes);
      Alcotest.(check string)
        (label ^ ": journal as a set of lines")
        g.g_journal_sorted
        (String.split_on_char '\n' jbytes
        |> List.filter (fun l -> l <> "")
        |> List.sort String.compare |> String.concat "\n" |> md5);
      Alcotest.(check bool) (label ^ ": super.* totals") true
        ({
           t_cases = g' s.s_cases;
           t_retries = g' s.s_retries;
           t_transient = g' s.s_transient;
           t_gave_up = g' s.s_gave_up;
           t_quarantined = g' s.s_quarantined;
           t_demotions = g' s.s_demotions;
           t_replays = g' s.s_replays;
           t_slices = g' s.s_slices;
         }
        = g.g_totals))
    [ 1; 4 ]

let test_pinned_tiny () =
  check_pinned ~isa:"tiny"
    ~cfg:
      {
        Fuzz.Oracle.default_config with
        mutate = Some Specsim.Synth.Stride4;
        buildsets = [ "block_min" ];
      }
    ~seed:0xBEEFL ~budget:10
    {
      g_report =
        {
          Fuzz.Campaign.p_isa = "tiny";
          p_programs = 10;
          p_execs = 10;
          p_cases = 10;
          p_skipped = 0;
          p_clean = 0;
          p_quarantined = 10;
          p_gave_up = 0;
          p_retries = 0;
          p_demotions = 30;
          p_torn = 0;
        };
      g_reproducers =
        [
          ("fuzz_tiny_0xbeef_0_block_min.repro", "40f4de56c576c4b6d743aa537c84daea");
          ("fuzz_tiny_0xbeef_1_block_min.repro", "e95537cc94fda25c13c790be3cd2b587");
          ("fuzz_tiny_0xbeef_2_block_min.repro", "4b3797bbbe08c1d1072c951cf3d2764d");
          ("fuzz_tiny_0xbeef_3_block_min.repro", "290c9b21f696e80da734bc896016a4fb");
          ("fuzz_tiny_0xbeef_4_block_min.repro", "86317d63ae171bd70e4ba3ea99aa9d5f");
          ("fuzz_tiny_0xbeef_5_block_min.repro", "bad1de47e7b2e6a41b5e64b4d67b18c7");
          ("fuzz_tiny_0xbeef_6_block_min.repro", "7ec6bce034622f4f8aaa449e15b3b0b6");
          ("fuzz_tiny_0xbeef_7_block_min.repro", "0139214fc7255f45b5458fc2acc106eb");
          ("fuzz_tiny_0xbeef_8_block_min.repro", "ce801d45c05b4a013e63e0a550322ff0");
          ("fuzz_tiny_0xbeef_9_block_min.repro", "fe5bf5c345df8cf50289eebd91a3c27e");
        ];
      g_journal = "a38a7064cdf96350a4f942ba4764f2f1";
      g_journal_sorted = "d68f9e4f733976a484cd1afe39fb65da";
      g_totals =
        {
          t_cases = 10;
          t_retries = 0;
          t_transient = 0;
          t_gave_up = 0;
          t_quarantined = 10;
          t_demotions = 30;
          t_replays = 30;
          t_slices = 320;
        };
    }

(* a clean campaign of [n] block_min cases: one program per slot *)
let clean_golden ~isa ~journal ~sorted n =
  {
    g_report =
      {
        Fuzz.Campaign.p_isa = isa;
        p_programs = n;
        p_execs = n;
        p_cases = n;
        p_skipped = 0;
        p_clean = n;
        p_quarantined = 0;
        p_gave_up = 0;
        p_retries = 0;
        p_demotions = 0;
        p_torn = 0;
      };
    g_reproducers = [];
    g_journal = journal;
    g_journal_sorted = sorted;
    g_totals =
      {
        t_cases = n;
        t_retries = 0;
        t_transient = 0;
        t_gave_up = 0;
        t_quarantined = 0;
        t_demotions = 0;
        t_replays = 0;
        t_slices = 0;
      };
  }

let test_pinned_alpha () =
  check_pinned ~isa:"alpha"
    ~cfg:{ Fuzz.Oracle.default_config with buildsets = [ "block_min" ] }
    ~seed:11L ~budget:6
    (clean_golden ~isa:"alpha" ~journal:"25c32b3a6628bcbc886aaf93faa0b0e4"
       ~sorted:"3969b8f0e2754e0b26a0d6d420ffcb5e" 6)

let test_pinned_ppc () =
  check_pinned ~isa:"ppc"
    ~cfg:{ Fuzz.Oracle.default_config with buildsets = [ "block_min" ] }
    ~seed:12L ~budget:6
    (clean_golden ~isa:"ppc" ~journal:"7bace75589cbaacdb3bdc0ef39378611"
       ~sorted:"c051bc79390acac3a2d1968fa84d87ce" 6)

(* ----------------------------------------------------------------- *)
(* Campaign metrics series: one tick per executed case, plus a final   *)
(* ----------------------------------------------------------------- *)

(* super.cases in every snapshot of the series at [path] *)
let series_cases path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match
           Option.bind (Obs.Export.parse_opt l) (Obs.Export.member "counters")
         with
         | Some c ->
           Option.fold ~none:0 ~some:Int64.to_int
             (Obs.Export.member_int "super.cases" c)
         | None -> Alcotest.failf "unparseable snapshot: %s" l)

(* a clean alpha campaign of 6 block_min cases with an every-tick
   series attached; returns the report and the series' super.cases *)
let metrics_campaign ~tag ?fleet ~journal ~quarantine ~resume () =
  let path = tmp_path (tag ^ "-metrics") in
  let obs = Obs.create () in
  let stats = Super.Supervisor.of_registry obs.Obs.reg in
  let metrics = Obs.Metrics.open_ ~interval_ms:0 ~path () in
  let p =
    Fuzz.Campaign.run
      ~cfg:{ Fuzz.Oracle.default_config with buildsets = [ "block_min" ] }
      ~obs ~stats ~metrics ?fleet ~isa:"alpha" ~seed:11L ~budget:6 ~journal
      ~quarantine ~resume ()
  in
  Obs.metrics_close metrics obs;
  let cases = series_cases path in
  rm_rf path;
  (p, cases)

let test_campaign_metrics_live () =
  (* a pool of one counts into the caller's registry as each case runs,
     so each snapshot advances super.cases by the case it followed *)
  let journal = tmp_path "metrics-journal" in
  let quarantine = tmp_path "metrics-quarantine" in
  rm_rf journal;
  rm_rf quarantine;
  let p, cases =
    metrics_campaign ~tag:"live" ~journal ~quarantine ~resume:false ()
  in
  rm_rf journal;
  rm_rf quarantine;
  Alcotest.(check int) "executed" 6 p.Fuzz.Campaign.p_cases;
  Alcotest.(check bool) "a snapshot per executed case, then the end" true
    (List.length cases > 6);
  List.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "snapshot %d: super.cases" i)
        (min (i + 1) 6) c)
    cases

let test_campaign_metrics_resume () =
  (* resumed slots do not tick: a resume that executes nothing leaves
     the final tick and the close snapshot, at every pool size; a larger
     pool's final tick already reads the joined totals *)
  List.iter
    (fun jobs ->
      Fleet.with_pool ~jobs (fun fl ->
          let tag = Printf.sprintf "resume-j%d" jobs in
          let journal = tmp_path (tag ^ "-journal") in
          let quarantine = tmp_path (tag ^ "-quarantine") in
          rm_rf journal;
          rm_rf quarantine;
          let _, first =
            metrics_campaign ~tag ~fleet:fl ~journal ~quarantine ~resume:false ()
          in
          let p, resumed =
            metrics_campaign ~tag ~fleet:fl ~journal ~quarantine ~resume:true ()
          in
          rm_rf journal;
          rm_rf quarantine;
          let label = Printf.sprintf "jobs %d" jobs in
          Alcotest.(check (list int))
            (label ^ ": 6 case ticks, final tick, close")
            [ 6; 6 ]
            (List.filteri (fun i _ -> i >= 6) first);
          Alcotest.(check int) (label ^ ": snapshots") 8 (List.length first);
          Alcotest.(check int) (label ^ ": resumed") 6 p.Fuzz.Campaign.p_skipped;
          Alcotest.(check (list int)) (label ^ ": resume ticks once") [ 0; 0 ]
            resumed))
    [ 1; 4 ]

(* ----------------------------------------------------------------- *)
(* Kill-and-resume across a jobs boundary                              *)
(* ----------------------------------------------------------------- *)

let test_campaign_parallel_resume () =
  let journal = tmp_path "resume-journal" in
  let quarantine = tmp_path "resume-quarantine" in
  rm_rf journal;
  rm_rf quarantine;
  let cfg =
    { Fuzz.Oracle.default_config with buildsets = [ "block_min"; "one_min" ] }
  in
  (* a "killed" partial run: the first 6 of 12 budget slots *)
  let p1 =
    Fuzz.Campaign.run ~cfg ~isa:"tiny" ~seed:5L ~budget:6 ~journal ~quarantine
      ()
  in
  Alcotest.(check int) "partial run executed 6" 6 p1.Fuzz.Campaign.p_cases;
  (* resume the full budget in parallel: completed cases never re-run *)
  let p2 =
    Fleet.with_pool ~jobs:4 (fun fl ->
        Fuzz.Campaign.run ~cfg ~fleet:fl ~isa:"tiny" ~seed:5L ~budget:12
          ~journal ~quarantine ~resume:true ())
  in
  Alcotest.(check int) "resume skips the journaled 6" 6
    p2.Fuzz.Campaign.p_skipped;
  Alcotest.(check int) "resume executes the remaining 6" 6
    p2.Fuzz.Campaign.p_cases;
  let v = Super.Journal.load ~path:journal in
  let ids =
    List.map (fun e -> e.Super.Journal.e_case) v.Super.Journal.v_entries
  in
  let uniq = List.sort_uniq String.compare ids in
  Alcotest.(check int) "no case journaled twice" (List.length uniq)
    (List.length ids);
  Alcotest.(check int) "journal covers the full budget" 12 (List.length ids);
  rm_rf journal;
  rm_rf quarantine

let suite =
  [
    Alcotest.test_case "fleet: map by task index, reusable" `Quick
      test_fleet_map;
    Alcotest.test_case "fleet: worker-local state" `Quick
      test_fleet_worker_state;
    Alcotest.test_case "fleet: lowest-index exception propagates" `Quick
      test_fleet_exception;
    Alcotest.test_case "fleet: non-positive jobs rejected" `Quick
      test_fleet_bad_jobs;
    Alcotest.test_case "fleet: worker s runs tasks s, s + jobs, ..." `Quick
      test_fleet_assignment;
    Alcotest.test_case "fleet: a raising complete drains the batch" `Quick
      test_fleet_complete_raises;
    Alcotest.test_case "fleet: a raising task beats a raising complete"
      `Quick test_fleet_task_beats_complete;
    Alcotest.test_case "fleet: run after shutdown is rejected" `Quick
      test_fleet_run_after_shutdown;
    Alcotest.test_case "gen: case_seed golden values" `Quick
      test_case_seed_golden;
    Alcotest.test_case "gen: case generation is schedule-independent" `Quick
      test_case_gen_schedule_independent;
    Alcotest.test_case "campaign: jobs 4 == jobs 1 (tiny, seeded defect)"
      `Quick test_campaign_jobs_deterministic_tiny;
    Alcotest.test_case "campaign: jobs 4 == jobs 1 (alpha)" `Quick
      test_campaign_jobs_deterministic_alpha;
    Alcotest.test_case "campaign: jobs 4 == jobs 1 (ppc)" `Quick
      test_campaign_jobs_deterministic_ppc;
    Alcotest.test_case "campaign: parallel resume runs no case twice" `Quick
      test_campaign_parallel_resume;
    Alcotest.test_case "campaign: metrics series is live at a pool of one"
      `Quick test_campaign_metrics_live;
    Alcotest.test_case "campaign: resumed slots do not tick the series" `Quick
      test_campaign_metrics_resume;
    Alcotest.test_case "fleet: worker states follow the pool size" `Quick
      test_fleet_states;
    Alcotest.test_case "campaign: pools of 1 and 4 match the pinned tiny run"
      `Quick test_pinned_tiny;
    Alcotest.test_case "campaign: pools of 1 and 4 match the pinned alpha run"
      `Quick test_pinned_alpha;
    Alcotest.test_case "campaign: pools of 1 and 4 match the pinned ppc run"
      `Quick test_pinned_ppc;
  ]
