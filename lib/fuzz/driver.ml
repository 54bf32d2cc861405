(** Campaign driver: generate → 12-way oracle → shrink → reproducer.

    The budget is counted in oracle executions (one candidate/reference
    lockstep run); shrinking does not consume it. Everything downstream
    of [(isa, seed)] is deterministic. *)

let spec_of_isa = function
  | "tiny" -> Lazy.force Tiny.spec
  | name -> Lazy.force (Workload.find_target name).Workload.spec

(** ISAs a campaign covers with --isa all: the four real ISAs plus the
    2-byte tiny16. A stride defect is observable only where real strides
    differ from 4 — tiny16 everywhere, riscv wherever RVC parcels mix
    into a block. *)
let all_isas = [ "alpha"; "arm"; "ppc"; "riscv"; "tiny" ]

type outcome = {
  o_isa : string;
  o_programs : int;  (** testcases generated *)
  o_execs : int;  (** oracle executions spent searching *)
  o_found : (Gen.testcase * Oracle.divergence) option;
  o_shrunk : (Gen.testcase * Oracle.divergence) option;
      (** minimized testcase and its (re-verified) divergence *)
  o_shrink_tests : int;
}

(* Fleet search: the budget window is scanned in rounds of a few
   programs' worth of slots; each slot regenerates its program from
   [(seed, slot / n_buildsets)] — pure, so any worker can own any slot
   — and the first divergence in slot order wins. The outcome (and its
   reported execs/programs accounting) is exactly the sequential
   hunt's; a round may merely execute a few slots past the hit. *)
let hunt_fleet ~cfg fl ~isa ~seed ~budget : outcome =
  let spec = spec_of_isa isa in
  let cx = Gen.make_ctx ~isa spec in
  let buildsets = Array.of_list cfg.Oracle.buildsets in
  let nbs = Array.length buildsets in
  (* one synthesis cache per worker domain *)
  let workers =
    Array.init (Fleet.jobs fl) (fun _ -> Specsim.Synth.cache spec)
  in
  let chunk = nbs * max 2 (Fleet.jobs fl) in
  let found = ref None in
  let base = ref 0 in
  while !found = None && !base < budget do
    let n = min chunk (budget - !base) in
    let results =
      Fleet.map fl ~workers
        ~tasks:
          (Array.init n (fun i ->
               let k = !base + i in
               fun cache ->
                 let tc = Gen.generate cx ~seed ~index:(k / nbs) in
                 match
                   Oracle.run_pair spec ~cache cfg tc
                     ~buildset:buildsets.(k mod nbs)
                 with
                 | Some d -> Some (k, tc, d)
                 | None -> None))
    in
    (* ascending slot order: the first hit is the sequential one *)
    Array.iter
      (fun r -> if !found = None then found := r)
      results;
    base := !base + n
  done;
  match !found with
  | None ->
    {
      o_isa = isa;
      o_programs = (budget + nbs - 1) / nbs;
      o_execs = budget;
      o_found = None;
      o_shrunk = None;
      o_shrink_tests = 0;
    }
  | Some (k, tc, d) ->
    let bs = d.Oracle.d_buildset in
    let { Shrink.s_tc; s_tests } = Shrink.shrink spec cfg ~buildset:bs tc in
    let d' =
      match Oracle.run_pair spec cfg s_tc ~buildset:bs with
      | Some d' -> d'
      | None -> d
    in
    {
      o_isa = isa;
      o_programs = (k / nbs) + 1;
      o_execs = k + 1;
      o_found = Some (tc, d);
      o_shrunk = Some (s_tc, d');
      o_shrink_tests = s_tests;
    }

(** [hunt ?cfg ?fleet ~isa ~seed ~budget ()] searches for a divergence,
    stopping at the first one found (then shrinking it) or when [budget]
    oracle executions are spent. [fleet] parallelizes the search over a
    domain pool; the outcome is identical to the sequential scan. *)
let hunt ?(cfg = Oracle.default_config) ?fleet ~isa ~seed ~budget () : outcome
    =
  match fleet with
  | Some fl when Fleet.jobs fl > 1 -> hunt_fleet ~cfg fl ~isa ~seed ~budget
  | _ ->
  let spec = spec_of_isa isa in
  let cx = Gen.make_ctx ~isa spec in
  let cache = Specsim.Synth.cache spec in
  let execs = ref 0 in
  let programs = ref 0 in
  let found = ref None in
  let index = ref 0 in
  while !found = None && !execs < budget do
    let tc = Gen.generate cx ~seed ~index:!index in
    incr programs;
    incr index;
    List.iter
      (fun bs ->
        if !found = None && !execs < budget then begin
          incr execs;
          match Oracle.run_pair spec ~cache cfg tc ~buildset:bs with
          | Some d -> found := Some (tc, d)
          | None -> ()
        end)
      cfg.Oracle.buildsets
  done;
  match !found with
  | None ->
    {
      o_isa = isa;
      o_programs = !programs;
      o_execs = !execs;
      o_found = None;
      o_shrunk = None;
      o_shrink_tests = 0;
    }
  | Some (tc, d) ->
    let bs = d.Oracle.d_buildset in
    let { Shrink.s_tc; s_tests } = Shrink.shrink spec cfg ~buildset:bs tc in
    let d' =
      match Oracle.run_pair spec ~cache cfg s_tc ~buildset:bs with
      | Some d' -> d'
      | None -> d (* cannot happen: shrinking preserves divergence *)
    in
    {
      o_isa = isa;
      o_programs = !programs;
      o_execs = !execs;
      o_found = Some (tc, d);
      o_shrunk = Some (s_tc, d');
      o_shrink_tests = s_tests;
    }

(** [replay r] re-runs a reproducer through every buildset its config
    names and returns the per-buildset verdicts, recorded-buildset
    first. Deterministic: same file, same verdicts, same strings. *)
let replay (r : Repro.t) : (string * Oracle.divergence option) list =
  let spec = spec_of_isa r.Repro.r_tc.Gen.tc_isa in
  let buildsets =
    match r.r_buildset with
    | Some bs ->
      bs :: List.filter (fun b -> not (String.equal b bs)) r.r_cfg.Oracle.buildsets
    | None -> r.r_cfg.Oracle.buildsets
  in
  let cache = Specsim.Synth.cache spec in
  List.map
    (fun bs -> (bs, Oracle.run_pair spec ~cache r.r_cfg r.r_tc ~buildset:bs))
    buildsets
