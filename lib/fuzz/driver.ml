(** Campaign driver: generate → 12-way oracle → shrink → reproducer.

    The budget is counted in oracle executions (one candidate checked
    in lockstep against the reference); shrinking does not consume it.
    Everything downstream of [(isa, seed)] is deterministic. *)

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

(* Budget slot [k] is (program [k / n_buildsets], buildset
   [k mod n_buildsets]). A program is a pure function of
   [(seed, k / n_buildsets)] ({!Gen.case_seed}), so any worker can own
   any slot and the case set is schedule-independent. *)

(** A campaign worker's domain-local state: its synthesis cache, the
    last program it generated and the record of that program's
    reference run — a worker that runs a program's slots back to back
    (a pool of one runs them all that way) generates the program and
    runs its reference once. *)
type worker = {
  w_cache : Specsim.Synth.cache;
  w_record : Oracle.record;
  mutable w_last : (int * Gen.testcase) option;
}

let worker spec =
  {
    w_cache = Specsim.Synth.cache spec;
    w_record = Oracle.record ();
    w_last = None;
  }

(** [program w cx ~seed ~index] — program [index] of the campaign, from
    [w]'s memo when it was the last one [w] generated. *)
let program w cx ~seed ~index =
  match w.w_last with
  | Some (i, tc) when i = index -> tc
  | _ ->
    let tc = Gen.generate cx ~seed ~index in
    w.w_last <- Some (index, tc);
    tc

(** [hunt ?cfg ?fleet ~isa ~seed ~budget ()] searches for a divergence,
    stopping at the first one found (then shrinking it) or when [budget]
    oracle executions are spent. The budget window is scanned over
    [fleet] (default: a pool of one, on the calling domain) in rounds of
    [Fleet.jobs fleet] programs' slots, and the first divergence in slot
    order wins: the outcome and its execs/programs accounting are the
    same at every pool size, and a round merely executes the rest of its
    slots after the hit. *)
let hunt ?(cfg = Oracle.default_config) ?(fleet = Fleet.create ~jobs:1 ())
    ~isa ~seed ~budget () : outcome =
  let spec = spec_of_isa isa in
  let cx = Gen.make_ctx ~isa spec in
  let buildsets = Array.of_list cfg.Oracle.buildsets in
  let nbs = Array.length buildsets in
  let workers = Array.init (Fleet.jobs fleet) (fun _ -> worker spec) in
  let chunk = nbs * Fleet.jobs fleet in
  let found = ref None in
  let base = ref 0 in
  while !found = None && !base < budget do
    let n = min chunk (budget - !base) in
    let results =
      Fleet.map fleet ~workers
        ~tasks:
          (Array.init n (fun i ->
               let k = !base + i in
               fun w ->
                 let tc = program w cx ~seed ~index:(k / nbs) in
                 match
                   Oracle.run_pair spec ~cache:w.w_cache ~record:w.w_record
                     cfg tc ~buildset:buildsets.(k mod nbs)
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
      | None -> d (* cannot happen: shrinking preserves divergence *)
    in
    {
      o_isa = isa;
      o_programs = (k / nbs) + 1;
      o_execs = k + 1;
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
  let cache = Specsim.Synth.cache spec and record = Oracle.record () in
  List.map
    (fun bs ->
      (bs, Oracle.run_pair spec ~cache ~record r.r_cfg r.r_tc ~buildset:bs))
    buildsets
