(** The instrumentation layer of synthesized interfaces.

    {!Synth.make} builds one of these for a full observation context
    ([Obs.create]): the counters, histograms, sampler and gauges of one
    interface. Its plain loops count each entrypoint crossing in place;
    this module wraps the coarser calls — [run_one] for the trace ring
    and [run_block] — and counts the chained [run_fast] loop's blocks
    from its per-block hook. Unobserved and profile-only interfaces
    never see it.

    Counters are exact: every crossing, engine segment (fetch / decode /
    ir) and executed block site is counted. Latency is sampled: about
    one crossing or block in {!Obs.Sample.every}, at jittered gaps,
    reads the clock and records into the log2 histograms, because two
    clock reads cost as much as the crossing they would time, or more.
    The rate is published as the gauge "synth.latency_sample_every". A
    trace ring, when attached, still gets one event per instruction (on
    [run_one]) or block, since the user asked for a full trace. *)

module R = Obs.Registry

type t = {
  crossings : R.counter;
  ep_calls : R.counter array;
  ep_ns : Obs.Hist.t array;
  seg_calls : R.counter array;  (** fetch, decode, ir *)
  seg_ns : Obs.Hist.t array;
  block_ns : Obs.Hist.t;
  sampler : Obs.Sample.t;
  ring : Obs.Ring.t option;
  mutable chain_timed : bool;  (** the chained loop's next block is sampled *)
  mutable chain_t0 : int;  (** when it began, read if timed or traced *)
}

let segments = [| "fetch"; "decode"; "ir" |]

(** [create o bs stats ~journal ~translates ~fused_closures] registers an
    interface's counters and histograms, and exports its engine
    statistics, its journal and its fused-closure accounting as pull
    gauges. *)
let create (o : Obs.t) (bs : Lis.Spec.buildset) (stats : Iface.stats)
    ~journal ~translates ~fused_closures =
  let reg = o.Obs.reg in
  let per_ep suffix f =
    Array.map (fun (nm, _) -> f reg ("synth.ep." ^ nm ^ suffix)) bs.bs_entrypoints
  in
  let per_seg suffix f =
    Array.map (fun nm -> f reg ("synth.seg." ^ nm ^ suffix)) segments
  in
  let t =
    {
      crossings = R.counter reg "synth.entrypoint_calls";
      ep_calls = per_ep ".calls" R.counter;
      ep_ns = per_ep ".ns" R.histogram;
      seg_calls = per_seg ".calls" R.counter;
      seg_ns = per_seg ".ns" R.histogram;
      block_ns = R.histogram reg "synth.block.ns";
      sampler = Obs.Sample.create ();
      ring = o.Obs.ring;
      chain_timed = false;
      chain_t0 = 0;
    }
  in
  let gauge name f = R.probe reg name (fun () -> R.Int (f ())) in
  gauge "synth.latency_sample_every" (fun () -> Obs.Sample.every);
  gauge "core.instrs_executed" (fun () -> stats.Iface.instrs_executed);
  gauge "core.absint_ns" (fun () -> stats.absint_ns);
  (* block-cache gauges exist only where a block cache does, so a block
     pass sharing a registry with a per-instruction primary interface
     contributes them without fighting over names *)
  if bs.bs_block then
    List.iter
      (fun (nm, f) -> gauge ("core.block_cache." ^ nm) f)
      [
        ("hits", fun () -> stats.block_hits);
        ("compiled", fun () -> stats.blocks_compiled);
        ("invalidations", fun () -> stats.block_invalidations);
        ("chain_taken", fun () -> stats.chain_taken);
        ("chain_miss", fun () -> stats.chain_miss);
        ("site_cache_hits", fun () -> stats.site_cache_hits);
        ("stable_blocks", fun () -> stats.stable_blocks);
      ]
  else gauge "core.absint_fastpath_classes" (fun () -> stats.fastpath_classes);
  (* Fused-closure accounting: an interface that translates (one
     entrypoint: Block and One) specializes one closure per site, on the
     site's first execution; a Step interface holds [fused_closures],
     one eagerly compiled closure per instruction and IR-bearing
     segment. *)
  gauge "core.fused_closures_compiled" (fun () ->
      if translates then stats.sites_compiled else fused_closures);
  gauge "core.fused_closure_reuse" (fun () ->
      max 0
        (if translates then stats.instrs_executed - stats.sites_compiled
         else t.seg_calls.(1).R.n + t.seg_calls.(2).R.n - fused_closures));
  Option.iter (fun j -> Specul.register_obs j o) journal;
  t

let traced t = match t.ring with Some _ -> true | None -> false

(** [run_one t spec st run_one] adds the trace ring's per-instruction
    event; without a ring it is [run_one] itself. *)
let run_one t (spec : Lis.Spec.t) (st : Machine.State.t) run_one =
  match t.ring with
  | None -> run_one
  | Some ring ->
    fun (di : Di.t) ->
      if not st.halted then begin
        let t0 = Obs.Clock.now () in
        run_one di;
        let name =
          if di.instr_index >= 0 then spec.instrs.(di.instr_index).i_name
          else "?"
        in
        Obs.Ring.record ring ~ts_ns:(Int64.of_int t0)
          ~dur_ns:(Obs.Clock.now () - t0) ~name ~cat:"instr"
          ~args:[ ("pc", Obs.Ring.I di.pc) ]
      end

(* A block of [n] executed sites: [n] crossings of the block entrypoint,
   and a histogram sample and ring event when it was timed. *)
let block t ~timed ~t0 pc n =
  R.add t.crossings n;
  R.add t.ep_calls.(0) n;
  if timed || traced t then begin
    let dt = Obs.Clock.now () - t0 in
    if timed then Obs.Hist.record t.block_ns dt;
    match t.ring with
    | Some ring when n > 0 ->
      Obs.Ring.record ring ~ts_ns:(Int64.of_int t0) ~dur_ns:dt ~name:"block"
        ~cat:"block"
        ~args:[ ("pc", Obs.Ring.I pc); ("instrs", Obs.Ring.I (Int64.of_int n)) ]
    | Some _ | None -> ()
  end

(** [run_block t run_block] — the block engine's [run_block], counted,
    and timed when sampled. *)
let run_block t run_block () =
  let timed = Obs.Sample.tick t.sampler in
  let t0 = if timed || traced t then Obs.Clock.now () else 0 in
  let ((dis, n) as r) = run_block () in
  block t ~timed ~t0 (if n > 0 then dis.(0).Di.pc else 0L) n;
  r

(** [chain_start t] — the chained [run_fast] loop is entered: read the
    clock if its next block is sampled or traced. *)
let chain_start t =
  if t.chain_timed || traced t then t.chain_t0 <- Obs.Clock.now ()

(** [chain_block t pc0 k] — the chained loop's per-block hook: count the
    block's crossings, time the block the sampler picked, and start the
    next one. The clock is read when the previous block's hook (or the
    loop's entry) ends and again when this one begins, so a sample
    covers the block's dispatch and its sites. *)
let chain_block t pc0 k =
  block t ~timed:t.chain_timed ~t0:t.chain_t0 pc0 k;
  t.chain_timed <- Obs.Sample.tick t.sampler;
  chain_start t
