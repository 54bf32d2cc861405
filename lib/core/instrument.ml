(** The instrumentation layer of synthesized interfaces.

    {!Synth.make} builds one of these for a full observation context
    ([Obs.create]): the counters, histograms, sampler and gauges of one
    interface. The engine's per-instruction loops count each entrypoint
    crossing in place; this module wraps [run_one] for the trace ring,
    and counts the blocks of both block loops ([run_block] and the
    chained [run_fast]) from its per-block hooks. Unobserved and
    profile-only interfaces never see it.

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
  mutable block_timed : bool;  (** the next block is sampled *)
  mutable block_t0 : int;  (** when it began, read if timed or traced *)
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
      block_timed = false;
      block_t0 = 0;
    }
  in
  let gauge name f = R.probe reg name (fun () -> R.Int (f ())) in
  gauge "synth.latency_sample_every" (fun () -> Obs.Sample.every);
  gauge "core.instrs_executed" (fun () -> stats.Iface.instrs_executed);
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
      ];
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

(** [block_start t] — a block loop is entered: read the clock if its
    next block is sampled or traced. *)
let block_start t =
  if t.block_timed || traced t then t.block_t0 <- Obs.Clock.now ()

(** [block_exit t pc0 k] — the per-block hook of both block loops, for a
    block at [pc0] that retired [k > 0] sites: count its [k] crossings
    of the block entrypoint, time it if the sampler picked it, record
    its ring event, and start the next one. In the chained loop the
    clock is read when the previous block's hook (or the loop's entry)
    ends, so a sample covers the block's dispatch and its sites;
    [run_block] reads it again on entry. *)
let block_exit t pc0 k =
  R.add t.crossings k;
  R.add t.ep_calls.(0) k;
  let timed = t.block_timed in
  if timed || traced t then begin
    let dt = Obs.Clock.now () - t.block_t0 in
    if timed then Obs.Hist.record t.block_ns dt;
    match t.ring with
    | Some ring ->
      Obs.Ring.record ring ~ts_ns:(Int64.of_int t.block_t0) ~dur_ns:dt
        ~name:"block" ~cat:"block"
        ~args:[ ("pc", Obs.Ring.I pc0); ("instrs", Obs.Ring.I (Int64.of_int k)) ]
    | None -> ()
  end;
  t.block_timed <- Obs.Sample.tick t.sampler;
  block_start t
