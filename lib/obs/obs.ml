(** Observability context — what a component is handed when the user
    asks for instrumentation.

    The design rule (same as {!Semir.Hooks}): observability is
    {e compiled in} at synthesis/construction time. A component receives
    [Obs.t option]; with [None] it builds the plain closures — no
    counting, no clock reads — so an unobserved simulator pays only one
    predicted branch on a synthesis-time constant per entrypoint
    crossing (see [Synth.make]). With [Some]
    it builds instrumented closures that update registry counters
    exactly, record a jittered 1-in-{!Sample.every} sample of latencies
    into log2 histograms, and (when a ring is attached) append
    structured trace events.

    A context owns:
    - [reg]: the counter/gauge/histogram {!Registry}, namespaced per
      component ("core.*", "synth.*", "specul.*", "checker.*",
      "timing.*", "inject.*", "os.*", "super.*");
    - [ring]: an optional fixed-capacity event {!Ring} for trace export
      ({!Export.jsonl_of_events} / {!Export.chrome_of_events});
    - [prof]: an optional hot-region execution {!Prof}iler. Synthesized
      interfaces attribute to it where their engine retires: in
      [retire], at the exit of a block engine's [run_block] and at the
      chained loop's per-block point;
    - [full]: whether the counter/histogram/ring instrumentation is
      compiled in. {!profile_only} contexts set it
      to [false]: synthesis then builds the {e seed} closures plus only
      the profiler's cached-region attribution — the light hook whose
      overhead the bench overhead section bounds at 2%. *)

module Clock = Clock
module Hist = Hist
module Ring = Ring
module Registry = Registry
module Export = Export
module Prof = Prof
module Metrics = Metrics
module Sample = Sample

type t = {
  reg : Registry.t;
  ring : Ring.t option;
  prof : Prof.t option;
  full : bool;
}

let default_ring_capacity = 65_536

(** [create ()] — counters and histograms only. Pass [~trace:true] (or
    an explicit [~ring_capacity]) to also buffer trace events, and
    [~prof] to additionally attribute execution to the profiler. *)
let create ?(trace = false) ?ring_capacity ?prof () =
  let ring =
    match ring_capacity with
    | Some c -> Some (Ring.create ~capacity:c)
    | None -> if trace then Some (Ring.create ~capacity:default_ring_capacity) else None
  in
  { reg = Registry.create (); ring; prof; full = true }

(** [profile_only ()] — a context that compiles in {e only} hot-region
    attribution: no counters, no histograms, no ring. The synthesized
    closures are the seed closures plus one cached-region
    compare-and-add per retirement (or per block on block interfaces,
    where the chained translation-cache fast path is retained). This is
    what [lisim profile] and the bench overhead section use. *)
let profile_only ?prof () =
  let prof = match prof with Some p -> p | None -> Prof.create () in
  { reg = Registry.create (); ring = None; prof = Some prof; full = false }

let snapshot t = Registry.snapshot t.reg
let events t = match t.ring with None -> [] | Some r -> Ring.to_list r

(** [mirror t] — an empty context instrumented like [t]: full or
    profile-only as [t] is, with a ring when [t] has one and a fresh
    profiler of the same region size when [t] has one. A fleet worker
    on another domain counts into its mirror, and {!merge} folds the
    mirror back into [t] when the batch ends. *)
let mirror t =
  let prof =
    Option.map (fun p -> Prof.create ~region_bits:(Prof.region_bits p) ()) t.prof
  in
  if t.full then create ~trace:(t.ring <> None) ?prof () else profile_only ?prof ()

(** [merge ~into src] folds a worker context into a parent one — the
    join step after a parallel campaign, where every domain ran against
    its own private context. Counters and histograms combine exactly
    ({!Registry.merge}); profilers combine via {!Prof.merge} when both
    sides carry one; ring events append in [src] order after [into]'s
    (per-worker order is preserved, cross-worker order is the join
    order, which callers make deterministic by joining workers in index
    order). *)
let merge ~into src =
  Registry.merge ~into:into.reg src.reg;
  (match (into.prof, src.prof) with
  | Some p, Some q -> Prof.merge ~into:p q
  | _ -> ());
  match (into.ring, src.ring) with
  | Some r, Some s ->
    List.iter
      (fun (e : Ring.event) ->
        Ring.record r ~ts_ns:e.ts_ns ~dur_ns:e.dur_ns ~name:e.name ~cat:e.cat
          ~args:e.args)
      (Ring.to_list s)
  | _ -> ()

(** Periodic-metrics conveniences: tick/flush the series with this
    context's registry and profiler. *)
let metrics_tick m t = Metrics.tick ?prof:t.prof m t.reg
let metrics_close m t = Metrics.close ?prof:t.prof m t.reg