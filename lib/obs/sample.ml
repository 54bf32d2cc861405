(** Jittered 1-in-N event sampling, for latency histograms.

    Counting an event is an increment; timing it is two clock reads and
    a histogram update, which costs more than most of the events being
    timed. Observed interfaces therefore count every entrypoint crossing
    exactly and time about one in {!every}. A fixed countdown would
    alias with any loop whose body length divides {!every} (a four-site
    loop would only ever time the same site), so each gap to the next
    sample is drawn uniformly from [1, 2 {!every} - 1], mean {!every},
    by a fixed-seed xorshift generator: runs stay reproducible and every
    phase of a periodic stream gets sampled. *)

(** Mean gap between samples. A constant, published by observed
    interfaces as the gauge "synth.latency_sample_every" so histogram
    counts scale back to event counts. A sample costs about 350 ns on
    the reference host (two clock reads at ~60 ns each, and code and
    histogram buckets that are cold by the time it runs): one in 64
    step_all crossings cost 9% of the interface's time, one in 256
    costs about 2.5%. *)
let every = 256

type t = {
  mutable left : int;
      (** events until the next sample, this one included. {!tick}'s
          fast case is [left <- left - 1] while [left > 1]: the
          synthesized interfaces' per-crossing path inlines it, because
          a call into another module costs more than the decrement
          (dune's default profile compiles libraries [-opaque], which
          rules out cross-module inlining). Coarser callers use
          {!tick}. *)
  mutable x : int;  (** generator state *)
}

let seed = 0x2545_F491

(* Marsaglia's xorshift32 (13, 17, 5): period 2^32 - 1 over non-zero
   states. *)
let next_gap t =
  let x = t.x in
  let x = x lxor ((x lsl 13) land 0xFFFF_FFFF) in
  let x = x lxor (x lsr 17) in
  let x = x lxor ((x lsl 5) land 0xFFFF_FFFF) in
  t.x <- x;
  1 + (x mod ((2 * every) - 1))

(** [rearm t] draws the gap to the next sample, after a sampled event. *)
let rearm t = t.left <- next_gap t

(** [create ()] — a sampler. Every sampler starts from the same seed,
    so equal event streams are sampled at equal positions. *)
let create () =
  let t = { left = 0; x = seed } in
  rearm t;
  t

(** [tick t] counts one event and is [true] when that event is sampled. *)
let tick t =
  if t.left > 1 then begin
    t.left <- t.left - 1;
    false
  end
  else begin
    rearm t;
    true
  end
