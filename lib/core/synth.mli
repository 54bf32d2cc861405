(** The simulator synthesizer — the paper's contribution, mechanized.

    [make spec buildset_name] specializes a functional simulator for one
    interface: cells get storage per the buildset's visibility (retained
    DI slots vs. reused scratch), actions are grouped into the buildset's
    entrypoints and fused, dead information computation is eliminated,
    speculation hooks are compiled in only when asked for, and — for
    block-semantic buildsets — each basic block is specialized against its
    concrete instruction encodings and cached (the binary-translation
    analog). *)

exception Synth_error of string

(** Execution backend: [Compiled] closures (default) or the reference
    [Interpreted] AST walker (paper footnote 5's baseline). *)
type backend = Compiled | Interpreted

(** Deliberate engine defects for mutation-testing the conformance fuzzer
    ([lisim fuzz --mutate]): [Stale_chain] trusts successor-cache links and
    cached blocks without re-checking [b_valid], [Skip_invalidate] drops
    the code-write hook so stores never invalidate translated blocks, and
    [Stride4] hard-codes a 4-byte stride in block pc arrays. A healthy
    differential fuzzer must detect all three (see {!Fuzz.Driver}). *)
type mutation = Stale_chain | Skip_invalidate | Stride4

val mutation_to_string : mutation -> string

(** Inverse of {!mutation_to_string}; [None] on unknown names. *)
val mutation_of_string : string -> mutation option

(** Sliding rollback-horizon (instructions) for speculative interfaces. *)
val spec_window : int

(** A synthesis cache: the {!Plan} of one specification, filled on use.
    It holds what synthesis derives without a machine — the decoder,
    the block engine's chain IR, and per buildset the slot layout,
    liveness verdict, segments and optimized IR — plus the compiled
    per-instruction code that later interfaces of the same entrypoints
    and visibility share, and the translated sites those of the same
    visibility share, plain code apart from hooked: speculative
    interfaces share as plain ones do. Only [Compiled] interfaces with
    [site_cache] share code, all of it compiled with the per-site
    memory fast paths; the others compile their own. A cache belongs to its caller (a campaign, a fleet worker, a
    supervised session) and to the one domain that uses it; the library
    holds none globally. *)
type cache

(** [cache spec] is an empty cache for [spec]. *)
val cache : Lis.Spec.t -> cache

(** [decoder cache] is the decoder of [cache]'s specification, built
    with the cache: a caller that lays out code can share it rather than
    build its own. *)
val decoder : cache -> Decoder.t

(** [make ?backend ?allow_hidden_crossing ?chain ?site_cache ?cache ?obs
    ?st spec buildset] synthesizes the interface. A fresh machine is
    created unless [st] is given (sharing [st] across interfaces is how
    sampling and rotating validation work). [cache] supplies the plan;
    without it [make] builds a private one, so both ways run the same
    code. An interface made through a cache behaves exactly like a fresh
    one: shared code reads the machine only through its arguments, and
    its per-site page caches check memory identity and generation.

    Block-semantic buildsets get a translation-cache engine: compiled
    blocks carry a bi-morphic successor cache so hot edges dispatch
    block-to-block without a hash probe ([chain], default on; stats
    [chain_taken]/[chain_miss]), compiled sites are shared across blocks
    through an [(instr, encoding)] cache ([site_cache], default on; stat
    [site_cache_hits]), and pages holding translated code are tracked so
    writes to them invalidate the affected blocks and chain links —
    self-modifying code observes its own stores. Disabling both flags turns both caches off, and the
    fast-forward loop ([run_fast]) stays DI-free either way, so the A/B
    isolates the caches.

    [site_cache] also gives every load and store that any interface
    compiles, Step interfaces' generic code included, a per-site memory
    fast path (a one-entry page cache), and lets [Compiled] interfaces
    share compiled code through [cache]; without it an interface
    compiles its own code, without fast paths. The fast path is safe for
    stores: a store site never caches a page that holds translated
    code, and marking a page as code invalidates every cached page.

    Every one-entrypoint interface (Block and One) runs [run_one] on the
    same translated sites, through a small pc-indexed cache of decoded
    instructions that a hit trusts only for the instruction bytes it was
    decoded from, so it needs no invalidation. [Compiled] interfaces
    share their sites through [cache], per visibility, hooked apart from
    plain, in a table emptied in full when it fills. Step interfaces
    compile their generic per-segment code in set-up; one-entrypoint
    interfaces only on their first [step].

    [mutate] deliberately re-breaks the engine (one {!mutation} bug
    class) — for fuzzer validation only, never for real simulation.

    [hooks] are called before every architectural write of a
    non-speculative interface, as a speculative interface's journal is:
    the fuzz oracle records its reference through them. Hooks ride in
    the interface's frames, not in its code, so hooked code is shared
    through [cache] with every hooked interface, journaled or not, as
    plain code is with every plain one. Generic code built for [hooks]
    compiles each class the first time it runs, also for a speculative
    interface that takes it from [cache]. So an interface without
    [hooks] never runs hooked code, and is the one [make] built before
    they existed; one with [hooks] never runs plain code.

    [absint] is ignored: no verdict gates the memory fast paths any
    more. It is accepted only so that existing callers (the ledger's
    ablations) still compile.

    [obs], when given, compiles instrumentation into the interface's
    call paths (see {!Instrument}): every entrypoint crossing is counted
    exactly ("synth.entrypoint_calls", "synth.ep.<name>.calls"), as are
    engine segments (fetch / decode / ir, "synth.seg.<seg>.calls") and
    executed block sites; about one crossing or block in
    {!Obs.Sample.every}, at jittered gaps, is timed into log2 histograms
    ("synth.ep.<name>.ns", "synth.seg.<seg>.ns", "synth.block.ns"), with
    the rate published as "synth.latency_sample_every"; block-cache and
    fused-closure statistics are exported as "core.*" gauges; and — when
    the context carries a trace ring — one event is recorded per
    instruction (or per block). Chained dispatch is kept. When the
    context carries a profiler ([Obs.t.prof], in a full or a
    profile-only context, {!Obs.profile_only}), the engine attributes to
    it where it retires: each instruction at its pc in [retire], which
    every [run_one] and a stepped flow reach, and each block at its entry
    pc in the per-block exit that [run_block] and the chained loop share.
    A halting instruction is not attributed. Without [obs] the
    interface is the uninstrumented one, same compiled-in pattern as
    {!Semir.Hooks}: its entrypoint crossings and attribution points pay
    one predicted branch on the synthesis-time choice and nothing
    else.
    @raise Synth_error when the buildset hides a cell that crosses
    entrypoint boundaries (override with [allow_hidden_crossing] to
    observe the paper's runtime manifestation of the bug).
    @raise Invalid_argument when [cache] was made for another
    specification, or [hooks] are given for a speculative buildset. *)
val make :
  ?backend:backend ->
  ?allow_hidden_crossing:bool ->
  ?chain:bool ->
  ?site_cache:bool ->
  ?absint:bool ->
  ?mutate:mutation ->
  ?hooks:Semir.Hooks.t ->
  ?cache:cache ->
  ?obs:Obs.t ->
  ?st:Machine.State.t ->
  Lis.Spec.t ->
  string ->
  Iface.t
