(** The synthesized functional-to-timing simulator interface.

    A value of this type is what {!Synth.make} hands to a timing simulator:
    a functional simulator specialized to one buildset. The three semantic
    shapes of the paper map to three call styles:

    - [run_block]: one call executes a basic block (Block detail);
    - [run_one]: one call executes a single instruction (One detail);
    - [step]: one call executes one entrypoint of one dynamic instruction
      (Step detail) — the timing simulator controls when each piece of the
      instruction's behaviour happens.

    Informational detail is realized in the {!Di.t} records: only cells the
    buildset makes visible have DI slots ([slot_of]). Speculation, when
    enabled, gives per-instruction checkpoints ([Di.ckpt]) plus
    [rollback] / [redirect]. *)

type stats = {
  mutable blocks_compiled : int;
  mutable block_hits : int;
      (** block dispatches served from the cache (chained or probed) *)
  mutable block_invalidations : int;
      (** [flush_code_cache] calls plus blocks killed by code writes *)
  mutable sites_compiled : int;
      (** specialized per-site closures this interface needed (every
          one-entrypoint interface: Block and One) *)
  mutable site_cache_hits : int;
      (** site compilations avoided by the shared [(instr, encoding)]
          translation cache *)
  mutable chain_taken : int;
      (** block dispatches resolved by a predecessor's successor cache *)
  mutable chain_miss : int;
      (** chained dispatches that fell back to the block hash table *)
  mutable instrs_executed : int;  (** via this interface's calls *)
}

type t = {
  spec : Lis.Spec.t;
  bs : Lis.Spec.buildset;
  st : Machine.State.t;
  slots : Slots.t;
  journal : Specul.t option;
  entry_names : string array;
  run_one : Di.t -> unit;
      (** execute the instruction at the current fetch pc; commits state
          and advances the fetch pc *)
  run_block : unit -> Di.t array * int;
      (** execute a basic block at the current fetch pc; returns the DI
          records (engine-owned, valid until the next call) and the
          count. A block dispatched more than once returns records of
          its own, the same ones on every dispatch, so their header
          fields are rewritten only where a value changed. *)
  step : Di.t -> int -> unit;
      (** [step di k] runs entrypoint [k] for [di]; the caller owns fetch
          redirection and retirement *)
  retire : Di.t -> unit;
      (** commit a stepped instruction: advance fetch pc to [di.next_pc]
          and count it as retired *)
  redirect : int64 -> unit;  (** set the fetch pc (branch redirect) *)
  checkpoint : unit -> int;
  rollback : int -> unit;
  commit_ckpt : int -> unit;
  flush_code_cache : unit -> unit;
      (** drop compiled blocks (needed after writing code memory) *)
  run_fast : int -> int;
      (** [run_fast n] executes at least [n] instructions (rounding up to
          a block boundary) through the fastest dispatch path of this
          interface and returns the number actually executed (less than
          [n] only on halt/fault). Produces no DI records. An unjournaled
          Block interface dispatches block to block through its chains;
          an unobserved Step interface walks each instruction's items in
          one loop, with the header in the engine's frame alone; the
          rest run [run_block] or [run_one] on a record of the engine's. *)
  stats : stats;
}

let n_entrypoints t = Array.length t.entry_names

(** [slot_of t name] is the DI slot of cell [name] if visible in this
    interface. Timing simulators resolve the cells they consume once, at
    connection time. *)
let slot_of t name = Slots.slot_of_name t.spec t.slots name

(** [slot_of_exn t name] raises with a helpful message when the cell is
    hidden — the typical interface-mismatch error the paper describes. *)
let slot_of_exn t name =
  match slot_of t name with
  | Some s -> s
  | None ->
    Machine.Sim_error.raisef ~component:"interface"
      ~context:
        [ ("isa", t.spec.name); ("buildset", t.bs.bs_name); ("cell", name) ]
      "cell is not exposed by this interface (hidden by visibility)"

(** [rollback_di t di] undoes the architectural effects of [di] and every
    later instruction (requires a speculative buildset). *)
let rollback_di t (di : Di.t) =
  if di.ckpt < 0 then invalid_arg "rollback_di: no checkpoint on this DI";
  t.rollback di.ckpt

(** [run_n t n] executes up to [n] instructions through the fastest call
    style of this interface ([run_fast]: chained blocks, or a Step
    interface's DI-free walk, when available) and returns the number
    actually executed (less than [n] on halt/fault). This is the paper's
    "fast-forward" entry used during sampling, and the supervised
    runtime's for its step_all shadow. Each call returns after at most
    [n] instructions (plus block slack), which is the preemption point
    watchdogs and injectors rely on: chained dispatch cannot spin past
    the slice. *)
let run_n t n = t.run_fast n
