(** Domain fleet: a fixed pool of OCaml 5 domains for batches of
    independent campaign cases. Task assignment is static: in a pool of
    [jobs] workers, worker [s] runs tasks [s], [s + jobs], [s + 2·jobs],
    … of each batch, in ascending order.

    The calling domain is the {e collector}: it hands a batch out, then
    consumes completions as workers finish — so all effectful
    aggregation (journal appends, quarantine writes, report counters)
    happens on one domain and needs no locking, while the pure
    per-case work spreads across the pool. Workers carry caller-typed
    per-worker state ([workers.(i)] for worker slot [i]); a task only
    ever sees the state of the worker that executes it, so domain-local
    resources (an {!Obs} registry, a synthesis cache) are threaded by
    construction — reaching another domain's state is a type error, not
    a data race.

    A pool of one spawns no domain: the collector is its only worker
    and runs each task itself, in task order, consuming each completion
    before it starts the next task. Every campaign driver runs this one
    path, so [--jobs 1] is the same driver with no domain spawned.

    Exceptions raised by tasks are captured per task and re-raised on
    the collector after the batch drains (lowest task index first), so
    {!Machine.Sim_error} taxonomy and exit codes propagate unchanged. *)

type t

(** [create ~jobs ()] spawns [jobs] worker domains (default
    {!Domain.recommended_domain_count}), parked until the first batch —
    none when [jobs] is 1. [jobs] must be positive. *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int

(** [run t ~workers ~tasks ~complete] executes every [tasks.(k)]
    exactly once on worker [k mod jobs t], passing it that worker's
    state, and calls [complete k result] on the calling domain as
    completions arrive (in task order in a pool of one, in
    schedule-dependent order otherwise). [workers] must have length
    [jobs t]. Returns when every task has completed and every
    completion has been consumed. Then, if tasks raised, the exception
    of the lowest-indexed raising task is re-raised; otherwise, if
    [complete] raised, its exception is (it is not called again after
    raising, but every task still runs). *)
val run :
  t ->
  workers:'w array ->
  tasks:('w -> 'a) array ->
  complete:(int -> 'a -> unit) ->
  unit

(** [map t ~workers ~tasks] — {!run} collecting results by task index. *)
val map : t -> workers:'w array -> tasks:('w -> 'a) array -> 'a array

(** [with_states t ~caller ~fresh ~join f] runs [f] on the per-worker
    states for {!run}, chosen by one rule. A pool of one runs its tasks
    on the calling domain, so its worker state is [caller] itself and
    every update is visible there at once. Each worker of a larger pool
    gets its own [fresh ()], and [join] folds each one back, in worker
    order, when [f] returns or raises. *)
val with_states :
  t ->
  caller:'w ->
  fresh:(unit -> 'w) ->
  join:('w -> unit) ->
  ('w array -> 'b) ->
  'b

(** Stop and join all worker domains. The pool is unusable afterwards:
    a non-empty {!run} raises the [fleet] {!Machine.Sim_error}. *)
val shutdown : t -> unit

(** [with_pool ?jobs f] — [create], run [f], always [shutdown]. *)
val with_pool : ?jobs:int -> (t -> 'b) -> 'b
