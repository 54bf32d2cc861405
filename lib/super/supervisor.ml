(** Case supervisor: runs one campaign case under a deadline with
    bounded, deterministic retry.

    Failures are classified by {!Taxonomy.classify}:

    - transient failures are retried up to [max_attempts] times with
      exponential backoff whose jitter comes from the campaign's
      splitmix PRNG — two runs with the same seed sleep the same
      schedule, keeping supervised campaigns reproducible;
    - deterministic failures are returned immediately as {!Gave_up}
      (the caller quarantines them);
    - fatal (unclassified) failures are re-raised: the supervisor never
      converts an unknown crash into silent progress. *)

type config = {
  seed : int64;  (** campaign seed; jitter derives from it *)
  max_attempts : int;
  backoff_base_s : float;
  backoff_max_s : float;
  case_deadline_s : float option;
      (** per-attempt wall-clock allowance; the case body receives the
          absolute deadline and is expected to poll
          {!Inject.Watchdog.check_deadline} at its preemption points *)
}

let default =
  {
    seed = 0L;
    max_attempts = 3;
    backoff_base_s = 0.05;
    backoff_max_s = 2.0;
    case_deadline_s = None;
  }

(** Supervision counters, shared by the supervised campaign drivers.
    [probe]-registered so several drivers can attach to one registry. *)
type stats = {
  s_cases : Obs.Registry.counter;
  s_retries : Obs.Registry.counter;
  s_transient : Obs.Registry.counter;
  s_gave_up : Obs.Registry.counter;
  s_quarantined : Obs.Registry.counter;
  s_demotions : Obs.Registry.counter;
  s_replays : Obs.Registry.counter;
  s_slices : Obs.Registry.counter;
}

let of_registry (reg : Obs.Registry.t) : stats =
  {
    s_cases = Obs.Registry.counter reg "super.cases";
    s_retries = Obs.Registry.counter reg "super.retries";
    s_transient = Obs.Registry.counter reg "super.transient_failures";
    s_gave_up = Obs.Registry.counter reg "super.gave_up";
    s_quarantined = Obs.Registry.counter reg "super.quarantined";
    s_demotions = Obs.Registry.counter reg "super.demotions";
    s_replays = Obs.Registry.counter reg "super.replays";
    s_slices = Obs.Registry.counter reg "super.slices";
  }

(** Per-worker campaign instrumentation for a fleet batch: an {!Obs}
    context and supervision counters. Tasks receive only their
    executing worker's context, so a cross-domain counter increment is
    unrepresentable. *)
type worker_ctx = {
  wc_obs : Obs.t option;
  wc_stats : stats option;
}

(* A worker's private mirror of the campaign instrumentation: present
   exactly when the caller's is, with the supervision counters
   registered on the mirror's own registry. *)
let mirror_ctx ?obs ?stats () =
  let wc_obs = Option.map Obs.mirror obs in
  let wc_stats =
    match stats with
    | None -> None
    | Some _ ->
      let reg =
        match wc_obs with
        | Some o -> o.Obs.reg
        | None -> Obs.Registry.create ()
      in
      Some (of_registry reg)
  in
  { wc_obs; wc_stats }

(* Fold a mirror back into the campaign's counters. With an [obs]
   context the whole mirror registry (super.* included, since mirror
   stats register there) merges in one {!Obs.merge}; with only
   [stats], the supervision counters transfer field by field. Either
   way the totals are exactly what one domain would have counted. *)
let join_ctx ?obs ?stats (ws : worker_ctx) =
  match (obs, stats, ws.wc_obs, ws.wc_stats) with
  | Some o, _, Some wo, _ -> Obs.merge ~into:o wo
  | None, Some (d : stats), _, Some (s : stats) ->
    let tr get = Obs.Registry.add (get d) (Obs.Registry.get (get s)) in
    tr (fun x -> x.s_cases);
    tr (fun x -> x.s_retries);
    tr (fun x -> x.s_transient);
    tr (fun x -> x.s_gave_up);
    tr (fun x -> x.s_quarantined);
    tr (fun x -> x.s_demotions);
    tr (fun x -> x.s_replays);
    tr (fun x -> x.s_slices)
  | _ -> ()

(** [with_worker_ctxs fl ?obs ?stats f] runs [f] on the per-worker
    contexts of a campaign batch over [fl], by {!Fleet.with_states}'s
    rule: a pool of one counts straight into the caller's [obs] and
    [stats], so counters and the metrics series are live; a larger pool
    counts into per-worker mirrors, joined back when [f] ends. *)
let with_worker_ctxs fl ?obs ?stats f =
  Fleet.with_states fl
    ~caller:{ wc_obs = obs; wc_stats = stats }
    ~fresh:(mirror_ctx ?obs ?stats) ~join:(join_ctx ?obs ?stats) f

type 'a outcome =
  | Done of 'a * int  (** result, attempts used *)
  | Gave_up of Taxonomy.failure * int
      (** last failure, attempts used; deterministic failures give up on
          attempt 1, transient ones after [max_attempts] *)

(** Deterministic backoff before retry [attempt] (1-based count of
    failures so far): exponential in the attempt number, capped, scaled
    by a jitter factor in [0.5, 1.5) drawn from the splitmix stream of
    [(seed, index)]. *)
let backoff_delay cfg ~index ~attempt =
  let exp = min cfg.backoff_max_s (cfg.backoff_base_s *. (2. ** float_of_int (attempt - 1))) in
  let jitter =
    0.5 +. Inject.Prng.uniform ~seed:cfg.seed ~index ~salt:(100 + attempt)
  in
  exp *. jitter

(** [run_case ?stats ?sleep cfg ~index f] runs [f ~deadline] under
    supervision. [index] is the case's position in the campaign stream
    (it salts the jitter). [sleep] is injectable for tests.
    @raise exn fatal (unclassified) exceptions are re-raised. *)
let run_case ?stats ?(sleep = Unix.sleepf) (cfg : config) ~index
    (f : deadline:float option -> 'a) : 'a outcome =
  Option.iter (fun s -> Obs.Registry.incr s.s_cases) stats;
  let rec attempt k =
    let deadline =
      Option.map (fun d -> Unix.gettimeofday () +. d) cfg.case_deadline_s
    in
    match f ~deadline with
    | v -> Done (v, k)
    | exception exn -> (
      let failure = Taxonomy.classify exn in
      match failure.Taxonomy.f_severity with
      | Taxonomy.Fatal -> raise exn
      | Taxonomy.Deterministic -> Gave_up (failure, k)
      | Taxonomy.Transient ->
        Option.iter (fun s -> Obs.Registry.incr s.s_transient) stats;
        if k >= cfg.max_attempts then Gave_up (failure, k)
        else begin
          Option.iter (fun s -> Obs.Registry.incr s.s_retries) stats;
          sleep (backoff_delay cfg ~index ~attempt:k);
          attempt (k + 1)
        end)
  in
  let out = attempt 1 in
  (match out with
  | Gave_up _ -> Option.iter (fun s -> Obs.Registry.incr s.s_gave_up) stats
  | Done _ -> ());
  out
