(** Graceful block-engine degradation.

    A degradation session runs a workload through a checked primary
    interface while a [step_all] shadow machine executes the same image
    in lockstep at slice granularity. At every verified slice boundary
    (architectural states byte-agree) a whole-machine checkpoint is
    taken. When the primary misbehaves — an engine invariant trips, it
    stops making progress, or its state diverges from the shadow — the
    session does not abort: it restores both machines to the last
    verified boundary and re-synthesizes the primary one rung down the
    demotion ladder

    {v full  →  no-chain  →  no-site-cache  →  step_all v}

    then replays the slice. The ladder always ends at the reference
    buildset, whose semantics are the conformance oracle itself, so a
    defective translation cache degrades a campaign to interpreter speed
    instead of killing it. Exhausting the ladder (the reference level
    itself fails) raises a ["super"] {!Machine.Sim_error} — exit code 6.

    [force_demote_at] demotes once at the first verified boundary after
    the given instruction count even when nothing is wrong. The
    conformance property behind it: a session demoted at an arbitrary
    boundary must finish with the same architectural digest as an
    uninterrupted run. *)

open Machine

type level = {
  lv_name : string;
  lv_buildset : string;
  lv_chain : bool;
  lv_site : bool;
  lv_mutate : Specsim.Synth.mutation option;
      (** seeded defects survive block-level demotions (they model a bug
          in the block engine itself) and drop off at the reference level *)
}

(** The demotion ladder for [buildset], deduplicating rungs that the
    starting flags already disable. Non-block buildsets have no cache
    machinery to shed, so their ladder is just [buildset → reference]. *)
let ladder (spec : Lis.Spec.t) ~buildset ~chain ~site_cache ~mutate ~reference
    : level list =
  let bs = Lis.Spec.find_buildset spec buildset in
  let full =
    {
      lv_name = "full";
      lv_buildset = buildset;
      lv_chain = chain;
      lv_site = site_cache;
      lv_mutate = mutate;
    }
  in
  (* [site_cache] off also turns off a Step interface's per-site TLB and
     its sharing of compiled code through the session's cache, so the
     reference rung runs code compiled for it alone, none of it shared
     with the shadow. *)
  let reference_level =
    {
      lv_name = reference;
      lv_buildset = reference;
      lv_chain = false;
      lv_site = false;
      lv_mutate = None;
    }
  in
  if String.equal buildset reference then [ reference_level ]
  else if not bs.Lis.Spec.bs_block then [ full; reference_level ]
  else begin
    let block_levels =
      [
        full;
        { full with lv_name = "no-chain"; lv_chain = false };
        { full with lv_name = "no-site-cache"; lv_chain = false; lv_site = false };
      ]
    in
    let rec dedup = function
      | a :: b :: rest ->
        if a.lv_chain = b.lv_chain && a.lv_site = b.lv_site then a :: dedup rest
        else a :: dedup (b :: rest)
      | rest -> rest
    in
    dedup block_levels @ [ reference_level ]
  end

type t = {
  d_spec : Lis.Spec.t;
  d_levels : level array;
  mutable d_idx : int;
  d_st : State.t;  (** primary machine *)
  mutable d_iface : Specsim.Iface.t;  (** primary interface, re-synthesized on demote *)
  d_shadow_st : State.t;
  d_shadow : Specsim.Iface.t;  (** trusted [reference] lockstep shadow *)
  mutable d_ckpt : Bytes.t;
      (** state at the last verified slice boundary; each verified slice
          saves into it again ({!Machine.Checkpoint.save_into}) *)
  d_obs : Obs.t option;
  d_stats : Supervisor.stats option;
  d_cache : Specsim.Synth.cache;
      (** the session's synthesis cache: shadow, every rung, demotions *)
}

let level_name t = t.d_levels.(t.d_idx).lv_name

(** The trusted shadow machine; its architectural state is the session's
    verified result (exit status, output, digest). *)
let shadow_state t = t.d_shadow_st

let synth_level ?obs ~cache ~st spec (lv : level) =
  Specsim.Synth.make ?obs ?mutate:lv.lv_mutate ~chain:lv.lv_chain
    ~site_cache:lv.lv_site ~cache ~st spec lv.lv_buildset

(** [create ~spec ~buildset ~load ()] prepares a session. [load] must
    fully prepare a machine for the workload — image, OS emulation,
    reset — and is applied identically to the primary and the shadow. *)
let create ?obs ?stats ?mutate ?(chain = true) ?(site_cache = true)
    ?(reference = "step_all") ~spec ~buildset ~(load : State.t -> unit) () : t
    =
  let levels =
    Array.of_list (ladder spec ~buildset ~chain ~site_cache ~mutate ~reference)
  in
  let st = Lis.Spec.make_machine spec in
  let sst = Lis.Spec.make_machine spec in
  load st;
  load sst;
  let cache = Specsim.Synth.cache spec in
  {
    d_spec = spec;
    d_levels = levels;
    d_idx = 0;
    d_st = st;
    d_iface = synth_level ?obs ~cache ~st spec levels.(0);
    d_shadow_st = sst;
    d_shadow = Specsim.Synth.make ~cache ~st:sst spec reference;
    d_ckpt = Checkpoint.save_into Bytes.empty sst;
    d_obs = obs;
    d_stats = stats;
    d_cache = cache;
  }

let states_agree (p : State.t) (s : State.t) =
  Bool.equal p.halted s.halted
  && Option.equal Fault.equal p.fault s.fault
  && Int64.equal p.instr_count s.instr_count
  && Regfile.equal p.regs s.regs
  && Memory.equal_contents p.mem s.mem
  && Int64.equal p.pc s.pc

(** Bring the shadow up to the primary's retirement count. The block
    engine overshoots slice requests to block boundaries; the shadow
    executes exact counts, so catching up is one-directional — except
    that a halting instruction retires nothing, so at equal counts the
    still-running machine owes exactly one more (halting) instruction. *)
let sync t =
  let p = t.d_st and s = t.d_shadow_st in
  let continue = ref true in
  while !continue do
    let d = Int64.sub p.instr_count s.instr_count in
    if Int64.compare d 0L > 0 && not s.halted then
      ignore (t.d_shadow.Specsim.Iface.run_fast (Int64.to_int d))
    else if Int64.equal d 0L && p.halted && not s.halted then
      ignore (t.d_shadow.Specsim.Iface.run_fast 1)
    else if Int64.equal d 0L && s.halted && not p.halted then
      ignore (t.d_iface.Specsim.Iface.run_fast 1)
    else continue := false
  done

let demote t ~detail =
  if t.d_idx + 1 >= Array.length t.d_levels then
    Sim_error.raisef ~component:"super"
      ~context:
        [
          ("level", level_name t);
          ("instructions", Int64.to_string t.d_shadow_st.State.instr_count);
          ("detail", detail);
        ]
      "degradation ladder exhausted: the reference level itself failed";
  Checkpoint.restore_from t.d_st t.d_ckpt;
  Checkpoint.restore_from t.d_shadow_st t.d_ckpt;
  t.d_idx <- t.d_idx + 1;
  (* the next rung's gauges replace the abandoned interface's *)
  Option.iter
    (fun (o : Obs.t) ->
      List.iter
        (fun prefix -> Obs.Registry.drop_probes o.reg ~prefix)
        [ "core."; "specul." ])
    t.d_obs;
  t.d_iface <-
    synth_level ?obs:t.d_obs ~cache:t.d_cache ~st:t.d_st t.d_spec
      t.d_levels.(t.d_idx);
  Option.iter
    (fun s ->
      Obs.Registry.incr s.Supervisor.s_demotions;
      Obs.Registry.incr s.Supervisor.s_replays)
    t.d_stats

type result = {
  r_final_level : string;
  r_demotions : int;
  r_replays : int;  (** slices re-executed after a restore *)
  r_slices : int;  (** verified slice boundaries *)
  r_instructions : int64;  (** retired on the trusted shadow *)
  r_digest : int64;  (** {!Machine.Checkpoint.digest} of the shadow *)
  r_halted : bool;
}

(** [run ~budget t] executes until the workload halts or [budget]
    verified instructions retire (block slack may overshoot slightly).
    [deadline] is polled at slice boundaries via the watchdog.
    @raise Machine.Sim_error.Error on ladder exhaustion or deadline. *)
let run ?(slice = 256) ?deadline ?force_demote_at ~budget t : result =
  let slice = max 1 slice in
  let demotions = ref 0 and replays = ref 0 and slices = ref 0 in
  let force_pending = ref (force_demote_at <> None) in
  let finished = ref false in
  let do_demote detail =
    demote t ~detail;
    incr demotions;
    incr replays
  in
  while not !finished do
    Inject.Watchdog.check_deadline ?deadline t.d_st;
    let verified = Int64.to_int t.d_shadow_st.State.instr_count in
    if verified >= budget || (t.d_st.State.halted && t.d_shadow_st.State.halted)
    then finished := true
    else begin
      let want = min slice (budget - verified) in
      match t.d_iface.Specsim.Iface.run_fast want with
      | exception Sim_error.Error e when not (String.equal e.component "super")
        ->
        do_demote (Sim_error.one_line e)
      | 0 when not t.d_st.State.halted ->
        do_demote "no forward progress through the primary interface"
      | _executed ->
        let forced =
          !force_pending
          && (t.d_st.State.halted
             || match force_demote_at with
                | Some k -> Int64.compare t.d_st.State.instr_count (Int64.of_int k) >= 0
                | None -> false)
        in
        if forced then begin
          force_pending := false;
          (* forced demotion discards the unverified slice entirely *)
          if t.d_idx + 1 < Array.length t.d_levels then do_demote "forced"
        end
        else begin
          sync t;
          if states_agree t.d_st t.d_shadow_st then begin
            t.d_ckpt <- Checkpoint.save_into t.d_ckpt t.d_shadow_st;
            incr slices;
            Option.iter
              (fun s -> Obs.Registry.incr s.Supervisor.s_slices)
              t.d_stats
          end
          else
            do_demote
              (Printf.sprintf "state divergence from %s at %Ld instructions"
                 t.d_shadow.Specsim.Iface.bs.Lis.Spec.bs_name
                 t.d_shadow_st.State.instr_count)
        end
    end
  done;
  {
    r_final_level = level_name t;
    r_demotions = !demotions;
    r_replays = !replays;
    r_slices = !slices;
    r_instructions = t.d_shadow_st.State.instr_count;
    r_digest = Checkpoint.digest t.d_shadow_st;
    r_halted = t.d_shadow_st.State.halted;
  }
