(** Supervised fault-injection campaigns: one journaled case per ISA
    cell, resumable after a kill, deterministic failures quarantined as
    replay command files instead of aborting the whole campaign. *)

type cell = {
  c_isa : string;
  c_case : string;
  c_skipped : bool;  (** satisfied from the journal on resume *)
  c_report : Inject.Campaign.report option;  (** [None] unless run here *)
  c_failure : Taxonomy.failure option;
}

let case_id (cfg : Inject.Campaign.config) ~isa ~kernel =
  Printf.sprintf "inject/%s/%s/%s/0x%Lx/%g" isa kernel cfg.buildset cfg.seed
    cfg.rate

(* A quarantined cell is replayable by hand: the artifact records the
   exact CLI invocation that deterministically reproduces the failure. *)
let replay_command (cfg : Inject.Campaign.config) ~isa ~kernel =
  Printf.sprintf
    "lisim inject --isa %s --kernel %s --buildset %s --seed 0x%Lx --rate %g \
     --budget %d\n"
    isa kernel cfg.buildset cfg.seed cfg.rate cfg.budget

(* What a worker ships back for one executed cell: the report or the
   classified failure. Journal/quarantine writes stay on the collector. *)
type cell_out =
  | O_done of Inject.Campaign.report * int
  | O_gave_up of Taxonomy.failure * int

(** [metrics] attaches a periodic-telemetry series, ticked once per
    executed cell and once at the end against the campaign's
    observability context (see {!Fuzz.Campaign.run} for the contract —
    the caller owns open/close).

    [fleet] spreads the per-ISA cells over a domain pool (default: a
    pool of one, on the calling domain). Each cell counts into its
    worker's context ({!Supervisor.with_worker_ctxs}), the collector
    journals completions and exports each report's "inject.*" counters,
    and the returned cell list stays in [isas] order. *)
let run ?(isas = [ "alpha"; "arm"; "ppc" ]) ?(kernel = "sort") ?obs ?stats
    ?metrics ?(super = Supervisor.default) ?(fleet = Fleet.create ~jobs:1 ())
    ~journal ~quarantine ?(resume = false) (cfg : Inject.Campaign.config) :
    cell list =
  let mobs = match obs with Some o -> o | None -> Obs.create () in
  let tick_metrics () =
    match metrics with Some m -> Obs.metrics_tick m mobs | None -> ()
  in
  let targets = Inject.Campaign.targets isas in
  let isas = Array.of_list isas in
  let case_of i = case_id cfg ~isa:isas.(i) ~kernel in
  let view =
    if resume then Journal.load ~path:journal else Journal.empty_view ()
  in
  let q = Quarantine.create ~dir:quarantine in
  let w =
    Journal.open_ ~path:journal
      ~meta:
        [
          ("campaign", Obs.Export.Str "inject");
          ("kernel", Obs.Export.Str kernel);
          ("seed", Obs.Export.Str (Printf.sprintf "0x%Lx" cfg.seed));
          ("budget", Obs.Export.Int (Int64.of_int cfg.budget));
        ]
  in
  let scfg = { super with Supervisor.seed = cfg.seed } in
  let cells =
    Array.mapi
      (fun i isa ->
        {
          c_isa = isa;
          c_case = case_of i;
          c_skipped = true;
          c_report = None;
          c_failure = None;
        })
      isas
  in
  let todo =
    List.filter
      (fun i -> not (Journal.is_complete view (case_of i)))
      (List.init (Array.length isas) Fun.id)
    |> Array.of_list
  in
  let task i (ws : Supervisor.worker_ctx) =
    match
      Supervisor.run_case ?stats:ws.wc_stats scfg ~index:(Int64.of_int i)
        (fun ~deadline:_ ->
          Inject.Campaign.run_cell ?obs:ws.wc_obs targets.(i)
            ~kernel:(Inject.Campaign.find_kernel kernel) cfg)
    with
    | Supervisor.Done (r, attempts) -> O_done (r, attempts)
    | Supervisor.Gave_up (f, attempts) -> O_gave_up (f, attempts)
  in
  (* the collector-side bookkeeping for one finished cell *)
  let settle t out =
    let i = todo.(t) in
    let isa = isas.(i) and case = case_of i in
    (match out with
    | O_done (r, attempts) ->
      Option.iter (Inject.Campaign.register_obs [ r ]) obs;
      Journal.record w
        (Journal.entry ~attempts ~outcome:Journal.Pass
           ~detail:
             (Printf.sprintf "coverage %.3f, demotions %d"
                (Inject.Campaign.coverage r)
                r.Inject.Campaign.r_demotions)
           case);
      cells.(i) <- { cells.(i) with c_skipped = false; c_report = Some r }
    | O_gave_up (f, attempts) ->
      let outcome, detail =
        match f.Taxonomy.f_severity with
        | Taxonomy.Deterministic ->
          let path =
            Quarantine.put q ~name:(case ^ ".case")
              ~contents:
                (Printf.sprintf "# %s\n%s" f.Taxonomy.f_detail
                   (replay_command cfg ~isa ~kernel))
          in
          Option.iter
            (fun s -> Obs.Registry.incr s.Supervisor.s_quarantined)
            stats;
          (Journal.Quarantined, f.Taxonomy.f_kind ^ " -> " ^ path)
        | _ -> (Journal.Gave_up, f.Taxonomy.f_kind)
      in
      Journal.record w (Journal.entry ~attempts ~outcome ~detail case);
      cells.(i) <- { cells.(i) with c_skipped = false; c_failure = Some f });
    tick_metrics ()
  in
  (try
     Supervisor.with_worker_ctxs fleet ?obs ?stats (fun workers ->
         Fleet.run fleet ~workers ~tasks:(Array.map task todo) ~complete:settle)
   with exn ->
     Journal.close w;
     raise exn);
  Journal.close w;
  tick_metrics ();
  Array.to_list cells

let pp_cells ppf (cells : cell list) =
  List.iter
    (fun c ->
      match (c.c_skipped, c.c_report, c.c_failure) with
      | true, _, _ -> Format.fprintf ppf "%s: resumed from journal@\n" c.c_case
      | _, Some r, _ -> Inject.Campaign.pp_report ppf r
      | _, _, Some f ->
        Format.fprintf ppf "%s: %a@\n" c.c_case Taxonomy.pp_failure f
      | _ -> ())
    cells
