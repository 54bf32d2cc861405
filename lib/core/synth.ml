(** The simulator synthesizer — the paper's contribution, mechanized.

    [make spec buildset_name] specializes a functional simulator for one
    interface: cells get storage per the buildset's visibility (DI slots
    vs. reused scratch), actions are grouped into the buildset's
    entrypoints and fused, dead information computation is eliminated,
    speculation hooks are compiled in only when asked for, and — for
    one-entrypoint buildsets — each executed instruction is specialized
    against its concrete encoding and cached, per basic block for Block
    interfaces and per pc for One interfaces (the binary-translation
    analog).

    What depends only on the specification and the buildset is the
    {!Plan}; [make] instantiates it on a machine as an {!Engine}
    instance, and assembles the interface from the engine's calls. *)

exception Synth_error = Plan.Synth_error

let synth_error = Plan.synth_error

type backend = Engine.backend = Compiled | Interpreted
type mutation = Engine.mutation = Stale_chain | Skip_invalidate | Stride4

let mutation_to_string = function
  | Stale_chain -> "stale-chain"
  | Skip_invalidate -> "skip-invalidate"
  | Stride4 -> "stride4"

let mutation_of_string = function
  | "stale-chain" -> Some Stale_chain
  | "skip-invalidate" -> Some Skip_invalidate
  | "stride4" -> Some Stride4
  | _ -> None

let spec_window = Engine.spec_window

(** A synthesis cache: the {!Plan} of one specification. *)
type cache = Plan.t

let cache = Plan.create
let decoder (c : cache) = c.Plan.decoder

(* ------------------------------------------------------------------ *)
(* Synthesis                                                           *)
(* ------------------------------------------------------------------ *)

let make ?(backend = Compiled) ?(allow_hidden_crossing = false) ?(chain = true)
    ?(site_cache = true) ?absint:_ ?mutate ?hooks ?cache ?obs ?st
    (spec : Lis.Spec.t) (bs_name : string) : Iface.t =
  let plan =
    match cache with
    | None -> Plan.create spec
    | Some c when c.Plan.spec == spec -> c
    | Some _ ->
      invalid_arg
        (Printf.sprintf "Synth.make: cache of another specification (%s/%s)"
           spec.name bs_name)
  in
  let check_liveness = function
    | [] -> ()
    | summary when not allow_hidden_crossing ->
      synth_error
        "buildset %s/%s hides %d cell(s) that cross entrypoint boundaries:@\n%s"
        spec.name bs_name (List.length summary)
        (String.concat "\n"
           (List.map
              (fun (c, w, r) ->
                Printf.sprintf "  '%s' written in '%s', read in '%s'" c w r)
              summary))
    | _ -> ()
  in
  let bp = Plan.buildset plan bs_name ~check_liveness in
  let bs = bp.Plan.bs in
  let st = match st with Some s -> s | None -> Lis.Spec.make_machine spec in
  let journal = if bs.bs_speculation then Some (Specul.create ()) else None in
  (* the caller's write hooks, or the journal's *)
  let hooks =
    match (journal, hooks) with
    | None, h -> h
    | Some _, Some _ ->
      invalid_arg
        (Printf.sprintf "Synth.make: hooks on speculative buildset %s/%s"
           spec.name bs_name)
    | Some j, None -> Some (Specul.hooks j)
  in
  let e =
    Engine.create ~backend ~chain ~site_cache ~mutate ~hooks ~journal ~obs plan
      bp st
  in
  let no_spec (_ : unit) =
    Machine.Sim_error.raisef ~component:"interface"
      ~context:[ ("isa", spec.name); ("buildset", bs.bs_name) ]
      "interface was synthesized without speculation"
  in
  let run_one = Engine.run_one_fn e in
  let run_block = Engine.run_block_fn e run_one in
  {
    Iface.spec;
    bs;
    st;
    slots = bp.slots;
    journal;
    entry_names = Array.map fst bs.bs_entrypoints;
    run_one;
    run_block;
    step = Engine.step_fn e;
    retire = Engine.retire_fn e;
    redirect = (fun pc -> st.pc <- pc);
    checkpoint =
      (fun () ->
        match journal with Some j -> Specul.checkpoint j st | None -> no_spec ());
    rollback =
      (fun tok ->
        match journal with Some j -> Specul.rollback j st tok | None -> no_spec ());
    commit_ckpt =
      (fun tok ->
        match journal with Some j -> Specul.commit j tok | None -> no_spec ());
    flush_code_cache = Engine.flush_fn e;
    run_fast = Engine.run_fast_fn e ~run_block ~run_one;
    stats = e.stats;
  }
