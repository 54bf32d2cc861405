(** The cell runner. A cell is one operation of a workload: a program run
    through freshly synthesized interfaces (set-up from the ISA sources
    every time, because users pay it on every run), or one fuzz campaign.
    It reports host set-up and run time, simulated instructions, heap
    words allocated while running, and its simulated statistics, which
    must repeat exactly. *)

type m = {
  setup_ns : int;
  run_ns : int;
  instrs : int;  (** simulated instructions retired *)
  ops : int;  (** operations attempted: 1 per program run, or oracle executions *)
  failed : int;  (** operations that failed *)
  words : float;  (** minor-heap words allocated while running *)
  promoted : float;  (** of those, words promoted to the major heap *)
  stats : string;  (** simulated statistics, checked against the golden file *)
  failure : string option;
}

type t = {
  id : string;
  key : string;
      (** the cell whose simulated statistics this one must reproduce:
          observed and ablation variants share their plain cell's *)
  isa : string;
  bs : string;  (** buildset of the measured interface; "" for a campaign *)
  observed : bool;
  exec : Trace.t option -> m;
}

type style = Block | One | Step

let style_of_bs bs =
  if String.starts_with ~prefix:"block" bs then Block
  else if String.starts_with ~prefix:"one" bs then One
  else Step

let is_spec bs = String.ends_with ~suffix:"_spec" bs
let buildsets = List.map Specsim.Detail.buildset_name Specsim.Detail.table2_interfaces
let isas = [ "alpha"; "arm"; "ppc"; "riscv" ]

let tiny_sources =
  Lis.Ast.
    [
      { src_role = Isa_description; src_name = "tiny16.lis"; src_text = Fuzz.Tiny.isa_text };
      {
        src_role = Buildset_file;
        src_name = "tiny16_buildsets.lis";
        src_text = Specsim.Detail.canonical_buildset_file ();
      };
    ]

let sources = function
  | "alpha" -> Isa_alpha.Alpha.sources
  | "arm" -> Isa_arm.Arm.sources
  | "ppc" -> Isa_ppc.Ppc.sources
  | "riscv" -> Isa_riscv.Riscv.sources
  | "tiny" -> tiny_sources
  | isa -> invalid_arg ("ledger: no sources for ISA " ^ isa)

(* ------------------------------------------------------------------ *)
(* Layer calls, each a span when traced                                 *)
(* ------------------------------------------------------------------ *)

let now = Obs.Clock.now_ns
let elapsed = Obs.Clock.elapsed_ns

(** Traced-run counters for layer statistics the spans do not carry
    (journal checkpoints, simulated timing statistics, …), and per-call
    samples of the spans whose percentiles are reported. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let samples : (string, float list) Hashtbl.t = Hashtbl.create 8

let bump tr name v =
  if tr <> None then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)

let sample name ns =
  Hashtbl.replace samples name
    (float_of_int ns :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let samples_of name = Option.value ~default:[] (Hashtbl.find_opt samples name)

(** [timed tr name f] runs [f ()] as a span; [sampled] also keeps the
    call's duration under [name]. *)
let timed ?(sampled = false) tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    let s = Trace.span t Trace.Each name in
    let r = Trace.call t s f () in
    if sampled then sample name s.total;
    r

let load_spec tr isa =
  timed tr ("lis.load." ^ isa) (fun () -> Lis.Sema.load (sources isa))

let synth tr ?obs ?backend ?chain ?site_cache ?absint ?st spec bs =
  timed ~sampled:true tr "core.synth.make" (fun () ->
      Specsim.Synth.make ?backend ?chain ?site_cache ?absint ?obs ?st spec bs)

(** [load_image tr ?obs isa spec program st] installs [program] and a
    fresh OS emulator on [st]. *)
let load_image tr ?obs isa spec program st =
  let target = { (Workload.find_target isa) with spec = Lazy.from_val spec } in
  let os =
    timed tr "workload.load_image" (fun () ->
        Workload.load_image ?obs target program st)
  in
  (match tr with
  | None -> ()
  | Some t ->
    let s = Trace.span t Trace.Rolled "machine.os.syscall" in
    let h = st.Machine.State.syscall_handler in
    st.syscall_handler <- (fun st -> Trace.call t s h st));
  os

(** [wrap tr iface] times every engine call a timing simulator makes
    through [iface]: block-level calls one span each, per-instruction
    calls rolled up per cell. Untraced, [iface] is returned as is. *)
let wrap tr (i : Specsim.Iface.t) =
  match tr with
  | None -> i
  | Some t ->
    let each = Trace.span t Trace.Each and rolled = Trace.span t Trace.Rolled in
    let run_block = each "core.engine.run_block"
    and run_fast = each "core.engine.run_fast"
    and run_one = rolled "core.engine.run_one"
    and step = rolled "core.engine.step"
    and retire = rolled "core.engine.retire"
    and rollback = each "core.specul.rollback" in
    {
      i with
      run_block = Trace.call t run_block i.run_block;
      run_fast = Trace.call t run_fast i.run_fast;
      run_one = Trace.call t run_one i.run_one;
      step = (fun di k -> Trace.call t step (fun k -> i.step di k) k);
      retire = Trace.call t retire i.retire;
      rollback =
        (fun token ->
          let before = rollback.total in
          Trace.call t rollback i.rollback token;
          sample "core.specul.rollback" (rollback.total - before));
    }

(** Record an interface's engine and journal statistics after its run
    (traced runs only). *)
let iface_stats tr (i : Specsim.Iface.t) =
  let s = i.stats in
  List.iter
    (fun (name, v) -> bump tr ("engine." ^ name) (float_of_int v))
    [
      ("chain_taken", s.chain_taken);
      ("chain_miss", s.chain_miss);
      ("block_hits", s.block_hits);
      ("blocks_compiled", s.blocks_compiled);
      ("site_cache_hits", s.site_cache_hits);
      ("sites_compiled", s.sites_compiled);
      ("block_invalidations", s.block_invalidations);
    ];
  Option.iter
    (fun j ->
      bump tr "specul.checkpoints"
        (float_of_int (Specsim.Specul.checkpoints_issued j));
      let rollbacks, _, _ = Specsim.Specul.undo_stats j in
      bump tr "specul.rollbacks" (float_of_int rollbacks))
    i.journal

(** [probe ()] runs a fixed stand-in for a simulator's inner loop —
    closure dispatch over a boxed [int64] register file and a paged
    byte memory — and returns its ns. It is the ledger's own code, so no
    change to the simulator moves it. On a shared host, other tenants'
    use of the caches and memory slows the simulator by up to 1.6x in
    phases of a fraction of a second to minutes, while a register-only
    loop does not slow at all; this probe slows with the simulator, so
    each cell is measured right after one and scaled by it. *)
let probe =
  let regs = Array.make 8 0L in
  let pages : (int, Bytes.t) Hashtbl.t = Hashtbl.create 64 in
  let page a =
    let k = a lsr 12 in
    match Hashtbl.find_opt pages k with
    | Some p -> p
    | None ->
      let p = Bytes.make 4096 '\000' in
      Hashtbl.add pages k p;
      p
  in
  let load a = Bytes.get_int64_le (page a) (a land 4088) in
  let store a v = Bytes.set_int64_le (page a) (a land 4088) v in
  let addr r = Int64.to_int regs.(r) land 0x3fff8 in
  let ops =
    [|
      (fun () -> regs.(1) <- Int64.add regs.(1) 8L);
      (fun () -> regs.(2) <- load (addr 1));
      (fun () -> regs.(3) <- Int64.add (Int64.mul regs.(2) 1103515245L) 12345L);
      (fun () -> store (addr 3) regs.(3));
      (fun () -> regs.(4) <- Int64.logxor regs.(4) (Int64.shift_right_logical regs.(3) 7));
      (fun () -> regs.(5) <- load (addr 4));
      (fun () -> if Int64.compare regs.(5) regs.(4) < 0 then regs.(6) <- Int64.succ regs.(6));
      (fun () -> store (addr 1) (Int64.add regs.(5) regs.(6)));
    |]
  in
  fun () ->
    let t0 = now () in
    for i = 0 to 29_999 do
      ops.(i land 7) ()
    done;
    elapsed t0

(* ------------------------------------------------------------------ *)
(* Driving an interface the way a timing simulator does                *)
(* ------------------------------------------------------------------ *)

(* The null consumer: every DI record handed out is read. *)
let sink = ref 0
let limit = 100_000_000L

let runaway (st : Machine.State.t) =
  Machine.Sim_error.raisef ~component:"ledger"
    ~context:[ ("instructions", Int64.to_string st.instr_count) ]
    "program did not halt"

(** [drive iface] runs to halt through the call a timing simulator makes
    at this interface's semantic level: [run_block] per block, [run_one]
    per instruction, or [step] per entrypoint then [retire]. *)
let drive (iface : Specsim.Iface.t) =
  let st = iface.st in
  match style_of_bs iface.bs.bs_name with
  | Block ->
    while not st.halted do
      let dis, n = iface.run_block () in
      for k = 0 to n - 1 do
        sink := !sink + dis.(k).instr_index
      done;
      if st.instr_count > limit then runaway st
    done
  | One ->
    let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
    while not st.halted do
      iface.run_one di;
      sink := !sink + di.instr_index;
      if st.instr_count > limit then runaway st
    done
  | Step ->
    let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
    let n = Specsim.Iface.n_entrypoints iface in
    while not st.halted do
      di.pc <- st.pc;
      di.instr_index <- -1;
      di.fault <- None;
      let k = ref 0 in
      while !k < n && not st.halted do
        iface.step di !k;
        incr k
      done;
      if not st.halted then iface.retire di;
      sink := !sink + di.instr_index;
      if st.instr_count > limit then runaway st
    done

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

(** What a program must produce: the reference executor's exit status
    and output, or an analytic exit status alone. *)
type expect = { exit : int; output : string option }

let expect_reference ?tr program =
  let r = timed tr "vir.reference" (fun () -> Workload.reference program) in
  { exit = r.exit_status; output = Some r.output }

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

(** Architectural outcome of a halted machine, as golden statistics. *)
let outcome (st : Machine.State.t) os =
  Printf.sprintf "i=%Ld x=%s o=%s" st.instr_count
    (match Machine.State.exit_status st with
    | Some x -> string_of_int (x land 0xff)
    | None -> "-")
    (digest (Machine.Os_emu.output os))

let verdict expect (st : Machine.State.t) os =
  match Machine.State.exit_status st with
  | None ->
    Some
      (match st.fault with
      | Some f -> "faulted: " ^ Machine.Fault.to_string f
      | None -> "did not exit")
  | Some x when x land 0xff <> expect.exit ->
    Some (Printf.sprintf "exit %d, expected %d" (x land 0xff) expect.exit)
  | Some _ -> (
    match expect.output with
    | Some o when not (String.equal o (Machine.Os_emu.output os)) ->
      Some "output differs from the reference executor"
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

(** A run's result: simulated instructions, golden statistics, failure. *)
type result = { instrs : int; stats : string; failure : string option; ok_ops : int option }

let result ?ok_ops ~instrs ~stats failure = { instrs; stats; failure; ok_ops }

(** [make ~id ~isa ~bs body] — [body tr obs] performs the set-up
    (timed as set-up) and returns the run (timed as running). [obs] is a
    full instrumentation context on observed cells. [ops] operations are
    attempted; all fail on a failure unless the result counts its own. *)
let make ~id ?(key = id) ~isa ?(bs = "") ?(observed = false) ?(ops = 1) body =
  let error e =
    let msg =
      match e with
      | Machine.Sim_error.Error e -> Machine.Sim_error.one_line e
      | e -> Printexc.to_string e
    in
    result ~instrs:0 ~stats:"error" (Some msg)
  in
  let exec tr =
    let body () =
      let obs = if observed then Some (Obs.create ()) else None in
      let t0 = now () in
      let setup_ns, run =
        match body tr obs with
        | run -> (elapsed t0, run)
        | exception e -> (elapsed t0, fun () -> raise e)
      in
      let _, promoted0, _ = Gc.counters () in
      let w0 = Gc.minor_words () in
      let t1 = now () in
      let r = try run () with e -> error e in
      let run_ns = elapsed t1 in
      let words = Gc.minor_words () -. w0 in
      let _, promoted1, _ = Gc.counters () in
      let promoted = promoted1 -. promoted0 in
      (* what a user of the instruments does next: read the counters *)
      Option.iter
        (fun o -> timed tr "obs.snapshot" (fun () -> ignore (Obs.snapshot o)))
        obs;
      let failed =
        match (r.ok_ops, r.failure) with
        | Some ok, _ -> ops - ok
        | None, Some _ -> ops
        | None, None -> 0
      in
      { setup_ns; run_ns; instrs = r.instrs; ops; failed; words; promoted; stats = r.stats;
        failure = r.failure }
    in
    match tr with None -> body () | Some t -> Trace.cell t id body
  in
  { id; key; isa; bs; observed; exec }

(** A program run to halt through one interface, driven at its semantic
    level. *)
let program ~id ?key ~isa ~bs ?observed ?backend ?chain ?site_cache ?absint ~expect prog =
  make ~id ?key ~isa ~bs ?observed (fun tr obs ->
      let spec = load_spec tr isa in
      let iface = synth tr ?obs ?backend ?chain ?site_cache ?absint spec bs in
      let os = load_image tr ?obs isa spec prog iface.st in
      let iface = wrap tr iface in
      fun () ->
        drive iface;
        iface_stats tr iface;
        let st = iface.st in
        result ~instrs:(Int64.to_int st.instr_count) ~stats:(outcome st os)
          (verdict expect st os))
