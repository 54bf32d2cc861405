(** Differential oracle: run one testcase through a candidate interface
    in lockstep with the Step/All reference and compare everything
    observable.

    The reference is the highest-detail interface ([step_all] — every
    entrypoint exposed, every cell visible, no block engine), so any
    candidate disagreement is attributable to the candidate's
    synthesis / caching machinery. The reference is deterministic, so
    it runs once per testcase however many candidates are checked: a
    {!record} logs each unit it retires (the pc, the count, the
    registers it wrote and the bytes it stored, and the halt and fault
    of the last one), and each candidate is compared with a {!shadow}
    machine, loaded with the same image, that replays the record. The
    record grows only when a shadow asks for a unit it does not hold
    yet, so the reference never runs further than the furthest
    candidate needed it. Sync points are candidate units: a basic block
    for Block interfaces, one instruction for One / Step interfaces;
    the shadow is advanced by the same number of retired instructions.
    At each sync point the oracle compares halt state, fault, pc,
    retired-instruction count, the register files and the Obs crossing
    count; memories are compared every [mem_interval] retired
    instructions and at halt (they cost a full page walk). Both are
    compared by content; their digests only name a divergence. *)

type config = {
  reference : string;
  buildsets : string list;  (** candidates to check *)
  chain : bool;  (** candidate block engines: successor chaining *)
  site_cache : bool;  (** candidate block engines: shared site cache *)
  mutate : Specsim.Synth.mutation option;  (** candidate-only defect *)
  max_instrs : int;  (** per-run retirement budget *)
  mem_interval : int;
  check_crossings : bool;
}

let default_config =
  {
    reference = "step_all";
    buildsets =
      List.map Specsim.Detail.buildset_name Specsim.Detail.table2_interfaces;
    chain = true;
    site_cache = true;
    mutate = None;
    max_instrs = 2048;
    mem_interval = 16;
    check_crossings = true;
  }

type divergence = {
  d_buildset : string;
  d_kind : string;
      (** "halt" | "fault" | "pc" | "count" | "regs" | "mem" |
          "crossings" | "stuck" *)
  d_retired : int64;  (** candidate retirements at detection *)
  d_detail : string;
}

let pp_divergence d =
  Printf.sprintf "%s: %s after %Ld instruction(s): %s" d.d_buildset d.d_kind
    d.d_retired d.d_detail

(* Deterministic pseudo-OS: syscall 0 exits with arg0's low byte, any
   other number just mixes the inputs into the return register. Unlike
   {!Machine.Os_emu}, no syscall loops over a register-supplied byte
   count, so wild generated register values stay cheap. *)
let install_pseudo_os (spec : Lis.Spec.t) (st : Machine.State.t) =
  match spec.abi with
  | None -> ()
  | Some abi ->
    st.syscall_handler <-
      (fun st ->
        let rd (c, i) = Machine.Regfile.read st.regs ~cls:c ~idx:i in
        let nr = rd abi.nr in
        if Int64.equal nr 0L then
          let a0 = if Array.length abi.args > 0 then rd abi.args.(0) else 0L in
          Machine.State.raise_fault st
            (Machine.Fault.Exit (Int64.to_int (Int64.logand a0 0xFFL)))
        else begin
          let h = ref (Inject.Prng.mix nr) in
          Array.iter
            (fun a -> h := Inject.Prng.mix (Int64.logxor !h (rd a)))
            abi.args;
          let rc, ri = abi.ret in
          Machine.Regfile.write st.regs ~cls:rc ~idx:ri !h
        end)

(** [load_image spec decoder tc st] loads a testcase image into [st]:
    data words, code words at {!Gen.code_base} (laid out with [decoder],
    [spec]'s: a synthesis cache's {!Specsim.Synth.decoder}), initial
    registers, the pseudo-OS, and a reset with the pc at the code base.
    Shared by {!boot}, by a {!record}'s image and by the supervised
    runtime's degradation sessions, which need to prepare several
    machines identically. *)
let load_image (spec : Lis.Spec.t) decoder (tc : Gen.testcase)
    (st : Machine.State.t) =
  Array.iter
    (fun (addr, w) -> Machine.Memory.write st.mem ~addr ~width:8 w)
    tc.Gen.tc_mem;
  let offsets = Gen.code_offsets spec decoder tc.Gen.tc_code in
  Array.iteri
    (fun i w ->
      let width = offsets.(i + 1) - offsets.(i) in
      Machine.Memory.write st.mem
        ~addr:(Int64.add Gen.code_base (Int64.of_int offsets.(i)))
        ~width w)
    tc.tc_code;
  Array.iter
    (fun (c, i, v) -> Machine.Regfile.write st.regs ~cls:c ~idx:i v)
    tc.tc_regs;
  install_pseudo_os spec st;
  Machine.State.reset st ~pc:Gen.code_base

(** [boot spec tc ...] synthesizes an interface (through [cache] when
    given, with [hooks] compiled in when given) on a fresh machine
    loaded with the testcase image, pseudo-OS installed, pc at the code
    base. *)
let boot (spec : Lis.Spec.t) (tc : Gen.testcase) ~buildset ~chain ~site_cache
    ?mutate ?hooks ?cache ?obs () : Specsim.Iface.t =
  let cache =
    match cache with Some c -> c | None -> Specsim.Synth.cache spec
  in
  let iface =
    Specsim.Synth.make ~chain ~site_cache ?mutate ?hooks ~cache ?obs spec
      buildset
  in
  load_image spec (Specsim.Synth.decoder cache) tc iface.st;
  iface

(* One lockstep participant: interface plus its call-style driver. *)
type style = Block | One | Step

type drv = {
  iface : Specsim.Iface.t;
  style : style;
  di : Specsim.Di.t;
  mutable calls : int;
      (** entrypoint calls {!advance} has made: what the compiled-in
          "synth.entrypoint_calls" counter must read *)
}

let driver (iface : Specsim.Iface.t) : drv =
  let style =
    if iface.bs.bs_block then Block
    else if Specsim.Iface.n_entrypoints iface = 1 then One
    else Step
  in
  {
    iface;
    style;
    di = Specsim.Di.create ~info_slots:iface.slots.Specsim.Slots.di_size;
    calls = 0;
  }

(** [advance d] runs one unit (block / instruction) and returns the
    instructions it retired, adding its entrypoint calls to [d.calls]. *)
let advance (d : drv) : int =
  let st = d.iface.st in
  if st.halted then 0
  else begin
    let before = st.instr_count in
    let calls =
      match d.style with
      | Block ->
        ignore (d.iface.run_block ());
        Int64.to_int (Int64.sub st.instr_count before)
      | One ->
        d.iface.run_one d.di;
        1
      | Step ->
        let di = d.di in
        di.pc <- st.pc;
        di.instr_index <- -1;
        di.fault <- None;
        let n = Specsim.Iface.n_entrypoints d.iface in
        let e = ref 0 in
        while !e < n && not st.halted do
          d.iface.step di !e;
          incr e
        done;
        if not st.halted then d.iface.retire di;
        !e
    in
    d.calls <- d.calls + calls;
    Int64.to_int (Int64.sub st.instr_count before)
  end

let fault_str (st : Machine.State.t) =
  match st.fault with None -> "-" | Some f -> Machine.Fault.to_string f

(* ------------------------------------------------------------------ *)
(* The recorded reference                                              *)
(* ------------------------------------------------------------------ *)

(* A growable array of unboxed 8-byte slots, in chunks that never move:
   growing adds a chunk and copies nothing, so a long run leaves no
   outgrown buffers behind. *)
let chunk_bits = 10
let chunk_slots = 1 lsl chunk_bits

type buf = {
  mutable chunks : Bytes.t array;
  mutable n : int;  (** slots in use *)
}

let chunk l i = l.chunks.(i lsr chunk_bits)
let off i = 8 * (i land (chunk_slots - 1))

(* Inlined, so that a slot's [int64] is never boxed. *)
let[@inline] get l i = Bytes.get_int64_ne (chunk l i) (off i)
let[@inline] set l i v = Bytes.set_int64_ne (chunk l i) (off i) v

let[@inline] push l v =
  if l.n lsr chunk_bits >= Array.length l.chunks then
    l.chunks <- Array.append l.chunks [| Bytes.create (8 * chunk_slots) |];
  set l l.n v;
  l.n <- l.n + 1

(* A unit's entries start with a register's flat index (>= 0) or a
   store's width negated (-1 to -8); its trailer starts with its retired
   count [c] as [trailer - c]. *)
let trailer = -16

(** The reference's run of one testcase, as far as it has gone, as one
    stream of 8-byte slots, unit after unit (a unit is one call of
    {!advance} on the reference). A unit is one entry per architectural
    write it made — a register as its flat index and its value after the
    unit, a store as its width negated, its native-int address and the
    bytes there after the unit, as {!Machine.Memory.load_into} leaves
    them — then a trailer: the retired count after the unit (see
    [trailer]) and the pc after it. The stream is reused from testcase
    to testcase, so a record held for a campaign worker allocates only
    while it grows past its longest run. The record also holds the
    testcase's image, laid out once, and the one shadow machine that
    replays the stream to each candidate in turn. *)
type record = {
  log : buf;
  hooks : Semir.Hooks.t;
      (** compiled into the reference: each write appends its entry,
          whose value the unit's end fills in *)
  mutable r_of : (Lis.Spec.t * Gen.testcase * string) option;
      (** the specification, testcase (physically) and reference
          buildset of the run recorded *)
  mutable r_ref : drv option;  (** the live reference, once booted *)
  mutable r_units : int;  (** units recorded *)
  mutable r_halted : bool;  (** the last unit halted the reference *)
  mutable r_fault : Machine.Fault.t option;  (** its fault *)
  mutable r_raised : (exn * Printexc.raw_backtrace) option;
      (** what the reference raised, booting ([r_ref] is [None]) or in
          unit [r_units] *)
  mutable r_regs : Bytes.t;
      (** the reference's register values before its current syscall *)
  mutable r_boots : int;  (** reference boots over the record's life *)
  mutable r_image : Machine.State.t;
      (** the testcase loaded into a machine of its own, as every
          candidate's and the reference's machine starts *)
  mutable r_shadow : Machine.State.t;
      (** the shadow machine, of the record's specification: reset from
          [r_image] for each candidate *)
}

(** [record ()] is an empty record: {!run_pair} fills it for the
    testcase it is given, and starts it again for another one. *)
let record () =
  let log = { chunks = [||]; n = 0 } in
  let hooks =
    {
      Semir.Hooks.on_reg_write =
        (fun _ flat ->
          push log (Int64.of_int flat);
          push log 0L);
      on_store =
        (fun _ addr width ->
          push log (Int64.of_int (-width));
          push log (Int64.of_int addr);
          push log 0L);
    }
  in
  {
    log;
    hooks;
    r_of = None;
    r_ref = None;
    r_units = 0;
    r_halted = false;
    r_fault = None;
    r_raised = None;
    r_regs = Bytes.empty;
    r_boots = 0;
    r_image = Machine.State.create ~endian:Machine.Memory.Little [];
    r_shadow = Machine.State.create ~endian:Machine.Memory.Little [];
  }

let raise_again (e, bt) = Printexc.raise_with_backtrace e bt

(* [start r spec ~cache cfg tc] makes [r] the record of [tc]'s reference
   run, loading [tc]'s image and booting the reference unless [r]
   already is. A boot that raised raises again, as booting again would. *)
let start r (spec : Lis.Spec.t) ~cache (cfg : config) (tc : Gen.testcase) =
  match r.r_of with
  | Some (s, t, b) when s == spec && t == tc && String.equal b cfg.reference
    -> (
    match (r.r_ref, r.r_raised) with
    | None, Some x -> raise_again x
    | _ -> ())
  | prev -> (
    (match prev with
    | Some (s, _, _) when s == spec -> ()
    | _ -> r.r_shadow <- Lis.Spec.make_machine spec);
    r.r_of <- Some (spec, tc, cfg.reference);
    r.r_ref <- None;
    r.r_units <- 0;
    r.log.n <- 0;
    r.r_halted <- false;
    r.r_fault <- None;
    r.r_raised <- None;
    r.r_boots <- r.r_boots + 1;
    match
      let image = Lis.Spec.make_machine spec in
      load_image spec (Specsim.Synth.decoder cache) tc image;
      r.r_image <- image;
      boot spec tc ~buildset:cfg.reference ~chain:true ~site_cache:true
        ~hooks:r.hooks ~cache ()
    with
    | iface ->
      (* The OS writes registers behind the hooks: an entry for each
         one a syscall changes. *)
      let st = iface.st in
      let v = st.regs.Machine.Regfile.v in
      if Bytes.length r.r_regs <> Bytes.length v then
        r.r_regs <- Bytes.create (Bytes.length v);
      let os = st.syscall_handler in
      st.syscall_handler <-
        (fun st ->
          Bytes.blit v 0 r.r_regs 0 (Bytes.length v);
          os st;
          for i = 0 to Machine.Regfile.total st.regs - 1 do
            if
              not
                (Int64.equal
                   (Bytes.get_int64_ne v (8 * i))
                   (Bytes.get_int64_ne r.r_regs (8 * i)))
            then begin
              push r.log (Int64.of_int i);
              push r.log 0L
            end
          done);
      r.r_ref <- Some (driver iface)
    | exception e ->
      let x = (e, Printexc.get_raw_backtrace ()) in
      r.r_raised <- Some x;
      raise_again x)

(* [extend r] runs the reference one more unit and logs it: the values
   of the registers it wrote and the bytes it stored, then its trailer.
   A unit that raises is not logged, and the exception is kept for
   every later caller. *)
let extend r =
  match (r.r_raised, r.r_ref) with
  | Some x, _ -> raise_again x
  | None, None -> invalid_arg "Oracle.extend: no reference"
  | None, Some d ->
    let l = r.log in
    let u = l.n in
    (try ignore (advance d)
     with e ->
       let x = (e, Printexc.get_raw_backtrace ()) in
       l.n <- u;
       r.r_raised <- Some x;
       raise_again x);
    let st = d.iface.st in
    let v = st.regs.Machine.Regfile.v in
    let e = ref u in
    while !e < l.n do
      let x = Int64.to_int (get l !e) in
      if x >= 0 then begin
        set l (!e + 1) (Bytes.get_int64_ne v (8 * x));
        e := !e + 2
      end
      else begin
        Machine.Memory.load_into st.mem
          ~addr:(Int64.to_int (get l (!e + 1)))
          ~width:(-x) ~signed:false
          (chunk l (!e + 2))
          (off (!e + 2));
        e := !e + 3
      end
    done;
    push l (Int64.of_int (trailer - Int64.to_int st.instr_count));
    push l st.pc;
    r.r_units <- r.r_units + 1;
    if st.halted then begin
      r.r_halted <- true;
      r.r_fault <- st.fault
    end

(** A candidate's view of the reference: a machine that starts as the
    testcase image and replays [sh_rec] one unit at a time, valid until
    the next {!shadow} of the record. *)
type shadow = {
  sh_st : Machine.State.t;
  sh_rec : record;
  mutable sh_unit : int;  (** the next unit to replay *)
  mutable sh_slot : int;  (** where it starts in the stream *)
}

(** [shadow spec ~cache cfg r tc] starts [r] on [tc] (booting the
    reference through [cache] if [r] holds another run) and returns a
    shadow at the start of the run: the record's shadow machine, reset
    to the image — its pages, registers and pseudo-OS, and a reset with
    the pc at the code base. *)
let shadow (spec : Lis.Spec.t) ~cache (cfg : config) r (tc : Gen.testcase) =
  start r spec ~cache cfg tc;
  let st = r.r_shadow and image = r.r_image in
  Machine.Memory.assign ~src:image.mem ~dst:st.mem;
  Machine.Regfile.blit ~src:image.regs ~dst:st.regs;
  st.syscall_handler <- image.syscall_handler;
  Machine.State.reset st ~pc:Gen.code_base;
  { sh_st = st; sh_rec = r; sh_unit = 0; sh_slot = 0 }

(** [replay sh] is {!advance} for a shadow: it replays the next unit,
    running the reference first when the record does not hold it yet,
    and returns the instructions it retired. A halted shadow stays put,
    as a halted interface does; a unit in which the reference raised
    raises the same exception. *)
let replay sh : int =
  let st = sh.sh_st in
  if st.halted then 0
  else begin
    let r = sh.sh_rec in
    if sh.sh_unit >= r.r_units then extend r;
    let l = r.log in
    let v = st.regs.Machine.Regfile.v in
    let e = ref sh.sh_slot in
    let x = ref (Int64.to_int (get l !e)) in
    while !x > trailer do
      if !x >= 0 then begin
        Bytes.set_int64_ne v (8 * !x) (get l (!e + 1));
        e := !e + 2
      end
      else begin
        Machine.Memory.store_from st.mem
          ~addr:(Int64.to_int (get l (!e + 1)))
          ~width:(- !x)
          (chunk l (!e + 2))
          (off (!e + 2));
        e := !e + 3
      end;
      x := Int64.to_int (get l !e)
    done;
    let before = st.instr_count in
    st.instr_count <- Int64.of_int (trailer - !x);
    st.pc <- get l (!e + 1);
    sh.sh_unit <- sh.sh_unit + 1;
    sh.sh_slot <- !e + 2;
    if r.r_halted && sh.sh_unit = r.r_units then begin
      st.halted <- true;
      st.fault <- r.r_fault
    end;
    Int64.to_int (Int64.sub st.instr_count before)
  end

(** [run_pair spec cfg tc ~buildset] — lockstep one candidate against the
    reference; [None] means full agreement within the budget. [?prof]
    attaches a shared hot-region profiler to every candidate boot, so a
    whole campaign accumulates into one region table (the flame view of
    the campaign). [cache] is the caller's synthesis cache for [spec]
    (see {!Specsim.Synth.cache}); without one, the candidate and the
    reference still share a private one. [record] is the caller's
    {!record}: passed to every candidate of a testcase, it runs the
    reference once for all of them (the testcase is compared
    physically, so keep it unchanged). Without one, the reference is
    recorded for this candidate alone. Keep one record per synthesis
    cache: the reference's code is compiled into the cache under the
    record's hooks. *)
let run_pair (spec : Lis.Spec.t) ?prof ?cache ?record:r (cfg : config)
    (tc : Gen.testcase) ~buildset : divergence option =
  let cache =
    match cache with Some c -> c | None -> Specsim.Synth.cache spec
  in
  let r = match r with Some r -> r | None -> record () in
  let obs =
    if cfg.check_crossings then Some (Obs.create ?prof ())
    else Option.map (fun p -> Obs.profile_only ~prof:p ()) prof
  in
  let cand =
    driver
      (boot spec tc ~buildset ~chain:cfg.chain ~site_cache:cfg.site_cache
         ?mutate:cfg.mutate ~cache ?obs ())
  in
  let refd = shadow spec ~cache cfg r tc in
  (* only a fully-instrumented context counts crossings; a profile-only
     one builds seed closures and its registry would read a false 0 *)
  let crossings =
    if cfg.check_crossings then
      Option.map
        (fun (o : Obs.t) ->
          Obs.Registry.counter o.Obs.reg "synth.entrypoint_calls")
        obs
    else None
  in
  let cst = cand.iface.st and rst = refd.sh_st in
  let total = ref 0 in
  let stuck = ref 0 in
  let next_mem = ref cfg.mem_interval in
  let div = ref None in
  let diverge kind detail =
    if Option.is_none !div then
      div :=
        Some
          {
            d_buildset = buildset;
            d_kind = kind;
            d_retired = cst.instr_count;
            d_detail = detail;
          }
  in
  let compare_mem () =
    if not (Machine.Memory.equal_contents cst.mem rst.mem) then
      (* digests only name the divergence in reports *)
      let mc = Machine.Memory.digest cst.mem
      and mr = Machine.Memory.digest rst.mem in
      diverge "mem"
        (Printf.sprintf "memory digest 0x%Lx, reference 0x%Lx" mc mr)
  in
  let compare_sync ~mem =
    if cst.halted <> rst.halted then
      diverge "halt"
        (Printf.sprintf "candidate %s, reference %s"
           (if cst.halted then "halted (" ^ fault_str cst ^ ")" else "running")
           (if rst.halted then "halted (" ^ fault_str rst ^ ")" else "running"))
    else if cst.halted && not (String.equal (fault_str cst) (fault_str rst))
    then
      diverge "fault"
        (Printf.sprintf "candidate fault %s, reference %s" (fault_str cst)
           (fault_str rst))
    else if (not cst.halted) && not (Int64.equal cst.pc rst.pc) then
      diverge "pc"
        (Printf.sprintf "fetch pc 0x%Lx, reference 0x%Lx" cst.pc rst.pc);
    if Option.is_none !div && not (Int64.equal cst.instr_count rst.instr_count)
    then
      diverge "count"
        (Printf.sprintf "retired %Ld, reference %Ld" cst.instr_count
           rst.instr_count);
    if Option.is_none !div && not (Machine.Regfile.equal cst.regs rst.regs)
    then begin
      (* digests only name the divergence in reports, as for memory *)
      let rc = Inject.Watchdog.regs_digest cst.regs
      and rr = Inject.Watchdog.regs_digest rst.regs in
      diverge "regs"
        (Printf.sprintf "register digest 0x%Lx, reference 0x%Lx" rc rr)
    end;
    (match crossings with
    | Some c when Option.is_none !div && c.Obs.Registry.n <> cand.calls ->
      diverge "crossings"
        (Printf.sprintf "entrypoint crossings %d, expected %d"
           c.Obs.Registry.n cand.calls)
    | _ -> ());
    if Option.is_none !div && mem then compare_mem ();
    (* every interface leaves the pc at the halting instruction; checked
       last, so a verdict that an earlier check gives stays first *)
    if Option.is_none !div && not (Int64.equal cst.pc rst.pc) then
      diverge "pc"
        (Printf.sprintf "halt pc 0x%Lx, reference 0x%Lx" cst.pc rst.pc)
  in
  let rec loop () =
    if Option.is_some !div then ()
    else if cst.halted && rst.halted then ()
    else if !total >= cfg.max_instrs then ()
    else begin
      let n = advance cand in
      total := !total + n;
      if n = 0 && not cst.halted then begin
        incr stuck;
        if !stuck > 4 then
          diverge "stuck"
            (Printf.sprintf
               "no forward progress at pc 0x%Lx (invalid block dispatched?)"
               cst.pc)
      end
      else stuck := 0;
      (* the reference follows, one instruction per unit *)
      let fed = ref 0 in
      while Option.is_none !div && !fed < n && not rst.halted do
        let m = replay refd in
        if m = 0 && not rst.halted then
          diverge "stuck" "reference made no progress"
        else fed := !fed + m
      done;
      (* a halting instruction retires nothing, so when the candidate
         halts the reference needs one extra unit to take the same fault *)
      if Option.is_none !div && cst.halted && not rst.halted then
        ignore (replay refd);
      if Option.is_none !div then
        compare_sync
          ~mem:
            (cst.halted
            ||
            if !total >= !next_mem then begin
              next_mem := !total + cfg.mem_interval;
              true
            end
            else false);
      loop ()
    end
  in
  loop ();
  (* end of budget with both still running: full final comparison,
     including the canonical whole-state digest. A halt had its full
     comparison in the loop, memory and the pc at the halting
     instruction included. *)
  if Option.is_none !div && not cst.halted then begin
    compare_sync ~mem:true;
    if Option.is_none !div then begin
      let dc = Machine.Checkpoint.digest cst
      and dr = Machine.Checkpoint.digest rst in
      if not (Int64.equal dc dr) then
        diverge "state"
          (Printf.sprintf "state digest 0x%Lx, reference 0x%Lx" dc dr)
    end
  end;
  !div

(** [run_all spec cfg tc] checks every configured candidate buildset
    against one run of the reference; returns all divergences found
    (empty = conforming testcase). *)
let run_all (spec : Lis.Spec.t) (cfg : config) (tc : Gen.testcase) :
    divergence list =
  let cache = Specsim.Synth.cache spec and record = record () in
  List.filter_map
    (fun bs -> run_pair spec ~cache ~record cfg tc ~buildset:bs)
    cfg.buildsets
