(** Functional-first timing simulator (paper §II-B).

    The functional simulator runs ahead, producing a stream of dynamic
    instruction records; this timing model consumes the stream and accounts
    cycles for an in-order scalar pipeline with I/D caches and a branch
    predictor. It needs only moderate informational detail — decoded
    operand identifiers, branch resolution, effective addresses — i.e. the
    Decode level; at Min detail it still runs but cannot model the D-cache
    (the effective address is hidden), which it reports.

    Control is one interface call per instruction (or per basic block when
    connected to a Block interface) and the timing model exerts no control
    over the functional simulator — the defining property of this
    organization. *)

type config = {
  l1i : Cache.config;
  l1d : Cache.config;
  predictor : Predictor.kind;
  mispredict_penalty : int;
}

let default_config =
  {
    l1i = Cache.l1i_default;
    l1d = Cache.l1d_default;
    predictor = Predictor.Gshare 12;
    mispredict_penalty = 8;
  }

type result = {
  instructions : int64;
  cycles : int64;
  ipc : float;
  icache_miss_rate : float;
  dcache_miss_rate : float;
  mispredict_rate : float;
  dcache_modelled : bool;
      (** false when the interface hides the effective address *)
}

type t = {
  iface : Specsim.Iface.t;
  config : config;
  l1i : Cache.t;
  l1d : Cache.t;
  predictor : Predictor.t;
  kinds : Specsim.Classify.kind array;
  ea_slot : int option;
  mutable cycles : int;
}

(* Checked native-endian read of a DI slot: a primitive, so the value
   reaches the cache unboxed (DESIGN.md §6 item 7 rule a). *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

let create ?(config = default_config) (iface : Specsim.Iface.t) : t =
  {
    iface;
    config;
    l1i = Cache.create config.l1i;
    l1d = Cache.create config.l1d;
    predictor = Predictor.create config.predictor;
    kinds = Specsim.Classify.of_spec iface.spec;
    ea_slot = Specsim.Iface.slot_of iface "effective_addr";
    cycles = 0;
  }

(** [register_obs t obs] exports the timing model's cache and predictor
    statistics as "timing.*" pull gauges — the models already keep these
    counts, so observation costs the consume path nothing. *)
let register_obs (t : t) (obs : Obs.t) =
  let open Obs.Registry in
  let cache name (c : Cache.t) =
    probe obs.reg ("timing." ^ name ^ ".accesses") (fun () ->
        Int (Int64.to_int (fst (Cache.stats c))));
    probe obs.reg ("timing." ^ name ^ ".misses") (fun () ->
        Int (Int64.to_int (snd (Cache.stats c))));
    probe obs.reg ("timing." ^ name ^ ".miss_rate") (fun () ->
        Float (Cache.miss_rate c))
  in
  cache "l1i" t.l1i;
  cache "l1d" t.l1d;
  probe obs.reg "timing.bp.predictions" (fun () ->
      Int (Int64.to_int (fst (Predictor.stats t.predictor))));
  probe obs.reg "timing.bp.mispredictions" (fun () ->
      Int (Int64.to_int (snd (Predictor.stats t.predictor))));
  probe obs.reg "timing.bp.mispredict_rate" (fun () ->
      Float (Predictor.misprediction_rate t.predictor));
  probe obs.reg "timing.cycles" (fun () -> Int t.cycles)

(** Cycles accumulated so far by this timing model. *)
let current_cycles t = Int64.of_int t.cycles

(** Account one retired dynamic instruction. *)
let consume t (di : Specsim.Di.t) =
  t.cycles <- t.cycles + Cache.latency t.l1i (Machine.Memory.addr_int di.pc);
  if di.instr_index >= 0 then begin
    let k = t.kinds.(di.instr_index) in
    (if k.is_load || k.is_store then
       match t.ea_slot with
       | Some slot ->
         let ea = Int64.to_int (get64 di.info (8 * slot)) land max_int in
         t.cycles <- t.cycles + Cache.latency t.l1d ea - 1
       | None -> ());
    if k.is_branch then begin
      (* Assumes 4-byte instructions: a 2-byte riscv RVC branch that
         falls through reaches pc + 2 and would count as taken. The RVC
         subset has only unconditional jumps (C_J, C_JR), so this does
         not fire today (see the riscv stride item in ROADMAP.md). *)
      let taken = not (Int64.equal di.next_pc (Int64.add di.pc 4L)) in
      let predicted = Predictor.update t.predictor ~pc:di.pc ~taken in
      if predicted <> taken then
        t.cycles <- t.cycles + t.config.mispredict_penalty
    end
  end

(** [run t ~budget] drives the functional simulator until halt or budget,
    consuming the instruction stream. *)
let run (t : t) ~budget : result =
  let iface = t.iface in
  let st = iface.st in
  let start = st.instr_count in
  let executed () = Int64.to_int (Int64.sub st.instr_count start) in
  if iface.bs.bs_block then
    while (not st.halted) && executed () < budget do
      let dis, n = iface.run_block () in
      for i = 0 to n - 1 do
        consume t dis.(i)
      done
    done
  else begin
    let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
    while (not st.halted) && executed () < budget do
      iface.run_one di;
      if di.fault = None then consume t di
    done
  end;
  let instructions = Int64.sub st.instr_count start in
  {
    instructions;
    cycles = Int64.of_int t.cycles;
    ipc =
      (if t.cycles = 0 then 0.
       else Int64.to_float instructions /. float_of_int t.cycles);
    icache_miss_rate = Cache.miss_rate t.l1i;
    dcache_miss_rate = Cache.miss_rate t.l1d;
    mispredict_rate = Predictor.misprediction_rate t.predictor;
    dcache_modelled = t.ea_slot <> None;
  }
