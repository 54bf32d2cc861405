(** Timing-directed simulator (paper §II-C).

    The timing model is in control: a scalar in-order five-stage pipeline
    (IF ID EX MEM WB) asks the functional simulator to perform each element
    of an instruction's behaviour exactly when the microarchitecture would —
    fetch in IF, decode and operand fetch in ID, address/evaluate in EX,
    memory access in MEM, writeback and exceptions in WB. This requires an
    interface with high semantic detail (the seven-entrypoint Step
    interfaces) and high informational detail (operand register numbers
    feed the scoreboard).

    The pipeline stalls on RAW hazards via a scoreboard (no bypass
    network), takes I/D-cache latencies, resolves branches in EX with a
    not-taken fetch policy, and serializes system calls. *)

type config = {
  l1i : Cache.config;
  l1d : Cache.config;
  mispredict_penalty_extra : int;
      (** cycles beyond the natural refetch bubble *)
}

let default_config =
  { l1i = Cache.l1i_default; l1d = Cache.l1d_default; mispredict_penalty_extra = 0 }

type result = {
  instructions : int64;
  cycles : int64;
  ipc : float;
  raw_stall_cycles : int64;
  branch_flushes : int64;
  icache_miss_rate : float;
  dcache_miss_rate : float;
}

(* Entrypoint positions of the canonical step buildsets. *)
let ep_fetch = 0
let ep_decode = 1
let ep_operands = 2
let ep_execute = 3
let ep_memory = 4
let ep_writeback = 5
let ep_exception = 6

(* Checked native-endian read of a DI slot; a primitive, so the value is
   used unboxed. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

(* The fetch unit: the next fetch pc, and whether fetch waits for a
   system call to retire. A record, so the pc stays boxed and IF hands
   it to the DI header without allocating (a local int64 [ref], or a
   one-field record, is unboxed and boxed again on every fetch). *)
type front = { mutable pc : int64; mutable serialize : bool }

type slot = {
  di : Specsim.Di.t;
  mutable busy : bool;
  mutable stall : int;  (** remaining cycles in this stage *)
  dests : int array;  (** flat register ids being produced: [n_dests] first *)
  mutable n_dests : int;
  srcs : int array;  (** flat register ids read: [n_srcs] first *)
  mutable n_srcs : int;
  mutable decoded : bool;
  mutable operands_read : bool;
  mutable syscall : bool;
}

let fresh_slot (iface : Specsim.Iface.t) ~max_dests ~max_srcs =
  {
    di = Specsim.Di.create ~info_slots:iface.slots.di_size;
    busy = false;
    stall = 0;
    dests = Array.make max_dests 0;
    n_dests = 0;
    srcs = Array.make max_srcs 0;
    n_srcs = 0;
    decoded = false;
    operands_read = false;
    syscall = false;
  }

let clear (s : slot) =
  s.busy <- false;
  s.stall <- 0;
  s.n_dests <- 0;
  s.n_srcs <- 0;
  s.decoded <- false;
  s.operands_read <- false;
  s.syscall <- false

let run ?(config = default_config) (iface : Specsim.Iface.t) ~budget : result =
  if Specsim.Iface.n_entrypoints iface <> 7 then
    invalid_arg
      "Directed.run: needs a seven-entrypoint Step interface (e.g. step_all)";
  let st = iface.st in
  let kinds = Specsim.Classify.of_spec iface.spec in
  let di_slot_of_cell = iface.slots.di_slot_of_cell in
  let regs = st.regs in
  (* The flat ids of the operands [ops] the interface exposes in [di],
     written to the front of [dst]; returns how many. *)
  let operands dst (ops : (int * Semir.Ir.cell) array) (di : Specsim.Di.t) =
    let n = ref 0 in
    for i = 0 to Array.length ops - 1 do
      let cls, id_cell = ops.(i) in
      let s = di_slot_of_cell.(id_cell) in
      if s >= 0 then begin
        dst.(!n) <-
          Machine.Regfile.base regs cls + Int64.to_int (get64 di.info (8 * s));
        incr n
      end
    done;
    !n
  in
  let widest f =
    Array.fold_left (fun m k -> max m (Array.length (f k))) 0 kinds
  in
  let max_dests = widest (fun (k : Specsim.Classify.kind) -> k.dest_regs)
  and max_srcs = widest (fun (k : Specsim.Classify.kind) -> k.src_regs) in
  let l1i = Cache.create config.l1i in
  let l1d = Cache.create config.l1d in
  let ea_off =
    match Specsim.Iface.slot_of iface "effective_addr" with
    | Some s -> 8 * s
    | None -> -1
  in
  (* stage slots: 0 = IF, 1 = ID, 2 = EX, 3 = MEM, 4 = WB *)
  let stages = Array.init 5 (fun _ -> fresh_slot iface ~max_dests ~max_srcs) in
  let fetch = { pc = st.pc; serialize = false } in
  let cycles = ref 0 in
  let retired = ref 0 in
  let raw_stalls = ref 0 in
  let flushes = ref 0 in
  let move a b =
    (* move stage contents from index a to empty index b *)
    let tmp = stages.(b) in
    stages.(b) <- stages.(a);
    stages.(a) <- tmp;
    clear stages.(a)
  in
  (* RAW hazard: a source of [id] is a destination of an instruction in
     EX, MEM or WB *)
  let raw_hazard (id : slot) =
    let hit = ref false in
    for i = 2 to 4 do
      let s = stages.(i) in
      if s.busy then
        for d = 0 to s.n_dests - 1 do
          for r = 0 to id.n_srcs - 1 do
            if id.srcs.(r) = s.dests.(d) then hit := true
          done
        done
    done;
    !hit
  in
  while (not st.halted) && !retired < budget do
    incr cycles;
    (* ---- WB ---- *)
    let wb = stages.(4) in
    if wb.busy then begin
      iface.step wb.di ep_writeback;
      if not st.halted then iface.step wb.di ep_exception;
      if not st.halted then begin
        iface.retire wb.di;
        incr retired
      end;
      if wb.syscall then begin
        fetch.serialize <- false;
        fetch.pc <- wb.di.next_pc
      end;
      clear wb
    end;
    (* ---- MEM ---- *)
    let mem = stages.(3) in
    if mem.busy && not st.halted then
      if mem.stall > 0 then mem.stall <- mem.stall - 1
      else if not stages.(4).busy then move 3 4;
    (* ---- EX ---- *)
    let ex = stages.(2) in
    if ex.busy && not st.halted && not stages.(3).busy then begin
      iface.step ex.di ep_execute;
      (* branch resolution: not-taken fetch policy. Assumes 4-byte
         instructions, so on riscv every 2-byte RVC instruction counts
         as a taken branch and flushes (see the riscv stride item in
         ROADMAP.md); fixing it changes riscv's simulated statistics. *)
      if not (Int64.equal ex.di.next_pc (Int64.add ex.di.pc 4L)) then begin
        clear stages.(0);
        clear stages.(1);
        (* a squashed younger syscall no longer serializes *)
        fetch.serialize <- false;
        fetch.pc <- ex.di.next_pc;
        incr flushes;
        cycles := !cycles + config.mispredict_penalty_extra
      end;
      (* D-cache access begins as the instruction enters MEM *)
      let idx = ex.di.instr_index in
      let lat =
        if
          idx >= 0 && ea_off >= 0
          && (kinds.(idx).is_load || kinds.(idx).is_store)
        then
          Cache.latency l1d (Int64.to_int (get64 ex.di.info ea_off) land max_int)
        else 1
      in
      move 2 3;
      stages.(3).stall <- lat - 1;
      (* the memory action itself runs as the access completes *)
      iface.step stages.(3).di ep_memory
    end;
    (* ---- ID ---- *)
    let id = stages.(1) in
    if id.busy && not st.halted && not stages.(2).busy then begin
      if not id.decoded then begin
        iface.step id.di ep_decode;
        id.decoded <- true;
        if (not st.halted) && id.di.instr_index >= 0 then begin
          let k = kinds.(id.di.instr_index) in
          id.syscall <- k.is_syscall;
          id.n_srcs <- operands id.srcs k.src_regs id.di;
          id.n_dests <- operands id.dests k.dest_regs id.di;
          if k.is_syscall then begin
            (* serialize: squash the younger fetch, stop fetching *)
            clear stages.(0);
            fetch.serialize <- true
          end
        end
      end;
      if st.halted then clear id
      else if raw_hazard id then incr raw_stalls
      else begin
        iface.step id.di ep_operands;
        id.operands_read <- true;
        move 1 2
      end
    end;
    (* ---- IF ---- *)
    let iff = stages.(0) in
    if (not st.halted) && not fetch.serialize then
      if iff.busy then begin
        if iff.stall > 0 then iff.stall <- iff.stall - 1
        else if not stages.(1).busy then move 0 1
      end
      else if not stages.(1).busy then begin
        let pc = fetch.pc in
        iff.busy <- true;
        iff.di.pc <- pc;
        iff.di.instr_index <- -1;
        iff.di.fault <- None;
        iface.step iff.di ep_fetch;
        iff.stall <- Cache.latency l1i (Int64.to_int pc land max_int) - 1;
        (* Sequential fetch assumes 4-byte instructions: wrong after a
           2-byte riscv RVC instruction, which EX then flushes. The fetch
           entrypoint has normally left pc + 4 in next_pc; sharing that
           box saves allocating one per fetch. *)
        let seq = Int64.add pc 4L in
        fetch.pc <- (if Int64.equal iff.di.next_pc seq then iff.di.next_pc else seq);
        if iff.stall = 0 && not stages.(1).busy then move 0 1
      end
  done;
  {
    instructions = Int64.of_int !retired;
    cycles = Int64.of_int !cycles;
    ipc =
      (if !cycles = 0 then 0.
       else float_of_int !retired /. float_of_int !cycles);
    raw_stall_cycles = Int64.of_int !raw_stalls;
    branch_flushes = Int64.of_int !flushes;
    icache_miss_rate = Cache.miss_rate l1i;
    dcache_miss_rate = Cache.miss_rate l1d;
  }
