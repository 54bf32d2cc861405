(** Speculative functional-first simulator (paper §II-E).

    The functional simulator runs ahead of the timing simulator, every
    instruction considered speculative; the timing simulator consumes the
    stream with a delay. When it discovers that the functional execution
    used a timing-dependent value that turns out wrong — here, loads from
    a memory-mapped "timer" whose correct value depends on the simulated
    cycle — it commands the functional simulator to undo back to that
    instruction, overrides the memory value, and lets it re-execute down
    the corrected path (as UTFast/FastSim do for mis-speculated memory
    values).

    Requires a speculative interface with Decode-level information (the
    effective address identifies timer loads). *)

type config = {
  window : int;  (** how far the functional simulator runs ahead *)
  timer_addr : int64;  (** MMIO address whose value is cycle-dependent *)
  timing_model : Funcfirst.config;
}

let default_config =
  {
    window = 32;
    timer_addr = 0x000F_0000L;
    timing_model = Funcfirst.default_config;
  }

type result = {
  instructions : int64;
  rollbacks : int64;
  cycles : int64;
  ipc : float;
}

(* Checked native-endian read of a DI slot; a primitive, so the value is
   compared unboxed. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

let run ?(config = default_config) (iface : Specsim.Iface.t) ~budget : result =
  if iface.journal = None then
    invalid_arg "Specff.run: needs a speculative interface (…_spec buildset)";
  let ea_off =
    match Specsim.Iface.slot_of iface "effective_addr" with
    | Some s -> 8 * s
    | None ->
      invalid_arg "Specff.run: interface must expose effective_addr (Decode)"
  in
  let st = iface.st in
  let ff = Funcfirst.create ~config:config.timing_model iface in
  let kinds = ff.kinds in
  (* The speculative window: a ring of [window] DI records the
     functional simulator writes in place, oldest at [head]. *)
  let window = config.window in
  let ring =
    Array.init window (fun _ ->
        Specsim.Di.create ~info_slots:iface.slots.di_size)
  in
  let head = ref 0 and pending = ref 0 in
  let rollbacks = ref 0 in
  let retired = ref 0 in
  (* The "correct" timer value as a function of simulated time. *)
  (* Coarse enough that the value is stable across one speculative window,
     so divergences settle after a single rollback. *)
  let timer_now () =
    Int64.logand (Int64.shift_right_logical (Funcfirst.current_cycles ff) 10) 0xFFL
  in
  let speculation_stopped = ref false in
  while
    !retired < budget
    && not (!pending = 0 && (st.halted || !speculation_stopped))
  do
    (* fill the speculative window *)
    while !pending < window && not st.halted do
      iface.run_one ring.((!head + !pending) mod window);
      incr pending
    done;
    speculation_stopped := st.halted;
    (* timing simulator consumes the oldest instruction *)
    if !pending > 0 then begin
      let di = ring.(!head) in
      head := (!head + 1) mod window;
      decr pending;
      Funcfirst.consume ff di;
      let is_timer_load =
        di.instr_index >= 0
        && kinds.(di.instr_index).is_load
        && Int64.equal (get64 di.info ea_off) config.timer_addr
      in
      let diverged =
        is_timer_load
        && not
             (Int64.equal
                (Machine.Memory.read st.mem ~addr:config.timer_addr ~width:4)
                (timer_now ()))
      in
      if diverged then begin
        (* undo this instruction and everything younger, fix the value,
           re-execute *)
        incr rollbacks;
        Specsim.Iface.rollback_di iface di;
        Machine.Memory.write st.mem ~addr:config.timer_addr ~width:4
          (timer_now ());
        pending := 0;
        speculation_stopped := false
      end
      else incr retired
    end
  done;
  let cycles = Funcfirst.current_cycles ff in
  {
    instructions = Int64.of_int !retired;
    rollbacks = Int64.of_int !rollbacks;
    cycles;
    ipc =
      (if Int64.equal cycles 0L then 0.
       else float_of_int !retired /. Int64.to_float cycles);
  }
