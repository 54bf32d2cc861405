(** Machine checkpointing: round trips, resume-equivalence (running from a
    checkpoint gives the same result as running straight through), and
    layout-mismatch rejection. *)

let run_kernel_with_checkpoint (t : Workload.target) split =
  (* run [split] instructions, checkpoint, keep going in a FRESH machine
     restored from the checkpoint; return the final outcome *)
  let k = List.nth Vir.Kernels.test_suite 3 in
  let l = Workload.load t ~buildset:"one_all" k.program in
  let _ = Specsim.Iface.run_n l.iface split in
  let data = Machine.Checkpoint.save l.iface.st in
  (* fresh machine + interface; OS emulator state (output so far) is
     carried over manually since the checkpoint does not capture it *)
  let output_so_far = Machine.Os_emu.output l.os in
  let spec = Lazy.force t.spec in
  let iface2 = Specsim.Synth.make spec "one_all" in
  let os2 = Machine.Os_emu.create () in
  (match spec.abi with
  | Some abi -> Machine.Os_emu.install os2 abi iface2.st
  | None -> ());
  Machine.Checkpoint.restore iface2.st data;
  let _ = Specsim.Iface.run_n iface2 50_000_000 in
  ( Machine.State.exit_status iface2.st,
    output_so_far ^ Machine.Os_emu.output os2,
    iface2.st.instr_count )

let test_resume_equivalence () =
  let t = Workload.alpha in
  let k = List.nth Vir.Kernels.test_suite 3 in
  let straight = Workload.run t ~buildset:"one_all" k.program in
  List.iter
    (fun split ->
      let status, output, count = run_kernel_with_checkpoint t split in
      Alcotest.(check (option int))
        (Printf.sprintf "exit after split at %d" split)
        (Some straight.exit_status)
        (Option.map (fun s -> s land 0xff) status);
      Alcotest.(check string) "output" straight.output output;
      Alcotest.(check int64) "instruction count preserved" straight.instructions
        count)
    [ 100; 5_000 ]

let test_roundtrip_exact () =
  let st =
    Machine.State.create ~endian:Machine.Memory.Big
      [
        { Machine.Regfile.cname = "G"; count = 8; width = 32; hardwired_zero = Some 0 };
        { Machine.Regfile.cname = "X"; count = 2; width = 64; hardwired_zero = None };
      ]
  in
  Machine.Regfile.write st.regs ~cls:0 ~idx:3 0xDEADL;
  Machine.Regfile.write st.regs ~cls:1 ~idx:1 0x123456789ABCDEFL;
  Machine.Memory.write st.mem ~addr:0x4242L ~width:8 77L;
  Machine.Memory.write st.mem ~addr:0x100000L ~width:4 88L;
  st.pc <- 0x8000L;
  st.instr_count <- 999L;
  Machine.State.raise_fault st (Machine.Fault.Arith "checkpointed mid-fault");
  let data = Machine.Checkpoint.save st in
  let st2 =
    Machine.State.create ~endian:Machine.Memory.Big
      [
        { Machine.Regfile.cname = "G"; count = 8; width = 32; hardwired_zero = Some 0 };
        { Machine.Regfile.cname = "X"; count = 2; width = 64; hardwired_zero = None };
      ]
  in
  Machine.Checkpoint.restore st2 data;
  Alcotest.(check bool) "registers equal" true (Machine.Regfile.equal st.regs st2.regs);
  Alcotest.(check int64) "pc" st.pc st2.pc;
  Alcotest.(check int64) "count" st.instr_count st2.instr_count;
  Alcotest.(check bool) "halted" st.halted st2.halted;
  Alcotest.(check bool) "fault" true
    (match (st.fault, st2.fault) with
    | Some a, Some b -> Machine.Fault.equal a b
    | None, None -> true
    | _ -> false);
  Alcotest.(check int64) "memory word" 77L
    (Machine.Memory.read st2.mem ~addr:0x4242L ~width:8);
  Alcotest.(check int64) "distant page" 88L
    (Machine.Memory.read st2.mem ~addr:0x100000L ~width:4)

let test_restore_after_corruption () =
  (* checkpoint a live machine mid-kernel, let an injector trash its
     registers, memory and PC, then restore: the machine must come back
     byte-exact and finish with the reference outcome *)
  let t = Workload.alpha in
  let k = List.nth Vir.Kernels.test_suite 3 in
  let expected = Workload.run t ~buildset:"one_all" k.program in
  let l = Workload.load t ~buildset:"one_all" k.program in
  let st = l.iface.st in
  let _ = Specsim.Iface.run_n l.iface 2_000 in
  let data = Machine.Checkpoint.save st in
  let regs0 = Machine.Regfile.copy st.regs in
  let pc0 = st.pc and count0 = st.instr_count in
  let mem0 = Machine.Memory.digest st.mem in
  (* corrupt everything an injector can reach, several times over *)
  let inj =
    Inject.Injector.create ~seed:123L ~rate:1.0
      ~sites:[ Inject.Injector.Reg_bitflip; Mem_byte; Pc_skew ] ()
  in
  let di = Specsim.Di.create ~info_slots:l.iface.slots.di_size in
  for i = 1 to 50 do
    st.instr_count <- Int64.add count0 (Int64.of_int i);
    Inject.Injector.bug inj st di
  done;
  Alcotest.(check bool) "corruption happened" true
    (Inject.Injector.n_injected inj > 0);
  Alcotest.(check bool) "state actually diverged" false
    (Machine.Regfile.equal st.regs regs0
    && Int64.equal (Machine.Memory.digest st.mem) mem0
    && Int64.equal st.pc pc0);
  Machine.Checkpoint.restore st data;
  l.iface.flush_code_cache ();
  Alcotest.(check bool) "registers byte-exact" true
    (Machine.Regfile.equal st.regs regs0);
  Alcotest.(check int64) "pc byte-exact" pc0 st.pc;
  Alcotest.(check int64) "instr count byte-exact" count0 st.instr_count;
  Alcotest.(check int64) "memory digest byte-exact" mem0
    (Machine.Memory.digest st.mem);
  (* and the restored machine still reaches the reference outcome *)
  let _ = Specsim.Iface.run_n l.iface 50_000_000 in
  Alcotest.(check (option int)) "exit status" (Some expected.exit_status)
    (Option.map (fun s -> s land 0xff) (Machine.State.exit_status st));
  Alcotest.(check string) "output" expected.output (Machine.Os_emu.output l.os)

let test_layout_mismatch_rejected () =
  let st =
    Machine.State.create ~endian:Machine.Memory.Little
      [ { Machine.Regfile.cname = "G"; count = 8; width = 64; hardwired_zero = None } ]
  in
  let data = Machine.Checkpoint.save st in
  let other =
    Machine.State.create ~endian:Machine.Memory.Little
      [ { Machine.Regfile.cname = "G"; count = 16; width = 64; hardwired_zero = None } ]
  in
  (match Machine.Checkpoint.restore other data with
  | exception Machine.Checkpoint.Corrupt _ -> ()
  | () -> Alcotest.fail "layout mismatch accepted");
  let wrong_endian =
    Machine.State.create ~endian:Machine.Memory.Big
      [ { Machine.Regfile.cname = "G"; count = 8; width = 64; hardwired_zero = None } ]
  in
  (match Machine.Checkpoint.restore wrong_endian data with
  | exception Machine.Checkpoint.Corrupt _ -> ()
  | () -> Alcotest.fail "endian mismatch accepted");
  match Machine.Checkpoint.restore st "garbage" with
  | exception Machine.Checkpoint.Corrupt _ -> ()
  | () -> Alcotest.fail "garbage accepted"

(* A fixed two-page machine with every register class shape, in each
   fault state the format distinguishes. *)
let pinned_machine fault =
  let st =
    Machine.State.create ~endian:Machine.Memory.Big
      [
        { Machine.Regfile.cname = "G"; count = 8; width = 32; hardwired_zero = Some 0 };
        { Machine.Regfile.cname = "X"; count = 2; width = 64; hardwired_zero = None };
      ]
  in
  for i = 1 to 7 do
    Machine.Regfile.write st.regs ~cls:0 ~idx:i (Int64.of_int (0x1111 * i))
  done;
  Machine.Regfile.write st.regs ~cls:1 ~idx:1 0x123456789ABCDEFL;
  Machine.Memory.write st.mem ~addr:0x4242L ~width:8 0x0102030405060708L;
  Machine.Memory.write st.mem ~addr:0x100000L ~width:4 88L;
  st.pc <- 0x8000L;
  st.next_pc <- 0x8004L;
  st.instr_count <- 999L;
  Option.iter (Machine.State.raise_fault st) fault;
  st

(* MD5s of [save], recorded before [save] was rewritten: the byte
   format must not move. *)
let pinned_saves =
  [
    ("no fault", None, "adc5a85c2bf580d7500dc360553f1dd4");
    ( "illegal",
      Some (Machine.Fault.Illegal_instruction 0xFFFF_FFFFL),
      "65192b80077a83566fc077f97d1d78e5" );
    ( "unaligned",
      Some (Machine.Fault.Unaligned_access 0x4243L),
      "2ed212a16e343e6862b914703e42c8b0" );
    ( "arith",
      Some (Machine.Fault.Arith "checkpointed mid-fault"),
      "b31315e7ea4a7c408dc1029313d5e55c" );
    ("exit", Some (Machine.Fault.Exit 3), "9e4404c1d164617d3cb15e2151948196");
  ]

let test_pinned_save () =
  List.iter
    (fun (name, fault, md5) ->
      let data = Machine.Checkpoint.save (pinned_machine fault) in
      Alcotest.(check string) name md5 (Digest.to_hex (Digest.string data)))
    pinned_saves

(* [save] allocates its result and a few words besides: no staging
   buffer, no per-register temporary, no final copy. *)
let test_save_allocation () =
  let st = pinned_machine (Some (Machine.Fault.Arith "checkpointed mid-fault")) in
  ignore (Machine.Checkpoint.save st);
  let b0 = Gc.allocated_bytes () in
  let data = Machine.Checkpoint.save st in
  let extra = Gc.allocated_bytes () -. b0 -. float_of_int (String.length data) in
  if extra > 256. then
    Alcotest.failf "save allocates %.0f bytes besides its %d-byte result" extra
      (String.length data)

let suite =
  [
    Alcotest.test_case "resume equivalence" `Quick test_resume_equivalence;
    Alcotest.test_case "exact roundtrip" `Quick test_roundtrip_exact;
    Alcotest.test_case "restore after injected corruption" `Quick
      test_restore_after_corruption;
    Alcotest.test_case "mismatch rejected" `Quick test_layout_mismatch_rejected;
    Alcotest.test_case "save bytes pinned" `Quick test_pinned_save;
    Alcotest.test_case "save allocates its result only" `Quick
      test_save_allocation;
  ]
