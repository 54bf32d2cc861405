(** The front end of a Step interface and the engine's fetch: the flat
    walk behind [run_one], the DI-free [run_fast] loop, and the page the
    fetch holds between instructions. *)

(* ------------------------------------------------------------------ *)
(* Step interfaces: run_fast and run_one against stepped twins         *)
(* ------------------------------------------------------------------ *)

let budget = 2048

(* one instruction through every entrypoint, then [retire]: the stepped
   flow a timing simulator drives *)
let step_one (iface : Specsim.Iface.t) (di : Specsim.Di.t) =
  let st = iface.st in
  di.pc <- st.pc;
  di.instr_index <- -1;
  di.fault <- None;
  let n = Specsim.Iface.n_entrypoints iface in
  let k = ref 0 in
  while !k < n && not st.halted do
    iface.step di !k;
    incr k
  done;
  if not st.halted then iface.retire di

let fault_str (st : Machine.State.t) =
  match st.fault with None -> "-" | Some f -> Machine.Fault.to_string f

(* Everything a run leaves behind that the two drivers must agree on. *)
let same_end what (a : Specsim.Iface.t) (b : Specsim.Iface.t) =
  let sa = a.st and sb = b.st in
  let check name ok =
    if not ok then
      Alcotest.failf "%s: %s differs (pc 0x%Lx/0x%Lx, retired %Ld/%Ld, fault %s/%s)"
        what name sa.pc sb.pc sa.instr_count sb.instr_count (fault_str sa)
        (fault_str sb)
  in
  check "halted" (Bool.equal sa.halted sb.halted);
  check "fault" (Option.equal Machine.Fault.equal sa.fault sb.fault);
  check "pc" (Int64.equal sa.pc sb.pc);
  check "instr_count" (Int64.equal sa.instr_count sb.instr_count);
  check "registers" (Machine.Regfile.equal sa.regs sb.regs);
  check "memory" (Machine.Memory.equal_contents sa.mem sb.mem);
  check "stats.instrs_executed"
    (a.stats.instrs_executed = b.stats.instrs_executed)

let slice_sizes = [| 1; 2; 7; 256 |]

(* Program [index] of a fixed-seed campaign on [isa], at step_all and
   step_all_spec: a copy driven by [run_fast k], with [k] drawn per call
   from [slice_sizes] by [picks], ends where a stepped twin ends; a third
   copy driven by [run_one] fills its record, header and information
   bytes, as the stepped twin fills its own after every instruction. *)
let check_program isa cache cx (index, picks) =
  let spec = Fuzz.Driver.spec_of_isa isa in
  let tc = Fuzz.Gen.generate cx ~seed:0x5EED_F1A7L ~index in
  List.iter
    (fun bs ->
      let boot () =
        Fuzz.Oracle.boot spec tc ~buildset:bs ~chain:true ~site_cache:true
          ~cache ()
      in
      let fast = boot () and stepped = boot () and one = boot () in
      let what = Printf.sprintf "%s %s program %d" isa bs index in
      let fst = fast.st in
      let p = ref picks in
      while (not fst.halted) && Int64.to_int fst.instr_count < budget do
        let k =
          match !p with
          | [] -> 1
          | c :: rest ->
            p := rest @ [ c ];
            slice_sizes.(c land 3)
        in
        ignore (fast.run_fast (min k (budget - Int64.to_int fst.instr_count)))
      done;
      let ds = Specsim.Di.create ~info_slots:stepped.slots.di_size
      and d1 = Specsim.Di.create ~info_slots:one.slots.di_size in
      let n = ref 0 in
      while
        (not stepped.st.halted) && Int64.to_int stepped.st.instr_count < budget
      do
        step_one stepped ds;
        one.run_one d1;
        let agree =
          Int64.equal ds.pc d1.pc
          && Int64.equal ds.encoding d1.encoding
          && Int64.equal ds.next_pc d1.next_pc
          && ds.instr_index = d1.instr_index
          && Option.equal Machine.Fault.equal ds.fault d1.fault
          && Bytes.equal ds.info d1.info
        in
        if not agree then
          Alcotest.failf
            "%s: run_one's record differs from the stepped one at instruction \
             %d (pc 0x%Lx/0x%Lx, index %d/%d, encoding 0x%Lx/0x%Lx, next pc \
             0x%Lx/0x%Lx)"
            what !n ds.pc d1.pc ds.instr_index d1.instr_index ds.encoding
            d1.encoding ds.next_pc d1.next_pc;
        incr n
      done;
      same_end (what ^ ": run_one") one stepped;
      same_end (what ^ ": run_fast") fast stepped)
    [ "step_all"; "step_all_spec" ];
  true

let prop_step_fast isa =
  let spec = Fuzz.Driver.spec_of_isa isa in
  let cache = Specsim.Synth.cache spec and cx = Fuzz.Gen.make_ctx ~isa spec in
  QCheck.Test.make ~count:10
    ~name:("run_fast k and run_one = stepped twin: " ^ isa)
    QCheck.(pair (int_bound 1000) (list_of_size (Gen.int_range 1 8) (int_bound 3)))
    (check_program isa cache cx)

(* ------------------------------------------------------------------ *)
(* The fetch's held page                                               *)
(* ------------------------------------------------------------------ *)

let sort = List.find (fun k -> k.Vir.Kernels.kname = "sort") Vir.Kernels.test_suite
let fetch_buildsets = [ "one_all"; "step_all" ]

(* [n] instructions through [run_one], on a record of the caller's *)
let run_one_n (iface : Specsim.Iface.t) di n =
  let i = ref 0 in
  while !i < n && not iface.st.halted do
    iface.run_one di;
    incr i
  done

(* A 4-byte word the ISA's decoder rejects. *)
let illegal_word (t : Workload.target) =
  let decoder = Specsim.Synth.decoder (Specsim.Synth.cache (Lazy.force t.spec)) in
  match
    List.find_opt
      (fun w -> Specsim.Decoder.decode decoder w < 0)
      [ 0xFFFFFFFFL; 0L; 0xDEADBEEFL; 0xFFFF0000L; 0x0000FFFFL ]
  with
  | Some w -> w
  | None -> Alcotest.failf "%s: no illegal word among the candidates" t.tname

(* The engine holds the page of the code it runs; a write to the next
   instruction on that page is what the next fetch reads. *)
let test_write_held_page (t : Workload.target) () =
  let bad = illegal_word t in
  List.iter
    (fun bs ->
      let l = Workload.load t ~buildset:bs sort.program in
      let iface = l.iface and st = l.iface.st in
      let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
      run_one_n iface di 200;
      let pc = st.pc in
      Machine.Memory.write st.mem ~addr:pc ~width:4 bad;
      (if bs = "step_all" then ignore (iface.run_fast 1) else iface.run_one di);
      Alcotest.(check bool) (bs ^ ": halted") true st.halted;
      Alcotest.(check string)
        (bs ^ ": the written word faults")
        (Machine.Fault.to_string (Machine.Fault.Illegal_instruction bad))
        (fault_str st);
      Alcotest.(check int64) (bs ^ ": pc stays at the write") pc st.pc)
    fetch_buildsets

(* A checkpoint restore clears memory, so the restored code sits in new
   pages. The run that follows must fetch from them, not from the page
   held before the restore, which here holds a word written after the
   checkpoint. *)
let test_restore_rerun (t : Workload.target) () =
  let bad = illegal_word t in
  List.iter
    (fun bs ->
      let a = Workload.load t ~buildset:bs sort.program
      and b = Workload.load t ~buildset:bs sort.program in
      let st = a.iface.st in
      let da = Specsim.Di.create ~info_slots:a.iface.slots.di_size
      and db = Specsim.Di.create ~info_slots:b.iface.slots.di_size in
      run_one_n a.iface da 300;
      let ckpt = Machine.Checkpoint.save st in
      Machine.Memory.write st.mem ~addr:st.pc ~width:4 bad;
      run_one_n a.iface da 1;
      Alcotest.(check bool) (bs ^ ": the written word faults") true st.halted;
      Machine.Checkpoint.restore st ckpt;
      let go (l : Workload.loaded) di =
        if bs = "step_all" then ignore (l.iface.run_fast 1_000_000)
        else run_one_n l.iface di 1_000_000
      in
      go a da;
      go b db;
      Alcotest.(check bool) (bs ^ ": halted") true b.iface.st.halted;
      Alcotest.(check string) (bs ^ ": fault") (fault_str b.iface.st) (fault_str st);
      Alcotest.(check int64) (bs ^ ": retired") b.iface.st.instr_count
        st.instr_count;
      Alcotest.(check int64)
        (bs ^ ": state digest")
        (Machine.Checkpoint.digest b.iface.st)
        (Machine.Checkpoint.digest st))
    fetch_buildsets

(* riscv mixes 2- and 4-byte parcels behind a 4-byte fetch window, so a
   4-byte instruction can start two bytes before a page ends. Its window
   straddles the page the fetch holds and the next one, and must decode
   as {!Machine.Memory.load_into} reads it. *)
let test_straddling_window () =
  let open Isa_riscv.Riscv_asm in
  let spec = Lazy.force Workload.riscv.spec in
  let base = 0x1FF0L and straddle = 0x1FFEL in
  let parcels =
    [
      (4, addi ~rd:5 ~rs1:0 ~imm:1);
      (4, addi ~rd:6 ~rs1:0 ~imm:2);
      (4, addi ~rd:7 ~rs1:0 ~imm:3);
      (2, c_li ~rd:8 ~imm:4);
      (4, addi ~rd:9 ~rs1:0 ~imm:0x123);
      (4, addi ~rd:10 ~rs1:0 ~imm:5);
    ]
  in
  List.iter
    (fun bs ->
      let iface = Specsim.Synth.make spec bs in
      let st = iface.st in
      ignore
        (List.fold_left
           (fun addr (width, w) ->
             Machine.Memory.write st.mem ~addr ~width w;
             Int64.add addr (Int64.of_int width))
           base parcels);
      Machine.State.reset st ~pc:base;
      let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
      List.iter
        (fun _ ->
          iface.run_one di;
          if Int64.equal di.pc straddle then
            Alcotest.(check int64)
              (bs ^ ": the straddling encoding")
              (Machine.Memory.read st.mem ~addr:straddle ~width:4)
              di.encoding)
        parcels;
      let reg i = Machine.Regfile.read st.regs ~cls:0 ~idx:i in
      Alcotest.(check bool) (bs ^ ": running") false st.halted;
      Alcotest.(check int64) (bs ^ ": pc") 0x2006L st.pc;
      Alcotest.(check int64) (bs ^ ": x8") 4L (reg 8);
      Alcotest.(check int64) (bs ^ ": x9") 0x123L (reg 9);
      Alcotest.(check int64) (bs ^ ": x10") 5L (reg 10))
    fetch_buildsets

let suite =
  List.map
    (fun isa -> QCheck_alcotest.to_alcotest (prop_step_fast isa))
    Fuzz.Driver.all_isas
  @ List.concat_map
      (fun (t : Workload.target) ->
        [
          Alcotest.test_case ("fetch: a write to the held page: " ^ t.tname)
            `Quick (test_write_held_page t);
          Alcotest.test_case
            ("fetch: checkpoint restore and rerun = uninterrupted: " ^ t.tname)
            `Quick (test_restore_rerun t);
        ])
      [ Workload.alpha; Workload.riscv ]
  @ [
      Alcotest.test_case "fetch: a window straddling two pages: riscv" `Quick
        test_straddling_window;
    ]
