(* The region driver of tools/icount: run a kernel through one interface
   in one call style, and mark a steady-state region with two SIGSTOPs
   the tracer counts between.

     region.exe ISA BUILDSET STYLE KERNEL WARMUP LENGTH

   STYLE is run_fast, run_one, step or run_block. KERNEL is a test-scale
   kernel name (Vir.Kernels.test_suite), or sort:N for sort of N
   elements. The driver runs WARMUP instructions, stops itself, runs
   LENGTH more (a block style rounds up to a block end), stops itself
   again and prints the instructions the region retired as
   "instrs=N". *)

let usage () =
  prerr_endline
    "usage: region.exe ISA BUILDSET STYLE KERNEL WARMUP LENGTH\n\
    \  STYLE: run_fast | run_one | step | run_block\n\
    \  KERNEL: a test-scale kernel name, or sort:N";
  exit 2

let kernel name =
  match String.split_on_char ':' name with
  | [ "sort"; n ] -> Vir.Kernels.sort ~n:(int_of_string n)
  | _ -> (
    match
      List.find_opt
        (fun (k : Vir.Kernels.sized) -> String.equal k.kname name)
        Vir.Kernels.test_suite
    with
    | Some k -> k.program
    | None -> usage ())

(* [advance n] runs at least [n] instructions (exactly [n] unless a
   block style ends a block later, or the program halts) *)
let driver (iface : Specsim.Iface.t) style =
  let st = iface.st in
  let di = Specsim.Di.create ~info_slots:iface.slots.di_size in
  let target n = Int64.add st.instr_count (Int64.of_int n) in
  let until n f =
    let stop = target n in
    while Int64.compare st.instr_count stop < 0 && not st.halted do
      f ()
    done
  in
  match style with
  | "run_fast" -> fun n -> ignore (iface.run_fast n)
  | "run_one" -> fun n -> until n (fun () -> iface.run_one di)
  | "run_block" -> fun n -> until n (fun () -> ignore (iface.run_block ()))
  | "step" ->
    let eps = Specsim.Iface.n_entrypoints iface in
    fun n ->
      until n (fun () ->
          di.pc <- st.pc;
          di.instr_index <- -1;
          di.fault <- None;
          let k = ref 0 in
          while !k < eps && not st.halted do
            iface.step di !k;
            incr k
          done;
          if not st.halted then iface.retire di)
  | _ -> usage ()

let () =
  match Sys.argv with
  | [| _; isa; buildset; style; kname; warmup; length |] ->
    let t = Workload.find_target isa in
    let l = Workload.load t ~buildset (kernel kname) in
    let st = l.iface.st in
    let advance = driver l.iface style in
    advance (int_of_string warmup);
    let before = st.instr_count in
    let me = Unix.getpid () in
    Unix.kill me Sys.sigstop;
    advance (int_of_string length);
    Unix.kill me Sys.sigstop;
    let instrs = Int64.sub st.instr_count before in
    Printf.printf "instrs=%Ld%s\n" instrs
      (if st.halted then " (the program halted in the region)" else "")
  | _ -> usage ()
