(** Hostile-workload regression tests: the {!Workload.Hostile} kernels on
    every ISA, under the cheapest block interface, the one-call
    interface with all information and the most detailed step interface.

    Reference-safe kernels are checked against the VIR reference executor
    like the benchmark kernels. The self-modifying trampoline cannot be
    reference-run (see the module doc in hostile.ml); it is pinned to its
    analytic exit status, all interfaces must agree on the full outcome,
    and the block engine must actually have invalidated translations —
    a trampoline that never tripped SMC detection would be a miscompile
    waiting to happen. It is also pinned rotating a Step and a Block
    interface on one machine. *)

let budget = 20_000_000

let run_loaded (l : Workload.loaded) =
  (Workload.run_to_completion ~budget l, l.iface.stats)

let check_reference (t : Workload.target) bs (k : Workload.Hostile.kernel) () =
  let expected = Workload.reference k.program in
  let got, _ = run_loaded (Workload.load t ~buildset:bs k.program) in
  Alcotest.(check int) (k.hname ^ " exit") expected.exit_status got.exit_status;
  Alcotest.(check string) (k.hname ^ " output") expected.output got.output

let kernel name =
  List.find
    (fun (k : Workload.Hostile.kernel) -> String.equal k.hname name)
    Workload.Hostile.test_suite

let analytic_exit (k : Workload.Hostile.kernel) =
  match k.expected_exit with
  | Some e -> e
  | None -> Alcotest.fail "trampoline kernel carries no analytic exit"

let check_trampoline (t : Workload.target) bs (k : Workload.Hostile.kernel) ()
    =
  let expected_exit = analytic_exit k in
  let got, stats = run_loaded (Workload.load t ~buildset:bs k.program) in
  Alcotest.(check int) (k.hname ^ " analytic exit") expected_exit
    got.exit_status;
  (* cross-interface agreement stands in for the missing reference *)
  let other_bs = if String.equal bs "one_all" then "step_all" else "one_all" in
  let other, _ = run_loaded (Workload.load t ~buildset:other_bs k.program) in
  Alcotest.(check int) (k.hname ^ " exit agrees") other.exit_status
    got.exit_status;
  Alcotest.(check string) (k.hname ^ " output agrees") other.output got.output;
  (* the whole point of the kernel: copied-over code must kill blocks *)
  if String.length bs >= 5 && String.equal (String.sub bs 0 5) "block" then
    Alcotest.(check bool)
      (k.hname ^ " invalidated translations")
      true
      (stats.Specsim.Iface.block_invalidations > 0)

let check (t : Workload.target) bs (k : Workload.Hostile.kernel) =
  let f = if k.reference_safe then check_reference else check_trampoline in
  Alcotest.test_case
    (Printf.sprintf "%s %s %s" k.hname t.tname bs)
    `Quick (f t bs k)

(* The interpreter's one dispatch site rotates through four handlers —
   a megamorphic indirect jump. The bi-morphic successor cache cannot
   hold it, so the chain hit rate must visibly collapse. *)
let check_interp_chain_miss (t : Workload.target) () =
  let k = kernel "interp" in
  let _, stats = run_loaded (Workload.load t ~buildset:"block_min" k.program) in
  let taken = stats.Specsim.Iface.chain_taken
  and miss = stats.Specsim.Iface.chain_miss in
  Alcotest.(check bool) "dispatch misses the successor cache" true (miss > 50);
  let rate = float_of_int taken /. float_of_int (max 1 (taken + miss)) in
  if rate >= 0.9 then
    Alcotest.failf "chain hit rate %.1f%% — megamorphic dispatch was absorbed"
      (100. *. rate)

(* The trampoline with a Step and a Block interface taking turns on one
   machine: the Step interface's stores, through its per-site page
   caches, rewrite code the Block interface has translated, and the Block
   interface's translations mark the pages those caches may hold as
   code. *)
let rotation = [ "block_min"; "step_all" ]

let check_trampoline_rotating (t : Workload.target) () =
  let k = kernel "trampoline" in
  let got = Workload.run_rotating ~budget t ~buildsets:rotation k.program in
  Alcotest.(check int) "analytic exit" (analytic_exit k) got.exit_status

(* Cheap sanity pin: the analytic trampoline model matches a direct
   simulation of its own definition for several round counts. *)
let test_trampoline_exit_model () =
  List.iter
    (fun rounds ->
      let v4 = ref 0l in
      for r = 0 to rounds - 1 do
        if r land 1 = 0 then v4 := Int32.add !v4 7l
        else v4 := Int32.logxor (Int32.add !v4 11l) (Int32.of_int r)
      done;
      Alcotest.(check int)
        (Printf.sprintf "rounds=%d" rounds)
        (Int32.to_int !v4 land 0xff)
        (Workload.Hostile.trampoline_exit ~rounds))
    [ 1; 2; 7; 8; 400 ]

let cases buildsets =
  List.concat_map
    (fun (t : Workload.target) ->
      List.concat_map
        (fun bs -> List.map (check t bs) Workload.Hostile.test_suite)
        buildsets)
    Workload.targets

let suite =
  cases [ "block_min"; "step_all" ]
  @ List.map
      (fun (t : Workload.target) ->
        Alcotest.test_case ("interp defeats chaining " ^ t.tname) `Quick
          (check_interp_chain_miss t))
      Workload.targets
  @ [
      Alcotest.test_case "trampoline analytic model" `Quick
        test_trampoline_exit_model;
    ]
  (* last, so the cases above keep their indices *)
  @ cases [ "one_all" ]
  @ List.map
      (fun (t : Workload.target) ->
        Alcotest.test_case
          (Printf.sprintf "trampoline %s rotating %s" t.tname
             (String.concat "+" rotation))
          `Quick (check_trampoline_rotating t))
      Workload.targets
