(** Unit and property tests for the synthesizer's supporting modules:
    Slots, the liveness check ([Analysis.Passes.crossings]), Classify,
    Decoder (property), Detail and Emit. *)

let alpha () = Lazy.force Isa_alpha.Alpha.spec
let demo () = Lazy.force Demo_isa.spec

(* ----------------------------------------------------------------- *)
(* Slots                                                               *)
(* ----------------------------------------------------------------- *)

let test_slots_partition () =
  let spec = demo () in
  Array.iter
    (fun (bs : Lis.Spec.buildset) ->
      let s = Specsim.Slots.make spec bs in
      let n = Lis.Spec.n_cells spec in
      Alcotest.(check int)
        (bs.bs_name ^ ": slots partition the cells")
        n
        (s.di_size + s.scratch_size);
      (* every visible cell has a DI slot, every hidden cell none *)
      Array.iteri
        (fun c visible ->
          let has_slot = s.di_slot_of_cell.(c) >= 0 in
          if has_slot <> visible then
            Alcotest.failf "%s: cell %s slot/visibility mismatch" bs.bs_name
              (Lis.Spec.cell_name spec c))
        bs.bs_visible)
    spec.buildsets

let prop_slots_random_visibility =
  QCheck.Test.make ~count:100 ~name:"slot maps are dense and disjoint"
    QCheck.(list_of_size (QCheck.Gen.return 9) bool)
    (fun vis ->
      let spec = demo () in
      let bs0 = spec.buildsets.(0) in
      let bs = { bs0 with bs_visible = Array.of_list vis } in
      let s = Specsim.Slots.make spec bs in
      (* DI slots are exactly 0..di_size-1, each used once *)
      let seen = Array.make (max s.di_size 1) 0 in
      Array.iter
        (fun slot -> if slot >= 0 then seen.(slot) <- seen.(slot) + 1)
        s.di_slot_of_cell;
      Array.for_all (fun c -> c <= 1) seen
      && Array.to_list seen |> List.filter (fun c -> c = 1) |> List.length
         = s.di_size)

(* ----------------------------------------------------------------- *)
(* Liveness                                                            *)
(* ----------------------------------------------------------------- *)

(* sorted, deduplicated (cell name, writer, reader) triples *)
let crossings spec bs =
  List.sort_uniq compare
    (List.map
       (fun (x : Analysis.Passes.crossing) ->
         (Lis.Spec.cell_name spec x.x_cell, x.x_writer, x.x_reader))
       (Analysis.Passes.crossings spec bs))

let test_liveness_clean_on_canonical () =
  let spec = alpha () in
  Array.iter
    (fun (bs : Lis.Spec.buildset) ->
      Alcotest.(check (list (triple string string string)))
        (bs.bs_name ^ " has no hidden crossings")
        []
        (crossings spec bs))
    spec.buildsets

let test_liveness_detects_all_crossings () =
  (* Step entrypoints with Min visibility: operand values and ids cross *)
  let spec = demo () in
  let step = Lis.Spec.find_buildset spec "step_all" in
  let bad = { step with bs_visible = Array.map (fun _ -> false) step.bs_visible } in
  let v = crossings spec bad in
  Alcotest.(check bool) "several crossings found" true (List.length v >= 4);
  Alcotest.(check bool) "operand id crossing reported" true
    (List.exists (fun (c, _, _) -> c = "ra_id") v)

(* ----------------------------------------------------------------- *)
(* Classify                                                            *)
(* ----------------------------------------------------------------- *)

let test_classify_alpha () =
  let spec = alpha () in
  let kinds = Specsim.Classify.of_spec spec in
  let k name = kinds.((Lis.Spec.find_instr spec name).i_index) in
  Alcotest.(check bool) "LDQ is load" true (k "LDQ").is_load;
  Alcotest.(check bool) "LDQ not store" false (k "LDQ").is_store;
  Alcotest.(check bool) "STQ is store" true (k "STQ").is_store;
  Alcotest.(check bool) "BEQ is branch" true (k "BEQ").is_branch;
  Alcotest.(check bool) "ADDQ is none" false
    ((k "ADDQ").is_load || (k "ADDQ").is_store || (k "ADDQ").is_branch);
  Alcotest.(check bool) "CALL_PAL is syscall" true (k "CALL_PAL").is_syscall;
  Alcotest.(check bool) "JMP is branch" true (k "JMP").is_branch;
  Alcotest.(check int) "ADDQ has one dest" 1 (Array.length (k "ADDQ").dest_regs);
  Alcotest.(check int) "ADDQ has two sources" 2 (Array.length (k "ADDQ").src_regs)

let test_classify_arm () =
  let spec = Lazy.force Isa_arm.Arm.spec in
  let kinds = Specsim.Classify.of_spec spec in
  let k name = kinds.((Lis.Spec.find_instr spec name).i_index) in
  Alcotest.(check bool) "LDR_IMM is load" true (k "LDR_IMM").is_load;
  Alcotest.(check bool) "STRB_REG is store" true (k "STRB_REG").is_store;
  Alcotest.(check bool) "B is branch" true (k "B").is_branch;
  Alcotest.(check bool) "BL is branch" true (k "BL").is_branch;
  Alcotest.(check bool) "SWI is syscall (after OS override)" true
    (k "SWI").is_syscall

(* ----------------------------------------------------------------- *)
(* Decoder properties                                                  *)
(* ----------------------------------------------------------------- *)

(* For a random instruction of the spec and random bits in the don't-care
   positions, the decoder must return an instruction whose (mask, match)
   actually matches the encoding. The encoding construction is the
   shared {!Gen_common.encoding_with_noise} — the same one the fuzzer
   generates whole programs with. *)
let prop_decoder isa_name spec_lazy =
  QCheck.Test.make ~count:500
    ~name:(Printf.sprintf "%s: decode returns a matching instruction" isa_name)
    QCheck.(pair small_nat (map Int64.of_int int))
    (fun (pick, noise) ->
      let spec = Lazy.force spec_lazy in
      let d = Specsim.Decoder.make spec in
      let i = spec.instrs.(pick mod Array.length spec.instrs) in
      let enc = Gen_common.encoding_with_noise spec i noise in
      let idx = Specsim.Decoder.decode d enc in
      idx >= 0
      &&
      let hit = spec.instrs.(idx) in
      Int64.equal (Int64.logand enc hit.i_mask) hit.i_match)

let test_decoder_bucket_quality () =
  (* the decode key keeps candidate lists manageable *)
  List.iter
    (fun (t : Workload.target) ->
      let spec = Lazy.force t.spec in
      let d = Specsim.Decoder.make spec in
      Alcotest.(check bool)
        (t.tname ^ ": bucket size bounded")
        true
        (Specsim.Decoder.max_bucket d <= 64))
    Workload.targets

(* ----------------------------------------------------------------- *)
(* Detail                                                              *)
(* ----------------------------------------------------------------- *)

let test_detail_names () =
  Alcotest.(check string) "name" "Block/Min/No"
    (Specsim.Detail.to_string
       { semantic = Block; informational = Min; speculation = false });
  Alcotest.(check string) "buildset name" "step_all_spec"
    (Specsim.Detail.buildset_name
       { semantic = Step; informational = All; speculation = true });
  Alcotest.(check int) "twelve interfaces" 12
    (List.length Specsim.Detail.table2_interfaces)

let test_detail_lis_parses () =
  (* the generated buildset text must itself be valid LIS *)
  let decls =
    Lis.Parser.parse ~file:"generated.lis"
      (Specsim.Detail.canonical_buildset_file ())
  in
  Alcotest.(check int) "twelve buildset declarations" 12 (List.length decls)

(* ----------------------------------------------------------------- *)
(* Emit                                                                *)
(* ----------------------------------------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_emit_structure () =
  let spec = demo () in
  let src = Specsim.Emit.buildset_to_ocaml spec "one_all" in
  Alcotest.(check bool) "has per-instruction functions" true
    (contains src "let add_seg");
  Alcotest.(check bool) "has dispatch tables" true (contains src "_table = [|");
  Alcotest.(check bool) "mentions cells by name" true
    (contains src "effective_addr")

let test_emit_reflects_visibility () =
  let spec = demo () in
  let all = Specsim.Emit.buildset_to_ocaml spec "one_all" in
  let min = Specsim.Emit.buildset_to_ocaml spec "one_min" in
  Alcotest.(check bool) "All stores into DI" true
    (contains all "Bytes.set_int64_ne fr.di ");
  Alcotest.(check bool) "Min never stores into DI" false (contains min "fr.di ");
  Alcotest.(check bool) "Min keeps needed values in scratch" true
    (contains min "Bytes.set_int64_ne fr.s ");
  (* the opclass decode-information store is dead at Min and eliminated *)
  Alcotest.(check bool) "All records opclass" true (contains all "opclass");
  Alcotest.(check bool) "Min eliminates the opclass store" false
    (contains min "opclass")

let test_emit_step_has_more_segments () =
  let spec = demo () in
  let one = Specsim.Emit.buildset_to_ocaml spec "one_all" in
  let step = Specsim.Emit.buildset_to_ocaml spec "step_all" in
  let count_tables s =
    let rec go i acc =
      match String.index_from_opt s i '|' with
      | Some j when j + 1 < String.length s && s.[j + 1] = ']' -> go (j + 2) (acc + 1)
      | Some j -> go (j + 1) acc
      | None -> acc
    in
    go 0 0
  in
  Alcotest.(check bool) "step emits more dispatch tables" true
    (count_tables step > count_tables one)

let suite =
  [
    Alcotest.test_case "slots partition" `Quick test_slots_partition;
    QCheck_alcotest.to_alcotest prop_slots_random_visibility;
    Alcotest.test_case "liveness clean on canonical" `Quick
      test_liveness_clean_on_canonical;
    Alcotest.test_case "liveness detects crossings" `Quick
      test_liveness_detects_all_crossings;
    Alcotest.test_case "classify alpha" `Quick test_classify_alpha;
    Alcotest.test_case "classify arm" `Quick test_classify_arm;
    QCheck_alcotest.to_alcotest (prop_decoder "alpha" Isa_alpha.Alpha.spec);
    QCheck_alcotest.to_alcotest (prop_decoder "arm" Isa_arm.Arm.spec);
    QCheck_alcotest.to_alcotest (prop_decoder "ppc" Isa_ppc.Ppc.spec);
    QCheck_alcotest.to_alcotest (prop_decoder "riscv" Isa_riscv.Riscv.spec);
    Alcotest.test_case "decoder bucket quality" `Quick test_decoder_bucket_quality;
    Alcotest.test_case "detail names" `Quick test_detail_names;
    Alcotest.test_case "generated buildsets parse" `Quick test_detail_lis_parses;
    Alcotest.test_case "emit structure" `Quick test_emit_structure;
    Alcotest.test_case "emit reflects visibility" `Quick test_emit_reflects_visibility;
    Alcotest.test_case "emit step segments" `Quick test_emit_step_has_more_segments;
  ]
