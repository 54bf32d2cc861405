(** Unit and property tests for the register file. *)

open Machine

let classes =
  [
    { Regfile.cname = "GPR"; count = 32; width = 64; hardwired_zero = Some 31 };
    { Regfile.cname = "CR"; count = 8; width = 4; hardwired_zero = None };
    { Regfile.cname = "SPR"; count = 4; width = 32; hardwired_zero = None };
  ]

let test_layout () =
  let r = Regfile.create classes in
  Alcotest.(check int) "total" 44 (Regfile.total r);
  Alcotest.(check int) "GPR base" 0 (Regfile.base r 0);
  Alcotest.(check int) "CR base" 32 (Regfile.base r 1);
  Alcotest.(check int) "SPR base" 40 (Regfile.base r 2);
  Alcotest.(check int) "class lookup" 1 (Regfile.class_index r "CR")

let test_hardwired_zero () =
  let r = Regfile.create classes in
  Regfile.write r ~cls:0 ~idx:31 123L;
  Alcotest.(check int64) "R31 stays zero" 0L (Regfile.read r ~cls:0 ~idx:31);
  Regfile.write r ~cls:0 ~idx:30 123L;
  Alcotest.(check int64) "R30 written" 123L (Regfile.read r ~cls:0 ~idx:30);
  Alcotest.(check bool) "flat hardwired" true (Regfile.is_hardwired_flat r 31)

let test_width_masking () =
  let r = Regfile.create classes in
  Regfile.write r ~cls:1 ~idx:0 0xFFL;
  Alcotest.(check int64) "CR masked to 4 bits" 0xFL (Regfile.read r ~cls:1 ~idx:0);
  Regfile.write r ~cls:2 ~idx:0 0x1_FFFF_FFFFL;
  Alcotest.(check int64) "SPR masked to 32 bits" 0xFFFF_FFFFL
    (Regfile.read r ~cls:2 ~idx:0)

let test_bounds () =
  let r = Regfile.create classes in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Regfile: index 32 out of range for class GPR") (fun () ->
      ignore (Regfile.read r ~cls:0 ~idx:32))

let test_bad_class_defs () =
  Alcotest.check_raises "duplicate class"
    (Invalid_argument "Regfile: duplicate class GPR") (fun () ->
      ignore
        (Regfile.create
           [
             { Regfile.cname = "GPR"; count = 4; width = 64; hardwired_zero = None };
             { Regfile.cname = "GPR"; count = 4; width = 64; hardwired_zero = None };
           ]))

let test_copy_blit_equal () =
  let a = Regfile.create classes in
  Regfile.write a ~cls:0 ~idx:5 99L;
  let b = Regfile.copy a in
  Alcotest.(check bool) "copy equal" true (Regfile.equal a b);
  Regfile.write b ~cls:0 ~idx:5 1L;
  Alcotest.(check bool) "copies independent" false (Regfile.equal a b);
  Regfile.blit ~src:a ~dst:b;
  Alcotest.(check bool) "blit restores" true (Regfile.equal a b)

(* Property: read_flat/write_flat agree with class-indexed access. *)
let prop_flat_agrees =
  QCheck.Test.make ~name:"flat accessors agree with class accessors" ~count:500
    QCheck.(pair (int_bound 43) (map Int64.of_int int))
    (fun (flat, v) ->
      let r = Regfile.create classes in
      (* find class of flat index *)
      let cls = if flat < 32 then 0 else if flat < 40 then 1 else 2 in
      let idx = flat - Regfile.base r cls in
      Regfile.write_flat r flat v;
      Int64.equal (Regfile.read r ~cls ~idx) (Regfile.read_flat r flat))

(* Property: [equal] on files with equal contents (all zero) is
   layout equality: a layout that differs in one class's name, count,
   width or hardwired zero compares unequal, also when the totals, and
   so the content bytes, match. *)
let prop_equal_layout =
  let mutate (l : Regfile.class_def list) k =
    List.mapi
      (fun i (c : Regfile.class_def) ->
        if i <> k / 4 mod List.length l then c
        else
          match k mod 4 with
          | 0 -> { c with cname = c.cname ^ "x" }
          | 1 -> { c with count = c.count + 1 }
          | 2 -> { c with width = (if c.width = 64 then 32 else 64) }
          | _ ->
            {
              c with
              hardwired_zero = (if c.hardwired_zero = None then Some 0 else None);
            })
      l
  in
  let layout =
    QCheck.Gen.(
      list_size (int_range 1 3)
        (triple (int_range 1 8) (oneofl [ 32; 64 ]) bool)
      >|= List.mapi (fun i (count, width, hz) ->
              {
                Regfile.cname = Printf.sprintf "C%d" i;
                count;
                width;
                hardwired_zero = (if hz then Some 0 else None);
              }))
  in
  QCheck.Test.make ~name:"equal compares layouts when contents agree" ~count:300
    QCheck.(pair (make layout) (int_bound 11))
    (fun (l, k) ->
      let m = mutate l k in
      (* the same total in two classes: only the split differs *)
      let split =
        match l with
        | [ c ] when c.count > 1 ->
          [ { c with count = 1 }; { c with cname = "D"; count = c.count - 1 } ]
        | _ -> m
      in
      Regfile.equal (Regfile.create l) (Regfile.create l)
      && (not (Regfile.equal (Regfile.create l) (Regfile.create m)))
      && not (Regfile.equal (Regfile.create split) (Regfile.create l)))

(* The register-by-register model of [equal] on files of one layout. *)
let model_equal a b =
  let rec same i =
    i = Regfile.total a
    || (Int64.equal (Regfile.read_flat a i) (Regfile.read_flat b i) && same (i + 1))
  in
  same 0

(* Property: [equal] agrees with the model, both ways round, on a file
   and a copy that differs in at most one bit: of the first register,
   the last or another, in its lowest or its highest byte (which a
   narrow class or a hardwired zero discards). *)
let prop_equal_model =
  QCheck.Test.make ~name:"equal agrees with a register model" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(int_bound 12) (pair (int_bound 43) int64))
        (int_bound 3)
        (pair (int_bound 43) bool))
    (fun (writes, where, (flat, high)) ->
      let a = Regfile.create classes in
      List.iter (fun (i, v) -> Regfile.write_flat a i v) writes;
      let b = Regfile.copy a in
      if where < 3 then begin
        let i = match where with 0 -> 0 | 1 -> Regfile.total a - 1 | _ -> flat in
        let bit = Int64.shift_left 1L (if high then 63 else 0) in
        Regfile.write_flat b i (Int64.logxor (Regfile.read_flat b i) bit)
      end;
      let want = model_equal a b in
      Bool.equal (Regfile.equal a b) want && Bool.equal (Regfile.equal b a) want)

let suite =
  [
    Alcotest.test_case "layout" `Quick test_layout;
    Alcotest.test_case "hardwired zero" `Quick test_hardwired_zero;
    Alcotest.test_case "width masking" `Quick test_width_masking;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "bad class defs" `Quick test_bad_class_defs;
    Alcotest.test_case "copy/blit/equal" `Quick test_copy_blit_equal;
    QCheck_alcotest.to_alcotest prop_flat_agrees;
    QCheck_alcotest.to_alcotest prop_equal_layout;
    QCheck_alcotest.to_alcotest prop_equal_model;
  ]
