(** Unit and property tests for the paged memory. *)

open Machine

let test_zero_initial () =
  let m = Memory.create Little in
  Alcotest.(check int64) "fresh memory reads zero" 0L
    (Memory.read m ~addr:0xDEAD_BEEFL ~width:8);
  Alcotest.(check int) "reads allocate on demand" 1 (Memory.page_count m)

let test_endianness () =
  let little = Memory.create Little and big = Memory.create Big in
  Memory.write little ~addr:0x100L ~width:4 0x11223344L;
  Memory.write big ~addr:0x100L ~width:4 0x11223344L;
  Alcotest.(check int) "little LSB first" 0x44 (Memory.read_byte little 0x100L);
  Alcotest.(check int) "big MSB first" 0x11 (Memory.read_byte big 0x100L);
  Alcotest.(check int64) "little readback" 0x11223344L
    (Memory.read little ~addr:0x100L ~width:4);
  Alcotest.(check int64) "big readback" 0x11223344L
    (Memory.read big ~addr:0x100L ~width:4)

let test_page_spanning () =
  let m = Memory.create Little in
  (* 4096-byte pages; write an 8-byte value across the boundary *)
  Memory.write m ~addr:0xFFCL ~width:8 0x0102030405060708L;
  Alcotest.(check int64) "read back across pages" 0x0102030405060708L
    (Memory.read m ~addr:0xFFCL ~width:8);
  Alcotest.(check int64) "partial low" 0x05060708L
    (Memory.read m ~addr:0xFFCL ~width:4);
  Alcotest.(check int64) "partial high" 0x01020304L
    (Memory.read m ~addr:0x1000L ~width:4)

let test_signed_reads () =
  let m = Memory.create Little in
  Memory.write m ~addr:0L ~width:1 0x80L;
  Alcotest.(check int64) "sign-extended byte" (-128L)
    (Memory.read_signed m ~addr:0L ~width:1);
  Alcotest.(check int64) "zero-extended byte" 0x80L (Memory.read m ~addr:0L ~width:1);
  Memory.write m ~addr:8L ~width:4 0xFFFFFFFFL;
  Alcotest.(check int64) "sign-extended word" (-1L)
    (Memory.read_signed m ~addr:8L ~width:4)

let test_bad_width () =
  let m = Memory.create Little in
  Alcotest.check_raises "width 3 rejected"
    (Invalid_argument "Memory: unsupported width 3") (fun () ->
      ignore (Memory.read m ~addr:0L ~width:3))

let test_load_dump () =
  let m = Memory.create Big in
  let b = Bytes.of_string "hello, memory" in
  Memory.load_bytes m 0x4000L b;
  Alcotest.(check string) "dump equals load" "hello, memory"
    (Bytes.to_string (Memory.dump_bytes m 0x4000L (Bytes.length b)))

let test_clear () =
  let m = Memory.create Little in
  Memory.write m ~addr:0x10L ~width:8 42L;
  Memory.clear m;
  Alcotest.(check int) "no pages" 0 (Memory.page_count m);
  Alcotest.(check int64) "cleared" 0L (Memory.read m ~addr:0x10L ~width:8)

(* The generation counter is the revalidation token for external page
   caches (the per-site TLBs in Semir.Compile): it must move whenever a
   cached page pointer could have gone stale. *)
let test_generation () =
  let m = Memory.create Little in
  let g0 = Memory.generation m in
  Memory.write m ~addr:0x10L ~width:8 42L;
  Alcotest.(check int) "plain writes keep generation" g0 (Memory.generation m);
  Memory.clear m;
  Alcotest.(check bool) "clear bumps generation" true (Memory.generation m > g0);
  let g1 = Memory.generation m in
  Memory.note_code_page m 3;
  Alcotest.(check bool) "marking a code page bumps generation" true
    (Memory.generation m > g1);
  let g2 = Memory.generation m in
  Memory.note_code_page m 3;
  Alcotest.(check int) "re-marking the same page is idempotent" g2
    (Memory.generation m);
  Alcotest.(check bool) "marked page is a code page" true
    (Memory.is_code_page m 3);
  Alcotest.(check bool) "unmarked page is not" false (Memory.is_code_page m 4)

let test_code_write_hook () =
  let m = Memory.create Little in
  let page = 0x1000 lsr Memory.page_bits in
  let hits = ref [] in
  Memory.add_code_write_hook m (fun idx -> hits := idx :: !hits);
  Memory.write m ~addr:0x1008L ~width:4 1L;
  Alcotest.(check int) "no hook before the page is marked" 0 (List.length !hits);
  Memory.note_code_page m page;
  Memory.write m ~addr:0x1008L ~width:4 2L;
  Alcotest.(check (list int)) "hook fires on marked page" [ page ] !hits;
  Memory.write_byte m 0x1001L 7;
  Alcotest.(check int) "byte stores fire too" 2 (List.length !hits);
  Memory.write m ~addr:0x2000L ~width:8 3L;
  Alcotest.(check int) "other pages stay silent" 2 (List.length !hits);
  (* Hooks compose: a second observer sees the same writes. *)
  let second = ref 0 in
  Memory.add_code_write_hook m (fun _ -> incr second);
  Memory.write m ~addr:0x1000L ~width:4 4L;
  Alcotest.(check int) "first hook still active" 3 (List.length !hits);
  Alcotest.(check int) "second hook sees the write" 1 !second;
  (* clear drops the code-page set (but keeps the hooks installed). *)
  Memory.clear m;
  Memory.write m ~addr:0x1008L ~width:4 5L;
  Alcotest.(check int) "no hook after clear until re-marked" 3
    (List.length !hits);
  Alcotest.(check int64) "writes after clear land" 5L
    (Memory.read m ~addr:0x1008L ~width:4)

(* Property: value round-trips through write/read at every width, under
   both endiannesses, including page-spanning addresses. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"write/read round-trip" ~count:500
    QCheck.(
      triple (oneofl [ 1; 2; 4; 8 ]) (int_bound 0xFFFF) (map Int64.of_int int))
    (fun (width, off, v) ->
      let m =
        Memory.create (if off land 1 = 0 then Memory.Little else Memory.Big)
      in
      let addr = Int64.of_int (0xF00 + off) in
      Memory.write m ~addr ~width v;
      let expect = Semir.Value.zext v (8 * width) in
      Int64.equal (Memory.read m ~addr ~width) expect)

(* Property: non-overlapping writes do not interfere. *)
let prop_isolation =
  QCheck.Test.make ~name:"disjoint writes do not interfere" ~count:300
    QCheck.(triple (int_bound 1000) (int_bound 1000) (pair (map Int64.of_int int) (map Int64.of_int int)))
    (fun (a, b, (va, vb)) ->
      QCheck.assume (abs (a - b) >= 8);
      let m = Memory.create Little in
      let aa = Int64.of_int (0x1000 + a) and ab = Int64.of_int (0x1000 + b) in
      Memory.write m ~addr:aa ~width:8 va;
      Memory.write m ~addr:ab ~width:8 vb;
      Int64.equal (Memory.read m ~addr:aa ~width:8) va
      && Int64.equal (Memory.read m ~addr:ab ~width:8) vb)

(* ------------------------------------------------------------------ *)
(* Comparing memories                                                  *)
(* ------------------------------------------------------------------ *)

(* Random page sets: byte writes into pages 0-7, with offsets biased to
   a page's first and last byte. *)
let addr_gen =
  QCheck.Gen.(
    map2
      (fun page off -> Int64.of_int ((page * Memory.page_size) + off))
      (int_bound 7)
      (frequency
         [ (1, return 0); (2, return (Memory.page_size - 1)); (5, int_bound (Memory.page_size - 1)) ]))

let writes_gen = QCheck.Gen.(list_size (int_bound 24) (pair addr_gen (int_bound 255)))

let memory_of ?(touch = []) writes =
  let m = Memory.create Little in
  List.iter (fun (a, v) -> Memory.write_byte m a v) writes;
  (* a read of a fresh page allocates it, all zero *)
  List.iter (fun a -> ignore (Memory.read_byte m a)) touch;
  m

let print_writes =
  QCheck.Print.(list (pair (fun a -> Printf.sprintf "0x%Lx" a) int))

(* Property: [equal_contents] agrees with comparing digests, on pairs
   that are equal about half the time (the second memory repeats the
   first one's writes, maybe plus a few of its own, and touches other
   pages). *)
let prop_equal_digest =
  QCheck.Test.make ~name:"equal_contents agrees with digests" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(triple print_writes print_writes (list (fun a -> Int64.to_string a)))
       QCheck.Gen.(
         triple writes_gen
           (frequency [ (1, return []); (1, list_size (int_range 1 3) (pair addr_gen (int_bound 255))) ])
           (list_size (int_bound 3) addr_gen)))
    (fun (w, extra, touch) ->
      let a = memory_of w and b = memory_of ~touch (w @ extra) in
      let same = Int64.equal (Memory.digest a) (Memory.digest b) in
      Bool.equal (Memory.equal_contents a b) same
      && Bool.equal (Memory.equal_contents b a) same)

(* Property: an all-zero page equals an absent one, on either side,
   whether it was allocated by a read or by writing zeros. *)
let prop_zero_page_absent =
  QCheck.Test.make ~name:"all-zero page equals absent page" ~count:300
    (QCheck.make ~print:QCheck.Print.(pair print_writes (fun a -> Int64.to_string a))
       QCheck.Gen.(pair writes_gen addr_gen))
    (fun (w, extra) ->
      let a = memory_of w in
      let zero_page = Int64.add (Int64.of_int (8 * Memory.page_size)) extra in
      let read = memory_of ~touch:[ zero_page ] w
      and written = memory_of (w @ [ (zero_page, 0) ]) in
      Memory.page_count read > Memory.page_count a
      && Memory.equal_contents a read && Memory.equal_contents read a
      && Memory.equal_contents a written && Memory.equal_contents written a)

(* Property: one flipped byte anywhere is caught, from either side,
   including a page's last byte and a byte on a page only one side
   holds. *)
let prop_flip_caught =
  QCheck.Test.make ~name:"one flipped byte is caught" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(triple print_writes (fun a -> Int64.to_string a) int)
       QCheck.Gen.(triple writes_gen addr_gen (int_range 1 255)))
    (fun (w, addr, x) ->
      let a = memory_of w and b = memory_of w in
      Memory.write_byte b addr (Memory.read_byte b addr lxor x);
      (not (Memory.equal_contents a b)) && not (Memory.equal_contents b a))

(* The byte-by-byte model of [equal_contents]: over the union of the
   pages either memory holds, every byte agrees, an absent page reading
   as zeros. *)
let model_equal a b =
  let pages m = Memory.fold_pages m ~init:[] ~f:(fun acc idx p -> (idx, p) :: acc) in
  let pa = pages a and pb = pages b in
  let page ps idx =
    match List.assoc_opt idx ps with
    | Some p -> p
    | None -> Bytes.make Memory.page_size '\000'
  in
  List.for_all
    (fun (idx, _) ->
      let p = page pa idx and q = page pb idx in
      let rec same k =
        k = Memory.page_size
        || (Char.equal (Bytes.get p k) (Bytes.get q k) && same (k + 1))
      in
      same 0)
    (pa @ pb)

(* What the second memory of a pair does beyond repeating the first
   one's writes (which land on pages 0-7): nothing, touch a page (absent
   against zero), write a zero onto a page of its own (8 or 9), change
   byte 0 or byte 4095 of a page (one the first memory holds or not), or
   write a byte on a page. *)
type twist =
  | Same
  | Touch of int
  | Zero of int
  | Edge of int * bool
  | Own of int * int

let twist_gen =
  QCheck.Gen.(
    let page = int_bound 9 in
    frequency
      [
        (1, return Same);
        (1, map (fun p -> Touch p) page);
        (1, map (fun p -> Zero p) (int_range 8 9));
        (3, map2 (fun p last -> Edge (p, last)) page bool);
        (1, map2 (fun p o -> Own (p, o)) page (int_bound (Memory.page_size - 1)));
      ])

let print_twist = function
  | Same -> "same"
  | Touch p -> Printf.sprintf "touch page %d" p
  | Zero p -> Printf.sprintf "zero onto page %d" p
  | Edge (p, last) -> Printf.sprintf "page %d byte %s" p (if last then "4095" else "0")
  | Own (p, o) -> Printf.sprintf "page %d offset %d" p o

let apply_twist m = function
  | Same -> ()
  | Touch p -> ignore (Memory.read_byte m (Int64.of_int (p * Memory.page_size)))
  | Zero p -> Memory.write_byte m (Int64.of_int ((p * Memory.page_size) + 7)) 0
  | Edge (p, last) ->
    let a =
      Int64.of_int ((p * Memory.page_size) + if last then Memory.page_size - 1 else 0)
    in
    Memory.write_byte m a (Memory.read_byte m a lxor 0x80)
  | Own (p, o) ->
    Memory.write_byte m (Int64.of_int ((p * Memory.page_size) + o)) 0x5A

(* Property: [equal_contents] agrees with the byte-by-byte model, both
   ways round, on pairs that differ by one twist. *)
let prop_equal_model =
  QCheck.Test.make ~name:"equal_contents agrees with a byte model" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair print_writes print_twist)
       QCheck.Gen.(pair writes_gen twist_gen))
    (fun (w, t) ->
      let a = memory_of w and b = memory_of w in
      apply_twist b t;
      let want = model_equal a b in
      (match t with Same | Touch _ | Zero _ -> want | Edge _ -> not want | Own _ -> true)
      && Bool.equal (Memory.equal_contents a b) want
      && Bool.equal (Memory.equal_contents b a) want)

(* Property: [assign] leaves the target holding the source's pages and
   bytes and nothing else, whatever pages it held before. *)
let prop_assign =
  let indices m = Memory.fold_pages m ~init:[] ~f:(fun acc idx _ -> idx :: acc) in
  QCheck.Test.make ~name:"assign copies pages and bytes" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(triple print_writes print_writes print_twist)
       QCheck.Gen.(triple writes_gen writes_gen twist_gen))
    (fun (w, w', t) ->
      let src = memory_of w and dst = memory_of w' in
      apply_twist src t;
      Memory.assign ~src ~dst;
      indices dst = indices src && model_equal src dst
      && Memory.equal_contents src dst)

let test_flip_last_byte () =
  let a = memory_of [ (0x1000L, 7) ] and b = memory_of [ (0x1000L, 7) ] in
  Memory.write_byte b 0x1FFFL 1;
  Alcotest.(check bool) "last byte of a page differs" false
    (Memory.equal_contents a b);
  Memory.write_byte a 0x1FFFL 1;
  Alcotest.(check bool) "then agrees" true (Memory.equal_contents a b)

let suite =
  [
    Alcotest.test_case "zero initial" `Quick test_zero_initial;
    Alcotest.test_case "endianness" `Quick test_endianness;
    Alcotest.test_case "page spanning" `Quick test_page_spanning;
    Alcotest.test_case "signed reads" `Quick test_signed_reads;
    Alcotest.test_case "bad width" `Quick test_bad_width;
    Alcotest.test_case "load/dump bytes" `Quick test_load_dump;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "generation counter" `Quick test_generation;
    Alcotest.test_case "code-write hooks" `Quick test_code_write_hook;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_isolation;
    Alcotest.test_case "flipped last byte" `Quick test_flip_last_byte;
    QCheck_alcotest.to_alcotest prop_equal_digest;
    QCheck_alcotest.to_alcotest prop_zero_page_absent;
    QCheck_alcotest.to_alcotest prop_flip_caught;
    QCheck_alcotest.to_alcotest prop_equal_model;
    QCheck_alcotest.to_alcotest prop_assign;
  ]
