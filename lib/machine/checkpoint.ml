(** Whole-machine checkpointing: serialize the complete architectural
    state (registers, allocated memory pages, control state) to a byte
    string and restore it into a compatible machine.

    This is the substrate for checkpoint-based sampling methodologies
    (SMARTS-style simulation points): capture the state once, then replay
    measurement intervals from it under different timing models. The
    format is versioned and self-describing enough to reject restores
    into machines with a different register layout or endianness. *)

let magic = "LISIMCK1"

type reader = { data : string; mutable pos : int }

exception Corrupt of string

let read_i64 r =
  if r.pos + 8 > String.length r.data then raise (Corrupt "truncated");
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let read_int r = Int64.to_int (read_i64 r)

(* The byte length of [save st]'s result: the magic, the endianness
   byte and the class count; per class its length-prefixed name, its
   count, width and hardwired zero, and its registers; the pc, next pc,
   instruction count and halt flag; the fault's tag and payload; the
   page count, and each page with its index. *)
let saved_size (st : State.t) =
  let n = ref (String.length magic + 1 + 8) in
  for c = 0 to Regfile.class_count st.regs - 1 do
    let def = Regfile.class_def st.regs c in
    n := !n + 8 + String.length def.cname + 24 + (8 * def.count)
  done;
  n := !n + 32 + 8;
  (match st.fault with
  | None -> ()
  | Some (Fault.Illegal_instruction _ | Fault.Unaligned_access _ | Fault.Exit _)
    ->
    n := !n + 8
  | Some (Fault.Arith m) -> n := !n + 8 + String.length m);
  !n + 8 + (Memory.page_count st.mem * (8 + Memory.page_size))

(* Writers into [save]'s result: each stores at byte [pos] and returns
   the offset just past what it stored. *)
let put_i64 b pos v =
  Bytes.set_int64_le b pos v;
  pos + 8

let put_int b pos v =
  Bytes.set_int64_le b pos (Int64.of_int v);
  pos + 8

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(** [save_into buf st] serializes the machine's architectural state
    into [buf] when [buf] has exactly the saved size, into a fresh
    buffer otherwise, and returns the buffer that holds it. The syscall
    handler and any attached OS-emulator state are not captured (an OS
    emulator has its own buffers; re-install it after restore). The
    bytes are written in one pass. A session that checkpoints one
    machine again and again passes back the buffer it got, and
    allocates a new one only when the machine's page count changes. *)
let save_into (buf : Bytes.t) (st : State.t) : Bytes.t =
  let size = saved_size st in
  let b = if Bytes.length buf = size then buf else Bytes.create size in
  let pos = ref (put_string b 0 magic) in
  Bytes.set b !pos (match Memory.endian st.mem with Little -> 'L' | Big -> 'B');
  incr pos;
  (* register classes: layout fingerprint + contents *)
  let n_classes = Regfile.class_count st.regs in
  pos := put_int b !pos n_classes;
  for c = 0 to n_classes - 1 do
    let def = Regfile.class_def st.regs c in
    pos := put_int b !pos (String.length def.cname);
    pos := put_string b !pos def.cname;
    pos := put_int b !pos def.count;
    pos := put_int b !pos def.width;
    pos := put_int b !pos (match def.hardwired_zero with Some z -> z | None -> -1);
    (* a register's value is its native-endian slot (Regfile.t) *)
    let slot = 8 * Regfile.base st.regs c in
    for i = 0 to def.count - 1 do
      Bytes.set_int64_le b (!pos + (8 * i))
        (Bytes.get_int64_ne st.regs.v (slot + (8 * i)))
    done;
    pos := !pos + (8 * def.count)
  done;
  (* control state *)
  pos := put_i64 b !pos st.pc;
  pos := put_i64 b !pos st.next_pc;
  pos := put_i64 b !pos st.instr_count;
  pos := put_int b !pos (if st.halted then 1 else 0);
  (match st.fault with
  | None -> pos := put_int b !pos 0
  | Some (Fault.Illegal_instruction e) ->
    pos := put_i64 b (put_int b !pos 1) e
  | Some (Fault.Unaligned_access a) -> pos := put_i64 b (put_int b !pos 2) a
  | Some (Fault.Arith m) ->
    pos := put_int b !pos 3;
    pos := put_int b !pos (String.length m);
    pos := put_string b !pos m
  | Some (Fault.Exit c) -> pos := put_int b (put_int b !pos 4) c);
  (* memory pages *)
  pos := put_int b !pos (Memory.page_count st.mem);
  let stop =
    Memory.fold_pages st.mem ~init:!pos ~f:(fun pos idx page ->
        Bytes.blit page 0 b (put_int b pos idx) Memory.page_size;
        pos + 8 + Memory.page_size)
  in
  assert (stop = Bytes.length b);
  b

(** [save st] is {!save_into} into a result of its own. *)
let save (st : State.t) : string =
  Bytes.unsafe_to_string (save_into Bytes.empty st)

(* splitmix64 finalizer, same step as {!Memory.digest} uses. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [digest st] is a canonical 64-bit digest of the architectural state:
    registers, control state (pc, instruction count, halt flag, fault) and
    memory contents. Memory goes through {!Memory.digest}, so machines
    that merely touched different addresses still compare equal — unlike
    hashing {!save} output, where zero-page allocation shows up. This is
    the state-comparison primitive of the conformance fuzzer. *)
let digest (st : State.t) : int64 =
  let h = ref (Memory.digest st.mem) in
  let mixin v = h := mix64 (Int64.logxor !h v) in
  let n_classes = Regfile.class_count st.regs in
  for c = 0 to n_classes - 1 do
    let def = Regfile.class_def st.regs c in
    for i = 0 to def.count - 1 do
      mixin (Regfile.read st.regs ~cls:c ~idx:i)
    done
  done;
  mixin st.pc;
  mixin st.instr_count;
  mixin (if st.halted then 1L else 0L);
  (match st.fault with
  | None -> mixin 0L
  | Some (Fault.Illegal_instruction e) -> mixin 1L; mixin e
  | Some (Fault.Unaligned_access a) -> mixin 2L; mixin a
  | Some (Fault.Arith m) ->
    mixin 3L;
    String.iter (fun ch -> mixin (Int64.of_int (Char.code ch))) m
  | Some (Fault.Exit c) -> mixin 4L; mixin (Int64.of_int c));
  !h

(** [restore st data] overwrites [st] with the checkpointed state.
    @raise Corrupt if the data is malformed or the register layout,
    endianness or class shapes do not match [st]. *)
let restore (st : State.t) (data : string) : unit =
  let r = { data; pos = 0 } in
  let expect_str s =
    let n = String.length s in
    if r.pos + n > String.length data || String.sub data r.pos n <> s then
      raise (Corrupt ("expected " ^ s));
    r.pos <- r.pos + n
  in
  expect_str magic;
  let e = data.[r.pos] in
  r.pos <- r.pos + 1;
  let expected_endian = match Memory.endian st.mem with Little -> 'L' | Big -> 'B' in
  if e <> expected_endian then raise (Corrupt "endianness mismatch");
  let n_classes = read_int r in
  if n_classes <> Regfile.class_count st.regs then
    raise (Corrupt "register class count mismatch");
  for c = 0 to n_classes - 1 do
    let def = Regfile.class_def st.regs c in
    let name_len = read_int r in
    if r.pos + name_len > String.length data then raise (Corrupt "truncated");
    let name = String.sub data r.pos name_len in
    r.pos <- r.pos + name_len;
    let count = read_int r in
    let width = read_int r in
    let hz = read_int r in
    if
      name <> def.cname || count <> def.count || width <> def.width
      || hz <> (match def.hardwired_zero with Some z -> z | None -> -1)
    then raise (Corrupt ("register class mismatch: " ^ name));
    for i = 0 to count - 1 do
      Regfile.write st.regs ~cls:c ~idx:i (read_i64 r)
    done
  done;
  st.pc <- read_i64 r;
  st.next_pc <- read_i64 r;
  st.instr_count <- read_i64 r;
  st.halted <- read_int r <> 0;
  (st.fault <-
     (match read_int r with
     | 0 -> None
     | 1 -> Some (Fault.Illegal_instruction (read_i64 r))
     | 2 -> Some (Fault.Unaligned_access (read_i64 r))
     | 3 ->
       let n = read_int r in
       if r.pos + n > String.length data then raise (Corrupt "truncated");
       let m = String.sub data r.pos n in
       r.pos <- r.pos + n;
       Some (Fault.Arith m)
     | 4 -> Some (Fault.Exit (read_int r))
     | _ -> raise (Corrupt "unknown fault tag")));
  Memory.clear st.mem;
  let n_pages = read_int r in
  for _ = 1 to n_pages do
    let idx = read_int r in
    if r.pos + Memory.page_size > String.length data then
      raise (Corrupt "truncated page");
    Memory.load_bytes st.mem
      (Int64.of_int (idx * Memory.page_size))
      (Bytes.of_string (String.sub data r.pos Memory.page_size));
    r.pos <- r.pos + Memory.page_size
  done

(** [restore_from st buf] is {!restore} of the checkpoint [buf] holds
    (from {!save_into}). [restore] keeps nothing of its argument, so
    [buf] may be saved into again afterwards. *)
let restore_from (st : State.t) (buf : Bytes.t) : unit =
  restore st (Bytes.unsafe_to_string buf)
