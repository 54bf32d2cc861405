type endian = Little | Big

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type t = {
  endian : endian;
  pages : (int, Bytes.t) Hashtbl.t;
  (* The same pages listed in two arrays, so a walk over them is a loop
     with no closure: page [list_idx.(i)] is [list_pages.(i)] for
     [i < n_listed]. A page leaves only with [clear] or a page copy. *)
  mutable list_idx : int array;
  mutable list_pages : Bytes.t array;
  mutable n_listed : int;
  (* One-entry cache of the most recently touched page: instruction fetch
     and stack traffic hit the same page repeatedly. *)
  mutable last_index : int;
  mutable last_page : Bytes.t;
  (* Bumped whenever the page table may have moved under an external
     cache: on [clear] and when a page is newly marked as holding
     translated code. Per-site page caches compare this before trusting
     a remembered [Bytes.t]. *)
  mutable generation : int;
  (* Pages known to hold translated code. [code_lo]/[code_hi] bound the
     marked page indices so the common data-store case pays two integer
     compares, not a hash probe. *)
  code_pages : (int, unit) Hashtbl.t;
  mutable code_lo : int;
  mutable code_hi : int;
  mutable on_code_write : int -> unit;
}

let no_page = Bytes.create 0

let create endian =
  {
    endian;
    pages = Hashtbl.create 64;
    list_idx = [||];
    list_pages = [||];
    n_listed = 0;
    last_index = -1;
    last_page = no_page;
    generation = 0;
    code_pages = Hashtbl.create 8;
    code_lo = max_int;
    code_hi = min_int;
    on_code_write = ignore;
  }

let endian t = t.endian
let page_count t = Hashtbl.length t.pages
let generation t = t.generation

let list_page t idx p =
  let n = t.n_listed in
  if n = Array.length t.list_pages then begin
    let cap = max 8 (2 * n) in
    let idxs = Array.make cap 0 and pages = Array.make cap no_page in
    Array.blit t.list_idx 0 idxs 0 n;
    Array.blit t.list_pages 0 pages 0 n;
    t.list_idx <- idxs;
    t.list_pages <- pages
  end;
  t.list_idx.(n) <- idx;
  t.list_pages.(n) <- p;
  t.n_listed <- n + 1

(* [p] becomes page [idx] *)
let add_page t idx p =
  Hashtbl.add t.pages idx p;
  list_page t idx p

let unlist_all t =
  Array.fill t.list_pages 0 t.n_listed no_page;
  t.n_listed <- 0

let clear t =
  Hashtbl.reset t.pages;
  unlist_all t;
  t.last_index <- -1;
  t.last_page <- no_page;
  Hashtbl.reset t.code_pages;
  t.code_lo <- max_int;
  t.code_hi <- min_int;
  t.generation <- t.generation + 1

let note_code_page t index =
  if not (Hashtbl.mem t.code_pages index) then begin
    Hashtbl.replace t.code_pages index ();
    if index < t.code_lo then t.code_lo <- index;
    if index > t.code_hi then t.code_hi <- index;
    (* A per-site cache may hold this page from when it was plain data;
       force those caches to revalidate so stores take the guarded path. *)
    t.generation <- t.generation + 1
  end

let is_code_page t index =
  index >= t.code_lo && index <= t.code_hi && Hashtbl.mem t.code_pages index

let add_code_write_hook t f =
  let prev = t.on_code_write in
  t.on_code_write <- (fun idx -> prev idx; f idx)

(* Addresses are truncated to the native-int range; programs in this
   simulator live far below 2^62 so the truncation is lossless. *)
let to_int (a : int64) = Int64.to_int a land max_int
let addr_int = to_int

let page t index =
  if index = t.last_index then t.last_page
  else
    let p =
      match Hashtbl.find_opt t.pages index with
      | Some p -> p
      | None ->
        let p = Bytes.make page_size '\000' in
        add_page t index p;
        p
    in
    t.last_index <- index;
    t.last_page <- p;
    p

let lookup_page = page

let read_byte t addr =
  let a = to_int addr in
  Bytes.unsafe_get (page t (a lsr page_bits)) (a land page_mask) |> Char.code

let write_byte t addr v =
  let a = to_int addr in
  let idx = a lsr page_bits in
  Bytes.unsafe_set (page t idx) (a land page_mask)
    (Char.unsafe_chr (v land 0xff));
  if idx >= t.code_lo && idx <= t.code_hi && Hashtbl.mem t.code_pages idx then
    t.on_code_write idx

let check_width width =
  match width with
  | 1 | 2 | 4 | 8 -> ()
  | _ -> invalid_arg (Printf.sprintf "Memory: unsupported width %d" width)

(* Slow path: assemble bytes one at a time (page-spanning or odd widths). *)
let read_bytes_slow t a width =
  let v = ref 0L in
  (match t.endian with
  | Little ->
    for i = width - 1 downto 0 do
      v :=
        Int64.logor
          (Int64.shift_left !v 8)
          (Int64.of_int (read_byte t (Int64.of_int (a + i))))
    done
  | Big ->
    for i = 0 to width - 1 do
      v :=
        Int64.logor
          (Int64.shift_left !v 8)
          (Int64.of_int (read_byte t (Int64.of_int (a + i))))
    done);
  !v

let write_bytes_slow t a width v =
  match t.endian with
  | Little ->
    for i = 0 to width - 1 do
      write_byte t
        (Int64.of_int (a + i))
        (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
    done
  | Big ->
    for i = 0 to width - 1 do
      write_byte t
        (Int64.of_int (a + i))
        (Int64.to_int (Int64.shift_right_logical v (8 * (width - 1 - i)))
        land 0xff)
    done

(* Native-endian unchecked accessors and byte swaps: page accesses
   assemble values from these so [load_into] / [store_from] never box. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* the memory's byte order differs from the host's *)
let swapped t = Sys.big_endian <> (t.endian = Big)

(* [width] bytes at [off] of page [p], zero-extended; [width] is valid
   and the access stays inside the page. *)
let[@inline] get_page p off width swap =
  Int64.add 0L
    (match width with
    | 1 -> Int64.of_int (Char.code (Bytes.unsafe_get p off))
    | 2 ->
      let h = get16 p off in
      Int64.of_int (if swap then bswap16 h else h)
    | 4 ->
      let w = get32 p off in
      Int64.logand (Int64.of_int32 (if swap then bswap32 w else w)) 0xFFFFFFFFL
    | _ ->
      let d = get64 p off in
      if swap then bswap64 d else d)

let[@inline] set_page p off width swap v =
  match width with
  | 1 -> Bytes.unsafe_set p off (Char.unsafe_chr (Int64.to_int v land 0xff))
  | 2 ->
    let h = Int64.to_int v land 0xffff in
    set16 p off (if swap then bswap16 h else h)
  | 4 ->
    let w = Int64.to_int32 v in
    set32 p off (if swap then bswap32 w else w)
  | _ -> set64 p off (if swap then bswap64 v else v)

let[@inline] sign_extend v width =
  let bits = 64 - (8 * width) in
  Int64.shift_right (Int64.shift_left v bits) bits

let read t ~addr ~width =
  check_width width;
  let a = to_int addr in
  let off = a land page_mask in
  if off + width <= page_size then
    get_page (page t (a lsr page_bits)) off width (swapped t)
  else read_bytes_slow t a width

let read_signed t ~addr ~width = sign_extend (read t ~addr ~width) width

(* [v] into the page holding native-int address [a], then the code-write
   hooks; or byte by byte when the access straddles pages. *)
let[@inline] put t a width v =
  let off = a land page_mask in
  if off + width <= page_size then begin
    let idx = a lsr page_bits in
    set_page (page t idx) off width (swapped t) v;
    if idx >= t.code_lo && idx <= t.code_hi && Hashtbl.mem t.code_pages idx
    then t.on_code_write idx
  end
  else write_bytes_slow t a width v

let write t ~addr ~width v =
  check_width width;
  put t (to_int addr) width v

let load_into t ~addr ~width ~signed dst dst_off =
  check_width width;
  let a = addr land max_int in
  let off = a land page_mask in
  let v =
    Int64.add 0L
      (if off + width <= page_size then
         get_page (page t (a lsr page_bits)) off width (swapped t)
       else read_bytes_slow t a width)
  in
  set64 dst dst_off (if signed then sign_extend v width else v)

let store_from t ~addr ~width src src_off =
  check_width width;
  put t (addr land max_int) width (get64 src src_off)

let load_bytes t addr b =
  for i = 0 to Bytes.length b - 1 do
    write_byte t (Int64.add addr (Int64.of_int i)) (Char.code (Bytes.get b i))
  done

(* Iterate allocated pages in increasing index order (stable output for
   serialization). *)
let fold_pages t ~init ~f =
  Hashtbl.fold (fun idx page acc -> (idx, page) :: acc) t.pages []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.fold_left (fun acc (idx, page) -> f acc idx page) init

let zero_page = Bytes.make page_size '\000'

(* glibc's [memcmp], which [caml_bytes_compare] calls: [Bytes.equal]'s
   primitive compares word by word in a C loop of its own, three to five
   times slower on a 4 KB page and up to twice as slow on a register
   file's 64-288 bytes. *)
external compare_bytes : Bytes.t -> Bytes.t -> int = "caml_bytes_compare"
  [@@noalloc]

let is_zero page = compare_bytes page zero_page = 0

(* splitmix64 finalizer: a cheap, well-mixed 64-bit hash step. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let digest t =
  (* Canonical: an all-zero page hashes like an absent page, so machines
     that merely touched different addresses still compare equal. *)
  fold_pages t ~init:0x9E3779B97F4A7C15L ~f:(fun acc idx page ->
      if is_zero page then acc
      else begin
        let h = ref (mix64 (Int64.logxor acc (Int64.of_int idx))) in
        for w = 0 to (page_size / 8) - 1 do
          h := mix64 (Int64.logxor !h (Bytes.get_int64_le page (w * 8)))
        done;
        !h
      end)

(* [dst] takes the pages of [src] that [keep] accepts, into the buffers
   it already has where it can, and drops every other page; then, as
   after {!clear}, it holds no code pages and its generation moves on. *)
let copy_pages ~keep ~src ~dst =
  if src.endian <> dst.endian then
    raise
      (Sim_error.Error
         (Sim_error.make ~component:"memory" "page copy: endianness mismatch"));
  Hashtbl.filter_map_inplace
    (fun idx p ->
      match Hashtbl.find_opt src.pages idx with
      | Some q when keep q ->
        Bytes.blit q 0 p 0 page_size;
        Some p
      | _ -> None)
    dst.pages;
  unlist_all dst;
  Hashtbl.iter (list_page dst) dst.pages;
  Hashtbl.iter
    (fun idx q ->
      if (not (Hashtbl.mem dst.pages idx)) && keep q then
        add_page dst idx (Bytes.copy q))
    src.pages;
  dst.last_index <- -1;
  dst.last_page <- no_page;
  Hashtbl.reset dst.code_pages;
  dst.code_lo <- max_int;
  dst.code_hi <- min_int;
  dst.generation <- dst.generation + 1

let blit_all ~src ~dst = copy_pages ~keep:(fun q -> not (is_zero q)) ~src ~dst
let assign ~src ~dst = copy_pages ~keep:(fun _ -> true) ~src ~dst

(* Page by page, an absent page standing for an all-zero one (the same
   canonical form [digest] hashes): every page of [a] against its
   counterpart in [b], then [b]'s pages that [a] lacks. Two loops over
   the listed pages, so a compare allocates nothing. *)
let equal_contents a b =
  let ok = ref true and i = ref 0 in
  while !ok && !i < a.n_listed do
    let p = Array.unsafe_get a.list_pages !i in
    (ok :=
       match Hashtbl.find b.pages (Array.unsafe_get a.list_idx !i) with
       | q -> compare_bytes p q = 0
       | exception Not_found -> is_zero p);
    incr i
  done;
  i := 0;
  while !ok && !i < b.n_listed do
    ok :=
      Hashtbl.mem a.pages (Array.unsafe_get b.list_idx !i)
      || is_zero (Array.unsafe_get b.list_pages !i);
    incr i
  done;
  !ok

let dump_bytes t addr len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.chr (read_byte t (Int64.add addr (Int64.of_int i))))
  done;
  b
