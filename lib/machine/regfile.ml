type class_def = {
  cname : string;
  count : int;
  width : int;
  hardwired_zero : int option;
}

type t = {
  classes : class_def array;
  bases : int array;
  total : int;
  v : Bytes.t;
  (* Per-flat-register write mask; 0L marks a hardwired-zero register. *)
  masks : Bytes.t;
}

(* Native-endian, unchecked 8-byte slots: register [i] lives at byte
   [8 * i] of [v], its write mask at byte [8 * i] of [masks]. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let width_mask width =
  if width >= 64 then -1L
  else Int64.sub (Int64.shift_left 1L width) 1L

let create classes =
  let classes = Array.of_list classes in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun c ->
      if c.count <= 0 then invalid_arg ("Regfile: empty class " ^ c.cname);
      if c.width <= 0 || c.width > 64 then
        invalid_arg ("Regfile: bad width for class " ^ c.cname);
      (match c.hardwired_zero with
      | Some i when i < 0 || i >= c.count ->
        invalid_arg ("Regfile: bad hardwired index in " ^ c.cname)
      | _ -> ());
      if Hashtbl.mem seen c.cname then
        invalid_arg ("Regfile: duplicate class " ^ c.cname);
      Hashtbl.add seen c.cname ())
    classes;
  let n = Array.length classes in
  let bases = Array.make n 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    bases.(i) <- !total;
    total := !total + classes.(i).count
  done;
  let masks = Bytes.make (8 * !total) '\000' in
  for i = 0 to n - 1 do
    let c = classes.(i) in
    let m = width_mask c.width in
    for j = 0 to c.count - 1 do
      set64 masks
        (8 * (bases.(i) + j))
        (match c.hardwired_zero with Some z when z = j -> 0L | _ -> m)
    done
  done;
  {
    classes;
    bases;
    total = !total;
    v = Bytes.make (8 * !total) '\000';
    masks;
  }

let copy t = { t with v = Bytes.copy t.v }

let class_index t name =
  let rec find i =
    if i >= Array.length t.classes then raise Not_found
    else if String.equal t.classes.(i).cname name then i
    else find (i + 1)
  in
  find 0

let class_count t = Array.length t.classes
let class_def t i = t.classes.(i)
let base t i = t.bases.(i)
let total t = t.total

let check t ~cls ~idx =
  if cls < 0 || cls >= Array.length t.classes then
    invalid_arg "Regfile: bad class index";
  if idx < 0 || idx >= t.classes.(cls).count then
    invalid_arg
      (Printf.sprintf "Regfile: index %d out of range for class %s" idx
         t.classes.(cls).cname)

let read t ~cls ~idx =
  check t ~cls ~idx;
  get64 t.v (8 * (t.bases.(cls) + idx))

let write t ~cls ~idx value =
  check t ~cls ~idx;
  let o = 8 * (t.bases.(cls) + idx) in
  set64 t.v o (Int64.logand value (get64 t.masks o))

let read_flat t i = get64 t.v (8 * i)

let write_flat t i value =
  let o = 8 * i in
  set64 t.v o (Int64.logand value (get64 t.masks o))

let is_hardwired_flat t i =
  if i < 0 || i >= t.total then invalid_arg "Regfile: bad flat index";
  Int64.equal (get64 t.masks (8 * i)) 0L

let mask_flat t i =
  if i < 0 || i >= t.total then invalid_arg "Regfile: bad flat index";
  get64 t.masks (8 * i)

let blit ~src ~dst =
  if src.total <> dst.total then invalid_arg "Regfile.blit: layout mismatch";
  Bytes.blit src.v 0 dst.v 0 (8 * src.total)

let equal_class (x : class_def) (y : class_def) =
  String.equal x.cname y.cname
  && x.count = y.count && x.width = y.width
  && Option.equal Int.equal x.hardwired_zero y.hardwired_zero

(* classes [0, i] of [x] and [y] (a top-level loop: [Array.for_all2]
   allocates a closure per call) *)
let rec equal_classes x y i =
  i < 0 || (equal_class x.(i) y.(i) && equal_classes x y (i - 1))

(* Contents first: checkers call this per instruction on same-layout
   files, where the byte compare decides and the layout compare is a
   few integer tests. *)
let equal a b =
  Memory.compare_bytes a.v b.v = 0
  && Array.length a.classes = Array.length b.classes
  && equal_classes a.classes b.classes (Array.length a.classes - 1)

let pp ppf t =
  Array.iteri
    (fun ci c ->
      Format.fprintf ppf "@[<v 2>%s:@," c.cname;
      for i = 0 to c.count - 1 do
        let v = read_flat t (t.bases.(ci) + i) in
        if not (Int64.equal v 0L) then
          Format.fprintf ppf "%s%d = 0x%Lx@," c.cname i v
      done;
      Format.fprintf ppf "@]")
    t.classes
