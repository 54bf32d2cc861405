(** Sparse, paged byte-addressable memory.

    Pages are allocated on demand, so the full 64-bit address space is
    usable without preallocation. Reads of never-written locations return
    zero. Multi-byte accesses honour the endianness chosen at creation
    time and may span page boundaries. *)

type endian = Little | Big

type t

(** [create endian] returns an empty memory. *)
val create : endian -> t

val endian : t -> endian

(** Number of pages currently allocated (for tests and statistics). *)
val page_count : t -> int

(** [read mem ~addr ~width] reads [width] bytes (1, 2, 4 or 8) at [addr]
    and returns them zero-extended to 64 bits.
    @raise Invalid_argument on an unsupported width. *)
val read : t -> addr:int64 -> width:int -> int64

(** [read_signed] is [read] followed by sign extension from [width] bytes. *)
val read_signed : t -> addr:int64 -> width:int -> int64

(** [write mem ~addr ~width v] stores the low [width] bytes of [v] at [addr].
    @raise Invalid_argument on an unsupported width. *)
val write : t -> addr:int64 -> width:int -> int64 -> unit

(** [load_into mem ~addr ~width ~signed dst off] reads like {!read} (or
    {!read_signed}) at the native-int address [addr] (see {!addr_int})
    and stores the value in the native-endian 8-byte slot at byte [off] of
    [dst]. No [int64] crosses the call, so it allocates nothing: this is
    the access path of compiled code and the engine's fetch.
    @raise Invalid_argument on an unsupported width. *)
val load_into :
  t -> addr:int -> width:int -> signed:bool -> Bytes.t -> int -> unit

(** [store_from mem ~addr ~width src off] is {!write} of the native-endian
    8-byte slot at byte [off] of [src], allocation-free like
    {!load_into}. Code-write hooks fire as for {!write}. *)
val store_from : t -> addr:int -> width:int -> Bytes.t -> int -> unit

val read_byte : t -> int64 -> int
val write_byte : t -> int64 -> int -> unit

(** [load_bytes mem addr b] copies the whole of [b] into memory at [addr]. *)
val load_bytes : t -> int64 -> bytes -> unit

(** [dump_bytes mem addr len] reads [len] bytes starting at [addr]. *)
val dump_bytes : t -> int64 -> int -> bytes

(** [clear mem] drops every page, returning the memory to its initial state. *)
val clear : t -> unit

(** [fold_pages mem ~init ~f] folds over allocated pages in increasing
    page-index order; each page is 4096 bytes. The callback must not
    mutate the memory. Used by {!Checkpoint}. *)
val fold_pages : t -> init:'a -> f:('a -> int -> bytes -> 'a) -> 'a

(** Page size in bytes (4096). *)
val page_size : int

(** log2 of {!page_size}: [addr lsr page_bits] is the page index. *)
val page_bits : int

(** [page_size - 1]: [addr land page_mask] is the in-page offset. *)
val page_mask : int

(** [addr_int a] is the canonical native-int form of address [a] (the
    full 64-bit space is truncated losslessly for programs living below
    [max_int]). Page index and offset are derived from this value. *)
val addr_int : int64 -> int

(** [lookup_page mem index] returns the backing bytes of page [index],
    allocating it on demand. The returned buffer is live: writes through
    it are visible to subsequent reads, but bypass code-page write hooks
    — callers caching it must revalidate via {!generation}. *)
val lookup_page : t -> int -> bytes

(** [generation mem] changes whenever previously handed-out page buffers
    may no longer be trusted: on {!clear}, on a page copy ({!blit_all},
    {!assign}) and when a page is newly marked as code. A one-entry page
    cache (a compiled site's, the engine's fetch page) is valid only
    while the generation it captured still matches. *)
val generation : t -> int

(** [note_code_page mem index] marks page [index] as holding translated
    code: subsequent writes to it invoke the code-write hooks. Bumps
    {!generation} the first time a page is marked. *)
val note_code_page : t -> int -> unit

val is_code_page : t -> int -> bool

(** [add_code_write_hook mem f] arranges for [f index] to run after any
    write that touches a page previously passed to {!note_code_page}.
    Hooks compose: earlier hooks still run (several synthesized
    interfaces may share one memory). {!clear} drops the code-page set
    but keeps the hooks installed. *)
val add_code_write_hook : t -> (int -> unit) -> unit

(** [digest mem] is a 64-bit hash of the allocated contents. All-zero
    pages hash like absent pages, so two memories with the same byte
    contents digest equally regardless of which addresses were merely
    touched. The snapshot primitive: fuzz reports, injection campaigns,
    watchdog samples and checkpoints keep a digest where they cannot
    keep a copy. To compare two live memories use {!equal_contents}. *)
val digest : t -> int64

(** [blit_all ~src ~dst] makes [dst]'s contents byte-equal to [src]:
    [dst] ends up with [src]'s pages that are not all zero, reusing the
    buffers it has, and, as after {!clear}, with no code pages. The
    endiannesses must match.
    @raise Sim_error.Error on an endianness mismatch. *)
val blit_all : src:t -> dst:t -> unit

(** [assign ~src ~dst] is {!blit_all} that keeps [src]'s all-zero pages
    too: [dst] ends up holding exactly [src]'s pages and bytes, and
    allocates none of the pages it already had. The fuzz oracle resets
    its shadow machine with it.
    @raise Sim_error.Error on an endianness mismatch. *)
val assign : src:t -> dst:t -> unit

(** [compare_bytes a b] is [Bytes.compare a b], through [memcmp]: [0]
    exactly when [a] and [b] hold the same bytes. It allocates nothing;
    page and register-file compares use it rather than [Bytes.equal],
    whose primitive is up to five times slower. *)
external compare_bytes : Bytes.t -> Bytes.t -> int = "caml_bytes_compare"
  [@@noalloc]

(** [equal_contents a b] is [true] when [a] and [b] hold the same bytes
    at every address: pages are compared directly, an absent page
    standing for an all-zero one, so it agrees with comparing
    {!digest}s (up to hash collisions) without hashing anything. It
    allocates nothing. *)
val equal_contents : t -> t -> bool
