(** Rollback journal: speculation support synthesized into an interface.

    The paper handles speculation by carrying "enough information to roll
    back the architectural effects of each instruction". This journal logs
    the old value of every register and memory write (via {!Semir.Hooks})
    between checkpoints; [rollback] replays the log backwards.

    Tokens are monotonically increasing ints. Checkpoints nest: rolling
    back to an older token undoes everything after it. Committing a token
    merely forgets the ability to roll back before it. Speculation across
    a syscall is not supported — the OS emulator's buffers are not
    journaled — and syscall instructions end speculative regions in all
    shipped simulators.

    The layout is tuned for the per-instruction fast path (this is the
    entire cost of a speculative interface, paper Table III's last row): a
    checkpoint packs its log marks into an immediate int and keeps its pc
    and retired count in unboxed 8-byte slots, so it is three stores that
    pass no write barrier, plus a capacity check. Only [rollback], on its
    cold path, boxes them again. *)

type t = {
  mutable reg_flat : int array;
  mutable reg_old : Bytes.t;  (** 8-byte slot per entry *)
  mutable reg_n : int;
  mutable mem_addr : int array;  (** native-int addresses *)
  mutable mem_old : Bytes.t;  (** 8-byte slot per entry *)
  mutable mem_width : int array;
  mutable mem_n : int;
  (* per checkpoint: packed (reg_n << 31) | mem_n, plus the pc and the
     retired count to restore, one 8-byte slot each *)
  mutable ck_meta : int array;
  mutable ck_pc : Bytes.t;
  mutable ck_count : Bytes.t;
  mutable ck_n : int;
  mutable committed : int;  (** internal indices below this are committed *)
  mutable base : int;
      (** external token = [base] + internal index; [compact] shifts
          internal indices but leaves issued tokens valid *)
  (* rollback statistics — updated only on the (cold) rollback path, so
     the per-instruction fast path is untouched *)
  mutable rollbacks : int;
  mutable undone_regs : int;
  mutable undone_stores : int;
}

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create () =
  {
    reg_flat = Array.make 256 0;
    reg_old = Bytes.create (8 * 256);
    reg_n = 0;
    mem_addr = Array.make 256 0;
    mem_old = Bytes.create (8 * 256);
    mem_width = Array.make 256 0;
    mem_n = 0;
    ck_meta = Array.make 256 0;
    ck_pc = Bytes.create (8 * 256);
    ck_count = Bytes.create (8 * 256);
    ck_n = 0;
    committed = 0;
    base = 0;
    rollbacks = 0;
    undone_regs = 0;
    undone_stores = 0;
  }

let pack ~reg_n ~mem_n = (reg_n lsl 31) lor mem_n
let meta_reg m = m lsr 31
let meta_mem m = m land 0x7FFFFFFF

let[@inline never] grow_regs t =
  let cap = Array.length t.reg_flat in
  t.reg_flat <- Array.append t.reg_flat (Array.make cap 0);
  t.reg_old <- Bytes.extend t.reg_old 0 (8 * cap)

let[@inline never] grow_mem t =
  let cap = Array.length t.mem_addr in
  t.mem_addr <- Array.append t.mem_addr (Array.make cap 0);
  t.mem_old <- Bytes.extend t.mem_old 0 (8 * cap);
  t.mem_width <- Array.append t.mem_width (Array.make cap 0)

let[@inline never] grow_ck t =
  let cap = 2 * Array.length t.ck_meta in
  t.ck_meta <- Array.append t.ck_meta (Array.make (cap / 2) 0);
  t.ck_pc <- Bytes.extend t.ck_pc 0 (8 * (cap / 2));
  t.ck_count <- Bytes.extend t.ck_count 0 (8 * (cap / 2))

(* Both loggers copy the old value slot to slot: no [int64] is boxed. *)
let record_reg t (st : Machine.State.t) flat =
  let n = t.reg_n in
  if n >= Array.length t.reg_flat then grow_regs t;
  Array.unsafe_set t.reg_flat n flat;
  set64 t.reg_old (8 * n) (get64 st.regs.Machine.Regfile.v (8 * flat));
  t.reg_n <- n + 1

let record_store t (st : Machine.State.t) addr width =
  let n = t.mem_n in
  if n >= Array.length t.mem_addr then grow_mem t;
  Array.unsafe_set t.mem_addr n addr;
  Machine.Memory.load_into st.mem ~addr ~width ~signed:false t.mem_old (8 * n);
  Array.unsafe_set t.mem_width n width;
  t.mem_n <- n + 1

(** Hooks to compile into speculative interfaces. *)
let hooks t : Semir.Hooks.t =
  {
    on_reg_write = (fun st flat -> record_reg t st flat);
    on_store = (fun st addr width -> record_store t st addr width);
  }

(** [mark t st pc k] opens a new speculative region whose rollback
    restores pc [pc] and retired count [st.instr_count + k], and returns
    its token. The block engine marks each site this way, before it
    advances [st] past the block. *)
let mark t (st : Machine.State.t) pc k : int =
  let n = t.ck_n in
  if n >= Array.length t.ck_meta then grow_ck t;
  Array.unsafe_set t.ck_meta n (pack ~reg_n:t.reg_n ~mem_n:t.mem_n);
  set64 t.ck_pc (8 * n) pc;
  set64 t.ck_count (8 * n) (Int64.add st.instr_count (Int64.of_int k));
  t.ck_n <- n + 1;
  t.base + n

(** [checkpoint t st] opens a new speculative region and returns its token. *)
let checkpoint t (st : Machine.State.t) : int = mark t st st.pc 0

(** [rollback t st token] undoes every architectural effect recorded since
    [checkpoint] returned [token], restoring pc and instruction count.
    @raise Invalid_argument if [token] was already committed or never issued. *)
let rollback t (st : Machine.State.t) token =
  let token = token - t.base in
  if token < t.committed || token >= t.ck_n then
    invalid_arg "Specul.rollback: invalid token";
  let meta = t.ck_meta.(token) in
  let reg_mark = meta_reg meta and mem_mark = meta_mem meta in
  t.rollbacks <- t.rollbacks + 1;
  t.undone_regs <- t.undone_regs + (t.reg_n - reg_mark);
  t.undone_stores <- t.undone_stores + (t.mem_n - mem_mark);
  (* logged values were read from the register, so already masked *)
  for i = t.reg_n - 1 downto reg_mark do
    set64 st.regs.Machine.Regfile.v (8 * t.reg_flat.(i)) (get64 t.reg_old (8 * i))
  done;
  t.reg_n <- reg_mark;
  for i = t.mem_n - 1 downto mem_mark do
    Machine.Memory.store_from st.mem ~addr:t.mem_addr.(i)
      ~width:t.mem_width.(i) t.mem_old (8 * i)
  done;
  t.mem_n <- mem_mark;
  let pc = get64 t.ck_pc (8 * token) in
  st.pc <- pc;
  st.next_pc <- st.pc;
  st.instr_count <- get64 t.ck_count (8 * token);
  (* Rolling back also cancels any fault raised speculatively. *)
  st.fault <- None;
  st.halted <- false;
  t.ck_n <- token

(** [commit t token] declares everything up to and including the region
    opened at [token] non-speculative. When no open region remains, the
    log is reset to empty. *)
let commit t token =
  let token = token - t.base in
  if token >= t.ck_n then invalid_arg "Specul.commit: invalid token";
  if token + 1 > t.committed then t.committed <- token + 1;
  if t.committed >= t.ck_n then begin
    t.base <- t.base + t.ck_n;
    t.ck_n <- 0;
    t.committed <- 0;
    t.reg_n <- 0;
    t.mem_n <- 0
  end

(** Number of open (uncommitted) checkpoints. *)
let depth t = t.ck_n - t.committed

(** [compact t] discards committed log entries, shifting the arrays down.
    Called by the engine when the committed prefix grows large, so a
    sliding-window speculation policy runs in bounded memory. *)
let compact t =
  if t.committed > 0 then begin
    let ck0 = t.committed in
    let live_ck = t.ck_n - ck0 in
    let reg0 = if live_ck > 0 then meta_reg t.ck_meta.(ck0) else t.reg_n in
    let mem0 = if live_ck > 0 then meta_mem t.ck_meta.(ck0) else t.mem_n in
    Bytes.blit t.ck_pc (8 * ck0) t.ck_pc 0 (8 * live_ck);
    Bytes.blit t.ck_count (8 * ck0) t.ck_count 0 (8 * live_ck);
    for i = 0 to live_ck - 1 do
      let m = t.ck_meta.(ck0 + i) in
      t.ck_meta.(i) <- pack ~reg_n:(meta_reg m - reg0) ~mem_n:(meta_mem m - mem0)
    done;
    Array.blit t.reg_flat reg0 t.reg_flat 0 (t.reg_n - reg0);
    Bytes.blit t.reg_old (8 * reg0) t.reg_old 0 (8 * (t.reg_n - reg0));
    t.reg_n <- t.reg_n - reg0;
    Array.blit t.mem_addr mem0 t.mem_addr 0 (t.mem_n - mem0);
    Bytes.blit t.mem_old (8 * mem0) t.mem_old 0 (8 * (t.mem_n - mem0));
    Array.blit t.mem_width mem0 t.mem_width 0 (t.mem_n - mem0);
    t.mem_n <- t.mem_n - mem0;
    t.ck_n <- live_ck;
    t.base <- t.base + ck0;
    t.committed <- 0
  end

(** Log sizes, for tests and statistics. *)
let log_sizes t = (t.reg_n, t.mem_n)

(** Checkpoints ever issued (committed and live). *)
let checkpoints_issued t = t.base + t.ck_n

(** Lifetime undo statistics: [(rollbacks, register writes undone,
    stores undone)]. *)
let undo_stats t = (t.rollbacks, t.undone_regs, t.undone_stores)

(** [register_obs t obs] exports the journal's state as pull gauges
    under the "specul." namespace — sampled at snapshot time, costing
    the simulation loop nothing. *)
let register_obs t (obs : Obs.t) =
  let open Obs.Registry in
  probe obs.reg "specul.depth" (fun () -> Int (t.ck_n - t.committed));
  probe obs.reg "specul.checkpoints" (fun () -> Int (checkpoints_issued t));
  probe obs.reg "specul.rollbacks" (fun () -> Int t.rollbacks);
  probe obs.reg "specul.undone_reg_writes" (fun () -> Int t.undone_regs);
  probe obs.reg "specul.undone_stores" (fun () -> Int t.undone_stores);
  probe obs.reg "specul.log_reg_entries" (fun () -> Int t.reg_n);
  probe obs.reg "specul.log_mem_entries" (fun () -> Int t.mem_n)

(** [auto_trim t ~window] keeps at most [window] open checkpoints by
    committing the oldest, compacting occasionally. The engine calls this
    once per instruction when it auto-checkpoints, giving speculative
    interfaces a bounded-memory sliding rollback horizon. *)
let auto_trim t ~window =
  if t.ck_n - t.committed > window then begin
    commit t (t.base + t.committed);
    if t.committed > 4096 then compact t
  end
