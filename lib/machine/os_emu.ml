type abi = {
  nr : int * int;
  args : (int * int) array;
  ret : int * int;
}

let sys_exit = 0L
let sys_write = 1L
let sys_read = 2L
let sys_brk = 3L
let sys_time = 4L
let sys_getpid = 5L

type t = {
  out : Buffer.t;
  input : string;
  mutable in_pos : int;
  mutable brk : int64;
  mutable clock : int64;
  tally : int64 -> int64 -> unit;
      (** syscall accounting hook, bound at creation (compiled-in
          observability: the unobserved emulator holds a constant no-op) *)
}

(* The os.* counter family. Syscalls are orders of magnitude rarer than
   instructions, so one closure call per syscall is free; the closure is
   still selected at [create] time to follow the compiled-in rule. *)
let make_tally (o : Obs.t) =
  let module R = Obs.Registry in
  let reg = o.Obs.reg in
  let total = R.counter reg "os.syscalls" in
  let c name = R.counter reg ("os.sys." ^ name ^ ".calls") in
  let c_exit = c "exit"
  and c_write = c "write"
  and c_read = c "read"
  and c_brk = c "brk"
  and c_time = c "time"
  and c_getpid = c "getpid"
  and c_unknown = c "unknown" in
  let bytes_out = R.counter reg "os.bytes_written"
  and bytes_in = R.counter reg "os.bytes_read" in
  fun n result ->
    R.incr total;
    if Int64.equal n sys_exit then R.incr c_exit
    else if Int64.equal n sys_write then begin
      R.incr c_write;
      if Int64.compare result 0L > 0 then R.add bytes_out (Int64.to_int result)
    end
    else if Int64.equal n sys_read then begin
      R.incr c_read;
      if Int64.compare result 0L > 0 then R.add bytes_in (Int64.to_int result)
    end
    else if Int64.equal n sys_brk then R.incr c_brk
    else if Int64.equal n sys_time then R.incr c_time
    else if Int64.equal n sys_getpid then R.incr c_getpid
    else R.incr c_unknown

let create ?obs ?(input = "") ?(brk0 = 0x400000L) () =
  let tally =
    match obs with
    | Some o when o.Obs.full -> make_tally o
    | Some _ | None -> fun _ _ -> ()
  in
  { out = Buffer.create 256; input; in_pos = 0; brk = brk0; clock = 0L; tally }

let output t = Buffer.contents t.out

let reg state (cls, idx) = Regfile.read state.State.regs ~cls ~idx
let set_reg state (cls, idx) v = Regfile.write state.State.regs ~cls ~idx v

let do_write t state addr len =
  let len = Int64.to_int len in
  if len < 0 then -1L
  else begin
    for i = 0 to len - 1 do
      Buffer.add_char t.out
        (Char.chr (Memory.read_byte state.State.mem (Int64.add addr (Int64.of_int i))))
    done;
    Int64.of_int len
  end

let do_read t state addr len =
  let len = Int64.to_int len in
  let avail = String.length t.input - t.in_pos in
  let n = min len avail in
  if n < 0 then -1L
  else begin
    for i = 0 to n - 1 do
      Memory.write_byte state.State.mem
        (Int64.add addr (Int64.of_int i))
        (Char.code t.input.[t.in_pos + i])
    done;
    t.in_pos <- t.in_pos + n;
    Int64.of_int n
  end

let handle t abi state =
  let n = reg state abi.nr in
  let arg i = if i < Array.length abi.args then reg state abi.args.(i) else 0L in
  if Int64.equal n sys_exit then begin
    t.tally n 0L;
    State.raise_fault state (Fault.Exit (Int64.to_int (arg 0)))
  end
  else
    let result =
      if Int64.equal n sys_write then do_write t state (arg 1) (arg 2)
      else if Int64.equal n sys_read then do_read t state (arg 1) (arg 2)
      else if Int64.equal n sys_brk then begin
        let a = arg 0 in
        if not (Int64.equal a 0L) then t.brk <- a;
        t.brk
      end
      else if Int64.equal n sys_time then begin
        t.clock <- Int64.add t.clock 1L;
        t.clock
      end
      else if Int64.equal n sys_getpid then 42L
      else -1L
    in
    t.tally n result;
    set_reg state abi.ret result

let install t abi state = state.State.syscall_handler <- handle t abi
