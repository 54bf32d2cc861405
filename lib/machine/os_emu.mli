(** Deterministic user-mode operating-system emulation.

    The paper's LIS descriptions include an "OS/simulator support" file that
    overrides the semantics of the ISA's trap instruction to call into an OS
    emulator. This module is that emulator: a small, deterministic syscall
    layer shared by all three ISA descriptions. Each ISA supplies an {!abi}
    saying which registers carry the syscall number, the arguments and the
    return value. *)

(** Register designators are (class index, register index) pairs into the
    machine's register file. *)
type abi = {
  nr : int * int;  (** register holding the syscall number *)
  args : (int * int) array;  (** argument registers, in order *)
  ret : int * int;  (** result register *)
}

(** Syscall numbers of the emulated ABI (identical across ISAs; the mapping
    from each ISA's native trap convention is done in its LIS description). *)
val sys_exit : int64

val sys_write : int64
val sys_read : int64
val sys_brk : int64
val sys_time : int64
val sys_getpid : int64

type t

(** [create ()] returns an emulator with empty output, empty input and a
    deterministic clock starting at zero. With [~obs] (a full context —
    profile-only contexts compile in nothing here), syscall traffic is
    counted into the "os.*" registry family: [os.syscalls],
    [os.sys.<name>.calls] per emulated call, and
    [os.bytes_written]/[os.bytes_read] for I/O volume. *)
val create : ?obs:Obs.t -> ?input:string -> ?brk0:int64 -> unit -> t

(** Bytes written via [sys_write] so far (the program's observable output;
    validation compares this across interfaces and ISAs). *)
val output : t -> string

(** [install t abi state] sets [state.syscall_handler] to dispatch into [t]. *)
val install : t -> abi -> State.t -> unit

(** [handle t abi state] performs one syscall based on current register
    values. Unknown syscall numbers return [-1]. *)
val handle : t -> abi -> State.t -> unit
