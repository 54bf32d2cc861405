(** Write-interception hooks.

    Hooks ride in the frame ({!Frame.t.hooks}): code compiled [~hooked]
    and the reference interpreter call the running frame's hooks before
    every architectural write. A speculative interface's frames hold its
    rollback journal's ({!Specsim.Specul}), which record the old value; a
    caller may pass hooks of its own to synthesis, as the fuzz oracle
    logs its reference's writes. No closure captures them, so one hooked
    compilation serves every journal and recorder. Plain code never reads
    them: an interface without hooks pays nothing. *)

type t = {
  on_reg_write : Machine.State.t -> int -> unit;
      (** called with the flat register index about to be overwritten *)
  on_store : Machine.State.t -> int -> int -> unit;
      (** called with the address (native-int form, {!Machine.Memory.addr_int})
          and width (bytes) about to be stored *)
}

(** Hooks that do nothing: what a plain frame holds. *)
let none = { on_reg_write = (fun _ _ -> ()); on_store = (fun _ _ _ -> ()) }
