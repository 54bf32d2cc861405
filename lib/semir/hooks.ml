(** Write-interception hooks.

    When a buildset enables speculation, the synthesizer compiles actions
    with hooks that record the old value of every architectural write
    before it happens; the rollback journal ({!Specsim.Specul}) implements
    them. A caller may pass hooks of its own to synthesis: the fuzz
    oracle logs its reference's writes this way. Hooks are compiled in —
    an interface without them pays nothing. *)

type t = {
  on_reg_write : Machine.State.t -> int -> unit;
      (** called with the flat register index about to be overwritten *)
  on_store : Machine.State.t -> int -> int -> unit;
      (** called with the address (native-int form, {!Machine.Memory.addr_int})
          and width (bytes) about to be stored *)
}
