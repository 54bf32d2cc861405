(** Write-interception hooks for speculation support.

    When a buildset enables speculation, the synthesizer compiles actions
    with hooks that record the old value of every architectural write
    before it happens; the rollback journal ({!Specsim.Specul}) implements
    them. Hooks are compiled in — a non-speculative buildset pays nothing. *)

type t = {
  on_reg_write : Machine.State.t -> int -> unit;
      (** called with the flat register index about to be overwritten *)
  on_store : Machine.State.t -> int -> int -> unit;
      (** called with the address (native-int form, {!Machine.Memory.addr_int})
          and width (bytes) about to be stored *)
}
