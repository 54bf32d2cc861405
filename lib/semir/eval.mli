(** Reference AST interpreter for {!Ir} — the unspecialized baseline of the
    paper's footnote 5 and the oracle against which {!Compile} is
    property-tested. Like compiled code it takes the frame alone: it
    runs on the frame's machine ({!Frame.t.st}) and calls the frame's
    write hooks ({!Frame.t.hooks}) before every architectural write, so
    one walker serves plain, journaled and recording frames, and neither
    backend can be handed a frame with some other machine. *)

(** [expr loc fr e] evaluates [e] against frame [fr] and its machine;
    cell ids resolve through the location map [loc]. *)
val expr : Frame.location array -> Frame.t -> Ir.expr -> int64

(** [exec ~loc fr p] interprets program [p] against frame [fr] and its
    machine. *)
val exec : loc:Frame.location array -> Frame.t -> Ir.program -> unit
