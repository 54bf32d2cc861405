(** Reference AST interpreter for {!Ir} — the unspecialized baseline of the
    paper's footnote 5 and the oracle against which {!Compile} is
    property-tested. It calls the frame's write hooks ({!Frame.t.hooks})
    before every architectural write, so one walker serves plain,
    journaled and recording frames. *)

(** [expr loc st fr e] evaluates [e] against frame [fr]; cell ids resolve
    through the location map [loc]. *)
val expr :
  Frame.location array -> Machine.State.t -> Frame.t -> Ir.expr -> int64

(** [exec ~loc st fr p] interprets program [p] against frame [fr]. *)
val exec :
  loc:Frame.location array ->
  Machine.State.t ->
  Frame.t ->
  Ir.program ->
  unit
