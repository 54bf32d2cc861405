(** IR-level optimizations used by the synthesizer.

    - {!specialize_enc}: folds encoding bitfields against a concrete
      instruction encoding (the heart of the block-level specialization);
    - {!fold} / {!const_prop}: algebraic folding and forward constant
      propagation through cells, so decoded register numbers become static
      indices;
    - {!dce}: backward dead-code elimination — assignments to cells that
      are neither interface-visible nor read later are removed (the
      paper's "computation of information which is not actually needed
      semantically ... becomes dead code").

    {!optimize} does all of this in one forward and one backward pass;
    the four passes are its reference. *)

val fold_expr : Ir.expr -> Ir.expr

(** [fold p] performs constant folding and branch pruning. *)
val fold : Ir.program -> Ir.program

(** [specialize_enc ~enc p] replaces every encoding bitfield with its value
    under the concrete encoding [enc], then folds. *)
val specialize_enc : enc:int64 -> Ir.program -> Ir.program

(** [const_prop p] propagates constants through straight-line cell
    assignments (writes under conditionals conservatively invalidate). *)
val const_prop : Ir.program -> Ir.program

(** [dce ~keep p] removes assignments to cells for which [keep] is false
    and that are not read later in [p]. Sound for loop-free action code. *)
val dce : keep:(Ir.cell -> bool) -> Ir.program -> Ir.program

(** [optimize ?enc ~keep p] is the synthesizer's standard pipeline:
    exactly [dce ~keep (const_prop (specialize_enc ~enc p))], or
    [dce ~keep (const_prop (fold p))] without [enc], computed in two
    passes that return unchanged subtrees as they are. *)
val optimize : ?enc:int64 -> keep:(Ir.cell -> bool) -> Ir.program -> Ir.program
