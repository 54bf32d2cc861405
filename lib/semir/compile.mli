(** Closure compiler for {!Ir} — the execution substrate of synthesized
    simulators (the analog of the paper's LLVM-based binary translation).
    Compilation happens once, at synthesis time; execution runs no IR
    dispatch at all. *)

(** A compiled statement sequence. It allocates nothing: values move
    through the unboxed slots of the frame, the DI record and the
    register file. *)
type code = Machine.State.t -> Frame.t -> unit

(** [program ?hooks ?layout ?mem_fast_path ~loc p] compiles a whole
    action body. [hooks] intercept architectural writes for speculation
    journaling; [layout], when given, lets static register numbers
    compile to single slot accesses (it must match the register file of
    every machine the code will run against). [mem_fast_path] (default
    off) gives every load/store site a one-entry page cache — a per-site
    software TLB — hitting the backing bytes directly and falling back
    to {!Machine.Memory} on page cross, memory change, or generation
    mismatch. Fast-path stores never cache code pages, so code-write
    hooks still fire; journaled stores (with [hooks]) always take the
    slow path. *)
val program :
  ?hooks:Hooks.t ->
  ?layout:Machine.Regfile.t ->
  ?mem_fast_path:bool ->
  loc:Frame.location array ->
  Ir.program ->
  code
