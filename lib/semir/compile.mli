(** Closure compiler for {!Ir} — the execution substrate of synthesized
    simulators (the analog of the paper's LLVM-based binary translation).
    Compilation happens once, at synthesis time; execution runs no IR
    dispatch at all. Compiled code captures no machine and no hooks: it
    takes the frame as its only argument, and reads the machine through
    the frame's [st] ({!Frame.t.st}) and, when compiled [hooked], the
    write hooks through its [hooks] ({!Frame.t.hooks}), so one
    compilation serves every machine and every journal. A node calls
    its children with the frame alone: a call of an unknown closure with
    one argument jumps through the closure's code pointer, where two
    arguments would go through the generic [caml_apply2] (DESIGN.md §6
    item 7, rule f). *)

(** A compiled statement sequence. It allocates nothing: values move
    through the unboxed slots of the frame, the DI record and the
    register file. *)
type code = Frame.t -> unit

(** [program ?hooked ?layout ?mem_fast_path ~loc p] compiles a whole
    action body. [hooked] (default off) code calls the frame's hooks
    before every architectural write; unhooked code never reads them.
    [layout], when given, lets static register numbers compile to single
    slot accesses (it must match the register file of every machine the
    code will run against). [mem_fast_path] (default off) gives every
    load/store site a one-entry page cache — a per-site software TLB —
    hitting the backing bytes directly and falling back to
    {!Machine.Memory} on page cross, memory change, or generation
    mismatch. It is safe for any program, stores included: a store site
    never caches a code page, and marking a page as code bumps the
    memory's generation, so every write to code still runs the
    code-write hooks. Hooked stores always take the slow path, so the
    hooks see every store. *)
val program :
  ?hooked:bool ->
  ?layout:Machine.Regfile.t ->
  ?mem_fast_path:bool ->
  loc:Frame.location array ->
  Ir.program ->
  code
