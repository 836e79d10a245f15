(** Lowering from MIR to machine code: out-of-SSA, linear-scan register
    allocation, AAPCS-like call lowering, and prologue/epilogue insertion.

    This stage manufactures — organically, not by templating — the exact
    repetition families the paper's §IV catalogues:

    - argument-register shuffles before every call ([mov x0, x20; bl
      swift_release], Listings 1–3): values live across calls sit in
      callee-saved registers and must move to [x0..x7] at each call site;
    - [stp]/[ldp] runs saving [x19..x26] in prologues/epilogues
      (Listings 7–8);
    - out-of-SSA copy/spill bursts from [try]-style join blocks
      (Listing 11).  *)

val runtime_externs : string list
(** Symbols the generated code may reference; the interpreter implements
    them. *)

val compile_func : ?regalloc_seed:int -> Ir.func -> Machine.Mfunc.t
(** Raises [Invalid_argument] for functions with more than 8 parameters.
    [regalloc_seed] shuffles the register-allocation pools per function —
    an ablation knob for the paper's future-work item (2), the interaction
    between register assignment and outlining: randomized assignment
    destroys the cross-function repetition that deterministic allocation
    produces for free.

    Register allocation is a linear scan over {!Intervals.compute}'s
    intervals in [first] order.  Values crossing a call take a callee-saved
    register ([x19..x26]), others a caller-saved one ([x9..x15]) before a
    callee-saved one; with both pools empty a value spills to the next
    slot.  Each free pool is a stack, and register choice rests on its
    order: before an interval is placed, the registers whose intervals end
    before it are pushed back newest-allocated first, so the oldest of them
    is on top and taken next.  The scan keeps its active set and pools in
    fixed arrays and its locations in an array by value id, so an interval
    that is placed in a register allocates nothing. *)

val compile_modul : ?regalloc_seed:int -> Ir.modul -> Machine.Program.t
(** Compiles every function, converts globals, and records externs (module
    externs plus the runtime set). *)
