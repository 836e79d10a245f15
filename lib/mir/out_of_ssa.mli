(** Out-of-SSA translation: split critical edges, then lower every phi to
    copies in the predecessor blocks (temporaries first, so parallel swaps
    stay correct).

    This is the pass whose interaction with Swift's [try]-heavy initializers
    the paper dissects in §IV (Listing 11 / Figure 9): a join block with N
    phis and N predecessors expands into O(N^2) copies — prime outlining
    fodder. *)

val run_func : Ir.func -> Ir.func
(** The result contains no phis. *)

val run : Ir.modul -> Ir.modul
