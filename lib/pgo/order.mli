(** Profile-guided function-ordering algorithms.

    Every algorithm maps (profile, program) to a complete permutation of
    the program's function names, suitable for [Linker.link ~order] or
    [Perfsim.Interp.run ~order].  They are pure placement: no code byte
    changes, and the interp differential (same exit value and output
    under every order) is part of the test suite.

    All strategies share the hot/cold split: functions never executed in
    the profile are placed at the image tail in program order, so startup
    and steady-state never page them in. *)

type strategy = [ `Order_file | `C3 | `Balanced | `Bp_compress of float ]
(** [`Bp_compress w] is {!balanced} with the compression term of weight
    [w] (0 = pure locality, 1 = pure compression) mixed into the
    objective; see {!bp_compress}. *)

val strategy_name : strategy -> string

val order_file : Profile.t -> Machine.Program.t -> string list
(** Startup placement: functions in first-touch order, then everything
    else in program order — the "order file" linkers consume. *)

val c3 : Profile.t -> Machine.Program.t -> string list
(** C³-style call-chain clustering (Codestitcher-family): coalesce the
    weighted dynamic call graph into clusters bounded by one 16 KiB page,
    heaviest edges first, and emit clusters by startup order.  Shared outlined helpers land
    inside their hottest caller's chain instead of next to an arbitrary
    static caller. *)

val balanced : Profile.t -> Machine.Program.t -> string list
(** Recursive-bisection balanced partitioning over utility sets (the
    Hoag et al. mobile-startup algorithm): hot functions are documents,
    their dynamic call-graph neighbours the utilities; recursive local
    search (at most 10 passes per bisection) keeps functions with shared
    utilities in the same half, hence on nearby pages.  Recursion stops
    at 4 KiB leaves, which keep their first-touch order — below a few KiB
    the fully-associative iTLB sees no difference, while touch order still
    helps the icache.
    Deterministic: ties break on function name. *)

val default_w : float
(** The default compression weight (0.5) used when [bp-compress] is
    requested without an explicit [w]. *)

val bp_compress :
  ?w:float ->
  Profile.t ->
  Machine.Program.t ->
  string list
(** {!balanced} with a compression-friendly term in the objective (the
    BP paper's extension): each hot function's utility set additionally
    carries its content shingles ({!Content.shingles}) at weight
    [w], while call-graph-locality utilities carry weight [1-w].
    Co-locating functions that share instruction subsequences puts their
    redundancy inside the compressor's sliding window, shrinking the
    estimated download size at some cost in locality.  [w] is clamped to
    [0..1]; [w = 0] produces exactly the {!balanced} order (the shingle
    utilities are never built and locality weights are exactly 1.0). *)

val compute : strategy -> Profile.t -> Machine.Program.t -> string list
