(** Arena-allocated generalized suffix tree: same inputs and reported
    repeats as {!Suffix_tree} but with struct-of-arrays nodes and one shared
    open-addressing children table, for the whole-program outlining hot
    path.  {!Suffix_tree} remains the readable reference implementation;
    the two are compared in the test suite. *)

type t

type pool
(** Reusable backing store for {!build}.  Rebuilding a whole-program tree
    every outlining round allocates megabytes of int arrays; a pool lets
    consecutive builds recycle the previous round's arrays once they are
    large enough. *)

val create_pool : unit -> pool

val build : ?pool:pool -> int array array -> t
(** The sequences {!Suffix_tree.build} takes, as an array.  Symbols must
    be [>= 0]; raises [Invalid_argument] otherwise.  When
    [pool] is given, the tree borrows the pool's arrays: it becomes invalid
    the moment the same pool is passed to another [build], so at most one
    pooled tree per pool may be alive at a time.  Arrays that construction
    leaves dead (suffix links, edge bounds, the text, the children table)
    are recycled as the tree's traversal state, node slices and report
    buffer, so a pool holds ten arrays. *)

val iter_repeats : ?min_length:int -> t -> Suffix_tree.visit -> unit
(** Same contract as {!Suffix_tree.iter_repeats}: every right-maximal
    repeat, its occurrences sorted into one buffer the tree reuses, so
    reporting allocates nothing.  The order of repeats may differ from the
    reference tree's (it is by node, highest first); callers needing
    determinism must sort. *)

val count_leaves : t -> int
(** Total number of suffixes indexed (for testing). *)
