(** Repeated machine outlining (§V-B): run the greedy outliner again on the
    rewritten program, so sequences that now contain calls to outlined
    functions — and the outlined functions themselves — become candidates.
    This is the paper's headline extension to LLVM's MachineOutliner.

    This module is where a round's engine is chosen: {!round} picks a
    fresh incremental engine (over the caller's warm pool, if given) or the from-scratch reference, and numbers the rounds.  {!run}
    is the plain loop over it; the pass manager's bisect-gated outline
    pass drives the same function one round per step. *)

val round :
  ?options:Outliner.options ->
  ?profile:Profile.t ->
  ?engine:[ `Incremental | `Scratch ] ->
  ?warm:Outliner.warm ->
  unit ->
  int ->
  Machine.Program.t ->
  Machine.Program.t * Outliner.round_stats
(** [round () k p] runs round [k] (counted from 1) on [p], naming its
    outlined functions with round number [options.round + k - 1].  The
    engine is chosen once, when the function is built: under
    [`Incremental] (the default) a fresh incremental engine, over [warm]
    if given, whose memo then lives across the rounds fed through this
    function; none under [`Scratch], which ignores [warm].  Any program may
    be fed to any round; {!run} feeds each the previous one's result.
    [profile] collects a per-round phase split. *)

val run :
  ?options:Outliner.options ->
  ?profile:Profile.t ->
  ?engine:[ `Incremental | `Scratch ] ->
  ?warm:Outliner.warm ->
  rounds:int ->
  Machine.Program.t ->
  Machine.Program.t * Outliner.round_stats list
(** [run ~rounds p] feeds {!round} up to [rounds] rounds, stopping early
    when a round outlines nothing.  Returns the final program and per-round stats
    (length <= rounds).  Round numbers in generated names start from
    [options.round].

    [engine] selects the implementation (default [`Incremental], which
    reuses the symbols and liveness of blocks and functions a round left
    physically unchanged; [`Scratch] is the from-scratch reference).  Both
    produce byte-identical programs.  [profile] collects a per-round phase
    split.

    [warm] supplies a caller-owned arena pool for the fresh incremental
    engine, letting its backing store survive across whole builds (the
    serve daemon); ignored under [`Scratch]. *)

val cumulative : Outliner.round_stats list -> Outliner.round_stats list
(** Per-round running totals, as presented in Table II of the paper. *)
