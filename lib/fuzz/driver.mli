(** The fuzzing loop and the harness self-test. *)

type stats = {
  programs : int;        (** generated (Swiftlet + machine) *)
  skipped : int;         (** outside the checkable domain (see {!Lattice}) *)
  points_checked : int;  (** lattice points that ran and agreed *)
}

val fuzz :
  ?log:(string -> unit) ->
  ?verify_each:bool ->
  seed:int ->
  count:int ->
  fuel:int ->
  unit ->
  (stats, string) result
(** Generate [count] programs from [seed] (three Swiftlet programs to one
    machine program) and sweep each across its lattice.  On the first
    divergence the failing case is shrunk and [Error report] returns the
    reduced source, the offending lattice point and both traces — the
    report's seed line reproduces the run bit-for-bit.  [verify_each]
    turns on per-pass invariant checking at every Swiftlet lattice
    point. *)

val self_test : ?log:(string -> unit) -> seed:int -> unit -> (string, string) result
(** Prove the harness catches real bugs, one injected fault at a time.
    The self-test is a list of phases, all run by one fault-injection
    function parameterized by program kind (generator, check, shrinker,
    line counter, printer): each flips a fault flag, fuzzes until its
    differential fails, shrinks the failure and requires a small
    reproducer that still fails.  The faults, in order:
    {!Outcore.Legality.unsafe_outline_lr} (corrupted LR, machine programs
    against the execution oracle); {!Outcore.Outliner.fault_stale_engine_rows}
    (serial engine symbol arrays reused by name after a rewrite, caught by
    the incremental-vs-scratch differential); {!Thinwpo.Summary.fault_truncate_hash} (colliding
    thin-WPO window keys, Swiftlet programs against {!Lattice.check_thin});
    {!Thinwpo.Engine.fault_stale_shard_state} (thin-WPO scan rows reused
    by name after a rewrite, against {!Lattice.check_thin});
    {!Serve.Server.fault_stale_cache_entry} (a serve result cache that
    ignores module content, against {!Lattice.check_serve});
    {!Blocklayout.fault_drop_materialized_branch} (the stitch differential
    in {!Lattice.check_machine}); and {!Merge.fault_drop_rollback}
    (against {!Lattice.check_gmerge}).  [Ok report] carries all seven shrunk
    reproducers; [Error] means the harness failed to catch or shrink a
    bug. *)
