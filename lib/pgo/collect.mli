(** Profile collection: run entry points under {!Perfsim.Interp} with a
    counts accumulator and turn the counts into a {!Profile.t}.

    The simulator is deterministic, so the same program + the same
    entries produce a byte-identical serialized profile — profiles can
    be recorded in one build and replayed in another. *)

val default_config : Perfsim.Interp.config
(** Cost model off (counts are unaffected), unknown externs no-op,
    50M-step budget. *)

val collect :
  ?config:Perfsim.Interp.config ->
  ?args_for:(string -> int list) ->
  ?on_error:(string -> Perfsim.Interp.error -> unit) ->
  workload:string ->
  entries:string list ->
  Machine.Program.t ->
  Profile.t
(** Run every entry with one shared counts accumulator and distill one
    profile.  Failed runs (missing entry, trap, step limit) contribute
    the counts up to the failure, and each failure is passed to
    [on_error] with its entry (default: ignored), so a caller can report
    a profile the step budget truncated; [args_for] supplies per-entry
    integer arguments. *)
