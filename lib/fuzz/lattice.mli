(** The pipeline-config lattice and the differential oracle check.

    One generated Swiftlet program is compiled under every lattice point —
    {!Pipeline.mode} × outline rounds × each optional pass × the §VI
    [flag_semantics]/[data_order] link axes × the layout strategies
    (caller-affinity and the self-profiled profile-guided orders) — and
    every resulting machine program, executed under the placement it was
    linked with, must agree with the MIR reference interpreter on exit
    value and printed output.  Image size must also be monotonically
    non-increasing in the outline-round count, holding every other axis
    fixed.

    Legacy-semantics points are special-cased: a program whose modules
    carry {!Swiftgen.Mixed_compilers} flags is *required* to fail linking
    with a module-flag conflict there (and only there) — reproducing the
    §VI-2 spurious-conflict behaviour is part of the oracle.

    Thin-WPO rides on the same lattice: three [thin/r3/wN] points
    (workers 1, 2 and 4) run the sharded summary-exchange pipeline
    through the oracle, and two dedicated differentials check that the
    worker count never reaches the image (byte-identity across the three
    points) and that the thin image stays within a fixed bound of the
    full whole-program build (5% + 256 bytes of wp/r3).

    Two pass-manager checks ride on every checked program:
    - each point's pipeline spec (its optional passes are edits of the
      lowered spec) must print and parse back to itself
      ([Pipeline.spec_of_config] → [Passman.print] → [Passman.parse]);
    - the default configs (both modes) are built through the pass manager
      {e and} the preserved pre-refactor sequencing
      ([Pipeline.build_reference]) and must agree byte-for-byte.

    The compressed-size model ({!Linker.Compress}) is property-checked on
    the wp/r3 program: the estimate must be deterministic, never exceed
    the pure-literal bound, be content-total-invariant with the window
    disabled (every permutation agrees), and — when byte-identical
    function bodies exist — strictly beat the literal bound once the
    clones are placed adjacent. *)

type failure = {
  point : string;  (** label of the offending lattice point *)
  reason : string; (** what diverged, with both sides rendered *)
}

type verdict =
  | Pass of int       (** number of lattice points checked *)
  | Skip of string    (** front-end rejection or reference-oracle trap:
                          the program is outside the checkable domain *)
  | Fail of failure

val points : Pipeline.config -> (string * Pipeline.config) list
(** The labelled lattice, derived from a base config (normally
    [Pipeline.default_config]).  Exposed for the CLI's [--list-points]. *)

val attach_flags : Swiftgen.flag_style -> Ir.modul list -> Ir.modul list
(** Give each module an ["objc_gc"] flag in the requested style. *)

val check : ?verify_each:bool -> Swiftgen.program -> verdict
(** Compile, run the reference oracle, sweep the lattice (spec round trips
    and the transition differential included).  [verify_each] additionally
    runs the stage invariants after every pass application at every
    point ([sizeopt fuzz --verify-each], the CI smoke configuration). *)

val check_thin : Swiftgen.program -> verdict
(** The thin-WPO slice of {!check}: reference oracle, the three
    [thin/r3/wN] points, and the two thin differentials — nothing else.
    Cheap enough for the self-test's fault-injection loop, where the
    shrinker re-checks the program after every deletion attempt. *)

val check_gmerge : Swiftgen.program -> verdict
(** The global-merge slice: reference oracle, then round-0 [gmerge] points
    in per-module, whole-program and thin (workers 1 and 2) modes, with
    the thin pair required byte-identical.  This is what the self-test's
    dropped-rollback fault phase ({!Merge.fault_drop_rollback}) hunts and
    shrinks with: the fault manufactures fingerprint collisions and skips
    the serial confirmation round, so an unequal pair of functions gets
    merged and the oracle (or the validator) trips. *)

val check_serve : Swiftgen.program -> verdict
(** The serve slice: replay the program plus two single-module edits and a
    verbatim retry through one warm {!Serve.Server}, requiring every served
    image byte-identical to a from-scratch build of the same request and
    the retry to answer from the result cache with the previous bytes.
    This differential also rides on every {!check}; the standalone entry
    point is what the self-test's stale-cache fault phase
    ({!Serve.Server.fault_stale_cache_entry}) hunts and shrinks with. *)

val check_machine : Machine.Program.t -> verdict
(** Direct outliner stress for generated machine programs: the
    uninstrumented interpreter run is the oracle; {!Outcore.Repeat.run}
    at 1/3/5 rounds — with and without pre-canonicalization — must
    preserve it, keep {!Machine.Program.validate} happy, and shrink code
    size monotonically in the round count. *)
