(** The two build pipelines of the paper, run through the unified pass
    manager ({!Passman}).

    - {b Default iOS pipeline} (Figure 2): every module is optimized and
      lowered to machine code independently; machine outlining, if enabled,
      runs per module — so outlined functions are cloned across modules and
      cross-module repeats are invisible.  The system linker then merges
      the per-module machine code.

    - {b New whole-program pipeline} (Figure 10): all modules' IR is merged
      by the llvm-link equivalent (with the metadata-flag semantics and
      data-ordering mode of §VI), optimized once, lowered once, and machine
      outlining sees the entire program.

    Both modes — and thin-WPO, the per-module shape on a domain pool — run
    the {e same} registered passes from one textual pipeline spec
    ([config.passes], grammar in {!Passman}).  A build is its spec: the
    passes, the outliner's rounds and the layout (its marker pass) are
    read off it; flags lower to one in {!config_of_flags}.  The config
    holds the inputs that are not passes (mode, link semantics, entry
    points, layout profile, diagnostics).  One shared pass context owns
    per-pass timings, size deltas, [--verify-each], [--print-after] and
    [--opt-bisect-limit] across the MIR and machine stages.  The
    per-module and thin modes share one per-unit build path: per-module is
    that path at one worker. *)

type mode =
  | Per_module
  | Whole_program
  | Thin_wpo of { workers : int }
      (** the sharded parallel whole-program pipeline (ThinLTO's shape
          applied to outlining): per-module MIR passes and codegen run on a
          fixed pool of [workers] domains ([<= 0] auto-detects), the units
          are merged, and the linked [thin-outline] pass re-shards the
          merged program for parallel candidate discovery, one serial
          summary-exchange decision round, and parallel rewrite.  Output is
          byte-identical for every [workers] value. *)

val mode_of_string : workers:int -> string -> (mode, string) Stdlib.result
(** [wp], [pm] or [thin] (with [workers]): the one mode-name table behind
    [sizeopt build --mode], [profile --mode] and the serve daemon's
    [mode:] field.  The error lists the valid names. *)

type layout_strategy =
  [ `Append | `Caller_affinity | `Order_file | `C3 | `Balanced
  | `Bp_compress of float | `Stitch ]
(** Where functions — outlined ones in particular — are placed:
    - [`Append]: program order, outlined functions appended at the end in
      one dense region (LLVM's behaviour, the default);
    - [`Caller_affinity]: next to their dominant {e static} caller — the
      measured negative result: outlined helpers are shared, so placing
      each next to one static caller scatters them and inflates iTLB
      misses, while the appended region stays a small hot page set
      ({!Outcore.Layout});
    - [`Order_file] / [`C3] / [`Balanced]: profile-guided placement from
      a {!Pgo.Profile.t} — startup first-touch order, C³-style call-chain
      clustering, and recursive-bisection balanced partitioning;
    - [`Bp_compress w]: balanced partitioning with a compression term of
      weight [w] in the objective ({!Pgo.Order.bp_compress}) — trades
      icache locality for estimated download size;
    - [`Stitch]: block-granularity placement ({!Blocklayout}) — cold
      basic blocks split into the linker's [__text_cold] region and hot
      chains stitched along the hottest interprocedural call edges.
    All but [`Stitch] are pure reordering, realized through
    [Linker.link ~order]; [`Stitch] also rewrites the program (block
    reordering with branch elision/materialization), preserving observable
    behavior. *)

val layout_strategy_name : layout_strategy -> string

val layout_strategy_of_string :
  string -> (layout_strategy, string) Stdlib.result
(** Parse a CLI/spec strategy name — [bp-compress] takes an optional
    weight, [bp-compress(w=0.3)].  The error message lists the valid
    strategies; this is the single place that list is maintained. *)

type config = {
  mode : mode;
  flag_semantics : Link.flag_semantics;
  data_order : Link.data_order;
  entry_points : string list;
      (** functions the merging passes must never turn into thunks
          (default [["main"]]) *)
  no_outline_modules : string list;
      (** modules standing in for system frameworks: their machine code is
          never harvested or rewritten (default [["system"]]) *)
  outlined_layout : layout_strategy;
      (** a mirror of the spec's layout marker, kept (with [mode] and
          [outline_engine]) because [perfbench/chain.ml] reads it; no code
          in [lib/] or [bin/] does.  Only {!config_of_passes},
          {!config_of_flags} and the defaults write it; the build reads
          {!layout_of_specs} of [passes]. *)
  layout_profile : Pgo.Profile.t option;
      (** the recorded profile driving a profile-guided layout marker
          ([sizeopt build --profile-in]).  [None] with a profile-guided
          strategy self-profiles: the pipeline traces a [main] run of the
          built program and feeds that profile straight back into layout. *)
  outline_engine : [ `Incremental | `Scratch ];
      (** which outliner engine drives the [outline] pass: the default
          incremental engine (per-block symbols reused across rounds while
          a block is physically unchanged) or the
          from-scratch reference.  Both produce byte-identical programs —
          the fuzz lattice checks exactly that. *)
  passes : Passman.spec list;
      (** the pass pipeline, the only description of what the build runs:
          from {!config_of_flags} or {!config_of_passes} *)
  verify_each : bool;
      (** run the stage invariants ({!Ir.validate} /
          [Machine.Program.validate]) after every pass application — and
          after every outline round — instead of only once at the end *)
  print_after : Passman.print_after;
      (** dump the IR (via the stage printers) after the named passes *)
  bisect_limit : int option;
      (** LLVM-style opt-bisect: stop applying passes — and individual
          outline rounds — after this many steps; see {!result.pass_steps}
          and {!Passman.bisect}.  The layout a marker names is applied
          whatever the limit, like the link itself. *)
  warm_outline : Outcore.Outliner.warm option;
      (** outliner state that holds nothing of any program (the suffix-tree
          arena pool) surviving across builds (the serve daemon).  Only consulted by
          whole-program [outline] runs (scope [""]) with
          [outline_engine = `Incremental]; per-module and thin modes ignore
          it.  Images do not depend on it; [None] (the default) keeps every
          build self-contained. *)
}

val default_config : config
(** Whole-program, attribute flag semantics, module-preserving data
    order; runs [dce,outline(rounds=5)]. *)

val default_ios_config : config
(** Per-module with per-module outlining (Swift 5.2's [-Osize] behaviour,
    §VII-A's baseline): the same spec as {!default_config}. *)

val config_of_flags :
  ?base:config -> ?rounds:int -> ?layout:layout_strategy -> mode -> config
(** [base] (default {!default_config}) in [mode], with the spec the flags
    lower to: [dce], then, when [rounds > 0] (default 5), the mode's
    outliner ([outline(rounds=N)], or [thin-outline(workers=W,rounds=N)]
    in thin mode), then [layout]'s marker pass ([`Append], the default,
    has none), even at zero rounds.  Every caller without a spec goes
    through here, so thin mode gets [thin-outline]. *)

val spec_of_config : config -> Passman.spec list
(** [config.passes], for [perfbench/chain.ml]. *)

val layout_of_specs : Passman.spec list -> (layout_strategy, string) Stdlib.result
(** The layout a spec's marker pass names ([`Append] without one).  Errors
    on a [pgo-layout] whose strategy is unknown or not profile-guided, or
    whose [w] is not in [0..1]. *)

val rounds_of_specs : Passman.spec list -> int
(** The spec's outliner's [rounds] (default 5); 0 without an outliner.
    Raises [Failure] when it is not an integer. *)

val config_of_passes : ?base:config -> string -> (config, string) result
(** Parse and validate a pipeline string ([--passes "dce,outline(rounds=5)"])
    and make it [base]'s spec, with [base]'s layout marker appended when it
    has none.  Errors, prefixed [bad pass pipeline:], on unknown pass names
    or parameters, malformed syntax, the pipelines
    {!Passman.validate_specs} refuses (an outliner twice, more than one
    layout marker), an outliner [rounds] that is not an integer, and the
    markers {!layout_of_specs} refuses. *)

type result = {
  program : Machine.Program.t;
  layout : Linker.layout;
  binary_size : int;
  code_size : int;
  function_order : string list option;
      (** the explicit placement the layout was linked with (profile-guided
          strategies only); pass it to [Perfsim.Interp.run ~order] so
          measurement sees the same addresses the linker produced *)
  timing_tree : Passman.timing list;
      (** the build's one timing record, built by the pass context as the
          build runs ({!Passman.span}).  The roots are the coarse phases in
          order — [front-end] ({!build_sources} only), then [llvm-link],
          [opt], [llc], [machine-outliner] (whole-program) or
          [compile-modules-local] / a cross-unit pass / [compile-modules],
          [system-linker-merge] and — when the spec has linked machine
          passes — [linked-passes] (per-module and thin), then the layout
          phases and [system-linker].  Below them: per-pass step leaves
          with size-delta notes, outline rounds under their pass, and each
          round's phase split or thin shard report.  The CLI's phase list
          and the serve daemon's [phase] lines are the roots; [sizeopt
          build --profile] renders the whole tree. *)
  pass_steps : Passman.step list;
      (** every pass application (and outline round) in order, with bisect
          skips marked; a {!Passman.bisect} result names the step whose
          [st_gate] it is *)
  outline_stats : Outcore.Outliner.round_stats list;
}

val build :
  ?dump:(string -> string -> unit) ->
  ?config:config ->
  Ir.modul list ->
  (result, string) Stdlib.result
(** Run the configured pipeline over already-compiled modules.  [dump]
    receives [print_after] output (default: stderr with an LLVM-style
    banner). *)

val build_sources :
  ?dump:(string -> string -> unit) ->
  ?config:config ->
  (string * string) list ->
  (result, string) Stdlib.result
(** Front-end included: (module name, Swiftlet source) pairs.  The same
    build body as {!build}, with the Swiftlet front end timed as the
    [front-end] root of [timing_tree]. *)

val build_reference :
  ?config:config -> Ir.modul list -> (result, string) Stdlib.result
(** The pre-refactor hardcoded sequencing, kept so the fuzz lattice can
    assert the pass manager is observationally exact (default-config
    builds must be byte-identical through both paths).  Which of [dce],
    [sil-outline], [merge-functions], [fmsa] and [canonicalize] run, the
    outliner's rounds and the layout are read off [config.passes]; ignores
    [verify_each], [print_after] and [bisect_limit]; returns empty
    [timing_tree]/[pass_steps]. *)
