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
    ({!spec_of_config}, grammar in {!Passman}).  The spec is the only
    description of which passes run; the config holds the inputs that are
    not passes (mode, link semantics, entry points, layout, diagnostics).
    One shared pass context owns per-pass timings, size deltas,
    [--verify-each], [--print-after] and [--opt-bisect-limit] across the
    MIR and machine stages.  The per-module and thin modes share one
    per-unit build path: per-module is that path at one worker. *)

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
      measured negative result (see {!config.outlined_layout});
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
  outline_rounds : int;
      (** the rounds of the mode's outliner in the lowered spec (0 disables
          machine outlining); derived from the spec by {!config_of_passes} *)
  flag_semantics : Link.flag_semantics;
  data_order : Link.data_order;
  entry_points : string list;
      (** functions the merging passes must never turn into thunks
          (default [["main"]]) *)
  no_outline_modules : string list;
      (** modules standing in for system frameworks: their machine code is
          never harvested or rewritten (default [["system"]]) *)
  outlined_layout : layout_strategy;
      (** where outlined functions live.  Caller-affinity — the paper's
          future-work item (3) done statically — produced a negative result
          worth keeping: outlined helpers are *shared*, so placement next to
          one static caller scatters them across the image and inflates iTLB
          misses by orders of magnitude, while the dense appended region
          acts as a small hot page set.  The profile-guided strategies are
          the related-work fix (Hoag et al., Lavaee et al.): dynamic traces
          from {!Perfsim} decide placement.  See the [ablate] and
          [layout_bench] benches.  {!config_of_passes} derives it from the
          spec's layout marker pass. *)
  layout_profile : Pgo.Profile.t option;
      (** the recorded profile driving a profile-guided [outlined_layout]
          ([sizeopt build --profile-in]).  [None] with a profile-guided
          strategy self-profiles: the pipeline traces a [main] run of the
          built program and feeds that profile straight back into layout. *)
  outline_engine : [ `Incremental | `Scratch ];
      (** which outliner engine drives the [outline] pass: the default
          incremental engine (dirty-block caches across rounds) or the
          from-scratch reference.  Both produce byte-identical programs —
          the fuzz lattice checks exactly that. *)
  passes : Passman.spec list option;
      (** the pass pipeline ([sizeopt build --passes]); [None] runs the
          lowered default ({!spec_of_config}).  Use {!config_of_passes} to
          parse a spec string and keep [outline_rounds] and
          [outlined_layout] consistent with it. *)
  verify_each : bool;
      (** run the stage invariants ({!Ir.validate} /
          [Machine.Program.validate]) after every pass application — and
          after every outline round — instead of only once at the end *)
  print_after : Passman.print_after;
      (** dump the IR (via the stage printers) after the named passes *)
  bisect_limit : int option;
      (** LLVM-style opt-bisect: stop applying passes — and individual
          outline rounds — after this many steps; see {!result.pass_steps}
          and {!Passman.bisect} *)
  warm_outline : Outcore.Outliner.warm option;
      (** content-addressed outliner state (interner and arena pool)
          surviving across builds (the serve daemon).  Only consulted by
          whole-program [outline] runs (scope [""]) with
          [outline_engine = `Incremental]; per-module and thin modes ignore
          it.  Images do not depend on it; [None] (the default) keeps every
          build self-contained. *)
}

val default_config : config
(** Whole-program, 5 rounds, attribute flag semantics, module-preserving
    data order, appended layout; runs [dce,outline(rounds=5)]. *)

val default_ios_config : config
(** Per-module with per-module outlining (Swift 5.2's [-Osize] behaviour,
    §VII-A's baseline). *)

val spec_of_config : config -> Passman.spec list
(** The pipeline spec the manager will run: [config.passes] when set,
    otherwise what [sizeopt build] expresses without [--passes]: [dce],
    then — when [outline_rounds > 0] — the mode's outliner
    ([outline(rounds=N)], or [thin-outline(workers=W,rounds=N)] in thin
    mode) and the marker pass of [outlined_layout]
    ([caller-affinity-layout], [pgo-layout(...)] or [stitch]). *)

val config_of_passes : ?base:config -> string -> (config, string) result
(** Parse and validate a pipeline string ([--passes "dce,outline(rounds=5)"])
    and pin it in [passes]; [outline_rounds] (a missing outliner means 0)
    and [outlined_layout] are derived from it, every other axis keeps
    [base]'s value.  A spec without a layout marker keeps [base]'s layout
    and gets its marker appended, so {!spec_of_config} names the layout
    that runs.  Errors on unknown pass names, unknown parameters,
    malformed syntax, the pipelines {!Passman.validate_specs} refuses (an
    outliner twice, more than one layout marker), and a [pgo-layout]
    strategy that {!layout_strategy_of_string} rejects or that is not
    profile-guided. *)

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
    [sil-outline], [merge-functions], [fmsa] and [canonicalize] run is
    read off {!spec_of_config}; ignores [verify_each], [print_after] and
    [bisect_limit]; returns empty [timing_tree]/[pass_steps]. *)
