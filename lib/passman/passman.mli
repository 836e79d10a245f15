(** The unified pass manager.

    LLVM's pipeline gives every transformation a name, a parameter list,
    per-pass timing, [-verify-each], [-print-after], a textual pipeline
    spec, and [-opt-bisect-limit] for free.  This module is that framework
    for our two IR stages (MIR modules and machine programs): a uniform
    pass signature, a shared context that owns bisect gating, per-pass
    timings, size deltas and diagnostics, and a textual pipeline-spec
    grammar

    {v pipeline := pass ("," pass)*
   pass     := name | name "(" param ("," param)* ")"
   param    := key "=" value v}

    e.g. ["dce,sil-outline(min=8),merge-functions,outline(rounds=5)"].

    A pass runs in one of three ways: as one gated step over one unit
    ({!run_passes}); self-gated, one step per internal round (the two
    outliners); or, for a cross-unit pass such as [global-merge], as one
    gated step over every unit at once ({!run_across}).  The per-unit
    phases of [Pipeline.build] run each unit in a forked context with a
    reserved block of step numbers ({!fork}, {!join}), so step numbering
    is a function of the pipeline and the module list alone.  The spec is
    the only pipeline description; the concrete registries live at the
    bottom of this module. *)

(* --- pipeline specs -------------------------------------------------------- *)

type spec = {
  sp_name : string;                       (** pass name, e.g. ["outline"] *)
  sp_params : (string * string) list;     (** ordered [key=value] pairs *)
}

val parse : string -> (spec list, string) result
(** Parse a pipeline string.  Pass names are [[a-z0-9-]+]; parameters are
    [key=value] with non-empty alphanumeric keys.  Whitespace around
    separators is tolerated; [print] emits the canonical form. *)

val print : spec list -> string
(** Canonical rendering; [parse (print s) = Ok s] for any well-formed [s]. *)

val int_param : spec -> string -> default:int -> int
(** Look up an integer parameter; raises [Failure] (caught by
    [Pipeline.build]'s error wrapper) when the value is not an integer. *)

(* --- the pass context ------------------------------------------------------ *)

type print_after = [ `Never | `All | `Passes of string list ]

type step = {
  st_pass : string;    (** registered pass name *)
  st_detail : string;  (** sub-step, e.g. ["round 3"] of the outliner; [""] *)
  st_unit : string;    (** compilation unit ([""] = whole program) *)
  st_gate : int;
      (** the step's bisect number: it ran iff no limit was set or
          [st_gate <= limit].  Under reservations this can exceed the
          step's position in {!steps}. *)
  st_applied : bool;   (** false: skipped by the bisect limit *)
  st_seconds : float;
  st_before : int;     (** stage size metric before the step *)
  st_after : int;      (** … and after (instrs for MIR, bytes for machine) *)
}

type timing = {
  t_name : string;
  t_seconds : float;
  t_note : string;             (** e.g. a size delta; [""] for none *)
  t_children : timing list;
}
(** One node of a build's timing tree: a phase ({!span}), a pass step, an
    outline round, or a round's own phase split or shard. *)

val render_tree : timing list -> string
(** Indented table: name, seconds, note. *)

type ctx
(** One per pipeline run, shared by every stage so the bisect counter, the
    step log and the timing tree span MIR and machine passes.  Bisect
    numbers start at 1; steps numbered beyond the limit are skipped (LLVM's
    [-opt-bisect-limit] contract; no limit means run everything). *)

val create_ctx :
  ?verify_each:bool ->
  ?print_after:print_after ->
  ?bisect_limit:int ->
  ?dump:(string -> string -> unit) ->
  unit ->
  ctx
(** [dump label text] receives [--print-after] output; the default prints
    an LLVM-style ["*** IR Dump After <label> ***"] banner to stderr. *)

val steps : ctx -> step list
(** Chronological. *)

val span : ctx -> string -> (unit -> 'a) -> 'a
(** [span ctx name f] runs [f] as one timing node [name] with its wall
    time; the nodes recorded meanwhile become its children.  Spans nest.
    Every bisect step adds its own node to the open span: a leaf
    ["<unit>/<pass>"] whose note is the size delta (["skipped
    (opt-bisect)"] when the limit cut it), or for the outliners one
    ["round K"] node per round under an ["<unit>/<pass>"] node, holding
    the round's phase split ([outline]: seq-build, tree-build, enumerate,
    score, rewrite) or its ["shard <module>"] leaves and
    ["global-decision"] ([thin-outline]). *)

val timing_tree : ctx -> timing list
(** The finished top-level nodes, in order. *)

(* --- sharded contexts (the per-unit phase of the per-module modes) ---------- *)

val reserved_steps : spec list -> int
(** How many bisect steps one unit running [specs] may consume: 1 per pass,
    except the self-gated outliners, which reserve their [rounds] (clamped
    at 0, as the passes run no round for [rounds <= 0]; they may stop
    early, leaving step numbers unused — harmless, and the price of a
    numbering that is a function of the pipeline alone). *)

val fork : ctx -> offset:int -> ctx
(** A shard context for one unit of a parallel phase: same configuration,
    private step log, bisect counter pre-advanced [offset] steps past the
    parent's, print-after dumps buffered for deterministic replay, and a
    timing tree of its own.  Shards of one phase must receive disjoint
    reservations ([offset = i * reserved_steps unit_specs] for the i-th
    unit). *)

val join : ctx -> advance:int -> ctx list -> unit
(** Merge forked shard contexts back in list order (append their steps
    and timing nodes to the open span, replay their dumps through the
    parent's sink) and advance the parent's bisect counter by [advance] —
    the phase's whole reservation, however many steps the shards actually
    used. *)

(* --- stages and passes ----------------------------------------------------- *)

type 'ir stage = {
  stage_name : string;                       (** ["mir"] or ["machine"] *)
  stage_verify : 'ir -> (unit, string) result;
  stage_print : 'ir -> string;
  stage_size : 'ir -> int;
}

type 'ir pass = {
  p_name : string;
  p_params : string list;  (** accepted parameter keys; others are errors *)
  p_self_gated : bool;
      (** the pass takes its own bisect steps, one per internal round (the
          outliners); the manager then neither gates nor records it as a
          single step *)
  p_linked : bool;
      (** machine pass that needs the merged program: in the per-module
          pipeline it runs after the system-linker merge, not per unit *)
  p_run : ctx -> spec -> 'ir -> 'ir;
  p_across : (workers:int -> spec -> 'ir list -> 'ir list) option;
      (** a cross-unit pass: its decision spans compilation units, so the
          per-unit modes run it once over every unit ({!run_across}) on up
          to [workers] domains; [p_run] is its single-unit form *)
}

val find_pass : 'ir pass list -> string -> 'ir pass option

val validate_specs :
  known:(string -> string list option) -> spec list -> (unit, string) result
(** [known name] returns the accepted parameter keys of a registered pass,
    or [None] for an unknown name.  Checks every spec's name and parameter
    keys, then rejects the pipelines no build can honour: the same
    outliner ([outline] or [thin-outline]) twice — both runs would name
    their functions from the same round numbers — and more than one
    layout marker ([caller-affinity-layout], [pgo-layout], [stitch]),
    which are alternatives for the final placement. *)

val run_passes :
  ctx -> 'ir stage -> 'ir pass list -> ?unit_name:string -> spec list -> 'ir -> 'ir
(** Run the named passes in order through the shared context: bisect-gate
    each (non-self-gated) application, time it, record the size delta,
    then — per the context — verify the stage invariants and dump the IR.
    Raises [Failure] on an unknown pass/parameter or a [--verify-each]
    violation (naming the offending pass). *)

val run_across :
  ctx ->
  'ir stage ->
  'ir pass list ->
  workers:int ->
  spec ->
  (string * 'ir) list ->
  (string * 'ir) list
(** Run one cross-unit pass over named units as a single step: one bisect
    gate, one step with unit [""] whose size is summed over the units,
    then verify-each and print-after for each unit under the label
    ["<unit>/<pass>"].  Raises [Failure] when the pass has no [p_across]
    form. *)

(* --- opt-bisect ------------------------------------------------------------ *)

val bisect : hi:int -> fails:(int -> bool) -> int option
(** Smallest [n] in [1..hi] with [fails n], by binary search, assuming
    monotonicity ([fails] true stays true as [n] grows); [None] when even
    [fails hi] is false.  [fails n] typically rebuilds with
    [bisect_limit = n] and compares against a reference, so the returned
    [n] indexes the first faulty step in {!steps}. *)

(* --- the concrete registries ----------------------------------------------- *)

val mir_stage : Ir.modul stage
val machine_stage : Machine.Program.t stage

val mir_passes : keep:(Ir.func -> bool) -> Ir.modul pass list
(** [dce], [sil-outline(min=N)] (helper threshold, default 8),
    [merge-functions], [fmsa] and the cross-unit
    [global-merge(min=N,max-holes=N)].  [keep] exempts entry points from
    being thunked by the merging passes. *)

type machine_env = {
  me_engine : [ `Incremental | `Scratch ];
  me_scope : string;  (** outlined-symbol scope: module name or [""] *)
  me_profile : Outcore.Profile.t;
      (** receives the phase split of every [outline] round; each round
          also copies its record into the timing tree *)
  me_on_stats : Outcore.Outliner.round_stats list -> unit;
  me_thin_workers : int;
      (** default worker count for [thin-outline] when the spec does not
          say ([workers=N] wins); [<= 0] auto-detects *)
  me_thin_report : Thinwpo.Engine.Report.t;
      (** receives the per-shard/per-round wall-time split of every
          [thin-outline] round; each round also copies its record into the
          timing tree *)
  me_warm : Outcore.Outliner.warm option;
      (** outliner state that holds nothing of any program (the suffix-tree
          arena pool) owned by a caller that outlives one build (the serve daemon).  The
          [outline] pass hands it to {!Outcore.Repeat.round}, whose fresh
          per-build incremental engine sits over it under [`Incremental].
          [None] everywhere else. *)
}

val machine_passes : machine_env -> Machine.Program.t pass list
(** [canonicalize], [outline(rounds=N)] (self-gated: every round is one
    bisect step, recorded as ["round K"] details; the round itself, engine
    choice and round numbering included, is {!Outcore.Repeat.round}, the
    function [Outcore.Repeat.run] loops over), the linked self-gated
    [thin-outline(workers=N,rounds=N,min=N)] (sharded parallel
    whole-program outlining; each three-phase round is one bisect step),
    the linked [caller-affinity-layout], and the linked layout markers
    [pgo-layout(strategy=S,w=W)] and [stitch]. *)

val registered_names : string list
(** Every pass name in both registries, for completeness checks. *)
