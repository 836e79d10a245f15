(** One round of whole-unit machine outlining: discover repeated sequences
    with a suffix tree, score them with the cost model, pick greedily by
    immediate benefit (LLVM's heuristic, §II-C), and rewrite.

    One round, {!run_round}, serves two engines that produce
    byte-identical programs (enforced by the fuzz lattice differential).
    Without an {!engine} it rebuilds everything from scratch — the
    readable reference; with one it keeps an interner and a {!memo} of
    per-block symbols and per-function LR liveness across rounds,
    re-deriving only blocks and functions that are no longer physically
    the ones it saw (the build-time fix the paper's §VII calls for), and
    recycles its candidate store.  Only the suffix-tree pool ({!warm}) can
    outlive a build.

    A round allocates for what it outlines, not for what it considers:
    the suffix tree streams each repeat through one reused buffer
    ({!Sufftree.Suffix_tree.visit}) and builds no repeat or occurrence
    records; LR liveness is a one-bit-per-block dataflow
    ({!Machine.Liveness.lr_compute}), with per-point bits only for the
    blocks the rule probes; the judge writes each accepted repeat into
    flat int columns (length, shape, benefit, a slice of packed sites and
    a min-site key over {!site_ranks}); scoring sorts row indices; and
    selection claims packed sites, so only the winners become
    {!Candidate.t}s and functions.

    Everything else exists once and is shared by both engines, by
    {!enumerate} and by thin-WPO:
    - block reuse: one {!memo}, identity-checked, holding every block's
      legality row (prefix counts of illegal and call instructions) plus
      the serial engine's symbol arrays or thin-WPO's scanner rows, and
      every function's LR fixpoint (a fresh one for {!enumerate} and the
      scratch round);
    - the outlining rule: one private function decides, for any window
      of any block in O(1), from prefix counts of illegal, call and
      SP-relevant instructions, whether it may be outlined and with which
      {!Candidate.shape} — strategy (ret-ending, thunk or plain call),
      LR-frame bit and SP bit — and one decides each site's call kind
      from LR liveness (one bit per point, exact: gen/kill liveness is
      separable per register).  An illegal instruction (one that reads or writes
      LR other than as a call) rejects the window.  A call before the
      body's end needs an LR frame in the outlined function, which an
      SP-relevant body (a direct SP use, or a call to an outlined frame
      fragment, transitively) cannot have; a thunk's final call becomes
      its tail branch and is exempt from both checks.  A plain-call site
      where LR is live must spill it, which an SP-relevant body forbids;
    - the repeat judge: a suffix-tree repeat, streamed by either tree,
      takes the rule's shape at its first occurrence and a call kind per
      occurrence left after self-overlap pruning, for the rounds,
      {!enumerate} and thin-WPO's long patterns ({!iter_repeats});
    - site occupancy: one greedy slot-array rule over per-block slot
      arrays ({!make_occupancy});
    - the rewrite tail: one rewrite of a [block_id]-indexed plan table,
      grouped per function, used by the serial selector and
      {!apply_assignments}. *)

type options = {
  scope_name : string;
      (** infix for outlined function names; pass the module name when
          outlining per module so clones from different modules get
          distinct symbols, and [""] for whole-program outlining *)
  round : int;        (** round number, included in generated names *)
  min_length : int;   (** minimum pattern length in symbols (default 2) *)
  allow_save_lr : bool;  (** permit the LR-spilling call strategy *)
  allow_thunk : bool;    (** permit tail-call thunks for call-ending patterns *)
  allow_ret : bool;      (** permit outlining patterns that end with [ret] *)
}

val default_options : options

type round_stats = {
  sequences_outlined : int;  (** candidate occurrences replaced *)
  functions_created : int;
  outlined_bytes : int;      (** total size of the created functions *)
  bytes_saved : int;         (** net size reduction achieved this round *)
}

val no_stats : round_stats
(** All zeros: the stats of a round that outlines nothing. *)

val add_stats : round_stats -> round_stats -> round_stats
(** Field-wise sum. *)

type windows
(** A keyed window scanner over one program (thin-WPO's per-shard
    discovery).  Built in one pass over the blocks; every query after that
    is O(1). *)

type 'row memo
(** What one scan of a program may carry to the next scan of it or of its
    rewrite: per block its legality row (built on the rule's first
    question about the block) and a ['row] derived from its body and ret
    slot alone, per function its LR liveness.  A row is reused only while the block's
    body is physically the same array and its ret slot the same, liveness
    only while the function is physically the same [Mfunc.t] — what the
    rewrite ({!run_round}, {!apply_assignments}) keeps for
    everything it does not rewrite — so nothing is ever invalidated, and
    any program may be scanned next.  Rows are found by function, then
    label. *)

val create_memo : ?match_by_name:bool -> unit -> 'row memo
(** An empty memo.  [match_by_name] is fault injection for
    [sizeopt fuzz --self-test] only: reuse a row whenever the block's
    (function, label) matches, skipping the identity check. *)

type scan_row
(** {!windows}' row on top of the legality row: printed instructions and
    the prefix rolling hash. *)

type printer
(** Printed forms and content hashes by instruction: content-addressed,
    so any scans may share one, one at a time. *)

val create_printer : unit -> printer

val windows :
  ?options:options ->
  ?extern_sp_unsafe:(string -> bool) ->
  ?memo:scan_row memo ->
  ?printer:printer ->
  Machine.Program.t ->
  windows
(** Precompute, per block of [p], per-instruction content hashes, prefix
    rolling hashes and the outlining rule's prefix counts of illegal, call
    and SP-relevant instructions, and a lazy LR-liveness memo.
    [extern_sp_unsafe] extends the SP-unsafe-callee analysis to symbols
    defined outside [p] (outlined frame fragments hosted in other
    shards).  Block indices are the site [block_id]s {!enumerate} and
    {!run_round} use for the same program.  Rows and liveness still valid in
    [memo] are reused and new ones added to it; SP relevance depends on
    [extern_sp_unsafe] and is always recomputed.  The result is the same
    with any memo and printer (fresh ones by default). *)

val reuse : windows -> int * int
(** (blocks whose row came from the memo, blocks scanned). *)

type visit =
  block:int -> pos:int -> len:int -> key:int -> call:Candidate.site_call ->
  shape:Candidate.shape -> unit
(** What a scan reports of a window: its place, key, call kind and
    shape. *)

val iter_windows : windows -> lengths:int list -> visit -> unit
(** Visit every window of the given lengths (those [>= 2]) that
    {!window_candidate} would turn into a candidate, block by block, then
    by ascending length, then by position, without allocating, with its
    call kind and the rule's shape.  [key] is a
    63-bit hash of the window's printed content, strategy, LR-frame bit
    and length: two windows share it exactly when their candidates have
    equal content, strategy, LR-frame bit and length (up to hash
    collisions), in any program. *)

val iter_repeats :
  windows -> ?pool:Sufftree.Arena_tree.pool -> min_length:int -> visit -> unit
(** Visit, as {!iter_windows} reports windows, the sites of the repeats
    of at least [min_length] symbols that a suffix tree over the windows'
    blocks finds, judged on their rule: per repeat, in the tree's order,
    each occurrence left after self-overlap pruning that the rule does not
    drop, in text order; one left alone is still reported.  Blocks shorter
    than [min_length] are never interned; [pool] selects the arena tree,
    whose backing store a worker recycles across shards. *)

val window_bound : windows -> lengths:int list -> int
(** An upper bound on the windows {!iter_windows} visits for these
    (distinct) lengths, from the block lengths alone: O(blocks), with no
    window keyed. *)

val block_text : windows -> block:int -> string array
(** The block's printed body instructions (no ret), the scanner's own
    array: read a window's text as a slice of it, in place. *)

val window_candidate :
  windows -> block:int -> pos:int -> len:int -> Candidate.t option
(** The single-site candidate for one window, built straight from the
    rule, exactly as discovery builds it for that occurrence; [None] when
    the window is no candidate. *)

val window_site :
  windows ->
  block:int ->
  pos:int ->
  len:int ->
  Candidate.site_call ->
  Candidate.site
(** The site of a window {!iter_windows} reported with this call kind:
    the one site of its {!window_candidate}, built in O(1). *)

val make_occupancy :
  Machine.Program.t -> block:int -> pos:int -> len:int -> bool
(** The serial selector's greedy occupancy rule over lazily allocated
    per-block slot arrays, for windows as {!iter_windows} reports them
    ([len] counts a trailing [ret]; [block] is the index {!enumerate} and
    {!windows} use for the same program): a window is claimed, and [true],
    when none of its slots is taken yet.  For thin-WPO's ranked local site
    assignment (phase 2's parallel step), which claims a window before it
    builds its site. *)

type assignment = {
  asg_cand : Candidate.t;
  asg_name : string;        (** decision-table symbol, stable across workers *)
  asg_rank : int;           (** global priority order of the decision *)
  asg_host : string option;
      (** [Some m]: this shard emits the outlined body, [from_module = m] *)
}

val apply_assignments :
  Machine.Program.t ->
  assignment list ->
  Machine.Program.t * (int * Machine.Mfunc.t) list * round_stats
(** Thin-WPO phase 3: rewrite one shard against a globally decided,
    rank-ordered assignment list.  Sites lost to overlap with
    higher-ranked assignments are skipped (same greedy occupancy rule as
    the serial selector), profitability is {e not} re-checked — the global
    decision is optimistic and other shards already depend on it — and the
    host emits the outlined body unconditionally.  Returns the rewritten
    shard (nothing appended), the hosted functions tagged with their rank
    so the caller can append them in one deterministic global order, and
    the shard's stats ([bytes_saved] nets each hosted body against the
    shard's own site gains, so summing across shards is exact). *)

type warm
(** State that may outlive a build: the suffix-tree arena pool, scratch
    storage that holds nothing of any program, so it may be shared by any
    number of builds of any programs, one at a time, without affecting
    their output (the serve daemon keeps one per app). *)

val create_warm : unit -> warm

type engine
(** One build's incremental engine: an instruction interner, a {!memo}
    of interned symbol arrays and LR liveness, and the judge's candidate
    store, over a {!warm} pool. *)

val create_engine : ?warm:warm -> unit -> engine
(** A fresh engine, with a fresh interner and memo, over [warm] or a new
    pool. *)

val run_round :
  ?profile:Profile.t ->
  ?engine:engine ->
  options ->
  Machine.Program.t ->
  Machine.Program.t * round_stats
(** One round on [p].  Without [engine], from scratch: a fresh memo and
    interner and the list suffix tree.  With one, reusing its memo and
    pool: blocks and functions physically unchanged since an earlier round
    keep their symbols and liveness.  Any program may be fed to any round;
    the result is the same either way.  When [profile] is given, appends
    one {!Profile.round_profile} with the phase split (sequence table,
    tree build, enumeration, scoring, rewrite). *)

val enumerate : ?options:options -> Machine.Program.t -> Candidate.t list
(** The scratch round's discovery step on its own: every repeat that
    passes the judge, with at least two sites and a positive benefit, its
    sites self-overlap pruned, unsorted and not yet resolved against each
    other.  The statistics pass of §IV reads it.  The list's order follows
    interner numbering; sort for a stable one. *)

val site_ranks : Machine.Program.t -> int array
(** Per block of [p]'s sequence table (indexed by site [block_id]), its
    rank in (function name, block label) string order, equal names sharing
    a rank: selection breaks benefit ties on the smallest site by (rank,
    start), which orders sites exactly as (func, block, start) tuples. *)

val fault_stale_engine_rows : bool ref
(** Fault injection for [sizeopt fuzz --self-test]: engines created while
    it is set reuse a block's symbols whenever its (function, label)
    matches, skipping the identity check, so they outline from stale
    sequences.  The incremental-vs-scratch differential must catch the
    divergence. *)
