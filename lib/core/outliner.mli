(** One round of whole-unit machine outlining: discover repeated sequences
    with a suffix tree, score them with the cost model, pick greedily by
    immediate benefit (LLVM's heuristic, §II-C), and rewrite.

    Two engines produce byte-identical programs (enforced by the fuzz
    lattice differential): {!run_round} rebuilds everything from scratch
    every round — the readable reference — while {!run_round_incremental}
    keeps an interner and a {!memo} of per-block symbol arrays and
    per-function liveness alive across rounds, re-deriving only blocks and
    functions that are no longer physically the ones it saw (the
    build-time fix the paper's §VII calls for).  Only the suffix-tree pool
    ({!warm}) can outlive a build.  Which engine runs, and how rounds are
    numbered, is {!Repeat}'s choice: it is the only caller of the two round
    functions.

    Everything else exists once and is shared by both engines, by
    {!enumerate} and by thin-WPO:
    - block reuse: one {!memo}, identity-checked, holding the serial
      engine's symbol arrays and thin-WPO's scanner rows alike (a fresh
      one for {!enumerate} and {!run_round});
    - discovery: one private function turns repeats into candidates (the
      SP-unsafe-callee analysis, the per-point LR-liveness memo and the
      legality/strategy checks);
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

val enumerate :
  ?min_length:int ->
  ?options:options ->
  ?all:bool ->
  ?extern_sp_unsafe:(string -> bool) ->
  ?pool:Sufftree.Arena_tree.pool ->
  Machine.Program.t ->
  Candidate.t list
(** All legal candidates with their sites and strategies, self-overlaps
    pruned, unsorted, not yet filtered for profitability.  Shared with the
    statistics pass of §IV and with thin-WPO's per-shard discovery:
    [all] keeps candidates whose {e local} counts fall below the site or
    profitability bars (thin-WPO filters on globally summed counts
    instead), [extern_sp_unsafe] extends the SP-unsafe-callee analysis to
    symbols defined outside [p] (outlined frame fragments hosted in other
    shards), and [pool] switches the suffix tree to the arena
    implementation so a worker can recycle its backing store across the
    shards it processes. *)

type windows
(** A keyed window scanner over one program (thin-WPO's per-shard
    discovery).  Built in one pass over the blocks; every query after that
    is O(1). *)

type 'row memo
(** What one scan of a program may carry to the next scan of it or of its
    rewrite: per block a ['row] derived from its body and ret slot alone,
    per function its liveness.  A row is reused only while the block's
    body is physically the same array and its ret slot the same, liveness
    only while the function is physically the same [Mfunc.t] — what the
    rewrite ({!run_round_incremental}, {!apply_assignments}) keeps for
    everything it does not rewrite — so nothing is ever invalidated, and
    any program may be scanned next.  Rows are found by function, then
    label. *)

val create_memo : ?match_by_name:bool -> unit -> 'row memo
(** An empty memo.  [match_by_name] is fault injection for
    [sizeopt fuzz --self-test] only: reuse a row whenever the block's
    (function, label) matches, skipping the identity check. *)

type scan_row
(** {!windows}' row: printed instructions, prefix rolling hash, prefix
    counts of illegal and call instructions. *)

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
    rolling hashes, prefix counts of illegal, call and SP-relevant
    instructions ([extern_sp_unsafe] as in {!enumerate}), and a lazy
    LR-liveness memo.  Block indices are the site [block_id]s {!enumerate}
    reports for the same program.  Rows and liveness still valid in
    [memo] are reused and new ones added to it; SP relevance depends on
    [extern_sp_unsafe] and is always recomputed.  The result is the same
    with any memo and printer (fresh ones by default). *)

val reuse : windows -> int * int
(** (blocks whose row came from the memo, blocks scanned). *)

val iter_windows :
  windows ->
  lengths:int list ->
  (block:int ->
  pos:int ->
  len:int ->
  key:int ->
  call:Candidate.site_call ->
  strategy:Candidate.strategy ->
  needs_lr_frame:bool ->
  touches_sp:bool ->
  unit) ->
  unit
(** Visit every window of the given lengths (those [>= 2]) that
    {!window_candidate} would turn into a candidate, block by block, then
    by ascending length, then by position, without allocating.  [key] is a
    63-bit hash of the window's printed content, strategy, LR-frame bit
    and length: two windows share it exactly when their candidates have
    equal content, strategy, LR-frame bit and length (up to hash
    collisions), in any program. *)

val window_bound : windows -> lengths:int list -> int
(** An upper bound on the windows {!iter_windows} visits for these
    (distinct) lengths, from the block lengths alone: O(blocks), with no
    window keyed. *)

val window_key : windows -> block:int -> pos:int -> len:int -> int
(** The key {!iter_windows} reports for a window; [len] counts a trailing
    [ret].  Meaningful for legal candidate windows, such as the sites of
    candidates {!enumerate} finds in the same program. *)

val window_text : windows -> block:int -> pos:int -> len:int -> string list
(** The printed instructions of the window's body (any trailing [ret]
    excluded), from the scanner's rendering cache. *)

val window_candidate :
  windows -> block:int -> pos:int -> len:int -> Candidate.t option
(** The single-site candidate for one window, exactly as discovery builds
    it for that occurrence; [None] when the window is no candidate. *)

val window_site :
  windows ->
  block:int ->
  pos:int ->
  len:int ->
  Candidate.site_call ->
  Candidate.site
(** The site of a window {!iter_windows} reported with this call kind:
    the one site of its {!window_candidate}, built in O(1). *)

val sp_unsafe_callees :
  ?extern:(string -> bool) -> Machine.Program.t -> string -> bool
(** Which function symbols a call must treat as SP-modifying: outlined
    frame fragments (bodies with unbalanced SP effects), transitively
    through calls, seeded with the [extern] facts for callees not defined
    in [p]. *)

val make_occupancy :
  Machine.Program.t ->
  (Candidate.site -> bool) * (Candidate.site -> unit)
(** [(site_free, site_take)]: the serial selector's greedy occupancy rule
    over lazily allocated per-block slot arrays, found by the site's
    [block_id] (the block index {!enumerate} and {!windows} use for the
    same program).  For thin-WPO's ranked local site assignment (phase 2's
    parallel step) and {!apply_assignments}. *)

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

val run_round :
  ?profile:Profile.t ->
  options ->
  Machine.Program.t ->
  Machine.Program.t * round_stats
(** From-scratch engine.  When [profile] is given, appends one
    {!Profile.round_profile} with the phase split. *)

type warm
(** State that may outlive a build: the suffix-tree arena pool, scratch
    storage that holds nothing of any program, so it may be shared by any
    number of builds of any programs, one at a time, without affecting
    their output (the serve daemon keeps one per app). *)

val create_warm : unit -> warm

type engine
(** One build's incremental engine: an instruction interner and a {!memo}
    of interned symbol arrays and liveness, over a {!warm} pool. *)

val create_engine : ?warm:warm -> unit -> engine
(** A fresh engine, with a fresh interner and memo, over [warm] or a new
    pool. *)

val run_round_incremental :
  ?profile:Profile.t ->
  engine ->
  options ->
  Machine.Program.t ->
  Machine.Program.t * round_stats
(** Like {!run_round} but reusing [engine]'s memo: blocks and functions
    physically unchanged since an earlier round keep their symbols and
    liveness.  Any program may be fed to any round; the result equals
    {!run_round}'s on it. *)

val fault_stale_engine_rows : bool ref
(** Fault injection for [sizeopt fuzz --self-test]: engines created while
    it is set reuse a block's symbols whenever its (function, label)
    matches, skipping the identity check, so they outline from stale
    sequences.  The incremental-vs-scratch differential must catch the
    divergence. *)
