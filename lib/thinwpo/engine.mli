(** The thin-WPO round engine: shard the merged program by originating
    module, key every instruction window of every shard in parallel
    (phase 1), take the global decision over the exchanged summaries —
    serial joins and ranking around two parallel steps, the ranking hashes
    and the ranked site assignment (phase 2) — and rewrite every shard in
    parallel against the decision table (phase 3).  Every window is keyed
    once per round, and only blocks the previous round rewrote are
    rescanned; one candidate is built per pattern a shard retains, after
    its sites survive the ranked site assignment.

    Determinism contract: the output program is a function of the input
    program and the options alone — {e never} of [workers] or domain
    scheduling.  Shards are formed in first-appearance order, workers write
    results into index-addressed slots, the decision table is ranked by
    (benefit, hash), outlined symbols are named from (round, rank), and
    hosted bodies are appended in rank order.  The fuzz lattice holds a
    byte-identity differential between [workers = 1] and [workers = 4]
    over exactly this contract. *)

type state
(** One build's state, created by the [thin-outline] pass and dropped with
    it: the facts table (thin-outlined symbols that are not SP-neutral
    callees, shared by every later round because a body may be hosted
    anywhere); per module an {!Outcore.Outliner.memo} of scanner rows and
    the last round's scan arrays, so a shard rescans only the blocks the
    previous round rewrote; per worker an arena pool and an instruction printer.
    None of it changes an output — a row is reused only for a physically
    unchanged block — so the determinism contract above holds unchanged,
    and a round gives the same summaries and program as from
    {!fresh_scans}.  A parallel shard task touches only its own module's
    entry. *)

val create_state : unit -> state

val fresh_scans : state -> state
(** The same facts table (shared, not copied), nothing else: the
    cold-scan reference for tests. *)

val fault_stale_shard_state : bool ref
(** Fault injection for [sizeopt fuzz --self-test]: memos created while
    it is set reuse a block's row by (function, label) alone, so shards
    key rewritten blocks from stale rows.  The thin-WPO lattice must
    catch it. *)

module Report : sig
  (** Per-round wall-time split: one entry per shard (discovery, refine
      and rewrite seconds) plus the serial global decision round.  The
      pass manager's [thin-outline] pass copies each round into the
      build's timing tree ([--profile], [bench thinwpo]). *)

  type shard = {
    rs_module : string;
    rs_funcs : int;
    rs_blocks : int;    (** blocks the shard's scanner covered *)
    rs_reused : int;    (** of those, rows carried from the last round *)
    rs_discover : float;
        (** phase 1 window keying, the ranking hashes the decision round
            asks of this shard, and the refine pass *)
    rs_refine : float;  (** the ranked site assignment alone *)
    rs_rewrite : float;
  }

  type round = {
    rr_round : int;
    rr_shards : shard list;      (** shard order *)
    rr_decide : float;
    rr_selected : int;           (** decision-table entries *)
  }

  type t

  val create : unit -> t
  val rounds : t -> round list   (** chronological *)
end

val summarize :
  state:state ->
  options:Outcore.Outliner.options ->
  modul:string ->
  Machine.Program.t ->
  Summary.t
(** Phase 1 for one shard program through [state]'s memo for [modul]: the
    summary it sends to the decision round ([ps_rep] indexes
    {!Outcore.Outliner.windows} of the same program).  Exposed for
    tests. *)

val retained :
  ?per_window:bool ->
  workers:int ->
  options:Outcore.Outliner.options ->
  Machine.Program.t ->
  (int, Outcore.Candidate.t) Hashtbl.t array
(** Phases 1 and 2 of one round from a fresh state: each shard's retained
    candidates by key, as phase 3 gets them.  [per_window] takes each
    window's site from its {!Outcore.Outliner.window_candidate} instead
    of the scanner — the reference the packed claim must match.  Exposed
    for tests. *)

val run_round :
  ?report:Report.t ->
  workers:int ->
  state:state ->
  options:Outcore.Outliner.options ->
  Machine.Program.t ->
  Machine.Program.t * Outcore.Outliner.round_stats
(** One three-phase round on [workers] domains ([options.round] names the
    round; [options.scope_name] is ignored — thin symbols are named from
    the decision table).  Newly selected sp-unsafe symbols are added to
    [state]'s facts, and its memos keep this round's scanner rows for the
    next.  When no global site is rewritten the input program is
    returned unchanged (mirroring the serial outliner's early stop), and
    [sequences_outlined = 0] tells the driver to stop iterating. *)
