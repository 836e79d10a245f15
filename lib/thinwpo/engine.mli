(** The thin-WPO round engine: shard the merged program by originating
    module, key every instruction window of every shard in parallel
    (phase 1), take the global decision over the exchanged summaries —
    serial joins and ranking around two parallel steps, the ranking hashes
    and the ranked site assignment (phase 2) — and rewrite every shard in
    parallel against the decision table (phase 3).  A candidate is built
    only for a window whose pattern the provisional decision ranked.

    Determinism contract: the output program is a function of the input
    program and the options alone — {e never} of [workers] or domain
    scheduling.  Shards are formed in first-appearance order, workers write
    results into index-addressed slots, the decision table is ranked by
    (benefit, hash), outlined symbols are named from (round, rank), and
    hosted bodies are appended in rank order.  The fuzz lattice holds a
    byte-identity differential between [workers = 1] and [workers = 4]
    over exactly this contract. *)

type facts
(** The cross-round global facts table: thin-outlined symbols whose bodies
    are not SP-neutral callees.  Shared by every shard of every later
    round, because the callee's body may be hosted anywhere. *)

val create_facts : unit -> facts
val fact_sp_unsafe : facts -> string -> bool

module Report : sig
  (** Per-round wall-time split: one entry per shard (discovery, refine
      and rewrite seconds) plus the serial global decision round.  The
      pass manager's [thin-outline] pass copies each round into the
      build's timing tree ([--profile], [bench thinwpo]). *)

  type shard = {
    rs_module : string;
    rs_funcs : int;
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
  facts:facts ->
  options:Outcore.Outliner.options ->
  modul:string ->
  Machine.Program.t ->
  Summary.t
(** Phase 1 for one shard program: the summary it sends to the decision
    round ([ps_rep] indexes {!Outcore.Outliner.windows} of the same
    program).  Exposed for tests. *)

val run_round :
  ?report:Report.t ->
  workers:int ->
  facts:facts ->
  options:Outcore.Outliner.options ->
  Machine.Program.t ->
  Machine.Program.t * Outcore.Outliner.round_stats
(** One three-phase round on [workers] domains ([options.round] names the
    round; [options.scope_name] is ignored — thin symbols are named from
    the decision table).  Newly selected sp-unsafe symbols are added to
    [facts].  When no global site is rewritten the input program is
    returned unchanged (mirroring the serial outliner's early stop), and
    [sequences_outlined = 0] tells the driver to stop iterating. *)
