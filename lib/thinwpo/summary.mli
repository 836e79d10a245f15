(** Module summaries and the serial global decision round of thin-WPO.

    Phase 1 workers compress each shard's outline candidates into a
    summary: one entry per pattern, carrying a stable 64-bit content hash,
    the pattern's length and strategy, its legality bits, and the shard's
    pruned occurrence counts by call kind.  {e No instruction bodies cross
    the summary boundary} — the decision round joins entries by hash and
    runs the cost model on summed counts alone; the bodies stay in the
    worker that discovered them until phase 3 rewrites its own shard.

    The hash is FNV-1a over a canonical rendering of the pattern
    (strategy, LR-frame bit, symbol count, then each instruction's
    printed form), so it is independent of interner symbol numbering,
    worker count, and scheduling order — two shards that discovered the
    same pattern always produce the same hash, which is what makes the
    optimistic cross-shard join sound. *)

type pattern = {
  ps_hash : int64;
  ps_length : int;                      (** symbols, including any ret *)
  ps_strategy : Outcore.Candidate.strategy;
  ps_needs_lr_frame : bool;
  ps_touches_sp : bool;
      (** legality bit: the outlined body would not be an SP-neutral
          callee; selected patterns with it set enter the global
          sp-unsafe facts table for later rounds *)
  ps_n_free : int;                      (** pruned [Call_free] sites here *)
  ps_n_save : int;                      (** pruned [Call_save_lr] sites *)
}

type t = {
  sm_module : string;
  sm_patterns : pattern list;  (** deterministic per-shard order *)
}

val hash_candidate : Outcore.Candidate.t -> int64
(** Stable content hash (see above).  Subject to {!fault_truncate_hash}. *)

val hasher : unit -> Outcore.Candidate.t -> int64
(** {!hash_candidate} with a private instruction-rendering cache — the
    window-probing phase hashes heavily overlapping candidates, so each
    distinct instruction is rendered once per shard instead of once per
    window.  The cache is mutable: keep each hasher on one domain. *)

val of_candidates : modul:string -> (int64 * Outcore.Candidate.t) list -> t
(** Group a shard's (hash, candidate) pairs into summary entries.  Distinct
    candidates never share a hash in honest runs; if they do (fault
    injection), the first pair's metadata wins and the counts sum — the
    silent merge whose downstream corruption the fuzz differentials must
    catch. *)

type decision = {
  dc_hash : int64;
  dc_name : string;     (** stable outlined symbol: rank under this round *)
  dc_host : string;     (** lexicographically least contributing module;
                            its shard emits the one shared body *)
  dc_benefit : int;     (** cost-model benefit of the summed global counts *)
  dc_rank : int;        (** 0-based position in the global priority order *)
  dc_sp_unsafe : bool;  (** record the new symbol in the sp-unsafe facts *)
}

val decide : round:int -> t list -> decision list
(** The serial global decision round: join summaries by hash, sum the
    occurrence counts, keep patterns with at least two global sites whose
    {!Outcore.Cost_model.benefit_of_counts} is positive, and rank them by
    (benefit descending, hash ascending) — a total order on honest inputs,
    so names and priorities are byte-identical whatever the worker count
    or summary arrival order. *)

val fault_truncate_hash : bool ref
(** Fault injection for [sizeopt fuzz --self-test]: truncate every content
    hash to its low 6 bits, manufacturing collisions so unrelated patterns
    merge in the decision table and shards rewrite call sites against the
    wrong hosted body.  The thin-WPO lattice differentials must catch the
    corruption. *)
