(** Structured build-time profile for the outliner (§VII build-time
    discussion): per-round wall time split into the five phases of a round.
    Accumulated by {!Outliner.run_round}, under either engine, when a
    profile is passed in, copied round by round into the build's timing
    tree by the pass manager's [outline] pass ([sizeopt build --profile]),
    and serialized into [BENCH_outline.json] by the bench harness. *)

type round_profile = {
  rp_round : int;
  mutable rp_seq_build : float;   (** interning blocks into symbol arrays *)
  mutable rp_tree_build : float;  (** suffix-tree construction *)
  mutable rp_enumerate : float;   (** repeat extraction + candidate legality *)
  mutable rp_score : float;       (** cost model + greedy ordering *)
  mutable rp_rewrite : float;     (** site selection + program rewrite *)
}

type t

val create : unit -> t

val new_round : t -> int -> round_profile
(** Append a fresh all-zero record for the given round number; the caller
    mutates its fields as phases finish. *)

val rounds : t -> round_profile list
(** Chronological order. *)

val round_total : round_profile -> float
val total : t -> float

val render : t -> string
(** Plain-text table, one line per round. *)

val to_json : t -> string
(** JSON array, one object per round — the [rounds_profile] field of the
    [BENCH_outline.json] schema (see README). *)
