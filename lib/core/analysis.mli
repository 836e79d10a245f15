(** The binary-analysis statistics pass of §IV: log every profitable
    repeating pattern with its frequency, length and potential saving.
    This is the data source for Figures 5–8 of the paper. *)

type pattern_stat = {
  rank : int;              (** 1 = most frequently repeating *)
  frequency : int;         (** number of candidates (occurrences) *)
  length : int;            (** sequence length in instructions (symbols) *)
  saving : int;            (** bytes saved if this pattern alone is outlined *)
  ends_with_call : bool;
  ends_with_ret : bool;
  sample : Machine.Insn.t list;  (** the pattern body, for inspection *)
}

type report = {
  patterns : pattern_stat array;
      (** profitable patterns, sorted by frequency (descending), then
          length (descending), then content, ranked *)
  total_insns : int;
  total_code_bytes : int;
  candidates_total : int;   (** sum of frequencies *)
  call_or_ret_fraction : float;
      (** fraction of candidates whose pattern ends with a call or return
          — 67% in the UberRider app *)
  longest : pattern_stat option;
}

val analyze : Machine.Program.t -> report

val length_histogram : report -> (int * int) list
(** (sequence length, number of candidates) pairs, ascending by length —
    Figure 8. *)

val cumulative_savings : report -> (int * int) array
(** Prefix sums of per-pattern savings with patterns taken in descending
    saving order: element [i] is [(i+1, bytes saved by outlining the i+1
    most profitable patterns)] — Figure 7. *)

val patterns_needed_for : report -> float -> int
(** Number of most-profitable patterns required to reach the given fraction
    of the total possible saving (e.g. [0.9] — the paper reports > 10^2). *)
