(** Generalized suffix tree over integer sequences (Ukkonen's algorithm,
    linear time).  This mirrors the data structure LLVM's MachineOutliner
    uses to discover repeated machine-instruction sequences (§II-C).

    Sequences are arrays of non-negative symbols; the builder inserts a
    distinct negative sentinel after each sequence, so no reported repeat
    ever spans two sequences. *)

type t

type occurrence = {
  seq : int;  (** index of the input sequence *)
  pos : int;  (** start offset within that sequence *)
}

type repeat = {
  length : int;
  occs : occurrence list;  (** at least two, in increasing text order *)
}

val build : int array list -> t
(** Symbols must be [>= 0]; raises [Invalid_argument] otherwise. *)

val repeats : ?min_length:int -> t -> repeat list
(** All right-maximal repeated substrings of length [>= min_length]
    (default 2) with every occurrence.  A substring is right-maximal when
    two of its occurrences are followed by different symbols; every
    repeated substring is a prefix of some right-maximal one. *)

type visit = length:int -> occs:int array -> count:int -> unit
(** How {!iter_repeats} reports one repeat: its length and its [count]
    (at least two) occurrences, packed by {!occ}, in [occs.(0)] to
    [occs.(count - 1)] in increasing text order.  [occs] is a buffer the
    tree reuses for every repeat: read it during the call, never keep it. *)

val occ : seq:int -> pos:int -> int
(** An occurrence packed in one int, [seq] in the high bits and [pos]
    (below [2{^32}]) in the low ones, so packed occurrences sort in text
    order. *)

val occ_seq : int -> int
val occ_pos : int -> int

val iter_repeats : ?min_length:int -> t -> visit -> unit
(** {!repeats}, reported one at a time through a buffer, in the list's
    order. *)

val contains : t -> int array -> bool
(** Substring membership across all indexed sequences. *)

val count_leaves : t -> int
(** Total number of suffixes indexed (for testing). *)

val substring_at : t -> occurrence -> int -> int array
(** [substring_at t occ len] extracts the symbols of an occurrence (for
    testing and debugging). *)
