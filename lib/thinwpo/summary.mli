(** Module summaries and the serial global decision round of thin-WPO.

    Phase 1 workers compress each shard into a summary: one entry per
    pattern, carrying the pattern's window key, its length, its
    {!Outcore.Candidate.shape}, one representative window, and the
    shard's pruned occurrence counts by call kind.  {e No instruction bodies cross the
    summary boundary} — the decision round joins entries by key and runs
    the cost model on summed counts alone; the bodies stay in the worker
    that discovered them until phase 3 rewrites its own shard.

    The key ({!Outcore.Outliner.iter_windows}) is an O(1) rolling hash of
    the window's printed content, strategy, LR-frame bit and length, so it
    is independent of interner symbol numbering, worker count and
    scheduling order — two shards that discovered the same pattern always
    produce the same key, which is what makes the optimistic cross-shard
    join sound.  Ranking needs a hash that orders patterns the same way in
    every build: the FNV-1a {!hash_candidate}.  Only patterns that survive
    the join's site and benefit filters get one, computed by the shard
    that contributed them first, from its representative window. *)

type pattern = {
  ps_key : int;                         (** window key: joins shards *)
  ps_hash : int64 Lazy.t;
      (** {!hash_candidate} of the representative, forced only for
          patterns the decision round ranks *)
  ps_rep : int * int;
      (** (block index, position) of one local window of the pattern *)
  ps_length : int;                      (** symbols, including any ret *)
  ps_shape : Outcore.Candidate.shape;
      (** the scanner's verdict, as discovered: strategy, LR-frame bit and
          SP bit; selected patterns with either bit set are not SP-neutral
          callees and enter the global sp-unsafe facts table for later
          rounds *)
  ps_n_free : int;                      (** pruned [Call_free] sites here *)
  ps_n_save : int;                      (** pruned [Call_save_lr] sites *)
}

type t = {
  sm_module : string;
  sm_keys : int array;
      (** one per pattern, grouped into buckets by the keys' top bits *)
  sm_free : int array;   (** [ps_n_free] of each pattern *)
  sm_save : int array;   (** [ps_n_save] of each pattern *)
  sm_buckets : int array;
      (** patterns [sm_buckets.(b)] to [sm_buckets.(b + 1) - 1] are those
          of bucket [b]; there are [sm_buckets.(buckets)] in all *)
  sm_pattern : int -> pattern;
      (** the whole entry of pattern [i]; the decision round asks only for
          patterns with at least two global sites *)
}
(** Columns, not records: the decision round joins every pattern of every
    shard, nearly all of them seen once, and does so one key bucket at a
    time so that its tables stay in cache.  A shard's summary shares its
    scan's columns, uncopied: only the first [sm_buckets.(buckets)]
    entries are live, and only until the shard's next discovery rewrites
    them.  {!join} reads bucket ranges alone. *)

val buckets : int
val bucket : int -> int
(** The bucket [[0, buckets)] of a key: its top bits. *)

val of_patterns : modul:string -> pattern list -> t

module Index : sig
  (** Int keys to dense ids [0, 1, ...] in first-insertion order: open
      addressing over one flat array, no allocation per key. *)

  type t

  val create : int -> t
  (** Room for this many keys. *)

  val add : t -> int -> int
  (** The key's id, a fresh one if the key is new.  Raises
      [Invalid_argument] when a new key finds no room. *)

  val find : t -> int -> int
  (** The key's id, or [-1]. *)

  val clear : t -> unit
end

val hash_candidate : Outcore.Candidate.t -> int64
(** The ranking hash: FNV-1a over a canonical rendering of the pattern
    (strategy, LR-frame bit, symbol count, then each instruction's printed
    form). *)

val hash_rendered :
  Outcore.Candidate.shape ->
  length:int ->
  string array ->
  pos:int ->
  len:int ->
  int64
(** {!hash_candidate} from the pattern's shape (its strategy and LR-frame
    bit), length and printed body instructions, the slice
    [[pos, pos + len)] of an array such as {!Outcore.Outliner.block_text}:
    read in place, in one loop that allocates nothing but its result. *)

val join_key : int -> int
(** The key patterns join on: the window key, or its low 6 bits under
    {!fault_truncate_hash}.  Every key the engine derives passes through
    here. *)

type decision = {
  dc_key : int;
  dc_hash : int64;      (** ranking hash *)
  dc_name : string;     (** stable outlined symbol: rank under this round *)
  dc_host : string;     (** lexicographically least contributing module;
                            its shard emits the one shared body *)
  dc_benefit : int;     (** cost-model benefit of the summed global counts *)
  dc_rank : int;        (** 0-based position in the global priority order *)
  dc_sp_unsafe : bool;  (** record the new symbol in the sp-unsafe facts *)
}

type survivor = {
  sv_shard : int;          (** index of the first contributor's summary *)
  sv_pattern : pattern;    (** its entry *)
  sv_benefit : int;        (** of the summed global counts *)
  sv_host : string;        (** least contributing module name *)
}

val join : t list -> survivor list
(** The first half of {!decide}: join by key, sum the occurrence counts,
    and keep patterns with at least two global sites whose
    {!Outcore.Cost_model.benefit_of_counts} is positive.  Forces no
    ranking hash, so the engine can have each shard hash the survivors it
    contributed first, in parallel. *)

val order : survivor list -> (int64 * survivor) array
(** The second half of {!decide}: force the remaining ranking hashes and
    sort by (benefit descending, unsigned hash ascending); position [r] is
    rank [r]. *)

val decide : round:int -> t list -> decision list
(** The serial global decision round, {!join} then {!order}: a total
    order on honest inputs, so names and priorities are byte-identical
    whatever the worker count or summary arrival order.  Metadata comes
    from the first contributor in summary order. *)

val fault_truncate_hash : bool ref
(** Fault injection for [sizeopt fuzz --self-test]: truncate every window
    key to its low 6 bits ({!join_key}), manufacturing collisions so
    unrelated patterns merge in the decision table and shards rewrite call
    sites against the wrong hosted body.  The thin-WPO lattice
    differentials must catch the corruption. *)
