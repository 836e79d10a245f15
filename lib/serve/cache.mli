(** String-keyed LRU cache with hit/miss/eviction counters: the daemon's
    result cache and its per-app warm state.

    Deterministic: recency is a logical tick bumped on every insert and
    hit, so for a fixed request sequence the eviction order is fixed too —
    the unit tests and the serve-vs-cold differential rely on it. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity <= 0] disables caching: every lookup misses, inserts are
    dropped. *)

val find : 'a t -> string -> 'a option
(** Bumps recency and the hit counter on success, the miss counter
    otherwise. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or refresh; evicts the least-recently-used entry (bumping the
    eviction counter) when the cache is full. *)

val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int
val entries : 'a t -> int

val keys_by_recency : 'a t -> string list
(** Most-recently-used first; for tests. *)
