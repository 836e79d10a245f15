(** Stable function-content machinery: FNV-1a 64-bit hashing, name-erased
    rendered instruction streams, and k-gram shingles.  The single
    definition of "content" shared by the compressed-size model and the
    bp-compress layout objective ({!Linker.Compress}, {!Pgo.Order}),
    thin-WPO's summary hashing ({!Thinwpo.Summary}), the merge layer's
    function fingerprints ({!Merge}), and the serve daemon's cache keys.
    The rendered stream erases the function name, so byte-identical
    bodies render identically. *)

val fnv_offset : int64
val fnv_prime : int64

val hash_string : string -> int64
(** The full FNV-1a hash of one string. *)

val add_blocks : Buffer.t -> Machine.Block.t list -> unit
(** Append the blocks' rendered content stream (label, printed
    instructions, terminator) to [buf]. *)

val add_func : Buffer.t -> Machine.Mfunc.t -> unit

val render : Machine.Mfunc.t -> string
(** The function's blocks as printed instructions and terminators,
    name erased — the byte stream the compression model slides over. *)

val shingles : ?k:int -> Machine.Mfunc.t -> int64 list
(** Deduplicated FNV hashes of every [k] (default 2) consecutive
    rendered instructions: the content-utility ids bp-compress feeds
    to balanced partitioning. *)
