(** Set-associative cache with LRU replacement: the instruction cache, and
    the iTLB and dTLB as one fully associative set ([size_bytes = entries *
    page], [line_bytes = page], [assoc = entries]).  Outlining shrinks the
    instruction footprint, and this model is how that shows up as the
    performance *gain* the paper measures (§VII-B: "less icache and iTLB
    pressure"). *)

type t

val create : size_bytes:int -> line_bytes:int -> assoc:int -> t
(** All three positive, and [size_bytes] divisible by
    [line_bytes * assoc]. *)

val access : t -> int -> bool
(** [access t addr] touches the line containing [addr]; returns [true] on a
    hit.  A miss fills the way with the oldest stamp, the first such. *)

val hits : t -> int
val misses : t -> int
val reset : t -> unit
