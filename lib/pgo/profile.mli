(** Execution profiles for profile-guided code layout.

    A profile is what one deterministic simulator run (or several, one
    per entry point) distills into: the weighted dynamic call graph,
    per-function entry counts, and the startup first-touch order.  It is
    the record-once / replay-many artifact of the profile→layout loop:
    [sizeopt profile] writes it, [sizeopt build --profile-in] and the
    {!Order} algorithms consume it. *)

type index
(** Hash indexes over a profile's lists, built once by {!make}. *)

type t = private {
  workload : string;             (** e.g. the app profile name *)
  entries : string list;         (** traced entry points, in run order *)
  first_touch : string list;     (** functions in first-execution order *)
  counts : (string * int) list;  (** function entry counts, sorted by name *)
  edges : ((string * string) * int) list;
      (** dynamic call edges (caller, callee) -> weight, sorted *)
  blocks : ((string * string) * int) list;
      (** basic-block execution counts (func, label) -> count, sorted;
          empty for v1 profiles, which predate block-level events *)
  index : index;
}
(** Private: only {!make} (and hence {!of_string}) builds a profile, so
    the index always matches the lists. *)

val current_version : int

val make :
  ?blocks:((string * string) * int) list ->
  workload:string ->
  entries:string list ->
  first_touch:string list ->
  counts:(string * int) list ->
  edges:((string * string) * int) list ->
  unit ->
  t
(** Canonicalizes: counts, edges and blocks are sorted, so {!to_string}
    is a deterministic function of the profile's contents.  Also builds
    the index behind the O(1) lookups below; where a list repeats a key,
    lookups see its first binding in the sorted list. *)

val empty : workload:string -> t

val count : t -> string -> int
(** Entry count; 0 for a function the profile does not name.  Like
    {!edge_weight}, {!block_count} and {!executed}, an O(1) lookup. *)

val edge_weight : t -> caller:string -> callee:string -> int

val block_count : t -> func:string -> label:string -> int
val has_block_counts : t -> bool
(** Whether the profile carries any block-granularity data; when it does
    not, block-level consumers (hot/cold splitting) must fall back to
    static heuristics. *)

val executed : t -> string -> bool
(** A function is "hot" iff it was first-touched; never-executed
    functions are what hot/cold splitting sends to the image tail. *)

val total_edge_weight : t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** The versioned text serialization (header ["pgo-profile v2"]).
    Canonical: structurally equal profiles serialize byte-identically. *)

val of_string : string -> (t, string) result
(** Accepts v1 (no block counts) and v2 headers; rejects unknown
    versions, malformed directives and a repeated [touch], [count],
    [edge] or [block] key with an error naming the offending line. *)

val save : string -> t -> unit
val load : string -> (t, string) result
