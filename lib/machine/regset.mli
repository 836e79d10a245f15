(** Compact register sets, represented as bit masks (there are fewer than
    62 registers, so a native [int] suffices). *)

type t = private int

val empty : t
val singleton : Reg.t -> t
val add : Reg.t -> t -> t
val remove : Reg.t -> t -> t
val mem : Reg.t -> t -> bool
val union : t -> t -> t
val diff : t -> t -> t
val equal : t -> t -> bool
val of_list : Reg.t list -> t
val to_list : t -> Reg.t list
val cardinal : t -> int
