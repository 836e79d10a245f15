(** AArch64 condition codes (the subset our code generator emits). *)

type t = Eq | Ne | Lt | Le | Gt | Ge

val equal : t -> t -> bool
val compare : t -> t -> int

val holds : t -> int -> bool
(** [holds c d] evaluates the condition against a signed comparison result
    [d] (negative, zero or positive), as left in the NZCV pseudo-register
    by [CMP]. *)

val to_string : t -> string
val of_string : string -> t option
val pp : Format.formatter -> t -> unit
