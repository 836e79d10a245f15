type t = Eq | Ne | Lt | Le | Gt | Ge

let equal (a : t) b = a = b
let compare (a : t) b = Stdlib.compare a b

let holds c d =
  match c with
  | Eq -> d = 0
  | Ne -> d <> 0
  | Lt -> d < 0
  | Le -> d <= 0
  | Gt -> d > 0
  | Ge -> d >= 0

let to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let of_string = function
  | "eq" -> Some Eq
  | "ne" -> Some Ne
  | "lt" -> Some Lt
  | "le" -> Some Le
  | "gt" -> Some Gt
  | "ge" -> Some Ge
  | _ -> None

let pp ppf c = Format.pp_print_string ppf (to_string c)
