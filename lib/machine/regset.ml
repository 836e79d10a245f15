type t = int

let empty = 0
let singleton r = 1 lsl Reg.index r
let add r s = s lor (1 lsl Reg.index r)
let remove r s = s land lnot (1 lsl Reg.index r)
let mem r s = s land (1 lsl Reg.index r) <> 0
let union = ( lor )
let diff a b = a land lnot b
let equal = Int.equal
let of_list rs = List.fold_left (fun s r -> add r s) empty rs

let to_list s =
  let rec go i acc =
    if i < 0 then acc
    else if s land (1 lsl i) <> 0 then go (i - 1) (Reg.of_index i :: acc)
    else go (i - 1) acc
  in
  go (Reg.count - 1) []

let cardinal s =
  let rec go s n = if s = 0 then n else go (s land (s - 1)) (n + 1) in
  go s 0
