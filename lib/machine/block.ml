type terminator =
  | Ret
  | B of string
  | Bcond of Cond.t * string * string
  | Cbz of Reg.t * string * string
  | Cbnz of Reg.t * string * string
  | Tail_call of string
  | Fallthrough of string

type t = {
  label : string;
  body : Insn.t array;
  term : terminator;
}

let make ~label body term = { label; body = Array.of_list body; term }

let term_size_bytes = function
  | Fallthrough _ -> 0
  | Ret | B _ | Bcond _ | Cbz _ | Cbnz _ | Tail_call _ -> 4

let size_bytes b = (Array.length b.body * Insn.size_bytes) + term_size_bytes b.term

let successors = function
  | Ret | Tail_call _ -> []
  | B l | Fallthrough l -> [ l ]
  | Bcond (_, a, b) | Cbz (_, a, b) | Cbnz (_, a, b) -> [ a; b ]

let term_uses = function
  | Ret -> Regset.singleton Reg.lr
  | B _ | Fallthrough _ -> Regset.empty
  | Bcond (_, _, _) -> Regset.singleton Reg.NZCV
  | Cbz (r, _, _) | Cbnz (r, _, _) -> Regset.singleton r
  | Tail_call _ ->
    (* A tail call hands the argument registers to the target, and the
       target returns through the *current* LR — so LR is live here. *)
    let rec go i s =
      if i >= Reg.max_args then s else go (i + 1) (Regset.add (Reg.arg i) s)
    in
    go 0 (Regset.singleton Reg.lr)

let terminator_to_string ?(source = false) t =
  let two_way taken other =
    if source then taken ^ ", " ^ other else taken ^ " (else " ^ other ^ ")"
  in
  match t with
  | Ret -> "ret"
  | B l | Tail_call l -> "b " ^ l
  | Bcond (c, t, f) -> "b." ^ Cond.to_string c ^ " " ^ two_way t f
  | Cbz (r, t, f) -> "cbz " ^ Reg.to_string r ^ ", " ^ two_way t f
  | Cbnz (r, t, f) -> "cbnz " ^ Reg.to_string r ^ ", " ^ two_way t f
  | Fallthrough l -> "fall " ^ l

let pp_terminator ppf t = Format.pp_print_string ppf (terminator_to_string t)

let pp ppf b =
  Format.fprintf ppf "%s:@." b.label;
  Array.iter (fun i -> Format.fprintf ppf "  %a@." Insn.pp i) b.body;
  Format.fprintf ppf "  %a@." pp_terminator b.term
