type binop =
  | Add
  | Sub
  | Mul
  | Sdiv
  | And
  | Orr
  | Eor
  | Lsl
  | Lsr
  | Asr

type operand =
  | Rop of Reg.t
  | Imm of int

type amode =
  | Offset
  | Pre
  | Post

type addr = { base : Reg.t; off : int; mode : amode }

type t =
  | Mov of Reg.t * operand
  | Binop of binop * Reg.t * Reg.t * operand
  | Cmp of Reg.t * operand
  | Cset of Reg.t * Cond.t
  | Csel of Reg.t * Reg.t * Reg.t * Cond.t
  | Ldr of Reg.t * addr
  | Str of Reg.t * addr
  | Ldp of Reg.t * Reg.t * addr
  | Stp of Reg.t * Reg.t * addr
  | Adr of Reg.t * string
  | Bl of string
  | Blr of Reg.t
  | Nop

let size_bytes = 4

let operand_uses = function
  | Rop r -> Regset.singleton r
  | Imm _ -> Regset.empty

(* Registers a call may read: the integer argument registers.  We do not
   track callee arity at this level, so be conservative. *)
let call_uses =
  let rec go i s = if i >= Reg.max_args then s else go (i + 1) (Regset.add (Reg.arg i) s) in
  go 0 Regset.empty

(* Registers a call clobbers: caller-saved x0..x17, LR and the flags. *)
let call_defs =
  let rec go i s = if i > 17 then s else go (i + 1) (Regset.add (Reg.x i) s) in
  Regset.add Reg.lr (Regset.add Reg.NZCV (go 0 Regset.empty))

let addr_uses a = Regset.singleton a.base

let addr_defs a =
  match a.mode with
  | Offset -> Regset.empty
  | Pre | Post -> Regset.singleton a.base

let uses = function
  | Mov (_, op) -> operand_uses op
  | Binop (_, _, a, op) -> Regset.add a (operand_uses op)
  | Cmp (a, op) -> Regset.add a (operand_uses op)
  | Cset (_, _) -> Regset.singleton Reg.NZCV
  | Csel (_, a, b, _) -> Regset.of_list [ a; b; Reg.NZCV ]
  | Ldr (_, a) -> addr_uses a
  | Str (s, a) -> Regset.add s (addr_uses a)
  | Ldp (_, _, a) -> addr_uses a
  | Stp (s1, s2, a) -> Regset.add s1 (Regset.add s2 (addr_uses a))
  | Adr (_, _) -> Regset.empty
  | Bl _ -> call_uses
  | Blr r -> Regset.add r call_uses
  | Nop -> Regset.empty

let defs = function
  | Mov (d, _) -> Regset.singleton d
  | Binop (_, d, _, _) -> Regset.singleton d
  | Cmp (_, _) -> Regset.singleton Reg.NZCV
  | Cset (d, _) -> Regset.singleton d
  | Csel (d, _, _, _) -> Regset.singleton d
  | Ldr (d, a) -> Regset.add d (addr_defs a)
  | Str (_, a) -> addr_defs a
  | Ldp (d1, d2, a) -> Regset.add d1 (Regset.add d2 (addr_defs a))
  | Stp (_, _, a) -> addr_defs a
  | Adr (d, _) -> Regset.singleton d
  | Bl _ | Blr _ -> call_defs
  | Nop -> Regset.empty

let is_call = function
  | Bl _ | Blr _ -> true
  | Mov _ | Binop _ | Cmp _ | Cset _ | Csel _ | Ldr _ | Str _ | Ldp _ | Stp _
  | Adr _ | Nop ->
    false

let touches_lr i =
  Regset.mem Reg.lr (uses i) || Regset.mem Reg.lr (defs i)

let touches_sp i =
  Regset.mem Reg.SP (uses i) || Regset.mem Reg.SP (defs i)

let modifies_sp i = Regset.mem Reg.SP (defs i)

let equal (a : t) (b : t) = a = b
let hash (i : t) = Hashtbl.hash i
let mov_r dst src = Mov (dst, Rop src)
let mov_i dst n = Mov (dst, Imm n)

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Sdiv -> "sdiv"
  | And -> "and"
  | Orr -> "orr"
  | Eor -> "eor"
  | Lsl -> "lsl"
  | Lsr -> "lsr"
  | Asr -> "asr"

(* The instruction text is hot: thin-WPO keys and ranks windows by it, and
   the linker's compression model and [serve]'s image hash read it.  So it
   is built by plain concatenation, with no [Format]. *)
let reg = Reg.to_string
let imm n = "#" ^ string_of_int n

let operand = function
  | Rop r -> reg r
  | Imm n -> imm n

let addr a =
  match a.mode with
  | Offset ->
    if a.off = 0 then "[" ^ reg a.base ^ "]"
    else "[" ^ reg a.base ^ ", " ^ imm a.off ^ "]"
  | Pre -> "[" ^ reg a.base ^ ", " ^ imm a.off ^ "]!"
  | Post -> "[" ^ reg a.base ^ "], " ^ imm a.off

let to_string = function
  | Mov (d, Rop s) ->
    (* Print as the ORR idiom to mirror the paper's listings. *)
    "orr " ^ reg d ^ ", xzr, " ^ reg s
  | Mov (d, Imm n) -> "mov " ^ reg d ^ ", " ^ imm n
  | Binop (op, d, a, b) ->
    binop_name op ^ " " ^ reg d ^ ", " ^ reg a ^ ", " ^ operand b
  | Cmp (a, b) -> "cmp " ^ reg a ^ ", " ^ operand b
  | Cset (d, c) -> "cset " ^ reg d ^ ", " ^ Cond.to_string c
  | Csel (d, a, b, c) ->
    "csel " ^ reg d ^ ", " ^ reg a ^ ", " ^ reg b ^ ", " ^ Cond.to_string c
  | Ldr (d, a) -> "ldr " ^ reg d ^ ", " ^ addr a
  | Str (s, a) -> "str " ^ reg s ^ ", " ^ addr a
  | Ldp (d1, d2, a) -> "ldp " ^ reg d1 ^ ", " ^ reg d2 ^ ", " ^ addr a
  | Stp (s1, s2, a) -> "stp " ^ reg s1 ^ ", " ^ reg s2 ^ ", " ^ addr a
  | Adr (d, sym) -> "adr " ^ reg d ^ ", " ^ sym
  | Bl sym -> "bl " ^ sym
  | Blr r -> "blr " ^ reg r
  | Nop -> "nop"

let pp ppf i = Format.pp_print_string ppf (to_string i)
