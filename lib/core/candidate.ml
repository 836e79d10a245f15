type strategy =
  | Ends_with_ret
  | Thunk
  | Plain_call

type site_call =
  | Call_free
  | Call_save_lr

type site = {
  func : string;
  block : string;
  block_id : int;
  start : int;
  len : int;
  with_ret : bool;
  call : site_call;
}

type t = {
  insns : Machine.Insn.t list;
  length : int;
  strategy : strategy;
  sites : site list;
  needs_lr_frame : bool;
  touches_sp : bool;
}

type shape = int

let shape strategy ~needs_lr_frame ~touches_sp =
  (match strategy with Ends_with_ret -> 1 | Thunk -> 2 | Plain_call -> 3)
  lor (if needs_lr_frame then 4 else 0)
  lor if touches_sp then 8 else 0

let shape_of c =
  shape c.strategy ~needs_lr_frame:c.needs_lr_frame ~touches_sp:c.touches_sp

let shape_strategy s =
  match s land 3 with 1 -> Ends_with_ret | 2 -> Thunk | _ -> Plain_call

let shape_needs_lr_frame s = s land 4 <> 0
let shape_touches_sp s = s land 8 <> 0

let site_cost_bytes = function
  | Call_free -> 4
  | Call_save_lr -> 12

let pattern_bytes c = c.length * Machine.Insn.size_bytes
