type t = {
  name : string;
  from_module : string;
  params_ : Ir.value list;
  mutable next : Ir.value;
  mutable done_blocks : Ir.block list;  (* reversed *)
  mutable cur_label : string;
  mutable cur_phis : Ir.phi list;       (* reversed *)
  mutable cur_instrs : Ir.instr list;   (* reversed *)
  mutable in_block : bool;
  mutable label_counter : int;
}

let create ~name ?(from_module = "") ~nparams () =
  {
    name;
    from_module;
    params_ = List.init nparams (fun i -> i);
    next = nparams;
    done_blocks = [];
    cur_label = "entry";
    cur_phis = [];
    cur_instrs = [];
    in_block = true;
    label_counter = 0;
  }

let params b = b.params_

let fresh b =
  let v = b.next in
  b.next <- v + 1;
  v

let instr b i =
  if not b.in_block then
    invalid_arg ("Builder.instr: no open block in " ^ b.name);
  b.cur_instrs <- i :: b.cur_instrs

let assign b o =
  let v = fresh b in
  instr b (Ir.Assign (v, o));
  v

let binop b op x y =
  let v = fresh b in
  instr b (Ir.Binop (v, op, x, y));
  v

let icmp b c x y =
  let v = fresh b in
  instr b (Ir.Icmp (v, c, x, y));
  v

let load b base off =
  let v = fresh b in
  instr b (Ir.Load (v, base, off));
  v

let store b v base off = instr b (Ir.Store (v, base, off))

let call b f args =
  let v = fresh b in
  instr b (Ir.Call (Some v, f, args));
  v

let call_void b f args = instr b (Ir.Call (None, f, args))
let retain b o = instr b (Ir.Retain o)
let release b o = instr b (Ir.Release o)

let alloc_object b meta size =
  let v = fresh b in
  instr b (Ir.Alloc_object (v, meta, size));
  v

let alloc_array b n =
  let v = fresh b in
  instr b (Ir.Alloc_array (v, n));
  v

let fresh_label b hint =
  b.label_counter <- b.label_counter + 1;
  hint ^ string_of_int b.label_counter

let terminate b term =
  if not b.in_block then
    invalid_arg ("Builder.terminate: no open block in " ^ b.name);
  b.done_blocks <-
    {
      Ir.label = b.cur_label;
      phis = List.rev b.cur_phis;
      instrs = List.rev b.cur_instrs;
      term;
    }
    :: b.done_blocks;
  b.in_block <- false

let start_block b label =
  if b.in_block then
    invalid_arg ("Builder.start_block: current block not terminated in " ^ b.name);
  b.cur_label <- label;
  b.cur_phis <- [];
  b.cur_instrs <- [];
  b.in_block <- true

let add_phi b dst incoming =
  if not b.in_block then invalid_arg "Builder.add_phi: no open block";
  if b.cur_instrs <> [] then
    invalid_arg "Builder.add_phi: phis must precede instructions";
  b.cur_phis <- { Ir.phi_dst = dst; incoming } :: b.cur_phis

let current_label b = b.cur_label

let finish b =
  if b.in_block then
    invalid_arg ("Builder.finish: block " ^ b.cur_label ^ " not terminated in " ^ b.name);
  {
    Ir.name = b.name;
    params = b.params_;
    blocks = List.rev b.done_blocks;
    next_value = b.next;
    from_module = b.from_module;
  }
