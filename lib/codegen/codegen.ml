open Machine

let runtime_externs =
  [
    "swift_retain";
    "swift_release";
    "objc_retain";
    "objc_release";
    "swift_allocObject";
    "swift_allocArray";
    "swift_beginAccess";
    "swift_endAccess";
    "swift_bounds_fail";
    "print_i64";
    "memcpy8";
  ]

(* Where a MIR value lives for its whole lifetime. *)
type loc =
  | In_reg of Reg.t
  | Spilled of int  (* slot index; sp-relative *)

let caller_pool = List.map Reg.x [ 9; 10; 11; 12; 13; 14; 15 ]
let callee_pool = List.map Reg.x [ 19; 20; 21; 22; 23; 24; 25; 26 ]
let scratch_a = Reg.x 16
let scratch_b = Reg.x 17

(* --- Register allocation ------------------------------------------------ *)

type alloc = {
  locs : loc array;  (* by value id; [dead] for a value without an interval *)
  spill_slots : int;
  used_callee_saved : Reg.t list;  (* ascending *)
}

(* A value with no interval is dead: writes to it go to a scratch. *)
let dead = In_reg scratch_a

(* One shared [In_reg r] per register, so assigning a register allocates
   nothing. *)
let in_reg = Array.init Reg.count (fun i -> In_reg (Reg.of_index i))

let shuffle seed pool =
  let arr = Array.of_list pool in
  let st = Random.State.make [| seed |] in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

(* A free list as a stack: [regs.(0 .. top - 1)], the next register taken
   at [top - 1]. *)
type pool = {
  regs : Reg.t array;
  mutable top : int;
}

let pool_of_list l =
  let regs = Array.of_list (List.rev l) in
  { regs; top = Array.length regs }

let push p r =
  p.regs.(p.top) <- r;
  p.top <- p.top + 1

let allocate ?regalloc_seed (f : Ir.func) =
  let caller_pool, callee_pool =
    match regalloc_seed with
    | None -> (caller_pool, callee_pool)
    | Some seed ->
      let h = Hashtbl.hash f.Ir.name in
      (shuffle (seed lxor h) caller_pool, shuffle (seed + h) callee_pool)
  in
  let ivs = Intervals.compute f in
  let nv = List.fold_left (fun n (iv : Intervals.t) -> max n (iv.v + 1)) 0 ivs in
  let locs = Array.make nv dead in
  let free_caller = pool_of_list caller_pool in
  let free_callee = pool_of_list callee_pool in
  (* The registers in use, oldest first: [act_reg.(i)] holds a value live
     until [act_last.(i)]. *)
  let size = Array.length free_caller.regs + Array.length free_callee.regs in
  let act_last = Array.make size 0 and act_reg = Array.make size Reg.SP in
  let nact = ref 0 in
  let next_slot = ref 0 in
  let used_callee = Array.make Reg.count false in
  (* Free every register whose value ended before [now].  Expired registers
     go back newest first, so the oldest one is on top and taken next. *)
  let expire now =
    for i = !nact - 1 downto 0 do
      if act_last.(i) < now then begin
        let r = act_reg.(i) in
        push (if Reg.is_callee_saved r then free_callee else free_caller) r
      end
    done;
    let live = ref 0 in
    for i = 0 to !nact - 1 do
      if act_last.(i) >= now then begin
        act_last.(!live) <- act_last.(i);
        act_reg.(!live) <- act_reg.(i);
        incr live
      end
    done;
    nact := !live
  in
  List.iter
    (fun (iv : Intervals.t) ->
      expire iv.first;
      let pool =
        if iv.crosses_call || free_caller.top = 0 then free_callee
        else free_caller
      in
      if pool.top > 0 then begin
        pool.top <- pool.top - 1;
        let r = pool.regs.(pool.top) in
        if Reg.is_callee_saved r then used_callee.(Reg.index r) <- true;
        act_last.(!nact) <- iv.last;
        act_reg.(!nact) <- r;
        incr nact;
        locs.(iv.v) <- in_reg.(Reg.index r)
      end
      else begin
        locs.(iv.v) <- Spilled !next_slot;
        incr next_slot
      end)
    ivs;
  let used_callee_saved =
    List.filter (fun r -> used_callee.(Reg.index r)) callee_pool
    |> List.sort Reg.compare
  in
  { locs; spill_slots = !next_slot; used_callee_saved }

(* --- Emission ------------------------------------------------------------ *)

type emitter = {
  mutable rev_insns : Insn.t list;
  alloc : alloc;
  spill_base : int;  (* byte offset of spill slot 0 from sp *)
}

let emit e i = e.rev_insns <- i :: e.rev_insns

let spill_addr e slot =
  { Insn.base = Reg.SP; off = e.spill_base + (8 * slot); mode = Insn.Offset }

let loc_of e v =
  let locs = e.alloc.locs in
  if v >= 0 && v < Array.length locs then locs.(v) else dead

(* Bring an operand into a register, using [scratch] when materialization or
   a reload is needed. *)
let read_operand e scratch (o : Ir.operand) =
  match o with
  | Ir.V v -> (
    match loc_of e v with
    | In_reg r -> r
    | Spilled slot ->
      emit e (Insn.Ldr (scratch, spill_addr e slot));
      scratch)
  | Ir.Imm n ->
    emit e (Insn.mov_i scratch n);
    scratch
  | Ir.Global g | Ir.Fn g ->
    emit e (Insn.Adr (scratch, g));
    scratch

(* Register that will receive a value's definition, plus the flush needed
   afterwards for spilled values. *)
let def_target e v =
  match loc_of e v with
  | In_reg r -> (r, fun () -> ())
  | Spilled slot ->
    (scratch_a, fun () -> emit e (Insn.Str (scratch_a, spill_addr e slot)))

let mov_if_needed e dst src = if not (Reg.equal dst src) then emit e (Insn.mov_r dst src)

(* Move call arguments into x0..x7.  Allocation never hands out x0..x8, so
   sources are stable while we fill the argument registers — except when a
   source is itself an argument register (only the case for call results
   flushed through x0, which we copy first). *)
let emit_call_args e args =
  if List.length args > Reg.max_args then
    invalid_arg "Codegen: call with more than 8 arguments";
  List.iteri
    (fun i o ->
      let dst = Reg.arg i in
      match o with
      | Ir.Imm n -> emit e (Insn.mov_i dst n)
      | Ir.Global g | Ir.Fn g -> emit e (Insn.Adr (dst, g))
      | Ir.V v -> (
        match loc_of e v with
        | In_reg r -> mov_if_needed e dst r
        | Spilled slot -> emit e (Insn.Ldr (dst, spill_addr e slot))))
    args

let store_call_result e dopt =
  match dopt with
  | None -> ()
  | Some d -> (
    match loc_of e d with
    | In_reg r -> mov_if_needed e r (Reg.x 0)
    | Spilled slot -> emit e (Insn.Str (Reg.x 0, spill_addr e slot)))

let binop_to_machine = function
  | Ir.Add -> Insn.Add
  | Ir.Sub -> Insn.Sub
  | Ir.Mul -> Insn.Mul
  | Ir.Div -> Insn.Sdiv
  | Ir.And -> Insn.And
  | Ir.Or -> Insn.Orr
  | Ir.Xor -> Insn.Eor
  | Ir.Shl -> Insn.Lsl
  | Ir.Lshr -> Insn.Lsr
  | Ir.Ashr -> Insn.Asr

(* Immediates that AArch64 data-processing instructions can encode inline. *)
let fits_imm op n =
  match op with
  | Ir.Add | Ir.Sub -> n >= 0 && n < 4096
  | Ir.Shl | Ir.Lshr | Ir.Ashr -> n >= 0 && n < 64
  | Ir.Mul | Ir.Div | Ir.And | Ir.Or | Ir.Xor -> false

let emit_instr e (i : Ir.instr) =
  match i with
  | Ir.Assign (d, o) -> (
    let dst, flush = def_target e d in
    (match o with
    | Ir.V v -> (
      match loc_of e v with
      | In_reg r -> mov_if_needed e dst r
      | Spilled slot -> emit e (Insn.Ldr (dst, spill_addr e slot)))
    | Ir.Imm n -> emit e (Insn.mov_i dst n)
    | Ir.Global g | Ir.Fn g -> emit e (Insn.Adr (dst, g)));
    flush ())
  | Ir.Binop (d, op, a, b) ->
    let ra = read_operand e scratch_a a in
    let dst, flush = def_target e d in
    (match b with
    | Ir.Imm n when fits_imm op n ->
      emit e (Insn.Binop (binop_to_machine op, dst, ra, Insn.Imm n))
    | _ ->
      let rb = read_operand e scratch_b b in
      emit e (Insn.Binop (binop_to_machine op, dst, ra, Insn.Rop rb)));
    flush ()
  | Ir.Icmp (d, c, a, b) ->
    let ra = read_operand e scratch_a a in
    (match b with
    | Ir.Imm n when n >= 0 && n < 4096 -> emit e (Insn.Cmp (ra, Insn.Imm n))
    | _ ->
      let rb = read_operand e scratch_b b in
      emit e (Insn.Cmp (ra, Insn.Rop rb)));
    let dst, flush = def_target e d in
    emit e (Insn.Cset (dst, c));
    flush ()
  | Ir.Load (d, base, off) ->
    let rb = read_operand e scratch_a base in
    let dst, flush = def_target e d in
    emit e (Insn.Ldr (dst, { Insn.base = rb; off; mode = Insn.Offset }));
    flush ()
  | Ir.Store (v, base, off) ->
    let rv = read_operand e scratch_a v in
    let rb = read_operand e scratch_b base in
    emit e (Insn.Str (rv, { Insn.base = rb; off; mode = Insn.Offset }))
  | Ir.Call (dopt, fn, args) ->
    emit_call_args e args;
    emit e (Insn.Bl fn);
    store_call_result e dopt
  | Ir.Call_indirect (dopt, fn, args) ->
    let rf = read_operand e scratch_b fn in
    emit_call_args e args;
    emit e (Insn.Blr rf);
    store_call_result e dopt
  | Ir.Retain o ->
    (* The paper's Listing 1/2: move to x0 to satisfy the calling
       convention, then call the runtime. *)
    emit_call_args e [ o ];
    emit e (Insn.Bl "swift_retain")
  | Ir.Release o ->
    emit_call_args e [ o ];
    emit e (Insn.Bl "swift_release")
  | Ir.Alloc_object (d, meta, size) ->
    (* Listing 3: several argument registers set up before the call. *)
    emit e (Insn.Adr (Reg.x 0, meta));
    emit e (Insn.mov_i (Reg.x 1) size);
    emit e (Insn.mov_i (Reg.x 2) 7);
    emit e (Insn.Bl "swift_allocObject");
    store_call_result e (Some d)
  | Ir.Alloc_array (d, n) ->
    emit_call_args e [ n ];
    emit e (Insn.Bl "swift_allocArray");
    store_call_result e (Some d)

let pair_up regs =
  (* Group callee-saved registers into stp/ldp pairs; an odd tail pairs a
     register with itself is not encodable, so pad with x27. *)
  let rec go = function
    | a :: b :: rest -> (a, b) :: go rest
    | [ a ] -> [ (a, Reg.x 27) ]
    | [] -> []
  in
  go regs

let compile_func ?regalloc_seed (f : Ir.func) =
  if List.length f.Ir.params > Reg.max_args then
    invalid_arg ("Codegen: too many parameters in " ^ f.Ir.name);
  let f = Out_of_ssa.run_func f in
  let alloc = allocate ?regalloc_seed f in
  let has_calls =
    List.exists
      (fun (b : Ir.block) -> List.exists Intervals.is_call_position b.instrs)
      f.Ir.blocks
    || List.exists (fun (b : Ir.block) -> b.term = Ir.Unreachable) f.Ir.blocks
  in
  let spill_bytes = (alloc.spill_slots * 8 + 15) / 16 * 16 in
  let callee_pairs = pair_up alloc.used_callee_saved in
  let needs_frame = has_calls || callee_pairs <> [] || spill_bytes > 0 in
  let prologue =
    if not needs_frame then []
    else
      (if has_calls || true then
         [ Insn.Stp (Reg.fp, Reg.lr, { Insn.base = Reg.SP; off = -16; mode = Insn.Pre }) ]
       else [])
      @ List.map
          (fun (a, b) ->
            Insn.Stp (a, b, { Insn.base = Reg.SP; off = -16; mode = Insn.Pre }))
          callee_pairs
      @
      if spill_bytes > 0 then
        [ Insn.Binop (Insn.Sub, Reg.SP, Reg.SP, Insn.Imm spill_bytes) ]
      else []
  in
  let epilogue =
    if not needs_frame then []
    else
      (if spill_bytes > 0 then
         [ Insn.Binop (Insn.Add, Reg.SP, Reg.SP, Insn.Imm spill_bytes) ]
       else [])
      @ List.rev_map
          (fun (a, b) ->
            Insn.Ldp (a, b, { Insn.base = Reg.SP; off = 16; mode = Insn.Post }))
          callee_pairs
      @ [ Insn.Ldp (Reg.fp, Reg.lr, { Insn.base = Reg.SP; off = 16; mode = Insn.Post }) ]
  in
  let compile_block ~is_entry (b : Ir.block) =
    let e = { rev_insns = []; alloc; spill_base = 0 } in
    if is_entry then begin
      List.iter (emit e) prologue;
      (* Move incoming arguments from x0..x7 to their allocated homes. *)
      List.iteri
        (fun i p ->
          let src = Reg.arg i in
          match loc_of e p with
          | In_reg r -> mov_if_needed e r src
          | Spilled slot -> emit e (Insn.Str (src, spill_addr e slot)))
        f.Ir.params
    end;
    List.iter (emit_instr e) b.instrs;
    let term =
      match b.term with
      | Ir.Ret o ->
        (match o with
        | Ir.V v -> (
          match loc_of e v with
          | In_reg r -> mov_if_needed e (Reg.x 0) r
          | Spilled slot -> emit e (Insn.Ldr (Reg.x 0, spill_addr e slot)))
        | Ir.Imm n -> emit e (Insn.mov_i (Reg.x 0) n)
        | Ir.Global g | Ir.Fn g -> emit e (Insn.Adr (Reg.x 0, g)));
        List.iter (emit e) epilogue;
        Block.Ret
      | Ir.Br l -> Block.B l
      | Ir.Cond_br (o, a, b') ->
        let r = read_operand e scratch_a o in
        Block.Cbnz (r, a, b')
      | Ir.Unreachable ->
        emit e (Insn.Bl "swift_bounds_fail");
        List.iter (emit e) epilogue;
        Block.Ret
    in
    Block.make ~label:b.label (List.rev e.rev_insns) term
  in
  let blocks =
    List.mapi (fun i b -> compile_block ~is_entry:(i = 0) b) f.Ir.blocks
  in
  Mfunc.make ~from_module:f.Ir.from_module ~name:f.Ir.name blocks

let compile_modul ?regalloc_seed (m : Ir.modul) =
  let funcs = List.map (compile_func ?regalloc_seed) m.Ir.funcs in
  let data =
    List.map
      (fun (g : Ir.global) ->
        let inits =
          List.map
            (function
              | Ir.Gword w -> Dataobj.Word w
              | Ir.Gsym s -> Dataobj.Sym s)
            g.g_init
        in
        Dataobj.make ~from_module:g.g_module ~name:g.g_name inits)
      m.Ir.globals
  in
  let externs = List.sort_uniq String.compare (runtime_externs @ m.Ir.externs) in
  Program.make ~data ~externs funcs
