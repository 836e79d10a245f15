open Machine

type config = {
  device : Device.t;
  os : Device.os;
  max_steps : int;
  model_perf : bool;
  unknown_extern : [ `Error | `Noop ];
  trace_ring : int;  (* >0: keep a ring of recent pc slots, dumped on errors *)
}

let default_config =
  {
    device = Device.default;
    os = Device.default_os;
    max_steps = 200_000_000;
    model_perf = true;
    unknown_extern = `Error;
    trace_ring = 0;
  }

(* Profile counts are slot-indexed: names are interned once into dense
   ids when a run links its program, so counting a call, a tail transfer
   or a block entry is array arithmetic plus, for call edges, one int-keyed
   table bump.  Interning is by name, so one accumulator spans runs of
   different programs. *)
module Int_tbl = Hashtbl.Make (Int)

(* Keys interned into dense ids, with an entry count per id. *)
type 'k interned = {
  ids : ('k, int) Hashtbl.t;
  mutable keys : 'k array;      (* id -> key *)
  mutable entries : int array;  (* id -> entries *)
}

let interned n = { ids = Hashtbl.create n; keys = [||]; entries = [||] }

let intern t key =
  match Hashtbl.find_opt t.ids key with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.ids in
    if id = Array.length t.keys then begin
      let grow a x = Array.append a (Array.make (max 64 id) x) in
      t.keys <- grow t.keys key;
      t.entries <- grow t.entries 0
    end;
    t.keys.(id) <- key;
    Hashtbl.add t.ids key id;
    id

(* Every key entered at least once, with its entries. *)
let entered t =
  List.filter_map
    (fun id ->
      if t.entries.(id) > 0 then Some (t.keys.(id), t.entries.(id)) else None)
    (List.init (Hashtbl.length t.ids) Fun.id)

type counts = {
  funcs : string interned;
  blocks : (string * string) interned;  (* (function, label) *)
  edges : int Int_tbl.t;                (* [edge_key caller callee] -> calls *)
  mutable touch_rev : int list;         (* function ids, newest first *)
}

let create_counts () =
  {
    funcs = interned 256;
    blocks = interned 1024;
    edges = Int_tbl.create 1024;
    touch_rev = [];
  }

(* Function ids stay far below 2^30, so one int packs an edge. *)
let edge_bits = 30
let edge_key caller callee = (caller lsl edge_bits) lor callee

(* A function begins executing: the run's entry, or an intra-image call or
   tail transfer.  A function first touches when it is first entered. *)
let count_entry c id =
  let e = c.funcs.entries in
  if e.(id) = 0 then c.touch_rev <- id :: c.touch_rev;
  e.(id) <- e.(id) + 1

let count_call c caller callee =
  count_entry c callee;
  let k = edge_key caller callee in
  match Int_tbl.find c.edges k with
  | n -> Int_tbl.replace c.edges k (n + 1)
  | exception Not_found -> Int_tbl.add c.edges k 1

type count_lists = {
  first_touch : string list;
  entry_counts : (string * int) list;
  edge_counts : ((string * string) * int) list;
  block_counts : ((string * string) * int) list;
}

let count_lists c =
  let name id = c.funcs.keys.(id) in
  {
    first_touch = List.rev_map name c.touch_rev;
    entry_counts = entered c.funcs;
    edge_counts =
      Int_tbl.fold
        (fun k n acc ->
          ((name (k lsr edge_bits), name (k land ((1 lsl edge_bits) - 1))), n)
          :: acc)
        c.edges [];
    block_counts = entered c.blocks;
  }

type result = {
  exit_value : int;
  output : int list;
  steps : int;
  outlined_steps : int;
  cycles : int;
  icache_misses : int;
  icache_accesses : int;
  itlb_misses : int;
  dtlb_misses : int;
  data_pages_touched : int;
  data_fault_cycles : int;
  cold_start_pages : int;
  cold_start_cost : int;
  branches : int;
  calls : int;
}

type error =
  | Unknown_symbol of string
  | Null_access
  | Unaligned_access of int
  | Bad_jump of int
  | Step_limit_exceeded
  | Stack_overflow
  | Trap of string
  | No_entry of string

let error_to_string = function
  | Unknown_symbol s -> "unknown symbol: " ^ s
  | Null_access -> "null access"
  | Unaligned_access a -> Printf.sprintf "unaligned access at 0x%x" a
  | Bad_jump a -> Printf.sprintf "jump to unmapped address 0x%x" a
  | Step_limit_exceeded -> "step limit exceeded"
  | Stack_overflow -> "stack overflow"
  | Trap s -> "trap: " ^ s
  | No_entry s -> "entry function not found: " ^ s

type failure = {
  error : error;
  backtrace : string list;
  trace : string list;
}

exception Exec_error of error

(* --- Decoded slots ----------------------------------------------------------

   A run decodes every slot once, when it links the program, so the step
   loop dispatches on ints and never calls into [Machine].  Register
   operands are indices into the register file: a read is [Reg.index] (xzr
   reads index 32, which nothing writes) and a write to xzr goes to the
   extra [sink] index. *)

let sink = Reg.count
let xzr = Reg.index Reg.XZR
let nzcv = Reg.index Reg.NZCV
let lr = Reg.index Reg.lr
let write_index r = match r with Reg.XZR -> sink | _ -> Reg.index r

(* The built-in runtime, resolved from an extern's name once. *)
type extern =
  | Retain
  | Release
  | Alloc_object
  | Alloc_array
  | Access_marker
  | Print
  | Bounds_fail
  | Memcpy8
  | Unknown of string  (* left to [unknown_extern] when called *)

let extern_of_name = function
  | "swift_retain" | "objc_retain" -> Retain
  | "swift_release" | "objc_release" -> Release
  | "swift_allocObject" -> Alloc_object
  | "swift_allocArray" -> Alloc_array
  | "swift_beginAccess" | "swift_endAccess" -> Access_marker
  | "print_i64" -> Print
  | "swift_bounds_fail" -> Bounds_fail
  | "memcpy8" -> Memcpy8
  | name -> Unknown name

(* Branch and call targets are slot indices; [_i] variants carry an
   immediate where the instruction has one. *)
type op =
  | Nop
  | Mov_r of int * int                         (* dst, src *)
  | Mov_i of int * int
  | Binop_r of Insn.binop * int * int * int    (* op, dst, a, b *)
  | Binop_i of Insn.binop * int * int * int
  | Cmp_r of int * int
  | Cmp_i of int * int
  | Cset of int * Cond.t
  | Csel of int * int * int * Cond.t           (* dst, a, b, cond *)
  | Ldr of int * int * int * Insn.amode        (* dst, base, off, mode *)
  | Str of int * int * int * Insn.amode        (* src, base, off, mode *)
  | Ldp of int * int * int * int * Insn.amode
  | Stp of int * int * int * int * Insn.amode
  | Adr of int * int                           (* dst, address *)
  | Adr_unknown of string                      (* raised when executed *)
  | Bl of int
  | Bl_extern of extern
  | Blr of int
  | Ret
  | B of int
  | Bcond of Cond.t * int * int
  | Cbz of int * int * int
  | Cbnz of int * int * int
  | Tail of int
  | Tail_extern of extern

let holds (c : Cond.t) flags =
  match c with
  | Cond.Eq -> flags = 0
  | Cond.Ne -> flags <> 0
  | Cond.Lt -> flags < 0
  | Cond.Le -> flags <= 0
  | Cond.Gt -> flags > 0
  | Cond.Ge -> flags >= 0

let binop_eval op a b =
  match (op : Insn.binop) with
  | Insn.Add -> a + b
  | Insn.Sub -> a - b
  | Insn.Mul -> a * b
  | Insn.Sdiv -> if b = 0 then 0 else a / b (* AArch64: division by zero yields 0 *)
  | Insn.And -> a land b
  | Insn.Orr -> a lor b
  | Insn.Eor -> a lxor b
  | Insn.Lsl -> a lsl (b land 63)
  | Insn.Lsr -> a lsr (b land 63)
  | Insn.Asr -> a asr (b land 63)

let exit_address = 0xE000
let heap_base = 0x2000_0000
let stack_top = 0x6000_0000

(* The stack region is the 1 MiB below [stack_top] (an iOS main thread's
   stack).  The deepest clean run we know of, across uber_rider, SmallApp_x3,
   the 26 Swiftlet benchmarks and the fuzz lattice, reaches 4,224 bytes
   below the top; runaway recursion in miscompiled code reaches the limit
   within tens of thousands of calls instead of filling memory up to the
   step budget. *)
let stack_limit = stack_top - 0x10_0000
let sp = Reg.index Reg.SP

(* The linked program: decoded slots and the per-slot tables the step
   loop reads. *)
type code = {
  ops : op array;
  insns : Insn.t array;
      (* body slots' instructions, for the trace-ring dump; empty unless
         the ring is on *)
  cost : int array;      (* cycles a slot costs under the perf model *)
  addr_of_slot : int array;
  chain_base : int array;  (* ascending base addresses of non-empty chains *)
  chain_slot : int array;  (* each such chain's first slot *)
  extern_of_addr : extern Int_tbl.t;
  func_names : string array;
  slot_outlined : bool array;
  slot_func : int array;
  slot_blocks : int array array;
}

type state = {
  cfg : config;
  code : code;
  layout : Linker.layout;
  regs : int array;
  mem : int Int_tbl.t;   (* word-indexed: address / 8 *)
  mutable heap_ptr : int;
  mutable output_rev : int list;
  mutable cycles : int;
  mutable calls : int;
  icache : Icache.t;
  itlb : Icache.t;  (* TLBs: one set of page-sized lines *)
  dtlb : Icache.t;
  (* OS-scaled penalties *)
  icache_penalty : int;
  itlb_penalty : int;
  dtlb_penalty : int;
  fault_penalty : int;
  data_pages : unit Int_tbl.t;
  mutable data_fault_cycles : int;
  mutable shadow_stack : string list;  (* callee names, innermost first *)
  (* Cold-start page-in trace: distinct 16 KiB text pages fetched before
     the entry frame's first completed call returns (the "first frame
     drawn" marker).  [cold_depth] counts live frames starting at the
     entry frame; the marker fires when control returns into the entry
     frame after at least one intra-image call, and a run that never
     calls is cold throughout. *)
  cold_pages : unit Int_tbl.t;
  mutable cold_depth : int;
  mutable cold_called : bool;
  mutable cold_done : bool;
  mutable cold_last_page : int;
}

let scale (cfg : config) c =
  int_of_float (float_of_int c *. cfg.os.Device.penalty_scale)

let data_touch st addr =
  if st.cfg.model_perf then begin
    if not (Icache.access st.dtlb addr) then
      st.cycles <- st.cycles + st.dtlb_penalty;
    let page = addr / st.cfg.os.Device.page_bytes in
    if not (Int_tbl.mem st.data_pages page) then begin
      Int_tbl.replace st.data_pages page ();
      st.cycles <- st.cycles + st.fault_penalty;
      st.data_fault_cycles <- st.data_fault_cycles + st.fault_penalty
    end
  end

let load st addr =
  if addr = 0 then raise (Exec_error Null_access);
  if addr land 7 <> 0 then raise (Exec_error (Unaligned_access addr));
  data_touch st addr;
  match Int_tbl.find st.mem (addr asr 3) with
  | v -> v
  | exception Not_found -> 0

let store st addr v =
  if addr = 0 then raise (Exec_error Null_access);
  if addr land 7 <> 0 then raise (Exec_error (Unaligned_access addr));
  data_touch st addr;
  Int_tbl.replace st.mem (addr asr 3) v

(* The effective address of a load or store; applies write-back (never
   to xzr).  An access through SP once SP has left the stack region
   below is a stack overflow, as a guard page would make it. *)
let address regs base off (mode : Insn.amode) =
  let b = regs.(base) in
  let ea =
    match mode with
    | Insn.Offset -> b + off
    | Insn.Pre ->
      if base <> xzr then regs.(base) <- b + off;
      b + off
    | Insn.Post ->
      if base <> xzr then regs.(base) <- b + off;
      b
  in
  if base = sp && regs.(sp) < stack_limit then raise (Exec_error Stack_overflow);
  ea

let alloc st bytes =
  let size = (max bytes 8 + 7) / 8 * 8 in
  let p = st.heap_ptr in
  st.heap_ptr <- st.heap_ptr + size + 16;
  p

let call_extern st e =
  st.calls <- st.calls + 1;
  let x = st.regs in
  match e with
  | Retain ->
    let p = x.(0) in
    if p <> 0 then store st p (load st p + 1)
  | Release ->
    let p = x.(0) in
    if p <> 0 then store st p (load st p - 1)
  | Alloc_object ->
    (* x0 = metadata, x1 = size in bytes. *)
    let metadata = x.(0) and size = x.(1) in
    let p = alloc st (max size 16) in
    store st p 1;
    store st (p + 8) metadata;
    x.(0) <- p
  | Alloc_array ->
    (* x0 = element count; header [refcount; len]; payload at +16. *)
    let len = x.(0) in
    if len < 0 then raise (Exec_error (Trap "negative array length"));
    let p = alloc st ((len * 8) + 16) in
    store st p 1;
    store st (p + 8) len;
    x.(0) <- p
  | Access_marker -> ()
  | Print -> st.output_rev <- x.(0) :: st.output_rev
  | Bounds_fail -> raise (Exec_error (Trap "array index out of bounds"))
  | Memcpy8 ->
    (* x0 = dst, x1 = src, x2 = word count. *)
    let dst = x.(0) and src = x.(1) and words = x.(2) in
    for i = 0 to words - 1 do
      store st (dst + (8 * i)) (load st (src + (8 * i)))
    done
  | Unknown name -> (
    match st.cfg.unknown_extern with
    | `Error -> raise (Exec_error (Unknown_symbol name))
    | `Noop -> x.(0) <- 0)

(* The interpreter's code image is a flat slot array.  A split function
   contributes two chains — hot blocks at the function's own symbol, cold
   blocks at its [Linker.cold_symbol] in the __text_cold region — and the
   chains are emitted in *address* order so that slot adjacency equals
   placement adjacency.  A [Fallthrough] terminator occupies no slot (it
   is an elided branch): execution simply continues into the next block's
   first slot, which byte-faithfully models the merged chain. *)
let term_slots (b : Block.t) =
  match b.Block.term with Block.Fallthrough _ -> 0 | _ -> 1

let insn_cost (d : Device.t) (i : Insn.t) =
  match i with
  | Insn.Ldr _ | Insn.Ldp _ -> d.Device.load_cost
  | Insn.Str _ | Insn.Stp _ -> d.Device.store_cost
  | Insn.Binop (Insn.Mul, _, _, _) -> d.Device.mul_cost
  | Insn.Binop (Insn.Sdiv, _, _, _) -> d.Device.div_cost
  | Insn.Bl _ | Insn.Blr _ -> d.Device.call_cost
  | _ -> d.Device.issue_cost

(* Decode every slot of the linked program.  With [counts], also intern
   every chain's function and every block: [slot_func] maps each slot to
   its function's id, and [slot_blocks] to the ids of the blocks that
   start there, in execution order (several when empty blocks share a
   start).  Both are empty without [counts]. *)
let build_slots (cfg : config) ?counts (p : Program.t) layout =
  let funcs = Array.of_list p.funcs in
  (* Chains in address order, each with its function's index. *)
  let chains =
    List.concat
      (List.mapi
         (fun fi (f : Mfunc.t) ->
           match Mfunc.partition f with
           | blocks, [] -> [ (Linker.address_of layout f.name, fi, blocks) ]
           | hot, cold ->
             [
               (Linker.address_of layout f.name, fi, hot);
               (Linker.address_of layout (Linker.cold_symbol f.name), fi, cold);
             ])
         p.funcs)
    |> Array.of_list
  in
  Array.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) chains;
  let n =
    Array.fold_left
      (fun acc (_, _, blocks) ->
        List.fold_left
          (fun acc (b : Block.t) -> acc + Array.length b.Block.body + term_slots b)
          acc blocks)
      0 chains
  in
  (* First pass: every block's start slot, in its function's label table,
     and every non-empty chain's base address and first slot.  An empty
     block whose branch was elided shares its start slot with the next
     block in the chain; a start at [n] belongs to trailing empty blocks
     no slot reaches. *)
  let labels =
    Array.map (fun (f : Mfunc.t) -> Hashtbl.create (List.length f.blocks)) funcs
  in
  let slot_blocks = Array.make (if Option.is_none counts then 0 else n) [||] in
  let bases = ref [] and firsts = ref [] in
  let counter = ref 0 in
  Array.iter
    (fun (base, fi, blocks) ->
      let name = funcs.(fi).Mfunc.name in
      let first = !counter in
      List.iter
        (fun (b : Block.t) ->
          let s = !counter in
          Hashtbl.replace labels.(fi) b.Block.label s;
          (match counts with
          | Some counts ->
            let id = intern counts.blocks (name, b.Block.label) in
            if s < n then
              slot_blocks.(s) <-
                (if Array.length slot_blocks.(s) = 0 then [| id |]
                 else Array.append slot_blocks.(s) [| id |])
          | None -> ());
          counter := s + Array.length b.Block.body + term_slots b)
        blocks;
      if !counter > first then begin
        bases := base :: !bases;
        firsts := first :: !firsts
      end)
    chains;
  let chain_base = Array.of_list (List.rev !bases) in
  let chain_slot = Array.of_list (List.rev !firsts) in
  let func_slot = Hashtbl.create (Array.length funcs) in
  Array.iteri
    (fun fi (f : Mfunc.t) ->
      match f.blocks with
      | [] -> ()
      | b :: _ ->
        Hashtbl.replace func_slot f.name (Hashtbl.find labels.(fi) b.Block.label))
    funcs;
  let extern_of_addr = Int_tbl.create 64 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt layout.Linker.addresses e with
      | Some a when Hashtbl.find_opt layout.Linker.kinds e = Some Linker.Extern ->
        Int_tbl.replace extern_of_addr a (extern_of_name e)
      | Some _ | None -> ())
    p.externs;
  let d = cfg.device in
  (* A call or tail-call target's entry slot, or -1 for an extern. *)
  let func_at sym =
    match Hashtbl.find func_slot sym with s -> s | exception Not_found -> -1
  in
  let decode (i : Insn.t) =
    match i with
    | Insn.Nop -> Nop
    | Insn.Mov (r, Insn.Rop s) -> Mov_r (write_index r, Reg.index s)
    | Insn.Mov (r, Insn.Imm n) -> Mov_i (write_index r, n)
    | Insn.Binop (op, r, a, Insn.Rop b) ->
      Binop_r (op, write_index r, Reg.index a, Reg.index b)
    | Insn.Binop (op, r, a, Insn.Imm n) ->
      Binop_i (op, write_index r, Reg.index a, n)
    | Insn.Cmp (a, Insn.Rop b) -> Cmp_r (Reg.index a, Reg.index b)
    | Insn.Cmp (a, Insn.Imm n) -> Cmp_i (Reg.index a, n)
    | Insn.Cset (r, c) -> Cset (write_index r, c)
    | Insn.Csel (r, a, b, c) ->
      Csel (write_index r, Reg.index a, Reg.index b, c)
    | Insn.Ldr (r, a) -> Ldr (write_index r, Reg.index a.base, a.off, a.mode)
    | Insn.Str (r, a) -> Str (Reg.index r, Reg.index a.base, a.off, a.mode)
    | Insn.Ldp (r1, r2, a) ->
      Ldp (write_index r1, write_index r2, Reg.index a.base, a.off, a.mode)
    | Insn.Stp (r1, r2, a) ->
      Stp (Reg.index r1, Reg.index r2, Reg.index a.base, a.off, a.mode)
    | Insn.Adr (r, sym) -> (
      match Hashtbl.find layout.Linker.addresses sym with
      | a -> Adr (write_index r, a)
      | exception Not_found -> Adr_unknown sym)
    | Insn.Bl sym ->
      let t = func_at sym in
      if t >= 0 then Bl t else Bl_extern (extern_of_name sym)
    | Insn.Blr r -> Blr (Reg.index r)
  in
  let ops = Array.make n Nop in
  let insns = Array.make (if cfg.trace_ring > 0 then n else 0) Insn.Nop in
  let cost = Array.make n d.Device.branch_cost in
  let addr_of_slot = Array.make n 0 in
  let func_names = Array.make n "" in
  let slot_outlined = Array.make n false in
  let slot_func = Array.make (if Option.is_none counts then 0 else n) 0 in
  let s = ref 0 in
  Array.iter
    (fun (base, fi, blocks) ->
      let f = funcs.(fi) in
      let first = !s in
      let block_idx l =
        match Hashtbl.find labels.(fi) l with
        | i -> i
        | exception Not_found ->
          invalid_arg ("Interp: unknown label " ^ l ^ " in " ^ f.name)
      in
      let emit op =
        ops.(!s) <- op;
        addr_of_slot.(!s) <- base + (4 * (!s - first));
        incr s
      in
      List.iter
        (fun (b : Block.t) ->
          Array.iter
            (fun i ->
              if cfg.trace_ring > 0 then insns.(!s) <- i;
              cost.(!s) <- insn_cost d i;
              emit (decode i))
            b.Block.body;
          match b.Block.term with
          | Block.Ret -> emit Ret
          | Block.B l -> emit (B (block_idx l))
          | Block.Bcond (c, a, b') -> emit (Bcond (c, block_idx a, block_idx b'))
          | Block.Cbz (r, a, b') ->
            emit (Cbz (Reg.index r, block_idx a, block_idx b'))
          | Block.Cbnz (r, a, b') ->
            emit (Cbnz (Reg.index r, block_idx a, block_idx b'))
          | Block.Tail_call sym ->
            let t = func_at sym in
            emit (if t >= 0 then Tail t else Tail_extern (extern_of_name sym))
          | Block.Fallthrough _ -> ())
        blocks;
      let count = !s - first in
      Array.fill func_names first count f.name;
      Option.iter
        (fun c -> Array.fill slot_func first count (intern c.funcs f.name))
        counts;
      if f.is_outlined then Array.fill slot_outlined first count true)
    chains;
  {
    ops;
    insns;
    cost;
    addr_of_slot;
    chain_base;
    chain_slot;
    extern_of_addr;
    func_names;
    slot_outlined;
    slot_func;
    slot_blocks;
  }

(* The slot at address [a], or -1: the last chain based at or below [a],
   if [a] falls on one of its slots. *)
let slot_at code a =
  let bases = code.chain_base in
  let nc = Array.length bases in
  let lo = ref 0 and hi = ref nc in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if bases.(mid) <= a then lo := mid + 1 else hi := mid
  done;
  let c = !lo - 1 in
  if c < 0 then -1
  else
    let off = a - bases.(c) in
    let stop = if c + 1 < nc then code.chain_slot.(c + 1) else Array.length code.ops in
    let s = code.chain_slot.(c) + (off asr 2) in
    if off land 3 = 0 && s < stop then s else -1

let init_memory (p : Program.t) layout mem =
  List.iter
    (fun (d : Dataobj.t) ->
      let base = Linker.address_of layout d.name in
      Array.iteri
        (fun i init ->
          let v =
            match init with
            | Dataobj.Word w -> w
            | Dataobj.Sym s -> (
              match Hashtbl.find_opt layout.Linker.addresses s with
              | Some a -> a
              | None -> raise (Exec_error (Unknown_symbol s)))
          in
          Int_tbl.replace mem ((base + (8 * i)) asr 3) v)
        d.words)
    p.data

let fetch_costs st addr =
  if not (Icache.access st.icache addr) then
    st.cycles <- st.cycles + st.icache_penalty;
  if not (Icache.access st.itlb addr) then
    st.cycles <- st.cycles + st.itlb_penalty;
  if not st.cold_done then begin
    let page = addr / st.cfg.os.Device.page_bytes in
    if page <> st.cold_last_page then begin
      st.cold_last_page <- page;
      if not (Int_tbl.mem st.cold_pages page) then
        Int_tbl.replace st.cold_pages page ()
    end
  end

(* Entry-frame depth bookkeeping for the cold-start marker.  Tail calls
   within the image replace the current frame, so they touch neither
   counter; a tail transfer to an extern exits the frame like a return. *)
let cold_push st =
  if not st.cold_done then begin
    st.cold_called <- true;
    st.cold_depth <- st.cold_depth + 1
  end

let cold_pop st =
  if not st.cold_done then begin
    st.cold_depth <- st.cold_depth - 1;
    if st.cold_called && st.cold_depth <= 1 then st.cold_done <- true
  end

(* The slot after a return to [a]; [halt] past the run's last return. *)
let halt = -1

let jump_to_address st a =
  if a = exit_address then halt
  else
    let s = slot_at st.code a in
    if s < 0 then raise (Exec_error (Bad_jump a)) else s

(* The trace-ring dump: each recorded slot symbolized through the linker
   layout (the nearest Text symbol at or below the slot's address). *)
let dump_ring st ring pos =
  let n = Array.length ring in
  let lines = ref [] in
  for i = max 0 (pos - n) to pos - 1 do
    let s = ring.(i mod n) in
    let addr =
      if s >= 0 && s < Array.length st.code.addr_of_slot then
        st.code.addr_of_slot.(s)
      else -1
    in
    let sym =
      match Linker.symbolize st.layout addr with
      | Some name -> name
      | None -> "?"
    in
    let d =
      match st.code.ops.(s) with
      | Ret -> "ret"
      | B _ -> "b <label>"
      | Bcond _ -> "b.cond"
      | Cbz _ -> "cbz"
      | Cbnz _ -> "cbnz"
      | Tail _ | Tail_extern _ -> "b <tail>"
      | _ -> Insn.to_string st.code.insns.(s)
    in
    lines := Printf.sprintf "0x%06x  %-28s %s" addr sym d :: !lines
  done;
  let lines = List.rev !lines in
  Printf.eprintf "--- trace ring (oldest first) ---\n";
  List.iter (fun l -> Printf.eprintf "%s\n" l) lines;
  Printf.eprintf "---------------------------------\n%!";
  lines

(* One run; a failure carries that run's own shadow stack and trace-ring
   dump, so concurrent runs never see each other's diagnostics. *)
let exec ?(config = default_config) ?(args = []) ?order ?counts ~entry
    (p : Program.t) =
  match Program.find_func p entry with
  | None -> Error { error = No_entry entry; backtrace = []; trace = [] }
  | Some _ -> (
    let layout = Linker.link ?order p in
    let code = build_slots config ?counts p layout in
    let d = config.device in
    let tlb entries =
      let page = config.os.Device.page_bytes in
      Icache.create ~size_bytes:(entries * page) ~line_bytes:page ~assoc:entries
    in
    let st =
      {
        cfg = config;
        code;
        layout;
        regs = Array.make (sink + 1) 0;
        mem = Int_tbl.create 65536;
        heap_ptr = heap_base;
        output_rev = [];
        cycles = 0;
        calls = 0;
        icache =
          Icache.create ~size_bytes:d.Device.icache_bytes
            ~line_bytes:d.Device.icache_line ~assoc:d.Device.icache_assoc;
        itlb = tlb d.Device.itlb_entries;
        dtlb = tlb d.Device.dtlb_entries;
        icache_penalty = scale config d.Device.icache_miss_penalty;
        itlb_penalty = scale config d.Device.itlb_miss_penalty;
        dtlb_penalty = scale config d.Device.dtlb_miss_penalty;
        fault_penalty = scale config d.Device.data_fault_penalty;
        data_pages = Int_tbl.create 256;
        data_fault_cycles = 0;
        shadow_stack = [ entry ];
        cold_pages = Int_tbl.create 64;
        cold_depth = 1;
        cold_called = false;
        (* Tracking costs a page computation per fetch, so it is wired to
           the same switch as the rest of the perf model. *)
        cold_done = not config.model_perf;
        cold_last_page = -1;
      }
    in
    let regs = st.regs in
    let dump_hook = ref (fun () -> []) in
    try
      init_memory p layout st.mem;
      List.iteri (fun i v -> if i < Reg.max_args then regs.(i) <- v) args;
      regs.(sp) <- stack_top;
      regs.(lr) <- exit_address;
      let entry_slot =
        let a = Linker.address_of layout entry in
        let s = slot_at code a in
        if s < 0 then raise (Exec_error (No_entry entry)) else s
      in
      (* What a step records is decided here, once per run. *)
      let ops = code.ops and n = Array.length code.ops in
      let max_steps = config.max_steps and model_perf = config.model_perf in
      let ring = Array.make (max 0 config.trace_ring) (-1) in
      let ring_on = config.trace_ring > 0 and ring_pos = ref 0 in
      if ring_on then dump_hook := (fun () -> dump_ring st ring !ring_pos);
      (* Profile counts: the entry, each intra-image call or tail
         transfer, and each block entry. *)
      Option.iter (fun c -> count_entry c (intern c.funcs entry)) counts;
      let block_entries =
        match counts with Some c -> c.blocks.entries | None -> [||]
      in
      let counting = Option.is_some counts in
      let enter idx s =
        (match counts with
        | Some c -> count_call c code.slot_func.(idx) code.slot_func.(s)
        | None -> ());
        s
      in
      let call idx s =
        st.calls <- st.calls + 1;
        cold_push st;
        st.shadow_stack <- code.func_names.(s) :: st.shadow_stack;
        enter idx s
      in
      let pc = ref entry_slot in
      let steps = ref 0 and outlined_steps = ref 0 and branches = ref 0 in
      while !pc <> halt do
        if !steps >= max_steps then raise (Exec_error Step_limit_exceeded);
        let idx = !pc in
        if idx < 0 || idx >= n then raise (Exec_error (Bad_jump idx));
        if ring_on then begin
          ring.(!ring_pos mod config.trace_ring) <- idx;
          incr ring_pos
        end;
        if model_perf then begin
          fetch_costs st code.addr_of_slot.(idx);
          st.cycles <- st.cycles + code.cost.(idx)
        end;
        if counting then begin
          let bs = code.slot_blocks.(idx) in
          for i = 0 to Array.length bs - 1 do
            block_entries.(bs.(i)) <- block_entries.(bs.(i)) + 1
          done
        end;
        incr steps;
        if code.slot_outlined.(idx) then incr outlined_steps;
        pc :=
          match ops.(idx) with
          | Mov_r (r, s) ->
            regs.(r) <- regs.(s);
            idx + 1
          | Mov_i (r, v) ->
            regs.(r) <- v;
            idx + 1
          | Binop_r (op, r, a, b) ->
            regs.(r) <- binop_eval op regs.(a) regs.(b);
            idx + 1
          | Binop_i (op, r, a, v) ->
            regs.(r) <- binop_eval op regs.(a) v;
            idx + 1
          | Cmp_r (a, b) ->
            regs.(nzcv) <- compare (regs.(a) : int) regs.(b);
            idx + 1
          | Cmp_i (a, v) ->
            regs.(nzcv) <- compare (regs.(a) : int) v;
            idx + 1
          | Cset (r, c) ->
            regs.(r) <- (if holds c regs.(nzcv) then 1 else 0);
            idx + 1
          | Csel (r, a, b, c) ->
            regs.(r) <- (if holds c regs.(nzcv) then regs.(a) else regs.(b));
            idx + 1
          | Ldr (r, base, off, mode) ->
            let ea = address regs base off mode in
            regs.(r) <- load st ea;
            idx + 1
          | Str (r, base, off, mode) ->
            let ea = address regs base off mode in
            store st ea regs.(r);
            idx + 1
          | Ldp (r1, r2, base, off, mode) ->
            let ea = address regs base off mode in
            regs.(r1) <- load st ea;
            regs.(r2) <- load st (ea + 8);
            idx + 1
          | Stp (r1, r2, base, off, mode) ->
            let ea = address regs base off mode in
            store st ea regs.(r1);
            store st (ea + 8) regs.(r2);
            idx + 1
          | Adr (r, a) ->
            regs.(r) <- a;
            idx + 1
          | Adr_unknown sym -> raise (Exec_error (Unknown_symbol sym))
          | Nop -> idx + 1
          | Bl s ->
            regs.(lr) <- code.addr_of_slot.(idx) + 4;
            call idx s
          | Bl_extern e ->
            regs.(lr) <- code.addr_of_slot.(idx) + 4;
            call_extern st e;
            idx + 1
          | Blr r -> (
            let dest = regs.(r) in
            regs.(lr) <- code.addr_of_slot.(idx) + 4;
            let s = slot_at code dest in
            if s >= 0 then call idx s
            else
              match Int_tbl.find code.extern_of_addr dest with
              | e ->
                call_extern st e;
                idx + 1
              | exception Not_found -> raise (Exec_error (Bad_jump dest)))
          | Ret ->
            incr branches;
            cold_pop st;
            (match st.shadow_stack with
            | _ :: rest -> st.shadow_stack <- rest
            | [] -> ());
            jump_to_address st regs.(lr)
          | B t ->
            incr branches;
            t
          | Bcond (c, a, b) ->
            incr branches;
            if holds c regs.(nzcv) then a else b
          | Cbz (r, a, b) ->
            incr branches;
            if regs.(r) = 0 then a else b
          | Cbnz (r, a, b) ->
            incr branches;
            if regs.(r) <> 0 then a else b
          | Tail s ->
            incr branches;
            (match st.shadow_stack with
            | _ :: rest -> st.shadow_stack <- code.func_names.(s) :: rest
            | [] -> st.shadow_stack <- [ code.func_names.(s) ]);
            enter idx s
          | Tail_extern e ->
            incr branches;
            (* A tail call to an extern returns to the current LR. *)
            let ret = regs.(lr) in
            cold_pop st;
            call_extern st e;
            jump_to_address st ret
      done;
      Ok
        {
          exit_value = regs.(0);
          output = List.rev st.output_rev;
          steps = !steps;
          outlined_steps = !outlined_steps;
          cycles = st.cycles;
          icache_misses = Icache.misses st.icache;
          icache_accesses = Icache.hits st.icache + Icache.misses st.icache;
          itlb_misses = Icache.misses st.itlb;
          dtlb_misses = Icache.misses st.dtlb;
          data_pages_touched = Int_tbl.length st.data_pages;
          data_fault_cycles = st.data_fault_cycles;
          cold_start_pages = Int_tbl.length st.cold_pages;
          (* Reported beside [cycles], not folded into it: the fault cost
             is paid once per install-then-launch, not per steady-state
             run, and keeping it separate keeps [cycles] comparable with
             pre-cold-start baselines. *)
          cold_start_cost = Int_tbl.length st.cold_pages * st.fault_penalty;
          branches = !branches;
          calls = st.calls;
        }
    with Exec_error e ->
      let trace = try !dump_hook () with _ -> [] in
      Error { error = e; backtrace = st.shadow_stack; trace })

let run ?config ?args ?order ?counts ~entry p =
  Result.map_error
    (fun f -> f.error)
    (exec ?config ?args ?order ?counts ~entry p)


(* The §VI-4 anecdote: a failure inside an outlined function shows
   OUTLINED_FUNCTION_* on top of the stack; the real feature code is one
   level down.  [run_with_backtrace] surfaces that stack. *)
let run_with_backtrace ?config ?args ?order ~entry p =
  exec ?config ?args ?order ~entry p
