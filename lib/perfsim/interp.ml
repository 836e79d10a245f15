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
  | Trap of string
  | No_entry of string

let error_to_string = function
  | Unknown_symbol s -> "unknown symbol: " ^ s
  | Null_access -> "null access"
  | Unaligned_access a -> Printf.sprintf "unaligned access at 0x%x" a
  | Bad_jump a -> Printf.sprintf "jump to unmapped address 0x%x" a
  | Step_limit_exceeded -> "step limit exceeded"
  | Trap s -> "trap: " ^ s
  | No_entry s -> "entry function not found: " ^ s

type failure = {
  error : error;
  backtrace : string list;
  trace : string list;
}

exception Exec_error of error

(* Resolved control transfer targets. *)
type target =
  | T_slot of int
  | T_extern of string

type slot =
  | S_insn of Insn.t
  | S_ret
  | S_b of int
  | S_bcond of Cond.t * int * int
  | S_cbz of Reg.t * int * int
  | S_cbnz of Reg.t * int * int
  | S_tail of target
  | S_bl of target * Insn.t   (* keep the original insn for cost/trace *)
  | S_blr of Reg.t

let exit_address = 0xE000
let heap_base = 0x2000_0000
let stack_top = 0x6000_0000

type state = {
  cfg : config;
  slots : slot array;
  addr_of_slot : int array;
  slot_of_addr : (int, int) Hashtbl.t;
  extern_of_addr : (int, string) Hashtbl.t;
  layout : Linker.layout;
  regs : int array;
  mem : (int, int) Hashtbl.t;   (* word-indexed: address / 8 *)
  mutable heap_ptr : int;
  mutable output_rev : int list;
  mutable steps : int;
  mutable cycles : int;
  mutable branches : int;
  mutable calls : int;
  icache : Icache.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  data_pages : (int, unit) Hashtbl.t;
  mutable data_fault_cycles : int;
  mutable shadow_stack : string list;  (* callee names, innermost first *)
  mutable outlined_steps : int;
  (* Cold-start page-in trace: distinct 16 KiB text pages fetched before
     the entry frame's first completed call returns (the "first frame
     drawn" marker).  [cold_depth] counts live frames starting at the
     entry frame; the marker fires when control returns into the entry
     frame after at least one intra-image call, and a run that never
     calls is cold throughout. *)
  cold_pages : (int, unit) Hashtbl.t;
  mutable cold_depth : int;
  mutable cold_called : bool;
  mutable cold_done : bool;
  mutable cold_last_page : int;
}

let scale st c = int_of_float (float_of_int c *. st.cfg.os.Device.penalty_scale)

let get_reg st r =
  match r with
  | Reg.XZR -> 0
  | _ -> st.regs.(Reg.index r)

let set_reg st r v =
  match r with
  | Reg.XZR -> ()
  | _ -> st.regs.(Reg.index r) <- v

let operand st = function
  | Insn.Rop r -> get_reg st r
  | Insn.Imm n -> n

let data_touch st addr =
  if st.cfg.model_perf then begin
    if not (Tlb.access st.dtlb addr) then
      st.cycles <- st.cycles + scale st st.cfg.device.Device.dtlb_miss_penalty;
    let page = addr / st.cfg.os.Device.page_bytes in
    if not (Hashtbl.mem st.data_pages page) then begin
      Hashtbl.replace st.data_pages page ();
      let pen = scale st st.cfg.device.Device.data_fault_penalty in
      st.cycles <- st.cycles + pen;
      st.data_fault_cycles <- st.data_fault_cycles + pen
    end
  end

let load st addr =
  if addr = 0 then raise (Exec_error Null_access);
  if addr land 7 <> 0 then raise (Exec_error (Unaligned_access addr));
  data_touch st addr;
  Option.value ~default:0 (Hashtbl.find_opt st.mem (addr asr 3))

let store st addr v =
  if addr = 0 then raise (Exec_error Null_access);
  if addr land 7 <> 0 then raise (Exec_error (Unaligned_access addr));
  data_touch st addr;
  Hashtbl.replace st.mem (addr asr 3) v

let addr_mode st (a : Insn.addr) =
  (* Returns the effective access address; applies write-back. *)
  let base = get_reg st a.base in
  match a.mode with
  | Insn.Offset -> base + a.off
  | Insn.Pre ->
    let ea = base + a.off in
    set_reg st a.base ea;
    ea
  | Insn.Post ->
    set_reg st a.base (base + a.off);
    base

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

let alloc st bytes =
  let size = (max bytes 8 + 7) / 8 * 8 in
  let p = st.heap_ptr in
  st.heap_ptr <- st.heap_ptr + size + 16;
  p

(* Built-in runtime. Returns [true] if the symbol was handled. *)
let runtime_call st name =
  let x n = st.regs.(Reg.index (Reg.x n)) in
  match name with
  | "swift_retain" | "objc_retain" ->
    let p = x 0 in
    if p <> 0 then store st p (load st p + 1);
    true
  | "swift_release" | "objc_release" ->
    let p = x 0 in
    if p <> 0 then store st p (load st p - 1);
    true
  | "swift_allocObject" ->
    (* x0 = metadata, x1 = size in bytes. *)
    let metadata = x 0 and size = x 1 in
    let p = alloc st (max size 16) in
    store st p 1;
    store st (p + 8) metadata;
    set_reg st (Reg.x 0) p;
    true
  | "swift_allocArray" ->
    (* x0 = element count; header [refcount; len]; payload at +16. *)
    let len = x 0 in
    if len < 0 then raise (Exec_error (Trap "negative array length"));
    let p = alloc st ((len * 8) + 16) in
    store st p 1;
    store st (p + 8) len;
    set_reg st (Reg.x 0) p;
    true
  | "swift_beginAccess" | "swift_endAccess" -> true
  | "print_i64" ->
    st.output_rev <- x 0 :: st.output_rev;
    true
  | "swift_bounds_fail" -> raise (Exec_error (Trap "array index out of bounds"))
  | "memcpy8" ->
    (* x0 = dst, x1 = src, x2 = word count. *)
    let dst = x 0 and src = x 1 and words = x 2 in
    for i = 0 to words - 1 do
      store st (dst + (8 * i)) (load st (src + (8 * i)))
    done;
    true
  | _ -> false

(* The interpreter's code image is a flat slot array.  A split function
   contributes two chains — hot blocks at the function's own symbol, cold
   blocks at its [Linker.cold_symbol] in the __text_cold region — and the
   chains are emitted in *address* order so that slot adjacency equals
   placement adjacency.  A [Fallthrough] terminator occupies no slot (it
   is an elided branch): execution simply continues into the next block's
   first slot, which byte-faithfully models the merged chain. *)
let term_slots (b : Block.t) =
  match b.Block.term with Block.Fallthrough _ -> 0 | _ -> 1

(* With [counts], also intern every chain's function and every block:
   [slot_func] maps each slot to its function's id, and [slot_blocks] to
   the ids of the blocks that start there, in execution order (several
   when empty blocks share a start).  Both are empty without [counts]. *)
let build_slots ?counts (p : Program.t) layout =
  let chains =
    List.concat_map
      (fun (f : Mfunc.t) ->
        match Mfunc.partition f with
        | blocks, [] -> [ (Linker.address_of layout f.name, f, blocks) ]
        | hot, cold ->
          [
            (Linker.address_of layout f.name, f, hot);
            (Linker.address_of layout (Linker.cold_symbol f.name), f, cold);
          ])
      p.funcs
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  let slots = ref [] and n = ref 0 in
  let addr_acc = ref [] in
  let slot_of_addr = Hashtbl.create 4096 in
  (* First pass: assign slot indices to every (func, block) start.  An
     empty block whose branch was elided shares its start slot with the
     next block in the chain. *)
  let block_slot = Hashtbl.create 1024 in
  let func_slot = Hashtbl.create 256 in
  let starts_rev = ref [] in
  let counter = ref 0 in
  List.iter
    (fun (_, (f : Mfunc.t), blocks) ->
      List.iter
        (fun (b : Block.t) ->
          Hashtbl.replace block_slot (f.name, b.Block.label) !counter;
          Option.iter
            (fun c ->
              let id = intern c.blocks (f.name, b.Block.label) in
              starts_rev := (!counter, id) :: !starts_rev)
            counts;
          counter := !counter + Array.length b.Block.body + term_slots b)
        blocks)
    chains;
  (* A start at [!counter] belongs to trailing empty blocks no slot
     reaches. *)
  let slot_blocks =
    Array.make (if Option.is_none counts then 0 else !counter) [||]
  in
  List.iter
    (fun (s, id) ->
      if s < !counter then
        slot_blocks.(s) <- Array.append slot_blocks.(s) [| id |])
    (List.rev !starts_rev);
  List.iter
    (fun (f : Mfunc.t) ->
      match f.blocks with
      | [] -> ()
      | b :: _ ->
        Hashtbl.replace func_slot f.name
          (Hashtbl.find block_slot (f.name, b.Block.label)))
    p.funcs;
  let extern_of_addr = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt layout.Linker.addresses e with
      | Some a when Hashtbl.find_opt layout.Linker.kinds e = Some Linker.Extern ->
        Hashtbl.replace extern_of_addr a e
      | Some _ | None -> ())
    p.externs;
  let target_of sym =
    match Hashtbl.find_opt func_slot sym with
    | Some idx -> T_slot idx
    | None -> T_extern sym
  in
  List.iter
    (fun (base, (f : Mfunc.t), blocks) ->
      let block_idx l =
        match Hashtbl.find_opt block_slot (f.name, l) with
        | Some i -> i
        | None -> invalid_arg ("Interp: unknown label " ^ l ^ " in " ^ f.name)
      in
      let off = ref 0 in
      List.iter
        (fun (b : Block.t) ->
          Array.iter
            (fun i ->
              let s =
                match i with
                | Insn.Bl sym -> S_bl (target_of sym, i)
                | Insn.Blr r -> S_blr r
                | _ -> S_insn i
              in
              slots := s :: !slots;
              addr_acc := (base + !off) :: !addr_acc;
              Hashtbl.replace slot_of_addr (base + !off) !n;
              incr n;
              off := !off + 4)
            b.Block.body;
          let t =
            match b.Block.term with
            | Block.Ret -> Some S_ret
            | Block.B l -> Some (S_b (block_idx l))
            | Block.Bcond (c, a, b') ->
              Some (S_bcond (c, block_idx a, block_idx b'))
            | Block.Cbz (r, a, b') -> Some (S_cbz (r, block_idx a, block_idx b'))
            | Block.Cbnz (r, a, b') ->
              Some (S_cbnz (r, block_idx a, block_idx b'))
            | Block.Tail_call sym -> Some (S_tail (target_of sym))
            | Block.Fallthrough _ -> None
          in
          match t with
          | None -> ()
          | Some t ->
            slots := t :: !slots;
            addr_acc := (base + !off) :: !addr_acc;
            Hashtbl.replace slot_of_addr (base + !off) !n;
            incr n;
            off := !off + 4)
        blocks)
    chains;
  let func_names = Array.make !n "" in
  let slot_func = Array.make (if Option.is_none counts then 0 else !n) 0 in
  let slot_outlined = Array.make !n false in
  let fidx = ref 0 in
  List.iter
    (fun (_, (f : Mfunc.t), blocks) ->
      let count =
        List.fold_left
          (fun acc (b : Block.t) ->
            acc + Array.length b.Block.body + term_slots b)
          0 blocks
      in
      Array.fill func_names !fidx count f.name;
      Option.iter
        (fun c -> Array.fill slot_func !fidx count (intern c.funcs f.name))
        counts;
      if f.is_outlined then Array.fill slot_outlined !fidx count true;
      fidx := !fidx + count)
    chains;
  ( Array.of_list (List.rev !slots),
    Array.of_list (List.rev !addr_acc),
    slot_of_addr,
    extern_of_addr,
    func_names,
    slot_outlined,
    slot_func,
    slot_blocks )

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
          Hashtbl.replace mem ((base + (8 * i)) asr 3) v)
        d.words)
    p.data

let insn_cost st (i : Insn.t) =
  let d = st.cfg.device in
  match i with
  | Insn.Ldr _ | Insn.Ldp _ -> d.Device.load_cost
  | Insn.Str _ | Insn.Stp _ -> d.Device.store_cost
  | Insn.Binop (Insn.Mul, _, _, _) -> d.Device.mul_cost
  | Insn.Binop (Insn.Sdiv, _, _, _) -> d.Device.div_cost
  | Insn.Bl _ | Insn.Blr _ -> d.Device.call_cost
  | _ -> d.Device.issue_cost

let fetch_costs st addr =
  if st.cfg.model_perf then begin
    if not (Icache.access st.icache addr) then
      st.cycles <- st.cycles + scale st st.cfg.device.Device.icache_miss_penalty;
    if not (Tlb.access st.itlb addr) then
      st.cycles <- st.cycles + scale st st.cfg.device.Device.itlb_miss_penalty;
    if not st.cold_done then begin
      let page = addr / st.cfg.os.Device.page_bytes in
      if page <> st.cold_last_page then begin
        st.cold_last_page <- page;
        if not (Hashtbl.mem st.cold_pages page) then
          Hashtbl.replace st.cold_pages page ()
      end
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

let exec_insn st (i : Insn.t) =
  match i with
  | Insn.Mov (d, op) -> set_reg st d (operand st op)
  | Insn.Binop (op, d, a, b) ->
    set_reg st d (binop_eval op (get_reg st a) (operand st b))
  | Insn.Cmp (a, b) ->
    set_reg st Reg.NZCV (compare (get_reg st a) (operand st b))
  | Insn.Cset (d, c) ->
    set_reg st d (if Cond.holds c (get_reg st Reg.NZCV) then 1 else 0)
  | Insn.Csel (d, a, b, c) ->
    set_reg st d
      (if Cond.holds c (get_reg st Reg.NZCV) then get_reg st a else get_reg st b)
  | Insn.Ldr (d, a) ->
    let ea = addr_mode st a in
    set_reg st d (load st ea)
  | Insn.Str (s, a) ->
    let ea = addr_mode st a in
    store st ea (get_reg st s)
  | Insn.Ldp (d1, d2, a) ->
    let ea = addr_mode st a in
    set_reg st d1 (load st ea);
    set_reg st d2 (load st (ea + 8))
  | Insn.Stp (s1, s2, a) ->
    let ea = addr_mode st a in
    store st ea (get_reg st s1);
    store st (ea + 8) (get_reg st s2)
  | Insn.Adr (d, sym) -> (
    match Hashtbl.find_opt st.layout.Linker.addresses sym with
    | Some a -> set_reg st d a
    | None -> raise (Exec_error (Unknown_symbol sym)))
  | Insn.Bl _ | Insn.Blr _ -> assert false (* handled by the driver *)
  | Insn.Nop -> ()

(* One run; a failure carries that run's own shadow stack and trace-ring
   dump, so concurrent runs never see each other's diagnostics. *)
let exec ?(config = default_config) ?(args = []) ?order ?counts ~entry
    (p : Program.t) =
  match Program.find_func p entry with
  | None -> Error { error = No_entry entry; backtrace = []; trace = [] }
  | Some _ -> (
    let layout = Linker.link ?order p in
    let ( slots,
          addr_of_slot,
          slot_of_addr,
          extern_of_addr,
          func_names,
          slot_outlined,
          slot_func,
          slot_blocks ) =
      build_slots ?counts p layout
    in
    let d = config.device in
    let st =
      {
        cfg = config;
        slots;
        addr_of_slot;
        slot_of_addr;
        extern_of_addr;
        layout;
        regs = Array.make Reg.count 0;
        mem = Hashtbl.create 65536;
        heap_ptr = heap_base;
        output_rev = [];
        steps = 0;
        cycles = 0;
        branches = 0;
        calls = 0;
        icache =
          Icache.create ~size_bytes:d.Device.icache_bytes
            ~line_bytes:d.Device.icache_line ~assoc:d.Device.icache_assoc;
        itlb =
          Tlb.create ~entries:d.Device.itlb_entries
            ~page_bytes:config.os.Device.page_bytes;
        dtlb =
          Tlb.create ~entries:d.Device.dtlb_entries
            ~page_bytes:config.os.Device.page_bytes;
        data_pages = Hashtbl.create 256;
        data_fault_cycles = 0;
        shadow_stack = [ entry ];
        outlined_steps = 0;
        cold_pages = Hashtbl.create 64;
        cold_depth = 1;
        cold_called = false;
        (* Tracking costs a page computation per fetch, so it is wired to
           the same switch as the rest of the perf model. *)
        cold_done = not config.model_perf;
        cold_last_page = -1;
      }
    in
    let dump_hook = ref (fun () -> []) in
    try
      init_memory p layout st.mem;
      List.iteri (fun i v -> if i < Reg.max_args then set_reg st (Reg.arg i) v) args;
      set_reg st Reg.SP stack_top;
      set_reg st Reg.lr exit_address;
      let entry_slot =
        match Hashtbl.find_opt slot_of_addr (Linker.address_of layout entry) with
        | Some i -> i
        | None -> raise (Exec_error (No_entry entry))
      in
      let pc = ref entry_slot in
      let running = ref true in
      let ring =
        if config.trace_ring > 0 then Some (Array.make config.trace_ring (-1)) else None
      in
      let ring_pos = ref 0 in
      let dump_ring () =
        match ring with
        | None -> []
        | Some r ->
          let n = Array.length r in
          (* Symbolize each ring slot through the linker layout: the
             nearest Text symbol at or below the slot's address. *)
          let lines = ref [] in
          for i = max 0 (!ring_pos - n) to !ring_pos - 1 do
            let s = r.(i mod n) in
            let addr =
              if s >= 0 && s < Array.length st.addr_of_slot then
                st.addr_of_slot.(s)
              else -1
            in
            let sym =
              match Linker.symbolize st.layout addr with
              | Some name -> name
              | None -> "?"
            in
            let d =
              match st.slots.(s) with
              | S_insn ins -> Insn.to_string ins
              | S_ret -> "ret"
              | S_b _ -> "b <label>"
              | S_bcond _ -> "b.cond"
              | S_cbz _ -> "cbz"
              | S_cbnz _ -> "cbnz"
              | S_tail _ -> "b <tail>"
              | S_bl (_, ins) -> Insn.to_string ins
              | S_blr r' -> "blr " ^ Reg.to_string r'
            in
            lines := Printf.sprintf "0x%06x  %-28s %s" addr sym d :: !lines
          done;
          let lines = List.rev !lines in
          Printf.eprintf "--- trace ring (oldest first) ---\n";
          List.iter (fun l -> Printf.eprintf "%s\n" l) lines;
          Printf.eprintf "---------------------------------\n%!";
          lines
      in
      dump_hook := dump_ring;
      (* Profile counts: the entry, each intra-image call or tail
         transfer, and each block entry. *)
      Option.iter (fun c -> count_entry c (intern c.funcs entry)) counts;
      let count_transfer idx s =
        match counts with
        | Some c -> count_call c slot_func.(idx) slot_func.(s)
        | None -> ()
      in
      let jump_to_address a =
        if a = exit_address then running := false
        else
          match Hashtbl.find_opt st.slot_of_addr a with
          | Some idx -> pc := idx
          | None -> raise (Exec_error (Bad_jump a))
      in
      let call_extern name =
        st.calls <- st.calls + 1;
        if not (runtime_call st name) then
          match config.unknown_extern with
          | `Error -> raise (Exec_error (Unknown_symbol name))
          | `Noop -> set_reg st (Reg.x 0) 0
      in
      let call_slot idx s =
        st.calls <- st.calls + 1;
        cold_push st;
        count_transfer idx s;
        st.shadow_stack <- func_names.(s) :: st.shadow_stack;
        pc := s
      in
      let charge_branch () =
        if config.model_perf then
          st.cycles <- st.cycles + config.device.Device.branch_cost;
        st.branches <- st.branches + 1
      in
      while !running do
        if st.steps >= config.max_steps then raise (Exec_error Step_limit_exceeded);
        let idx = !pc in
        if idx < 0 || idx >= Array.length st.slots then
          raise (Exec_error (Bad_jump idx));
        let addr = st.addr_of_slot.(idx) in
        (match ring with
        | Some r ->
          r.(!ring_pos mod Array.length r) <- idx;
          incr ring_pos
        | None -> ());
        fetch_costs st addr;
        (match counts with
        | Some c ->
          let bs = slot_blocks.(idx) in
          let e = c.blocks.entries in
          for i = 0 to Array.length bs - 1 do
            e.(bs.(i)) <- e.(bs.(i)) + 1
          done
        | None -> ());
        st.steps <- st.steps + 1;
        if slot_outlined.(idx) then st.outlined_steps <- st.outlined_steps + 1;
        (match st.slots.(idx) with
        | S_insn i ->
          if config.model_perf then st.cycles <- st.cycles + insn_cost st i;
          exec_insn st i;
          pc := idx + 1
        | S_bl (target, i) -> (
          if config.model_perf then st.cycles <- st.cycles + insn_cost st i;
          set_reg st Reg.lr (st.addr_of_slot.(idx) + 4);
          match target with
          | T_slot s -> call_slot idx s
          | T_extern name ->
            call_extern name;
            pc := idx + 1)
        | S_blr r -> (
          if config.model_perf then
            st.cycles <- st.cycles + insn_cost st (Insn.Blr r);
          let dest = get_reg st r in
          set_reg st Reg.lr (st.addr_of_slot.(idx) + 4);
          match Hashtbl.find_opt st.slot_of_addr dest with
          | Some s -> call_slot idx s
          | None -> (
            match Hashtbl.find_opt st.extern_of_addr dest with
            | Some name ->
              call_extern name;
              pc := idx + 1
            | None -> raise (Exec_error (Bad_jump dest))))
        | S_ret ->
          charge_branch ();
          cold_pop st;
          (match st.shadow_stack with _ :: rest -> st.shadow_stack <- rest | [] -> ());
          jump_to_address (get_reg st Reg.lr)
        | S_b t ->
          charge_branch ();
          pc := t
        | S_bcond (c, a, b) ->
          charge_branch ();
          pc := if Cond.holds c (get_reg st Reg.NZCV) then a else b
        | S_cbz (r, a, b) ->
          charge_branch ();
          pc := if get_reg st r = 0 then a else b
        | S_cbnz (r, a, b) ->
          charge_branch ();
          pc := if get_reg st r <> 0 then a else b
        | S_tail t -> (
          charge_branch ();
          match t with
          | T_slot s ->
            count_transfer idx s;
            (match st.shadow_stack with
            | _ :: rest -> st.shadow_stack <- func_names.(s) :: rest
            | [] -> st.shadow_stack <- [ func_names.(s) ]);
            pc := s
          | T_extern name ->
            (* A tail call to an extern returns to the current LR. *)
            let ret = get_reg st Reg.lr in
            cold_pop st;
            call_extern name;
            jump_to_address ret))
      done;
      Ok
        {
          exit_value = get_reg st (Reg.x 0);
          output = List.rev st.output_rev;
          steps = st.steps;
          outlined_steps = st.outlined_steps;
          cycles = st.cycles;
          icache_misses = Icache.misses st.icache;
          icache_accesses = Icache.hits st.icache + Icache.misses st.icache;
          itlb_misses = Tlb.misses st.itlb;
          dtlb_misses = Tlb.misses st.dtlb;
          data_pages_touched = Hashtbl.length st.data_pages;
          data_fault_cycles = st.data_fault_cycles;
          cold_start_pages = Hashtbl.length st.cold_pages;
          (* Reported beside [cycles], not folded into it: the fault cost
             is paid once per install-then-launch, not per steady-state
             run, and keeping it separate keeps [cycles] comparable with
             pre-cold-start baselines. *)
          cold_start_cost =
            Hashtbl.length st.cold_pages
            * scale st st.cfg.device.Device.data_fault_penalty;
          branches = st.branches;
          calls = st.calls;
        }
    with Exec_error e ->
      let trace =
        if config.trace_ring > 0 then (try !dump_hook () with _ -> []) else []
      in
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
