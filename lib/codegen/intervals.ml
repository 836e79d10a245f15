type t = {
  v : Ir.value;
  first : int;
  last : int;
  crosses_call : bool;
}

let is_call_position = function
  | Ir.Call _ | Ir.Call_indirect _ | Ir.Retain _ | Ir.Release _
  | Ir.Alloc_object _ | Ir.Alloc_array _ ->
    true
  | Ir.Assign _ | Ir.Binop _ | Ir.Icmp _ | Ir.Load _ | Ir.Store _ -> false

(* [use o] on every operand [i] reads. *)
let iter_operands use (i : Ir.instr) =
  match i with
  | Ir.Assign (_, o) | Ir.Load (_, o, _) | Ir.Retain o | Ir.Release o
  | Ir.Alloc_array (_, o) ->
    use o
  | Ir.Binop (_, _, a, b) | Ir.Icmp (_, _, a, b) | Ir.Store (a, b, _) ->
    use a;
    use b
  | Ir.Call (_, _, args) -> List.iter use args
  | Ir.Call_indirect (_, fn, args) ->
    use fn;
    List.iter use args
  | Ir.Alloc_object _ -> ()

(* The value [i] defines, or -1. *)
let def_of (i : Ir.instr) =
  match i with
  | Ir.Assign (d, _)
  | Ir.Binop (d, _, _, _)
  | Ir.Icmp (d, _, _, _)
  | Ir.Load (d, _, _)
  | Ir.Alloc_object (d, _, _)
  | Ir.Alloc_array (d, _)
  | Ir.Call (Some d, _, _)
  | Ir.Call_indirect (Some d, _, _) ->
    d
  | Ir.Call (None, _, _) | Ir.Call_indirect (None, _, _) | Ir.Store _
  | Ir.Retain _ | Ir.Release _ ->
    -1

let iter_term use = function
  | Ir.Ret o | Ir.Cond_br (o, _, _) -> use o
  | Ir.Br _ | Ir.Unreachable -> ()

(* Value sets are bitsets of 63-bit words; block [b]'s set in a table of
   [nw]-word rows is words [b * nw] to [b * nw + nw - 1]. *)
let bits = 63

let compute (f : Ir.func) =
  assert (List.for_all (fun (b : Ir.block) -> b.phis = []) f.blocks);
  let blocks = Array.of_list f.blocks in
  let nb = Array.length blocks in
  (* Number positions: block [b]'s instructions start at [bstart.(b)] and
     its terminator sits at [bend.(b)].  Count calls and find the largest
     value id on the way. *)
  let bstart = Array.make nb 0 and bend = Array.make nb 0 in
  let index = Hashtbl.create nb in
  let pos = ref 1 and ncalls = ref 0 and maxv = ref (-1) in
  let see_value v =
    if v < 0 then invalid_arg "Intervals.compute: negative value id";
    if v > !maxv then maxv := v
  in
  let see = function Ir.V v -> see_value v | Ir.Imm _ | Ir.Global _ | Ir.Fn _ -> () in
  let number i =
    incr pos;
    if is_call_position i then incr ncalls;
    iter_operands see i;
    let d = def_of i in
    if d >= 0 then see_value d
  in
  List.iter see_value f.params;
  for b = 0 to nb - 1 do
    let blk = blocks.(b) in
    Hashtbl.replace index blk.label b;
    bstart.(b) <- !pos;
    List.iter number blk.instrs;
    iter_term see blk.term;
    bend.(b) <- !pos;
    incr pos
  done;
  let nv = !maxv + 1 in
  let nw = (nv + bits - 1) / bits in
  let mem set row v = set.((row * nw) + (v / bits)) land (1 lsl (v mod bits)) <> 0 in
  let add set row v =
    let w = (row * nw) + (v / bits) in
    set.(w) <- set.(w) lor (1 lsl (v mod bits))
  in
  (* Per-block use (read before any write in the block) and def sets. *)
  let use_set = Array.make (nb * nw) 0 and def_set = Array.make (nb * nw) 0 in
  let row = ref 0 in
  let use = function
    | Ir.V v -> if not (mem def_set !row v) then add use_set !row v
    | Ir.Imm _ | Ir.Global _ | Ir.Fn _ -> ()
  in
  let use_def i =
    iter_operands use i;
    let d = def_of i in
    if d >= 0 then add def_set !row d
  in
  for b = 0 to nb - 1 do
    row := b;
    List.iter use_def blocks.(b).instrs;
    iter_term use blocks.(b).term
  done;
  (* Successors as block indices, -1 for none. *)
  let succ_a = Array.make nb (-1) and succ_b = Array.make nb (-1) in
  for b = 0 to nb - 1 do
    match blocks.(b).term with
    | Ir.Br l -> succ_a.(b) <- Hashtbl.find index l
    | Ir.Cond_br (_, l1, l2) ->
      succ_a.(b) <- Hashtbl.find index l1;
      succ_b.(b) <- Hashtbl.find index l2
    | Ir.Ret _ | Ir.Unreachable -> ()
  done;
  (* Block-level liveness: the backwards fixpoint, blocks in reverse. *)
  let live_in = Array.make (nb * nw) 0 and live_out = Array.make (nb * nw) 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      let base = b * nw and sa = succ_a.(b) and sb = succ_b.(b) in
      for k = 0 to nw - 1 do
        let out =
          (if sa < 0 then 0 else live_in.((sa * nw) + k))
          lor if sb < 0 then 0 else live_in.((sb * nw) + k)
        in
        live_out.(base + k) <- out;
        let inn = use_set.(base + k) lor (out land lnot def_set.(base + k)) in
        if inn <> live_in.(base + k) then begin
          live_in.(base + k) <- inn;
          changed := true
        end
      done
    done
  done;
  (* Extents: [first.(v)] and [last.(v)], -1 where [v] is never touched.
     Call positions come out ascending. *)
  let first = Array.make nv (-1) and last = Array.make nv (-1) in
  let touch v p =
    if first.(v) < 0 || p < first.(v) then first.(v) <- p;
    if p > last.(v) then last.(v) <- p
  in
  let touch_set set b p =
    for k = 0 to nw - 1 do
      let w = ref set.((b * nw) + k) and v = ref (k * bits) in
      while !w <> 0 do
        if !w land 1 <> 0 then touch !v p;
        w := !w lsr 1;
        incr v
      done
    done
  in
  List.iter (fun v -> touch v 0) f.params;
  let calls = Array.make !ncalls 0 and nc = ref 0 in
  let at = ref 0 in
  let touch_operand = function
    | Ir.V v -> touch v !at
    | Ir.Imm _ | Ir.Global _ | Ir.Fn _ -> ()
  in
  let touch_instr i =
    if is_call_position i then begin
      calls.(!nc) <- !at;
      incr nc
    end;
    iter_operands touch_operand i;
    let d = def_of i in
    if d >= 0 then touch d !at;
    incr at
  in
  for b = 0 to nb - 1 do
    touch_set live_in b bstart.(b);
    touch_set live_out b bend.(b);
    at := bstart.(b);
    List.iter touch_instr blocks.(b).instrs;
    at := bend.(b);
    iter_term touch_operand blocks.(b).term
  done;
  (* Whether a call sits strictly inside (a, b): binary search for the
     first call after [a]. *)
  let crosses a b =
    let lo = ref 0 and hi = ref (Array.length calls) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if calls.(mid) <= a then lo := mid + 1 else hi := mid
    done;
    !lo < Array.length calls && calls.(!lo) < b
  in
  (* Bucket values by first position, each bucket in descending id order,
     then cons from the last position back: the list comes out in (first,
     v) order without a sort. *)
  let npos = !pos in
  let head = Array.make npos (-1) and next = Array.make nv (-1) in
  for v = 0 to nv - 1 do
    let p = first.(v) in
    if p >= 0 then begin
      next.(v) <- head.(p);
      head.(p) <- v
    end
  done;
  let out = ref [] in
  for p = npos - 1 downto 0 do
    let v = ref head.(p) in
    while !v >= 0 do
      let l = last.(!v) in
      out := { v = !v; first = p; last = l; crosses_call = crosses p l } :: !out;
      v := next.(!v)
    done
  done;
  !out
