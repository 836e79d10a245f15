type t = {
  per_point : (string, Regset.t array) Hashtbl.t;
      (* arr.(i) = live before body insn i; arr.(len) = live before terminator *)
  out : (string, Regset.t) Hashtbl.t;
}

(* Transfer a single instruction backwards: live_before = uses U (live_after \ defs). *)
let transfer insn live_after =
  Regset.union (Insn.uses insn) (Regset.diff live_after (Insn.defs insn))

let block_live_in (b : Block.t) live_out =
  let live = ref (Regset.union (Block.term_uses b.term) live_out) in
  for i = Array.length b.body - 1 downto 0 do
    live := transfer b.body.(i) !live
  done;
  !live

let compute (f : Mfunc.t) =
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let idx = Hashtbl.create (2 * n) in
  Array.iteri (fun i (b : Block.t) -> Hashtbl.replace idx b.label i) blocks;
  let live_in = Array.make n Regset.empty in
  let live_out_arr = Array.make n Regset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let b = blocks.(i) in
      let out =
        List.fold_left
          (fun acc l -> Regset.union acc live_in.(Hashtbl.find idx l))
          Regset.empty
          (Block.successors b.term)
      in
      live_out_arr.(i) <- out;
      let inn = block_live_in b out in
      if not (Regset.equal inn live_in.(i)) then begin
        live_in.(i) <- inn;
        changed := true
      end
    done
  done;
  let per_point = Hashtbl.create (2 * n) in
  let out = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i (b : Block.t) ->
      let len = Array.length b.body in
      let arr = Array.make (len + 1) Regset.empty in
      let live = ref (Regset.union (Block.term_uses b.term) live_out_arr.(i)) in
      arr.(len) <- !live;
      for j = len - 1 downto 0 do
        live := transfer b.body.(j) !live;
        arr.(j) <- !live
      done;
      Hashtbl.replace per_point b.label arr;
      Hashtbl.replace out b.label live_out_arr.(i))
    blocks;
  { per_point; out }

let live_before t ~label i =
  let arr = Hashtbl.find t.per_point label in
  if i < 0 || i >= Array.length arr then
    invalid_arg "Liveness.live_before: index out of range"
  else arr.(i)

let live_out t ~label = Hashtbl.find t.out label
let lr_live_before t ~label i = Regset.mem Reg.lr (live_before t ~label i)
let points t ~label = Hashtbl.find t.per_point label

(* --- LR alone ------------------------------------------------------------ *)

(* Gen/kill liveness is separable per register: the union at a join and
   [uses U (live \ defs)] act on each bit on its own, so the least fixpoint
   restricted to LR is the LR bit of {!compute}'s, found here with one bit
   per block.  Seen from a block's entry, the first instruction that
   touches LR decides: a use makes LR live, a def alone dead; a block with
   neither has it live when its terminator uses it or its exit has it. *)
type lr = {
  lr_blocks : Block.t array;
  lr_index : (string, int) Hashtbl.t;
  lr_out : Bytes.t;  (* per block, '\001' when LR is live at its exit *)
}

let lr_used i = Regset.mem Reg.lr (Insn.uses i)
let lr_defined i = Regset.mem Reg.lr (Insn.defs i)
let term_uses_lr t = Regset.mem Reg.lr (Block.term_uses t)

let lr_compute (f : Mfunc.t) =
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i (b : Block.t) -> Hashtbl.replace index b.label i) blocks;
  (* Per block: '\001' when LR is live at entry whatever the exit, '\002'
     when it is dead there whatever the exit, '\000' when the exit
     decides. *)
  let entry =
    Bytes.init n (fun i ->
        let b = blocks.(i) in
        let rec first j =
          if j = Array.length b.body then
            if term_uses_lr b.term then '\001' else '\000'
          else if lr_used b.body.(j) then '\001'
          else if lr_defined b.body.(j) then '\002'
          else first (j + 1)
        in
        first 0)
  in
  let live_in = Bytes.map (fun c -> if c = '\001' then c else '\000') entry in
  let live l = Bytes.get live_in (Hashtbl.find index l) = '\001' in
  let live_out i =
    match blocks.(i).Block.term with
    | Ret | Tail_call _ -> false
    | B l | Fallthrough l -> live l
    | Bcond (_, l1, l2) | Cbz (_, l1, l2) | Cbnz (_, l1, l2) ->
      live l1 || live l2
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      if Bytes.get entry i = '\000' && Bytes.get live_in i = '\000'
         && live_out i
      then begin
        Bytes.set live_in i '\001';
        changed := true
      end
    done
  done;
  {
    lr_blocks = blocks;
    lr_index = index;
    lr_out = Bytes.init n (fun i -> if live_out i then '\001' else '\000');
  }

let lr_points t ~label =
  let i = Hashtbl.find t.lr_index label in
  let b = t.lr_blocks.(i) in
  let len = Array.length b.body in
  let pts = Bytes.create (len + 1) in
  let live = ref (term_uses_lr b.term || Bytes.get t.lr_out i = '\001') in
  Bytes.set pts len (if !live then '\001' else '\000');
  for j = len - 1 downto 0 do
    let insn = b.body.(j) in
    live := lr_used insn || (!live && not (lr_defined insn));
    Bytes.set pts j (if !live then '\001' else '\000')
  done;
  pts
