type stats = {
  blocks_removed : int;
  instrs_removed : int;
}

let is_pure = function
  | Ir.Assign _ | Ir.Binop _ | Ir.Icmp _ | Ir.Load _ | Ir.Alloc_object _
  | Ir.Alloc_array _ ->
    true
  | Ir.Store _ | Ir.Call _ | Ir.Call_indirect _ | Ir.Retain _
  | Ir.Release _ ->
    false

let reachable_labels (f : Ir.func) =
  let seen = Hashtbl.create 16 in
  let by_label = Hashtbl.create 16 in
  List.iter (fun (b : Ir.block) -> Hashtbl.replace by_label b.label b) f.blocks;
  let rec visit l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      match Hashtbl.find_opt by_label l with
      | Some { Ir.term = Ir.Br a; _ } -> visit a
      | Some { Ir.term = Ir.Cond_br (_, a, b); _ } ->
        visit a;
        visit b
      | Some _ | None -> ()
    end
  in
  (match f.blocks with b :: _ -> visit b.label | [] -> ());
  seen

(* [use v] for every value operand of a block: phis, instructions,
   terminator.  Top-level loops over the lists in place, so a walk
   allocates nothing. *)
let op_use use = function
  | Ir.V v -> use v
  | Ir.Imm _ | Ir.Global _ | Ir.Fn _ -> ()

let rec ops_use use = function
  | [] -> ()
  | o :: rest ->
    op_use use o;
    ops_use use rest

let rec incoming_use use = function
  | [] -> ()
  | (_, o) :: rest ->
    op_use use o;
    incoming_use use rest

let instr_use use = function
  | Ir.Assign (_, o) | Ir.Load (_, o, _) | Ir.Retain o | Ir.Release o
  | Ir.Alloc_array (_, o) ->
    op_use use o
  | Ir.Binop (_, _, a, b) | Ir.Icmp (_, _, a, b) | Ir.Store (a, b, _) ->
    op_use use a;
    op_use use b
  | Ir.Call (_, _, args) -> ops_use use args
  | Ir.Call_indirect (_, o, args) ->
    op_use use o;
    ops_use use args
  | Ir.Alloc_object _ -> ()

let rec block_uses use = function
  | [] -> ()
  | (b : Ir.block) :: rest ->
    List.iter (fun (p : Ir.phi) -> incoming_use use p.incoming) b.phis;
    List.iter (instr_use use) b.instrs;
    (match b.term with
    | Ir.Ret o | Ir.Cond_br (o, _, _) -> op_use use o
    | Ir.Br _ | Ir.Unreachable -> ());
    block_uses use rest

(* Nothing is removed exactly when every block is reachable, every phi edge
   comes from a reachable label, and every pure instruction's destination
   is used.  Uses are marked in one byte per value; a value outside
   [0, next_value) sends the function down the general path. *)
let all_live reach (f : Ir.func) =
  List.for_all
    (fun (b : Ir.block) ->
      Hashtbl.mem reach b.label
      && List.for_all
           (fun (p : Ir.phi) ->
             List.for_all (fun (l, _) -> Hashtbl.mem reach l) p.incoming)
           b.phis)
    f.blocks
  &&
  let used = Bytes.make (max 0 f.next_value) '\000' in
  let in_range v = v >= 0 && v < Bytes.length used in
  match
    block_uses
      (fun v ->
        if not (in_range v) then raise Exit;
        Bytes.unsafe_set used v '\001')
      f.blocks
  with
  | exception Exit -> false
  | () ->
    List.for_all
      (fun (b : Ir.block) ->
        List.for_all
          (fun i ->
            match Ir.def_of_instr i with
            | Some d when is_pure i -> in_range d && Bytes.get used d <> '\000'
            | Some _ | None -> true)
          b.instrs)
      f.blocks

(* Drop what [reach] leaves out, then sweep dead pure instructions until
   none is left; rebuilds every block. *)
let remove_dead reach (f : Ir.func) =
  let blocks =
    List.filter (fun (b : Ir.block) -> Hashtbl.mem reach b.label) f.blocks
  in
  let blocks_removed = List.length f.blocks - List.length blocks in
  (* Prune phi edges coming from removed blocks. *)
  let blocks =
    List.map
      (fun (b : Ir.block) ->
        let phis =
          List.map
            (fun (p : Ir.phi) ->
              { p with Ir.incoming = List.filter (fun (l, _) -> Hashtbl.mem reach l) p.incoming })
            b.phis
        in
        { b with phis })
      blocks
  in
  (* Iteratively remove pure instructions whose destination is unused. *)
  let instrs_removed = ref 0 in
  let rec sweep blocks =
    let used = Hashtbl.create 64 in
    block_uses (fun v -> Hashtbl.replace used v ()) blocks;
    let changed = ref false in
    let blocks =
      List.map
        (fun (b : Ir.block) ->
          let instrs =
            List.filter
              (fun i ->
                match Ir.def_of_instr i with
                | Some d when is_pure i && not (Hashtbl.mem used d) ->
                  incr instrs_removed;
                  changed := true;
                  false
                | Some _ | None -> true)
              b.instrs
          in
          { b with instrs })
        blocks
    in
    if !changed then sweep blocks else blocks
  in
  let blocks = sweep blocks in
  ({ f with blocks }, { blocks_removed; instrs_removed = !instrs_removed })

let unchanged = { blocks_removed = 0; instrs_removed = 0 }

let run_func (f : Ir.func) =
  let reach = reachable_labels f in
  if all_live reach f then (f, unchanged) else remove_dead reach f

let run (m : Ir.modul) =
  let total = ref { blocks_removed = 0; instrs_removed = 0 } in
  let funcs =
    List.map
      (fun f ->
        let f', s = run_func f in
        total :=
          {
            blocks_removed = !total.blocks_removed + s.blocks_removed;
            instrs_removed = !total.instrs_removed + s.instrs_removed;
          };
        f')
      m.funcs
  in
  ({ m with funcs }, !total)
