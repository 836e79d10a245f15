open Ir

let retarget_one term ~from ~into =
  (* Retarget exactly one edge [from]; if both arms of a Cond_br point at
     [from] they are two distinct edges, but splitting either is enough for
     correctness of phi lowering since we split both in turn. *)
  match term with
  | Br l when l = from -> Br into
  | Cond_br (o, a, b) ->
    let a = if a = from then into else a in
    let b = if b = from then into else b in
    Cond_br (o, a, b)
  | Br _ | Ret _ | Unreachable -> term

let predecessor_counts blocks =
  let preds = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt preds s) in
          Hashtbl.replace preds s (prev + 1))
        (successors b.term))
    blocks;
  preds

let split_critical_edges (f : func) =
  let pred_count = predecessor_counts f.blocks in
  let counter = ref 0 in
  let new_blocks = ref [] in
  (* (succ label, old pred label) -> new pred label, for phi fix-up; a
     repeated edge keeps its newest split. *)
  let renamed = Hashtbl.create 16 in
  let blocks =
    List.map
      (fun b ->
        let succs = successors b.term in
        if List.length succs <= 1 then b
        else begin
          let term = ref b.term in
          List.iter
            (fun s ->
              let np = Option.value ~default:0 (Hashtbl.find_opt pred_count s) in
              if np > 1 then begin
                incr counter;
                let label = Printf.sprintf "split_%s_%d" b.label !counter in
                new_blocks :=
                  { label; phis = []; instrs = []; term = Br s } :: !new_blocks;
                Hashtbl.replace renamed (s, b.label) label;
                term := retarget_one !term ~from:s ~into:label
              end)
            succs;
          { b with term = !term }
        end)
      f.blocks
  in
  let blocks =
    List.map
      (fun b ->
        if b.phis = [] || Hashtbl.length renamed = 0 then b
        else
          let phis =
            List.map
              (fun p ->
                let incoming =
                  List.map
                    (fun (l, o) ->
                      match Hashtbl.find_opt renamed (b.label, l) with
                      | Some nl -> (nl, o)
                      | None -> (l, o))
                    p.incoming
                in
                { p with incoming })
              b.phis
          in
          { b with phis })
      blocks
  in
  { f with blocks = blocks @ List.rev !new_blocks }

let run_func (f : func) =
  if List.for_all (fun b -> b.phis = []) f.blocks then f
  else begin
    let f = split_critical_edges f in
    let pending : (string, instr list list) Hashtbl.t = Hashtbl.create 16 in
    let next = ref f.next_value in
    let fresh () =
      let v = !next in
      incr next;
      v
    in
    let blocks_nophi =
      List.map
        (fun b ->
          if b.phis = [] then b
          else begin
            (* For each predecessor, emit t_i = src_i for every phi, then
               dst_i = t_i: the temporaries make simultaneous (swap) phis
               safe, at the price of the extra copies the paper observes. *)
            let preds =
              List.sort_uniq String.compare
                (List.concat_map (fun p -> List.map fst p.incoming) b.phis)
            in
            List.iter
              (fun pred ->
                let temps =
                  List.map
                    (fun p ->
                      let src =
                        match List.assoc_opt pred p.incoming with
                        | Some o -> o
                        | None ->
                          invalid_arg
                            (Printf.sprintf
                               "Out_of_ssa: phi %%%d in %s missing incoming for %s"
                               p.phi_dst b.label pred)
                      in
                      let t = fresh () in
                      (t, src, p.phi_dst))
                    b.phis
                in
                let copies =
                  List.map (fun (t, src, _) -> Assign (t, src)) temps
                  @ List.map (fun (t, _, dst) -> Assign (dst, V t)) temps
                in
                (* one chunk per phi block, newest first; joined below *)
                let prev = Option.value ~default:[] (Hashtbl.find_opt pending pred) in
                Hashtbl.replace pending pred (copies :: prev))
              preds;
            { b with phis = [] }
          end)
        f.blocks
    in
    let blocks =
      List.map
        (fun b ->
          match Hashtbl.find_opt pending b.label with
          | None | Some [] -> b
          | Some (last :: earlier) ->
            let copies = List.fold_left (fun acc c -> c @ acc) last earlier in
            { b with instrs = b.instrs @ copies })
        blocks_nophi
    in
    { f with blocks; next_value = !next }
  end

let run (m : modul) = { m with funcs = List.map run_func m.funcs }
