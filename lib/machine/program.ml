type t = {
  funcs : Mfunc.t list;
  data : Dataobj.t list;
  externs : string list;
}

let make ?(data = []) ?(externs = []) funcs = { funcs; data; externs }
let empty = { funcs = []; data = []; externs = [] }

let concat units =
  let funcs = List.concat_map (fun u -> u.funcs) units in
  let data = List.concat_map (fun u -> u.data) units in
  let externs =
    List.sort_uniq String.compare (List.concat_map (fun u -> u.externs) units)
  in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (f : Mfunc.t) ->
      if Hashtbl.mem seen f.name then
        invalid_arg ("Program.concat: duplicate function " ^ f.name)
      else Hashtbl.add seen f.name ())
    funcs;
  { funcs; data; externs }

let code_size_bytes p =
  List.fold_left (fun acc f -> acc + Mfunc.size_bytes f) 0 p.funcs

let insn_count p =
  List.fold_left (fun acc f -> acc + Mfunc.insn_count f) 0 p.funcs

let find_func p name =
  List.find_opt (fun (f : Mfunc.t) -> String.equal f.name name) p.funcs

let replace_funcs p funcs = { p with funcs }

let validate p =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let fnames = Hashtbl.create 1024 in
  let dup =
    List.find_opt
      (fun (f : Mfunc.t) ->
        if Hashtbl.mem fnames f.name then true
        else (Hashtbl.add fnames f.name (); false))
      p.funcs
  in
  match dup with
  | Some f -> err "duplicate function %s" f.name
  | None ->
    let syms = Hashtbl.create 1024 in
    List.iter (fun (f : Mfunc.t) -> Hashtbl.replace syms f.name ()) p.funcs;
    List.iter (fun (d : Dataobj.t) -> Hashtbl.replace syms d.name ()) p.data;
    List.iter (fun e -> Hashtbl.replace syms e ()) p.externs;
    let check_func (f : Mfunc.t) =
      let labels = Hashtbl.create 16 in
      let bad_label =
        List.find_opt
          (fun (b : Block.t) ->
            if Hashtbl.mem labels b.label then true
            else (Hashtbl.add labels b.label (); false))
          f.blocks
      in
      match bad_label with
      | Some b -> err "function %s: duplicate label %s" f.name b.label
      | None ->
        let check_block (b : Block.t) =
          let bad_target =
            List.find_opt
              (fun l -> not (Hashtbl.mem labels l))
              (Block.successors b.term)
          in
          match bad_target with
          | Some l -> err "function %s: branch to unknown label %s" f.name l
          | None ->
            let bad_sym = ref None in
            Array.iter
              (fun i ->
                match i with
                | Insn.Bl s when not (Hashtbl.mem syms s) -> bad_sym := Some s
                | Insn.Adr (_, s) when not (Hashtbl.mem syms s) ->
                  bad_sym := Some s
                | _ -> ())
              b.body;
            (match b.term with
            | Block.Tail_call s when not (Hashtbl.mem syms s) ->
              bad_sym := Some s
            | _ -> ());
            (match !bad_sym with
            | Some s -> err "function %s: reference to unknown symbol %s" f.name s
            | None -> Ok ())
        in
        (* Chain structure: cold_from must name a non-entry block, and a
           Fallthrough is only valid when its target is the block placed
           immediately after it within the same (hot or cold) section. *)
        let check_chain section blocks =
          let rec go = function
            | [] -> Ok ()
            | [ (b : Block.t) ] -> (
              match b.term with
              | Block.Fallthrough l ->
                err "function %s: fallthrough to %s at the end of the %s chain"
                  f.name l section
              | _ -> Ok ())
            | (b : Block.t) :: ((next : Block.t) :: _ as rest) -> (
              match b.term with
              | Block.Fallthrough l when not (String.equal next.label l) ->
                err "function %s: fallthrough to %s but %s is placed next"
                  f.name l next.label
              | _ -> go rest)
          in
          go blocks
        in
        let check_chains () =
          let hot, cold = Mfunc.partition f in
          match f.cold_from with
          | Some l when cold = [] ->
            err "function %s: cold_from %s names no block" f.name l
          | Some l when hot = [] ->
            err "function %s: cold_from %s would split off the entry block"
              f.name l
          | _ -> (
            match check_chain "hot" hot with
            | Error _ as e -> e
            | Ok () -> check_chain "cold" cold)
        in
        let blocks_ok =
          List.fold_left
            (fun acc b ->
              match acc with Error _ -> acc | Ok () -> check_block b)
            (Ok ()) f.blocks
        in
        (match blocks_ok with Error _ -> blocks_ok | Ok () -> check_chains ())
    in
    List.fold_left
      (fun acc f -> match acc with Error _ -> acc | Ok () -> check_func f)
      (Ok ()) p.funcs

let pp ppf p =
  List.iter (fun f -> Mfunc.pp ppf f) p.funcs;
  if p.data <> [] then begin
    Format.fprintf ppf ".data:@.";
    List.iter (fun d -> Dataobj.pp ppf d) p.data
  end
