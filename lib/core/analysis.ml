type pattern_stat = {
  rank : int;
  frequency : int;
  length : int;
  saving : int;
  ends_with_call : bool;
  ends_with_ret : bool;
  sample : Machine.Insn.t list;
}

type report = {
  patterns : pattern_stat array;
  total_insns : int;
  total_code_bytes : int;
  candidates_total : int;
  call_or_ret_fraction : float;
  longest : pattern_stat option;
}

let analyze p =
  (* In structural order first, so that the stable ranking below breaks
     ties by content, not by the enumeration's interner-dependent order. *)
  let cands = List.sort compare (Outliner.enumerate p) in
  let profitable =
    List.filter_map
      (fun c ->
        let saving = Cost_model.benefit c in
        if saving >= 1 then
          let ends_with_ret = c.Candidate.strategy = Candidate.Ends_with_ret in
          let ends_with_call =
            (not ends_with_ret)
            &&
            match List.rev c.Candidate.insns with
            | last :: _ -> Machine.Insn.is_call last
            | [] -> false
          in
          Some
            {
              rank = 0;
              frequency = List.length c.Candidate.sites;
              length = c.Candidate.length;
              saving;
              ends_with_call;
              ends_with_ret;
              sample = c.Candidate.insns;
            }
        else None)
      cands
  in
  let sorted =
    List.stable_sort
      (fun a b ->
        match Int.compare b.frequency a.frequency with
        | 0 -> Int.compare b.length a.length
        | c -> c)
      profitable
  in
  let patterns = Array.of_list sorted in
  Array.iteri (fun i s -> patterns.(i) <- { s with rank = i + 1 }) patterns;
  let candidates_total =
    Array.fold_left (fun acc s -> acc + s.frequency) 0 patterns
  in
  let call_ret_candidates =
    Array.fold_left
      (fun acc s ->
        if s.ends_with_call || s.ends_with_ret then acc + s.frequency else acc)
      0 patterns
  in
  let longest =
    Array.fold_left
      (fun acc s ->
        match acc with
        | None -> Some s
        | Some best -> if s.length > best.length then Some s else acc)
      None patterns
  in
  {
    patterns;
    total_insns = Machine.Program.insn_count p;
    total_code_bytes = Machine.Program.code_size_bytes p;
    candidates_total;
    call_or_ret_fraction =
      (if candidates_total = 0 then 0.
       else float_of_int call_ret_candidates /. float_of_int candidates_total);
    longest;
  }

let length_histogram r =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl s.length) in
      Hashtbl.replace tbl s.length (prev + s.frequency))
    r.patterns;
  Hashtbl.fold (fun len n acc -> (len, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let cumulative_savings r =
  let by_saving =
    let copy = Array.copy r.patterns in
    Array.sort (fun a b -> Int.compare b.saving a.saving) copy;
    copy
  in
  let acc = ref 0 in
  Array.mapi
    (fun i s ->
      acc := !acc + s.saving;
      (i + 1, !acc))
    by_saving

let patterns_needed_for r fraction =
  let curve = cumulative_savings r in
  let n = Array.length curve in
  if n = 0 then 0
  else begin
    let total = snd curve.(n - 1) in
    let target = fraction *. float_of_int total in
    let rec find i =
      if i >= n then n
      else if float_of_int (snd curve.(i)) >= target then i + 1
      else find (i + 1)
    in
    find 0
  end
