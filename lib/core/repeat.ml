let round ?(options = Outliner.default_options) ?profile
    ?(engine = `Incremental) ?warm () =
  let engine =
    match engine with
    | `Incremental -> Some (Outliner.create_engine ?warm ())
    | `Scratch -> None
  in
  fun k p ->
    Outliner.run_round ?profile ?engine
      { options with Outliner.round = options.Outliner.round + k - 1 }
      p

let run ?options ?profile ?engine ?warm ~rounds p =
  let round = round ?options ?profile ?engine ?warm () in
  let rec go k p acc =
    if k > rounds then (p, List.rev acc)
    else begin
      let p', stats = round k p in
      if stats.Outliner.sequences_outlined = 0 then (p, List.rev acc)
      else go (k + 1) p' (stats :: acc)
    end
  in
  go 1 p []

let cumulative stats =
  List.rev
    (snd
       (List.fold_left
          (fun (acc, out) s ->
            let acc = Outliner.add_stats acc s in
            (acc, acc :: out))
          (Outliner.no_stats, []) stats))
