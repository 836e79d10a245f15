(* Profiling wants counts, not timings: the cost model off makes the run
   cheaper without changing a single count.  Unknown externs are no-ops so
   partially-modelled programs still yield a usable (partial) profile. *)
let default_config =
  {
    Perfsim.Interp.default_config with
    model_perf = false;
    unknown_extern = `Noop;
    max_steps = 50_000_000;
  }

let collect ?(config = default_config) ?(args_for = fun _ -> [])
    ?(on_error = fun _ _ -> ()) ~workload ~entries program =
  let c = Perfsim.Interp.create_counts () in
  List.iter
    (fun entry ->
      (* Errors (missing entry, trap, step limit) keep the counts seen so
         far: a crashing span still contributes its prefix. *)
      match
        Perfsim.Interp.run ~config ~counts:c ~args:(args_for entry) ~entry
          program
      with
      | Ok _ -> ()
      | Error e -> on_error entry e)
    entries;
  let l = Perfsim.Interp.count_lists c in
  Profile.make ~workload ~entries ~first_touch:l.first_touch
    ~counts:l.entry_counts ~edges:l.edge_counts ~blocks:l.block_counts ()
