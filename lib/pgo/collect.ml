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

let collect ?(config = default_config) ?(args_for = fun _ -> []) ~workload
    ~entries program =
  let c = Perfsim.Interp.create_counts () in
  List.iter
    (fun entry ->
      (* Errors (missing entry, trap, step limit) keep the counts seen so
         far: a crashing span still contributes its prefix. *)
      ignore
        (Perfsim.Interp.run ~config ~counts:c ~args:(args_for entry) ~entry
           program))
    entries;
  let bindings tbl = List.of_seq (Hashtbl.to_seq tbl) in
  Profile.make ~workload ~entries
    ~first_touch:(List.rev c.touch_rev)
    ~counts:(bindings c.entry_counts) ~edges:(bindings c.edge_counts)
    ~blocks:(bindings c.block_counts) ()
