(* Build a synthetic UberRider-class app through both pipelines and print a
   size report, then execute the app's main through the interpreter under
   both builds to demonstrate they behave identically.

     dune exec examples/app_size_report.exe *)

let () =
  let profile = Workload.Appgen.uber_rider in
  Printf.printf "generating %s (%d feature modules, %d vendor libraries)...\n%!"
    profile.Workload.Appgen.app_name profile.n_modules profile.n_vendor;
  let mods =
    match Workload.Appgen.generate_modules profile with
    | Ok m -> m
    | Error e -> failwith e
  in
  let per_module_cfg =
    { Pipeline.default_ios_config with flag_semantics = Link.Attributes }
  in
  let build name config =
    match Pipeline.build ~config mods with
    | Ok r ->
      Printf.printf "%-34s binary %8d B   code %8d B\n" name r.Pipeline.binary_size
        r.Pipeline.code_size;
      r
    | Error e -> failwith e
  in
  Printf.printf "\n";
  let _none = build "whole-program, no outlining" (Pipeline.config_of_flags ~rounds:0 Pipeline.Whole_program) in
  let base = build "default iOS (per-module, 5 rounds)" per_module_cfg in
  let wpo = build "whole-program, 5 rounds" Pipeline.default_config in
  Printf.printf "\nwhole-program outlining saves %.1f%% of code over the default pipeline\n"
    (100.
    *. float_of_int (base.Pipeline.code_size - wpo.Pipeline.code_size)
    /. float_of_int base.Pipeline.code_size);
  (* Legacy metadata semantics cannot even link this Swift+ObjC mix. *)
  (match Pipeline.build ~config:{ Pipeline.default_config with flag_semantics = Link.Legacy } mods with
  | Error e -> Printf.printf "\nwith legacy metadata semantics, linking fails (§VI-2):\n  %s\n" e
  | Ok _ -> print_endline "unexpected: legacy link succeeded");
  (* Both binaries must behave identically. *)
  let config = { Perfsim.Interp.default_config with model_perf = false } in
  match
    ( Perfsim.Interp.run ~config ~entry:"main" base.Pipeline.program,
      Perfsim.Interp.run ~config ~entry:"main" wpo.Pipeline.program )
  with
  | Ok a, Ok b ->
    Printf.printf "\napp main(): %d (default build) vs %d (optimized build) %s\n"
      a.exit_value b.exit_value
      (if a.exit_value = b.exit_value then "- identical" else "- MISMATCH!")
  | Error e, _ | _, Error e -> failwith (Perfsim.Interp.error_to_string e)
