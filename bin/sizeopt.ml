(* sizeopt: command-line driver for the code-size toolchain.

   Subcommands:
     compile   Swiftlet source -> machine assembly
     outline   machine assembly -> outlined machine assembly (+ stats)
     stats     pattern statistics report for a machine program (§IV)
     run       execute a program's entry point in the simulator
     appgen    emit a synthetic app's Swiftlet sources to a directory *)

open Cmdliner

(* A file's contents, or why they cannot be read. *)
let read_file path =
  if Sys.file_exists path && Sys.is_directory path then
    Error (path ^ ": is a directory, not a file")
  else
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error e -> Error e

let write_out path contents =
  match path with
  | None -> print_string contents
  | Some p ->
    let oc = open_out p in
    output_string oc contents;
    close_out oc

(* Every program a command reads is validated before anything runs on it:
   an undefined branch target or a duplicate function is an error here, not
   a crash (or a silently wrong answer) later. *)
let load_program path =
  Result.bind (read_file path) (fun text ->
      let prog =
        if Filename.check_suffix path ".swl" then
          Result.map Codegen.compile_modul
            (Swiftlet.Compile.compile_module ~name:"cli" text)
        else Machine.Asm_parser.parse_program text
      in
      Result.bind prog (fun p ->
          Result.map (fun () -> p) (Machine.Program.validate p)))

let or_die = function
  | Ok x -> x
  | Error e ->
    prerr_endline ("error: " ^ e);
    exit 1

(* --- compile -------------------------------------------------------------- *)

let compile_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.swl") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.s")
  in
  let rounds =
    Arg.(value & opt int 0 & info [ "outline-repeat-count" ] ~docv:"N"
           ~doc:"Rounds of machine outlining to apply (the artifact's flag).")
  in
  let run input output rounds =
    let prog = or_die (load_program input) in
    let prog =
      if rounds > 0 then fst (Outcore.Repeat.run ~rounds prog) else prog
    in
    write_out output (Machine.Asm_printer.to_source prog)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile Swiftlet source to machine assembly.")
    Term.(const run $ input $ output $ rounds)

(* --- outline -------------------------------------------------------------- *)

let outline_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.s")
  in
  let rounds =
    Arg.(value & opt int 5 & info [ "outline-repeat-count"; "rounds" ] ~docv:"N")
  in
  let run input output rounds =
    let prog = or_die (load_program input) in
    let before = Machine.Program.code_size_bytes prog in
    let outlined, stats = Outcore.Repeat.run ~rounds prog in
    let after = Machine.Program.code_size_bytes outlined in
    write_out output (Machine.Asm_printer.to_source outlined);
    Printf.eprintf "code size: %d -> %d bytes (%.1f%% saving) in %d round(s)\n"
      before after
      (100. *. float_of_int (before - after) /. float_of_int before)
      (List.length stats);
    List.iteri
      (fun i (s : Outcore.Outliner.round_stats) ->
        Printf.eprintf
          "  round %d: %d occurrences -> %d functions (%d bytes of outlined code)\n"
          (i + 1) s.sequences_outlined s.functions_created s.outlined_bytes)
      stats
  in
  Cmd.v
    (Cmd.info "outline"
       ~doc:"Apply repeated machine outlining to an assembly or Swiftlet file.")
    Term.(const run $ input $ output $ rounds)

(* --- stats ---------------------------------------------------------------- *)

let stats_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s") in
  let top = Arg.(value & opt int 10 & info [ "top" ] ~docv:"N") in
  let run input top =
    let prog = or_die (load_program input) in
    let r = Outcore.Analysis.analyze prog in
    Printf.printf
      "instructions: %d   code bytes: %d\n\
       profitable patterns: %d   candidates: %d\n\
       candidates ending in call/ret: %.1f%%\n"
      r.total_insns r.total_code_bytes (Array.length r.patterns)
      r.candidates_total
      (100. *. r.call_or_ret_fraction);
    (match r.longest with
    | Some l ->
      Printf.printf "longest pattern: %d instructions, repeats %d times\n" l.length
        l.frequency
    | None -> ());
    Printf.printf "\ntop %d patterns by repetition frequency:\n" top;
    Array.iteri
      (fun i (p : Outcore.Analysis.pattern_stat) ->
        if i < top then begin
          Printf.printf "#%-3d x%-6d len %-3d saves %d bytes\n" (i + 1) p.frequency
            p.length p.saving;
          List.iter
            (fun insn -> Printf.printf "      %s\n" (Machine.Insn.to_string insn))
            p.sample
        end)
      r.patterns
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Report repeated machine-code pattern statistics (the paper's §IV pass).")
    Term.(const run $ input $ top)

(* --- run ------------------------------------------------------------------ *)

let run_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let entry = Arg.(value & opt string "main" & info [ "entry" ] ~docv:"SYMBOL") in
  let args_ =
    Arg.(value & opt_all int [] & info [ "arg" ] ~docv:"N" ~doc:"Integer argument (repeatable).")
  in
  let rounds = Arg.(value & opt int 0 & info [ "outline-repeat-count" ] ~docv:"N") in
  let run input entry args_ rounds =
    let prog = or_die (load_program input) in
    let prog = if rounds > 0 then fst (Outcore.Repeat.run ~rounds prog) else prog in
    match Perfsim.Interp.run ~args:args_ ~entry prog with
    | Error e ->
      prerr_endline ("execution error: " ^ Perfsim.Interp.error_to_string e);
      exit 1
    | Ok r ->
      List.iter (fun v -> Printf.printf "%d\n" v) r.output;
      Printf.eprintf
        "exit=%d steps=%d cycles=%d icache-misses=%d itlb-misses=%d branches=%d \
         calls=%d outlined-steps=%d icache-accesses=%d dtlb-misses=%d \
         data-pages=%d data-fault-cycles=%d cold-start-pages=%d \
         cold-start-cost=%d\n"
        r.exit_value r.steps r.cycles r.icache_misses r.itlb_misses r.branches
        r.calls r.outlined_steps r.icache_accesses r.dtlb_misses
        r.data_pages_touched r.data_fault_cycles r.cold_start_pages
        r.cold_start_cost;
      exit (r.exit_value land 0xff)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a program in the performance simulator.")
    Term.(const run $ input $ entry $ args_ $ rounds)

(* --- appgen --------------------------------------------------------------- *)

let appgen_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let profile_arg =
    Arg.(value & opt string "rider" & info [ "profile" ] ~docv:"rider|driver|eats|small")
  in
  let week = Arg.(value & opt int 0 & info [ "week" ] ~docv:"W") in
  let run dir profile_name week =
    let profile = or_die (Workload.Appgen.profile_of_name profile_name) in
    let profile = Workload.Appgen.at_week profile week in
    let sources = Workload.Appgen.generate_sources profile in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun (name, src) ->
        let path = Filename.concat dir (name ^ ".swl") in
        let oc = open_out path in
        output_string oc src;
        close_out oc)
      sources;
    Printf.printf "wrote %d modules to %s/\n" (List.length sources) dir
  in
  Cmd.v
    (Cmd.info "appgen" ~doc:"Emit a synthetic app's Swiftlet sources.")
    Term.(const run $ dir $ profile_arg $ week)

(* --- build ----------------------------------------------------------------- *)

(* The input of [build] and [profile]: a directory of .swl modules or a
   synthetic app profile ([--app], aged by [--week]).  The term yields a
   thunk returning (workload name, sources), so resolution errors come
   from the command body. *)
let sources_term ~app_doc =
  let dir =
    Arg.(value & pos 0 (some dir) None & info [] ~docv:"DIR"
           ~doc:"Directory of .swl modules (one module per file).")
  in
  let app_arg =
    Arg.(value & opt (some string) None
         & info [ "app" ] ~docv:"rider|driver|eats|small" ~doc:app_doc)
  in
  let week = Arg.(value & opt int 0 & info [ "week" ] ~docv:"W") in
  let resolve dir app week () =
    match (app, dir) with
    | Some name, _ ->
      ( name,
        Workload.Appgen.generate_sources
          (Workload.Appgen.at_week
             (or_die (Workload.Appgen.profile_of_name name))
             week) )
    | None, Some d ->
      ( Filename.basename d,
        Sys.readdir d |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".swl")
        |> List.sort String.compare
        |> List.map (fun f ->
               ( Filename.chop_suffix f ".swl",
                 or_die (read_file (Filename.concat d f)) ))
      )
    | None, None ->
      prerr_endline "error: pass a DIR of .swl modules or --app PROFILE";
      exit 1
  in
  Term.(const resolve $ dir $ app_arg $ week)

let build_cmd =
  let sources =
    sources_term ~app_doc:"Build a synthetic app profile instead of a directory."
  in
  let mode =
    Arg.(value & opt string "wp" & info [ "mode" ] ~docv:"wp|pm|thin"
           ~doc:"Whole-program, per-module, or thin (sharded parallel \
                 whole-program) pipeline.")
  in
  let workers =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains for --mode thin (0 auto-detects the \
                   machine's recommended domain count).")
  in
  let rounds =
    Arg.(value & opt int 5 & info [ "rounds"; "outline-repeat-count" ] ~docv:"N")
  in
  let engine =
    Arg.(value & opt string "incremental"
         & info [ "engine" ] ~docv:"incremental|scratch"
             ~doc:"Outliner engine: the incremental engine (default) or \
                   the from-scratch reference.")
  in
  let profile_flag =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Print the build's whole timing tree after the phase \
                   timings: every pass step with its size delta, each \
                   outline round with its phase split (sequence build, \
                   tree build, enumerate, score, rewrite) and each \
                   thin-outline round with its shards.")
  in
  let layout_arg =
    Arg.(value & opt string "append"
         & info [ "layout" ]
             ~docv:
               "append|caller-affinity|order-file|c3|balanced|bp-compress|stitch"
             ~doc:"Function-placement strategy.  order-file, c3, balanced, \
                   bp-compress and stitch are profile-guided: they use \
                   --profile-in, or self-profile a main run when no profile \
                   is given.  bp-compress(w=0..1) mixes a compressed-size \
                   term into the balanced-partitioning objective (default \
                   w=0.5).  stitch places at block granularity: cold basic \
                   blocks split into a __text_cold region after hot text \
                   and hot chains stitched along the hottest \
                   interprocedural call edges (static never-executed \
                   heuristic when the profile has no block counts).")
  in
  let profile_in =
    Arg.(value & opt (some file) None
         & info [ "profile-in" ] ~docv:"FILE.pgo"
             ~doc:"Recorded execution profile (from sizeopt profile) \
                   driving a profile-guided --layout.")
  in
  let passes_arg =
    Arg.(value & opt (some string) None
         & info [ "passes" ] ~docv:"SPEC"
             ~doc:"Explicit pass pipeline, e.g. \
                   'dce,merge-functions,outline(rounds=5)'.  Overrides the \
                   individual pass flags; passes run in the given order.")
  in
  let verify_each =
    Arg.(value & flag
         & info [ "verify-each" ]
             ~doc:"Check IR / machine-program well-formedness after every \
                   pass (and every outline round), not just at the end.")
  in
  let print_after =
    Arg.(value & opt_all string []
         & info [ "print-after" ] ~docv:"PASS"
             ~doc:"Dump the IR after the named pass (repeatable).")
  in
  let print_after_all =
    Arg.(value & flag
         & info [ "print-after-all" ] ~doc:"Dump the IR after every pass.")
  in
  let bisect_arg =
    Arg.(value & opt (some int) None
         & info [ "opt-bisect-limit" ] ~docv:"N"
             ~doc:"Stop applying passes (and individual outline rounds) \
                   after N steps, and print the step table.")
  in
  let run sources mode workers rounds engine profile layout profile_in
      passes verify_each print_after print_after_all bisect_limit =
    let _, sources = sources () in
    let mode = or_die (Pipeline.mode_of_string ~workers mode) in
    let outline_engine =
      match engine with
      | "incremental" -> `Incremental
      | "scratch" -> `Scratch
      | other ->
        prerr_endline ("unknown engine " ^ other ^ " (want incremental or scratch)");
        exit 1
    in
    let outlined_layout = or_die (Pipeline.layout_strategy_of_string layout) in
    let layout_profile =
      match profile_in with
      | None -> None
      | Some path -> Some (or_die (Pgo.Profile.load path))
    in
    let print_after =
      if print_after_all then `All
      else if print_after = [] then `Never
      else `Passes print_after
    in
    let config =
      { Pipeline.default_config with
        mode; outline_rounds = rounds; outline_engine; outlined_layout;
        layout_profile; verify_each; print_after; bisect_limit }
    in
    let config =
      match passes with
      | None -> config
      | Some spec -> or_die (Pipeline.config_of_passes ~base:config spec)
    in
    let res = or_die (Pipeline.build_sources ~config sources) in
    let est = Lazy.force res.Pipeline.layout.Linker.compressed in
    Printf.printf "binary size: %d B   code size: %d B   outlined rounds: %d\n"
      res.Pipeline.binary_size res.code_size
      (List.length res.outline_stats);
    Printf.printf
      "estimated compressed size: %d B (content %d B, %d back-references)\n"
      est.Linker.Compress.compressed_bytes est.Linker.Compress.raw_bytes
      est.Linker.Compress.match_count;
    (match res.Pipeline.function_order with
    | Some order ->
      Printf.printf "layout: %s placed %d functions%s\n"
        (Pipeline.layout_strategy_name config.Pipeline.outlined_layout)
        (List.length order)
        (match profile_in with
        | Some p -> " (profile: " ^ p ^ ")"
        | None -> " (self-profiled)")
    | None -> ());
    List.iteri
      (fun i (s : Outcore.Outliner.round_stats) ->
        Printf.printf
          "  round %d: %d occurrences -> %d functions, %d bytes saved\n"
          (i + 1) s.sequences_outlined s.functions_created s.bytes_saved)
      res.outline_stats;
    Printf.printf "\nphase timings:\n";
    List.iter
      (fun (t : Passman.timing) ->
        Printf.printf "  %-22s %8.4fs\n" t.t_name t.t_seconds)
      res.timing_tree;
    if profile then begin
      Printf.printf "\npass profile (%s engine):\n%s" engine
        (Passman.render_tree res.timing_tree)
    end;
    (match bisect_limit with
    | None -> ()
    | Some limit ->
      Printf.printf "\npass steps (opt-bisect-limit %d):\n" limit;
      List.iter
        (fun (s : Passman.step) ->
          let name =
            if s.Passman.st_detail = "" then s.Passman.st_pass
            else s.Passman.st_pass ^ " " ^ s.Passman.st_detail
          in
          let name =
            if s.Passman.st_unit = "" then name
            else name ^ " @" ^ s.Passman.st_unit
          in
          Printf.printf "  %3d %s %-40s %8d -> %8d B\n" s.Passman.st_gate
            (if s.Passman.st_applied then "run " else "skip") name
            s.Passman.st_before s.Passman.st_after)
        res.pass_steps)
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "Run the full pipeline over a module directory or synthetic app, \
          reporting sizes, phase timings and (with --profile) the per-round \
          outliner phase split.")
    Term.(const run $ sources $ mode $ workers $ rounds $ engine
          $ profile_flag $ layout_arg $ profile_in $ passes_arg $ verify_each
          $ print_after $ print_after_all $ bisect_arg)

(* --- profile --------------------------------------------------------------- *)

let profile_cmd =
  let sources =
    sources_term ~app_doc:"Profile a synthetic app instead of a directory."
  in
  let mode =
    Arg.(value & opt string "wp" & info [ "mode" ] ~docv:"wp|pm|thin"
           ~doc:"Pipeline used for the instrumented build.")
  in
  let rounds =
    Arg.(value & opt int 5 & info [ "rounds"; "outline-repeat-count" ] ~docv:"N")
  in
  let entries =
    Arg.(value & opt_all string []
         & info [ "entry" ] ~docv:"SYMBOL"
             ~doc:"Entry point to trace (repeatable).  Default: main plus \
                   every spanN utility entry, mirroring the device matrix's \
                   startup+utility workload.")
  in
  let output =
    Arg.(value & opt string "profile.pgo"
         & info [ "o"; "output" ] ~docv:"FILE.pgo")
  in
  let run sources mode rounds entries output =
    let workload, sources = sources () in
    let mode = or_die (Pipeline.mode_of_string ~workers:0 mode) in
    let entries =
      if entries <> [] then entries
      else "main" :: Workload.Appgen.span_entries
    in
    let config = { Pipeline.default_config with mode; outline_rounds = rounds } in
    let res = or_die (Pipeline.build_sources ~config sources) in
    let profile =
      Pgo.Collect.collect
        ~args_for:(fun e -> if e = "main" then [] else [ 1 ])
        ~workload ~entries res.Pipeline.program
    in
    Pgo.Profile.save output profile;
    Printf.printf
      "wrote %s: %d entries, %d functions touched, %d call edges (weight %d)\n"
      output (List.length profile.Pgo.Profile.entries)
      (List.length profile.Pgo.Profile.first_touch)
      (List.length profile.Pgo.Profile.edges)
      (Pgo.Profile.total_edge_weight profile)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Build a program, trace its entry points in the simulator, and \
          write the execution profile (dynamic call graph, per-function \
          counts, startup first-touch order) for sizeopt build --profile-in.")
    Term.(const run $ sources $ mode $ rounds $ entries $ output)

(* --- report --------------------------------------------------------------- *)

let report_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.s") in
  let top = Arg.(value & opt int 15 & info [ "top" ] ~docv:"N") in
  let run input top =
    let prog = or_die (load_program input) in
    let layout = Linker.link prog in
    Printf.printf "binary size: %d B (code %d B, data %d B, image overhead %d B)\n\n"
      (Linker.binary_size layout) layout.Linker.text_size layout.Linker.data_size
      layout.Linker.image_overhead;
    (* Per-module attribution. *)
    let by_module = Hashtbl.create 32 in
    List.iter
      (fun (f : Machine.Mfunc.t) ->
        let key = if f.Machine.Mfunc.from_module = "" then "(none)" else f.Machine.Mfunc.from_module in
        let code, funcs =
          Option.value ~default:(0, 0) (Hashtbl.find_opt by_module key)
        in
        Hashtbl.replace by_module key
          (code + Machine.Mfunc.size_bytes f, funcs + 1))
      prog.Machine.Program.funcs;
    let rows =
      Hashtbl.fold (fun m (c, n) acc -> (m, c, n) :: acc) by_module []
      |> List.sort (fun (_, a, _) (_, b, _) -> Int.compare b a)
    in
    Printf.printf "%-24s %10s %8s\n" "module" "code B" "#funcs";
    List.iter (fun (m, c, n) -> Printf.printf "%-24s %10d %8d\n" m c n) rows;
    (* Largest functions. *)
    let funcs =
      List.sort
        (fun a b ->
          Int.compare (Machine.Mfunc.size_bytes b) (Machine.Mfunc.size_bytes a))
        prog.Machine.Program.funcs
    in
    Printf.printf "\nlargest %d functions:\n" top;
    List.iteri
      (fun i (f : Machine.Mfunc.t) ->
        if i < top then
          Printf.printf "  %6d B  %s%s\n" (Machine.Mfunc.size_bytes f) f.name
            (if f.Machine.Mfunc.is_outlined then "  [outlined]" else ""))
      funcs;
    (* Outlined share. *)
    let outlined_bytes =
      List.fold_left
        (fun acc (f : Machine.Mfunc.t) ->
          if f.Machine.Mfunc.is_outlined then acc + Machine.Mfunc.size_bytes f else acc)
        0 prog.Machine.Program.funcs
    in
    Printf.printf "\noutlined functions: %d B (%.1f%% of code)\n" outlined_bytes
      (100. *. float_of_int outlined_bytes /. float_of_int layout.Linker.text_size)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Per-module size attribution for a program.")
    Term.(const run $ input $ top)

(* --- fuzz ------------------------------------------------------------------ *)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Root seed; every failure report names the (seed, index) \
                 pair that regenerates it.")
  in
  let count =
    Arg.(value & opt int 100 & info [ "count" ] ~docv:"K"
           ~doc:"Programs to generate and sweep across the config lattice.")
  in
  let fuel =
    Arg.(value & opt int 8 & info [ "fuel" ] ~docv:"F"
           ~doc:"Program size: scales modules, declarations and statements.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log every skip/failure.")
  in
  let self_test =
    Arg.(value & flag & info [ "self-test" ]
           ~doc:"Inject seven bugs one at a time: an outliner legality \
                 bug (LR-legality), stale symbol rows in the incremental \
                 engine (stale-engine-rows), a thin-WPO summary-hash \
                 collision (summary-hash-truncation), stale thin-WPO shard \
                 rows (stale-shard-state), a stale serve-cache entry \
                 (stale-serve-cache), a block splitter that drops \
                 materialized branches (dropped-materialized-branch) and a \
                 global merge without its rollback \
                 (dropped-merge-rollback); require the harness to catch \
                 all seven and shrink each reproducer.")
  in
  let list_points =
    Arg.(value & flag & info [ "list-points" ]
           ~doc:"Print the lattice point labels and exit.")
  in
  let verify_each =
    Arg.(value & flag
         & info [ "verify-each" ]
             ~doc:"Run every Swiftlet lattice point with per-pass invariant \
                   checking (--verify-each) turned on.")
  in
  let run seed count fuel verbose self_test list_points verify_each =
    let log = if verbose then prerr_endline else fun _ -> () in
    if list_points then
      List.iter
        (fun (label, _) -> print_endline label)
        (Fuzz.Lattice.points Pipeline.default_config)
    else if self_test then begin
      match Fuzz.Driver.self_test ~log ~seed () with
      | Ok report -> print_endline ("self-test OK: " ^ report)
      | Error report ->
        prerr_endline ("self-test FAILED: " ^ report);
        exit 1
    end
    else begin
      match Fuzz.Driver.fuzz ~log ~verify_each ~seed ~count ~fuel () with
      | Ok s ->
        Printf.printf
          "fuzz OK: %d programs (%d skipped), %d lattice points checked, 0 \
           divergences\n"
          s.Fuzz.Driver.programs s.skipped s.points_checked
      | Error report ->
        prerr_endline report;
        exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random Swiftlet and machine programs, every \
          pipeline-config lattice point checked against the MIR oracle.")
    Term.(const run $ seed $ count $ fuel $ verbose $ self_test $ list_points
          $ verify_each)

let serve_cmd =
  let stdio =
    Arg.(value & flag
         & info [ "stdio" ]
             ~doc:"Speak the framed protocol on stdin/stdout instead of a \
                   Unix socket (what the tests and CI drive).")
  in
  let socket =
    Arg.(value & opt string "sizeopt.sock"
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-socket path to listen on (default sizeopt.sock); \
                   unlinked on shutdown.")
  in
  let cache =
    Arg.(value & opt int 64
         & info [ "cache" ] ~docv:"N"
             ~doc:"Result-cache capacity in entries; 0 disables caching.")
  in
  let run stdio socket cache =
    let t = Serve.Server.create ~cache_capacity:cache () in
    if stdio then Serve.Server.serve_channels t stdin stdout
    else begin
      Printf.eprintf "sizeopt serve: listening on %s\n%!" socket;
      Serve.Server.serve_unix t ~path:socket
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Persistent build service: length-prefixed requests (app seed or \
          inline Swiftlet sources plus a pipeline spec) answered with image \
          size, section table and per-phase timings, keeping the \
          incremental engine and a content-hash result cache warm across \
          requests.")
    Term.(const run $ stdio $ socket $ cache)

let () =
  let doc = "whole-program repeated machine outlining toolchain (CGO'21 reproduction)" in
  let info = Cmd.info "sizeopt" ~doc in
  exit (Cmd.eval (Cmd.group info [ compile_cmd; outline_cmd; stats_cmd; run_cmd; build_cmd; profile_cmd; appgen_cmd; report_cmd; fuzz_cmd; serve_cmd ]))
