(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation.  Run with no arguments for everything, or name experiments:

     dune exec bench/main.exe -- fig1 table1 fig5 fig6 fig7 fig8 fig11 fig12
                                 table2 fig13 table3 table4 buildtime
                                 outline_bench layout_bench apps foreign
                                 datalayout ablate micro

   Results worth keeping are also summarized in EXPERIMENTS.md. *)

let table = Repro_stats.Texttable.render
let title t = print_string (Repro_stats.Texttable.render_title t)
let pct a b = 100. *. (float_of_int a -. float_of_int b) /. float_of_int a

let ok_exn = function
  | Ok x -> x
  | Error e -> failwith e

(* Shared builds, computed once. *)
let rider_modules =
  lazy (ok_exn (Workload.Appgen.generate_modules Workload.Appgen.uber_rider))

let per_module_cfg =
  { Pipeline.default_ios_config with flag_semantics = Link.Attributes }

let build ?(config = Pipeline.default_config) mods = ok_exn (Pipeline.build ~config mods)

(* Bench configurations are pipeline strings, same grammar as
   [sizeopt build --passes]: what a row measures is what its spec says. *)
let cfg_of_passes ?base spec = ok_exn (Pipeline.config_of_passes ?base spec)
let build_passes ?base spec mods = build ~config:(cfg_of_passes ?base spec) mods

let rider_baseline = lazy (build ~config:per_module_cfg (Lazy.force rider_modules))
let rider_wpo = lazy (build (Lazy.force rider_modules))

let rider_unoutlined = lazy (build_passes "dce" (Lazy.force rider_modules))

let passes_for_rounds rounds =
  if rounds = 0 then "dce" else Printf.sprintf "dce,outline(rounds=%d)" rounds

let rider_report =
  lazy (Outcore.Analysis.analyze (Lazy.force rider_unoutlined).Pipeline.program)

(* ------------------------------------------------------------------ E1 *)

let fig1 () =
  title "Figure 1: code-size growth over time (weeks), baseline vs optimized";
  let weeks = [ 0; 2; 4; 6; 8; 10; 12; 14 ] in
  let rows = ref [] in
  let base_pts = ref [] and opt_pts = ref [] in
  List.iter
    (fun w ->
      let profile = Workload.Appgen.at_week Workload.Appgen.uber_rider w in
      let mods = ok_exn (Workload.Appgen.generate_modules profile) in
      let b = build ~config:per_module_cfg mods in
      let o = build mods in
      base_pts := (float_of_int w, float_of_int b.Pipeline.code_size) :: !base_pts;
      opt_pts := (float_of_int w, float_of_int o.Pipeline.code_size) :: !opt_pts;
      rows :=
        [
          string_of_int w;
          string_of_int b.Pipeline.code_size;
          string_of_int o.Pipeline.code_size;
          Printf.sprintf "%.1f%%" (pct b.Pipeline.code_size o.Pipeline.code_size);
        ]
        :: !rows)
    weeks;
  print_string
    (table
       ~header:[ "week"; "baseline code B"; "optimized code B"; "saving" ]
       (List.rev !rows));
  let fb = Repro_stats.Regression.linear !base_pts in
  let fo = Repro_stats.Regression.linear !opt_pts in
  Printf.printf
    "baseline slope: %.0f B/week (R2 %.3f)\noptimized slope: %.0f B/week (R2 %.3f)\n\
     growth-rate reduction: %.2fx   [paper: ~2x, slopes 2.7 vs 1.37]\n"
    fb.Repro_stats.Regression.slope fb.Repro_stats.Regression.r2
    fo.Repro_stats.Regression.slope fo.Repro_stats.Regression.r2
    (fb.Repro_stats.Regression.slope /. fo.Repro_stats.Regression.slope)

(* ------------------------------------------------------------------ E2 *)

let table1 () =
  title "Table I: the landscape of binary-size savings, level by level";
  let mods = Lazy.force rider_modules in
  let base = (Lazy.force rider_unoutlined).Pipeline.code_size in
  let with_passes name spec =
    let r = build_passes spec mods in
    (name, r.Pipeline.code_size)
  in
  (* AST-level clone detection on the generated sources. *)
  let sources = Workload.Appgen.generate_sources Workload.Appgen.uber_rider in
  let asts =
    List.filter_map
      (fun (name, src) ->
        match Swiftlet.Parser.parse_module ~name src with
        | Ok a -> Some a
        | Error _ -> None)
      sources
  in
  let clones = Swiftlet.Clone_detect.analyze asts in
  let rows =
    [
      [ "AST"; "source clone detection (PMD)";
        Printf.sprintf "%.2f%% function replication" (100. *. clones.clone_fraction);
        "<1% replication" ];
    ]
    @ (let name, sz = with_passes "SIL outlining" "dce,sil-outline(min=8)" in
       [ [ "SIL"; name; Printf.sprintf "%.2f%% size saving" (pct base sz); "0.41%" ] ])
    @ (let name, sz = with_passes "MergeFunction" "dce,merge-functions" in
       [ [ "LLVM-IR"; name; Printf.sprintf "%.2f%% size saving" (pct base sz); "0.9%" ] ])
    @ (let name, sz = with_passes "FMSA" "dce,fmsa" in
       [ [ "LLVM-IR"; name; Printf.sprintf "%.2f%% size saving" (pct base sz); "2%" ] ])
    @ (* Global merging is measured in the per-module (iOS production)
         pipeline, where its cross-module reach is real: under whole-program
         linking FMSA already sees every clone, so the whole-program numbers
         cannot separate the two.  The comparison is therefore against the
         per-module merge stack, and the gate below demands a strict win. *)
    (let pm_spec spec =
       (build_passes ~base:per_module_cfg spec mods).Pipeline.code_size
     in
     let pm_base = pm_spec "dce" in
     let pm_merge = pm_spec "dce,merge-functions,fmsa" in
     let pm_gm = pm_spec "dce,merge-functions,fmsa,global-merge" in
     if pm_gm >= pm_merge then
       failwith
         (Printf.sprintf
            "table1 gate: global-merge must strictly shrink the per-module \
             merge stack (dce,merge-functions,fmsa %d B vs +global-merge %d B)"
            pm_merge pm_gm);
     let json =
       Printf.sprintf
         "{\n\
         \  \"app\": \"uber_rider\",\n\
         \  \"mode\": \"per-module\",\n\
         \  \"text_dce\": %d,\n\
         \  \"text_merge_fmsa\": %d,\n\
         \  \"text_merge_fmsa_global\": %d,\n\
         \  \"global_merge_gate\": \"text_merge_fmsa_global < text_merge_fmsa\",\n\
         \  \"gate_passed\": true\n\
          }\n"
         pm_base pm_merge pm_gm
     in
     let oc = open_out "BENCH_table1.json" in
     output_string oc json;
     close_out oc;
     Printf.printf "wrote BENCH_table1.json\n";
     [
       [ "LLVM-IR"; "global function merging (optimistic, per-module mode)";
         Printf.sprintf "%.2f%% size saving over merge+FMSA (%d B -> %d B)"
           (pct pm_merge pm_gm) pm_merge pm_gm;
         "n/a (CGO'21 companion)" ];
     ])
    @
    let wpo = Lazy.force rider_wpo in
    let baseline = Lazy.force rider_baseline in
    [
      [ "ISA"; "repeated machine outlining (vs per-module baseline)";
        Printf.sprintf "%.1f%% size reduction"
          (pct baseline.Pipeline.code_size wpo.Pipeline.code_size);
        "23%" ];
    ]
  in
  print_string (table ~header:[ "Level"; "Optimization"; "Measured"; "Paper" ] rows)

(* ------------------------------------------------------------------ E3 *)

let fig5 () =
  title "Figure 5: pattern repetition frequency follows a power law";
  let r = Lazy.force rider_report in
  let pts =
    Array.to_list
      (Array.map
         (fun (p : Outcore.Analysis.pattern_stat) ->
           (float_of_int p.rank, float_of_int p.frequency))
         r.patterns)
  in
  let fit = Repro_stats.Powerlaw.fit pts in
  Printf.printf
    "profitable patterns: %d   candidates: %d\n\
     power-law fit: freq = %.1f * rank^%.3f   (log-log R2 = %.3f)\n\
     [paper: power law with 99.4%% confidence]\n\n"
    (Array.length r.patterns) r.candidates_total fit.Repro_stats.Powerlaw.a
    fit.Repro_stats.Powerlaw.b fit.Repro_stats.Powerlaw.r2;
  let sample_ranks = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ] in
  let rows =
    List.filter_map
      (fun rank ->
        if rank <= Array.length r.patterns then
          let p = r.patterns.(rank - 1) in
          Some
            [ string_of_int rank; string_of_int p.frequency; string_of_int p.length;
              Printf.sprintf "%.0f" (Repro_stats.Powerlaw.predict fit (float_of_int rank)) ]
        else None)
      sample_ranks
  in
  print_string (table ~header:[ "rank"; "frequency"; "length"; "fit" ] rows);
  Printf.printf "fraction of candidates ending in call/ret: %.1f%% [paper: 67%%]\n"
    (100. *. r.call_or_ret_fraction)

(* ------------------------------------------------------------------ E4 *)

let fig6 () =
  title "Figure 6: fractal structure - frequency clusters vs length diversity";
  let r = Lazy.force rider_report in
  let clusters = Hashtbl.create 64 in
  Array.iter
    (fun (p : Outcore.Analysis.pattern_stat) ->
      let lens = Option.value ~default:[] (Hashtbl.find_opt clusters p.frequency) in
      Hashtbl.replace clusters p.frequency (p.length :: lens))
    r.patterns;
  let sorted =
    Hashtbl.fold (fun f lens acc -> (f, lens) :: acc) clusters []
    |> List.sort (fun (a, _) (b, _) -> Int.compare b a)
  in
  let rows =
    List.filteri (fun i _ -> i < 18) sorted
    |> List.map (fun (freq, lens) ->
           let n = List.length lens in
           let mx = List.fold_left max 0 lens in
           let mn = List.fold_left min max_int lens in
           [ string_of_int freq; string_of_int n; string_of_int mn; string_of_int mx ])
  in
  print_string
    (table ~header:[ "frequency"; "#patterns"; "min len"; "max len" ] rows);
  print_endline
    "[paper: higher-frequency clusters have few, short patterns; lower-frequency\n\
    \ clusters have progressively more patterns and longer maxima]"

(* ------------------------------------------------------------------ E5 *)

let fig7 () =
  title "Figure 7: cumulative size savings vs number of patterns outlined";
  let r = Lazy.force rider_report in
  let curve = Outcore.Analysis.cumulative_savings r in
  let total = if Array.length curve = 0 then 0 else snd curve.(Array.length curve - 1) in
  let rows =
    List.map
      (fun frac ->
        let n = Outcore.Analysis.patterns_needed_for r frac in
        [ Printf.sprintf "%.0f%%" (frac *. 100.); string_of_int n ])
      [ 0.5; 0.75; 0.9; 0.99; 1.0 ]
  in
  print_string (table ~header:[ "fraction of total saving"; "#patterns needed" ] rows);
  Printf.printf "total potential saving: %d bytes across %d patterns\n" total
    (Array.length r.patterns);
  Printf.printf "patterns needed for 90%%: %d  [paper: > 10^2 - no small hard-coded set suffices]\n"
    (Outcore.Analysis.patterns_needed_for r 0.9)

(* ------------------------------------------------------------------ E6 *)

let fig8 () =
  title "Figure 8: histogram of candidates by sequence length";
  let r = Lazy.force rider_report in
  let hist = Outcore.Analysis.length_histogram r in
  let tail = List.fold_left (fun a (len, n) -> if len > 12 then a + n else a) 0 hist in
  let rows =
    List.filter_map
      (fun (len, n) ->
        if len <= 12 then Some [ string_of_int len; string_of_int n ] else None)
      hist
    @ [ [ ">12"; string_of_int tail ] ]
  in
  print_string (table ~header:[ "sequence length"; "#candidates" ] rows);
  (match r.longest with
  | Some l ->
    Printf.printf "longest repeating pattern: %d instructions, repeats %d times\n"
      l.length l.frequency
  | None -> ());
  print_endline "[paper: length-2 dominates; longest = 279 insns repeating 3x]"

(* ------------------------------------------------------------------ E7 *)

let fig11 () =
  title "Figure 11: greedy vs repeated outlining on the BCD/ABCD example";
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "extern ext\n";
  let a = "mov x10, #100" and b = "mov x11, #111" in
  let c = "mov x12, #122" and d = "mov x13, #133" in
  let pro = "  stp fp, lr, [sp, #-16]!\n" in
  let epi = "  ldp fp, lr, [sp], #16\n" in
  for i = 1 to 8 do
    Buffer.add_string buf
      (Printf.sprintf "func bcd%d:\nentry:\n%s  mov x9, #%d\n  %s\n  %s\n  %s\n  mov x8, #%d\n%s  b ext\n"
         i pro i b c d (1000 + i) epi)
  done;
  for i = 1 to 5 do
    Buffer.add_string buf
      (Printf.sprintf
         "func abcd%d:\nentry:\n%s  mov x9, #%d\n  %s\n  %s\n  %s\n  %s\n  mov x8, #%d\n%s  b ext\n"
         i pro (100 + i) a b c d (2000 + i) epi)
  done;
  let p =
    match Machine.Asm_parser.parse_program (Buffer.contents buf) with
    | Ok p -> p
    | Error e -> failwith e
  in
  let p1, _ = Outcore.Repeat.run ~rounds:1 p in
  let p5, stats5 = Outcore.Repeat.run ~rounds:5 p in
  let rows =
    [
      [ "original"; string_of_int (Machine.Program.code_size_bytes p); "-" ];
      [ "greedy (1 round)"; string_of_int (Machine.Program.code_size_bytes p1);
        "picks BCD first, discards ABCD" ];
      [ Printf.sprintf "repeated (%d rounds)" (List.length stats5);
        string_of_int (Machine.Program.code_size_bytes p5);
        "recovers [A; bl BCD] in round 2" ];
    ]
  in
  print_string (table ~header:[ "variant"; "code bytes"; "note" ] rows);
  print_endline
    "[paper's idealized counts: 44 insns -> 16 greedy -> 15 with the cascade]"

(* ------------------------------------------------------------------ E8 *)

let fig12 () =
  title "Figure 12: size vs rounds of outlining, intra-module vs whole-program";
  let mods = Lazy.force rider_modules in
  let rows = ref [] in
  for rounds = 0 to 6 do
    let pm = build_passes ~base:per_module_cfg (passes_for_rounds rounds) mods in
    let wp = build_passes (passes_for_rounds rounds) mods in
    rows :=
      [
        string_of_int rounds;
        string_of_int pm.Pipeline.binary_size;
        string_of_int pm.Pipeline.code_size;
        string_of_int wp.Pipeline.binary_size;
        string_of_int wp.Pipeline.code_size;
      ]
      :: !rows
  done;
  print_string
    (table
       ~header:
         [ "rounds"; "intra binary"; "intra code"; "whole-prog binary"; "whole-prog code" ]
       (List.rev !rows));
  let pm5 = Lazy.force rider_baseline and wp5 = Lazy.force rider_wpo in
  Printf.printf
    "whole-program vs per-module at 5 rounds: %.1f%% code saving  [paper: 13.7%% gap,\n\
     22.8%% total vs the default pipeline]\n"
    (pct pm5.Pipeline.code_size wp5.Pipeline.code_size)

(* ------------------------------------------------------------------ E9 *)

let table2 () =
  title "Table II: outlining statistics at different levels of repeats";
  let wpo = Lazy.force rider_wpo in
  let cum = Outcore.Repeat.cumulative wpo.Pipeline.outline_stats in
  let rows =
    List.mapi
      (fun i (s : Outcore.Outliner.round_stats) ->
        [
          string_of_int (i + 1);
          string_of_int s.sequences_outlined;
          string_of_int s.functions_created;
          string_of_int s.outlined_bytes;
        ])
      cum
  in
  print_string
    (table
       ~header:[ "rounds"; "#sequences outlined"; "#functions created"; "outlined bytes" ]
       rows);
  print_endline
    "[paper at 5 rounds: 4.71M sequences, 259K functions, 3.53MB - on a 114MB app]"

(* ----------------------------------------------------------- E10/E11 *)

let heatmap_reports =
  lazy
    (let base = (Lazy.force rider_baseline).Pipeline.program in
     let opt = (Lazy.force rider_wpo).Pipeline.program in
     ok_exn
       (Workload.Corespans.heatmap ~samples:2 ~base ~opt
          ~spans:Workload.Appgen.span_entries ()))

let fig13 () =
  title "Figure 13: core-span P50 ratio heatmap (optimized / baseline)";
  let reports = Lazy.force heatmap_reports in
  List.iter
    (fun (r : Workload.Corespans.span_report) ->
      Printf.printf "\n%s\n" r.span;
      let devices =
        List.sort_uniq compare (List.map (fun (c : Workload.Corespans.cell) -> c.device) r.cells)
      in
      let oses =
        List.sort_uniq compare (List.map (fun (c : Workload.Corespans.cell) -> c.os) r.cells)
      in
      let rows =
        List.map
          (fun d ->
            d
            :: List.map
                 (fun os ->
                   match
                     List.find_opt
                       (fun (c : Workload.Corespans.cell) -> c.device = d && c.os = os)
                       r.cells
                   with
                   | Some c -> Printf.sprintf "%.3f" c.ratio
                   | None -> "-")
                 oses)
          devices
      in
      print_string (table ~header:("device \\ OS" :: oses) rows))
    reports;
  Printf.printf
    "\ngeomean ratio over all cells: %.3f  [paper: 0.966, i.e. 3.4%% gain; short\n\
     hot spans may regress slightly]\n"
    (Workload.Corespans.geomean_ratio reports)

let table3 () =
  title "Table III: average execution time of core spans (simulated seconds)";
  let reports = Lazy.force heatmap_reports in
  let rows =
    List.map
      (fun (r : Workload.Corespans.span_report) ->
        [
          r.span;
          Printf.sprintf "%.3f" r.base_seconds;
          Printf.sprintf "%.3f" r.opt_seconds;
        ])
      reports
  in
  print_string (table ~header:[ "span"; "baseline"; "optimized" ] rows)

(* ----------------------------------------------------------------- E14 *)

let table4 () =
  title "Table IV: performance overhead of 5 rounds of outlining, 26 benchmarks";
  let rows = ref [] in
  let overheads = ref [] in
  List.iter
    (fun (b : Workload.Benchmarks.t) ->
      let m = ok_exn (Swiftlet.Compile.compile_module ~name:"bench" b.source) in
      let prog = Codegen.compile_modul m in
      let prog5, _ = Outcore.Repeat.run ~rounds:5 prog in
      let config = Perfsim.Interp.default_config in
      match
        ( Perfsim.Interp.run ~config ~entry:"main" prog,
          Perfsim.Interp.run ~config ~entry:"main" prog5 )
      with
      | Ok a, Ok o ->
        assert (a.exit_value = b.expected_exit);
        assert (o.exit_value = b.expected_exit);
        let ov = 100. *. (float_of_int o.cycles -. float_of_int a.cycles) /. float_of_int a.cycles in
        overheads := ov :: !overheads;
        rows :=
          [
            b.bench_name;
            Printf.sprintf "%+.2f%%" ov;
            string_of_int (Machine.Program.code_size_bytes prog);
            string_of_int (Machine.Program.code_size_bytes prog5);
          ]
          :: !rows
      | Error e, _ | _, Error e ->
        failwith (b.bench_name ^ ": " ^ Perfsim.Interp.error_to_string e))
    (Workload.Benchmarks.all @ [ Workload.Benchmarks.pathological ]);
  print_string
    (table ~header:[ "benchmark"; "%overhead"; "code B"; "outlined code B" ]
       (List.rev !rows));
  let n = List.length !overheads in
  Printf.printf
    "average overhead: %.2f%%  [paper: 1.63%%/1.83%%; pathological case 8.67%%]\n"
    (List.fold_left ( +. ) 0. !overheads /. float_of_int n)

(* ----------------------------------------------------------------- E11 *)

(* A build's wall time: the sum of its timing tree's root phases. *)
let phase_total (r : Pipeline.result) =
  List.fold_left
    (fun a (t : Passman.timing) -> a +. t.t_seconds)
    0. r.Pipeline.timing_tree

let buildtime () =
  title "Build time: pipeline phases (seconds), per SVII-C";
  let mods = Lazy.force rider_modules in
  let rows = ref [] in
  List.iter
    (fun rounds ->
      let r = build_passes (passes_for_rounds rounds) mods in
      let phase name =
        match
          List.find_opt
            (fun (t : Passman.timing) -> t.t_name = name)
            r.Pipeline.timing_tree
        with
        | Some t -> Printf.sprintf "%.2f" t.t_seconds
        | None -> "-"
      in
      let total = phase_total r in
      rows :=
        [
          string_of_int rounds;
          phase "llvm-link";
          phase "opt";
          phase "llc";
          phase "machine-outliner";
          phase "system-linker";
          Printf.sprintf "%.2f" total;
        ]
        :: !rows)
    [ 0; 1; 2; 5 ];
  let d = build ~config:per_module_cfg mods in
  let dtotal = phase_total d in
  print_string
    (table
       ~header:[ "rounds"; "llvm-link"; "opt"; "llc"; "outliner"; "linker"; "total" ]
       (List.rev !rows));
  Printf.printf
    "default (per-module) pipeline total: %.2fs\n\
     [paper: default 21 min; new pipeline 53 min + ~7 min/round, 66 min at 5 rounds]\n"
    dtotal;
  (* Incremental vs from-scratch outliner engine on the same machine
     program (the llc output, before outlining), best of two runs each.
     Both engines are serial, so each is timed by process CPU time: wall
     time would let host descheduling decide the ratio.  The byte-identity
     and the >= 2x CPU speedup are hard assertions, not eyeballed numbers;
     the wall ratio is printed beside it. *)
  let machine = (Lazy.force rider_unoutlined).Pipeline.program in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let time_engine engine =
    let once () =
      let prof = Outcore.Profile.create () in
      let c0 = cpu () and w0 = Unix.gettimeofday () in
      let p, _ = Outcore.Repeat.run ~profile:prof ~engine ~rounds:5 machine in
      (cpu () -. c0, Unix.gettimeofday () -. w0, p, prof)
    in
    let c1, w1, p, prof = once () in
    let c2, w2, _, _ = once () in
    (Float.min c1 c2, Float.min w1 w2, p, prof)
  in
  let cs, ws, ps, _ = time_engine `Scratch in
  let ci, wi, pi, prof_i = time_engine `Incremental in
  let speedup = cs /. ci in
  Printf.printf
    "\nuber_rider outliner, 5 rounds: scratch %.2fs CPU (%.2fs wall), \
     incremental %.2fs CPU (%.2fs wall) (%.1fx CPU speedup, %.1fx wall)\n"
    cs ws ci wi speedup (ws /. wi);
  print_string (Outcore.Profile.render prof_i);
  if Machine.Asm_printer.to_source ps <> Machine.Asm_printer.to_source pi then
    failwith "buildtime: incremental and scratch outliner outputs differ";
  if speedup < 2.0 then
    failwith
      (Printf.sprintf
         "buildtime: incremental CPU speedup %.2fx is below the 2x bar" speedup);
  Printf.printf "engines byte-identical; CPU speedup %.1fx clears the 2x bar\n"
    speedup

(* ------------------------------------------------------- outline bench *)

(* Wall time and code size for both outliner engines across round counts,
   emitted as BENCH_outline.json (schema documented in README) so CI can
   track the perf trajectory.  Exits nonzero if the engines ever diverge. *)
let outline_bench () =
  title "Outliner engine benchmark: scratch vs incremental (uber_rider)";
  let machine = (Lazy.force rider_unoutlined).Pipeline.program in
  let src = Machine.Asm_printer.to_source in
  let run_engine engine rounds =
    let prof = Outcore.Profile.create () in
    let t0 = Unix.gettimeofday () in
    let p, stats = Outcore.Repeat.run ~profile:prof ~engine ~rounds machine in
    (Unix.gettimeofday () -. t0, p, stats, prof)
  in
  let rounds_list = [ 1; 3; 5 ] in
  let results =
    List.concat_map
      (fun rounds ->
        List.map
          (fun (ename, engine) ->
            let wall, p, stats, prof = run_engine engine rounds in
            (ename, rounds, wall, p, stats, prof))
          [ ("scratch", `Scratch); ("incremental", `Incremental) ])
      rounds_list
  in
  let find ename rounds =
    List.find (fun (e, r, _, _, _, _) -> e = ename && r = rounds) results
  in
  let identical =
    List.for_all
      (fun rounds ->
        let _, _, _, ps, _, _ = find "scratch" rounds in
        let _, _, _, pi, _, _ = find "incremental" rounds in
        src ps = src pi)
      rounds_list
  in
  print_string
    (table
       ~header:[ "engine"; "rounds"; "wall s"; "code B"; "funcs" ]
       (List.map
          (fun (ename, rounds, wall, p, stats, _) ->
            [
              ename;
              string_of_int rounds;
              Printf.sprintf "%.3f" wall;
              string_of_int (Machine.Program.code_size_bytes p);
              string_of_int
                (List.fold_left
                   (fun a (s : Outcore.Outliner.round_stats) ->
                     a + s.functions_created)
                   0 stats);
            ])
          results));
  let ts, ti =
    let s, _, ws, _, _, _ = find "scratch" 5 in
    let i, _, wi, _, _, _ = find "incremental" 5 in
    ignore s;
    ignore i;
    (ws, wi)
  in
  let speedup = ts /. ti in
  Printf.printf "identical outputs: %b   r5 speedup: %.2fx\n" identical speedup;
  (* Hand-rolled JSON: no JSON library in the build environment. *)
  let json_config (ename, rounds, wall, p, stats, prof) =
    Printf.sprintf
      "    {\"engine\":\"%s\",\"rounds\":%d,\"wall_s\":%.6f,\"code_size\":%d,\
       \"binary_size\":%d,\"functions_created\":%d,\"rounds_profile\":%s}"
      ename rounds wall
      (Machine.Program.code_size_bytes p)
      (Linker.binary_size (Linker.link p))
      (List.fold_left
         (fun a (s : Outcore.Outliner.round_stats) -> a + s.functions_created)
         0 stats)
      (Outcore.Profile.to_json prof)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"app\": \"uber_rider\",\n\
      \  \"default_rounds\": 5,\n\
      \  \"configs\": [\n\
       %s\n\
      \  ],\n\
      \  \"speedup_r5\": %.3f,\n\
      \  \"identical\": %b\n\
       }\n"
      (String.concat ",\n" (List.map json_config results))
      speedup identical
  in
  let oc = open_out "BENCH_outline.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_outline.json\n";
  if not identical then
    failwith "outline_bench: incremental and scratch outputs diverge"

(* ------------------------------------------------------- thin-WPO bench *)

(* Thin-WPO worker sweep on a scaled appgen app, against the full
   whole-program build: byte-identity across worker counts, image within
   1% of full WPO, and the parallel speedup.  CI containers are often
   single-core, so the headline speedup is Amdahl-modeled from the
   workers=1 run's measured per-shard timings — the engine's serial part
   is the global decision rounds, the parallel part the per-shard
   discovery and rewrite, and T(w) = serial + parallel/w — while measured
   wall-clock for every sweep point is recorded alongside (it only means
   anything on a >= 4-core host; the JSON records the core count).
   Emits BENCH_thinwpo.json. *)
let thinwpo_impl ~profile ~mult ~workers_list ~min_speedup () =
  let prof = Workload.Appgen.scaled ~mult profile in
  title
    (Printf.sprintf "Thin-WPO worker sweep: %s (%d modules)"
       prof.Workload.Appgen.app_name prof.Workload.Appgen.n_modules);
  let mods = ok_exn (Workload.Appgen.generate_modules prof) in
  let timed_build config =
    let t0 = Unix.gettimeofday () in
    let r = build ~config mods in
    (Unix.gettimeofday () -. t0, r)
  in
  let full_wall, full = timed_build Pipeline.default_config in
  let runs =
    List.map
      (fun w ->
        let wall, r =
          timed_build
            { Pipeline.default_config with mode = Pipeline.Thin_wpo { workers = w } }
        in
        (w, wall, r))
      workers_list
  in
  let src (r : Pipeline.result) = Machine.Asm_printer.to_source r.program in
  let identical =
    match runs with
    | [] -> true
    | (_, _, first) :: rest ->
      List.for_all (fun (_, _, r) -> src r = src first) rest
  in
  (* Amdahl split from the workers=1 timing tree (every tree is identical
     in shape; workers=1 keeps the shard timings uninflated by contention):
     the global-decision leaves are serial, the shard leaves parallel. *)
  let _, _, thin1 =
    List.find (fun (w, _, _) -> w = List.hd workers_list) runs
  in
  let rec nodes (t : Passman.timing) = t :: List.concat_map nodes t.t_children in
  let thin_nodes = List.concat_map nodes thin1.Pipeline.timing_tree in
  let sum_where p =
    List.fold_left
      (fun a (t : Passman.timing) -> if p t.t_name then a +. t.t_seconds else a)
      0. thin_nodes
  in
  let serial_s = sum_where (String.equal "global-decision") in
  let parallel_s = sum_where (String.starts_with ~prefix:"shard ") in
  let rec json_of_timing (t : Passman.timing) =
    Printf.sprintf
      "{\"name\":\"%s\",\"seconds\":%.6f,\"note\":\"%s\",\"children\":[%s]}"
      t.t_name t.t_seconds t.t_note
      (String.concat "," (List.map json_of_timing t.t_children))
  in
  let thin_rounds =
    match
      List.find_opt
        (fun (t : Passman.timing) -> t.t_name = "thin-outline")
        thin_nodes
    with
    | Some t -> t.t_children
    | None -> []
  in
  let modeled w = (serial_s +. parallel_s) /. (serial_s +. (parallel_s /. float_of_int w)) in
  let thin_size = (fun (_, _, r) -> r.Pipeline.binary_size) (List.hd runs) in
  print_string
    (table
       ~header:[ "build"; "wall s"; "binary B"; "modeled speedup" ]
       (( [ "full wp"; Printf.sprintf "%.2f" full_wall;
            string_of_int full.Pipeline.binary_size; "-" ] )
       :: List.map
            (fun (w, wall, r) ->
              [
                Printf.sprintf "thin w=%d" w;
                Printf.sprintf "%.2f" wall;
                string_of_int r.Pipeline.binary_size;
                Printf.sprintf "%.2fx" (modeled w);
              ])
            runs));
  Printf.printf
    "identical across workers: %b   engine serial %.3fs / parallel %.3fs   \
     size vs full: %+.2f%%   (host cores: %d)\n"
    identical serial_s parallel_s
    (-.pct full.Pipeline.binary_size thin_size)
    (Domain.recommended_domain_count ());
  let json =
    Printf.sprintf
      "{\n\
      \  \"app\": \"%s\",\n\
      \  \"modules\": %d,\n\
      \  \"rounds\": %d,\n\
      \  \"host_cores\": %d,\n\
      \  \"full_wpo\": {\"wall_s\":%.6f,\"binary_size\":%d},\n\
      \  \"sweep\": [\n\
       %s\n\
      \  ],\n\
      \  \"modeled\": {\"serial_s\":%.6f,\"parallel_s\":%.6f,\
       \"speedup_at_4\":%.3f},\n\
      \  \"identical\": %b,\n\
      \  \"thin_rounds_profile\": %s\n\
       }\n"
      prof.Workload.Appgen.app_name prof.Workload.Appgen.n_modules
      Pipeline.default_config.outline_rounds
      (Domain.recommended_domain_count ())
      full_wall full.Pipeline.binary_size
      (String.concat ",\n"
         (List.map
            (fun (w, wall, r) ->
              Printf.sprintf
                "    {\"workers\":%d,\"wall_s\":%.6f,\"binary_size\":%d,\
                 \"modeled_speedup\":%.3f}"
                w wall r.Pipeline.binary_size (modeled w))
            runs))
      serial_s parallel_s (modeled 4) identical
      ("[" ^ String.concat "," (List.map json_of_timing thin_rounds) ^ "]")
  in
  let oc = open_out "BENCH_thinwpo.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_thinwpo.json\n";
  if not identical then
    failwith "thinwpo: output depends on the worker count";
  if thin_size * 100 > full.Pipeline.binary_size * 101 then
    failwith
      (Printf.sprintf "thinwpo: thin image %d B is over 1%% past full WPO %d B"
         thin_size full.Pipeline.binary_size);
  match min_speedup with
  | Some bar ->
    if modeled 4 < bar then
      failwith
        (Printf.sprintf
           "thinwpo: modeled speedup at 4 workers %.2fx is below the %.1fx bar"
           (modeled 4) bar)
    else
      Printf.printf "modeled speedup at 4 workers %.2fx clears the %.1fx bar\n"
        (modeled 4) bar
  | None -> ()

let thinwpo () =
  thinwpo_impl ~profile:Workload.Appgen.small ~mult:10
    ~workers_list:[ 1; 2; 4; 8 ] ~min_speedup:(Some 2.5) ()

(* CI smoke: a 2x app and a two-point sweep, identity and size assertions
   only — small enough for every push. *)
let thinwpo_smoke () =
  thinwpo_impl ~profile:Workload.Appgen.small ~mult:2 ~workers_list:[ 1; 2 ]
    ~min_speedup:None ()

(* -------------------------------------------------------- serve bench *)

(* [bench serve]: replay a seeded multi-week Workload.Commits stream twice
   — cold (a fresh from-scratch Pipeline.build_sources per commit) and
   warm (one persistent Serve.Server keeping the outliner's arena pool,
   front-end caches and result cache across requests) — and report
   builds/sec and p50/p99 latency for both.  Two hard gates: every served
   image must be byte-identical to the scratch build of the same commit,
   and warm replay must be strictly faster than cold.  Emits
   BENCH_serve.json. *)
let serve_impl ~mult ~weeks ~commits_per_week () =
  let profile = Workload.Appgen.small in
  let prof =
    if mult > 1 then Workload.Appgen.scaled ~mult profile else profile
  in
  title
    (Printf.sprintf "Serve replay: %s, %d weeks x %d commits"
       prof.Workload.Appgen.app_name weeks commits_per_week);
  let commits =
    Workload.Commits.stream ~profile:prof ~weeks ~commits_per_week ()
  in
  let spec = "dce,outline(rounds=3)" in
  let cfg = cfg_of_passes spec in
  let cold =
    List.map
      (fun (c : Workload.Commits.commit) ->
        let t0 = Unix.gettimeofday () in
        let r = ok_exn (Pipeline.build_sources ~config:cfg c.c_sources) in
        let img = Machine.Asm_printer.to_source r.Pipeline.program in
        let dt = Unix.gettimeofday () -. t0 in
        (dt, img))
      commits
  in
  let server = Serve.Server.create () in
  let warm =
    List.map
      (fun (c : Workload.Commits.commit) ->
        let req =
          Serve.Protocol.print_request
            (Serve.Protocol.Build
               {
                 br_id = Printf.sprintf "c%d" c.Workload.Commits.c_index;
                 br_app = prof.Workload.Appgen.app_name;
                 br_mode = "wp";
                 br_workers = 0;
                 br_passes = Some spec;
                 br_want_image = true;
                 br_source = Serve.Protocol.Inline c.Workload.Commits.c_sources;
               })
        in
        let t0 = Unix.gettimeofday () in
        let payload, _ = Serve.Server.handle server req in
        let dt = Unix.gettimeofday () -. t0 in
        match Serve.Protocol.parse_response payload with
        | Ok (Serve.Protocol.Built b) -> (dt, b)
        | Ok (Serve.Protocol.Error_reply { e_message; _ }) ->
          failwith ("serve: " ^ e_message)
        | _ -> failwith "serve: unexpected response")
      commits
  in
  let rows = List.combine commits (List.combine cold warm) in
  let mismatches =
    List.filter
      (fun (_, ((_, cold_img), (_, b))) ->
        b.Serve.Protocol.b_image <> Some cold_img)
      rows
  in
  print_string
    (table
       ~header:[ "commit"; "week"; "dirty"; "cold s"; "warm s"; "cache" ]
       (List.map
          (fun ((c : Workload.Commits.commit), ((cdt, _), (wdt, b))) ->
            [
              string_of_int c.c_index;
              string_of_int c.c_week;
              (match c.c_dirty with
              | [] -> "(retry)"
              | ms -> String.concat " " ms);
              Printf.sprintf "%.3f" cdt;
              Printf.sprintf "%.3f" wdt;
              (if b.Serve.Protocol.b_cache_hit then "hit" else "miss");
            ])
          rows));
  let cold_lat = List.map fst cold and warm_lat = List.map fst warm in
  let total = List.fold_left ( +. ) 0. in
  let cold_total = total cold_lat and warm_total = total warm_lat in
  let n = List.length commits in
  let bps t = float_of_int n /. t in
  let pct p l = Repro_stats.Percentile.percentile p l in
  let hits =
    List.length (List.filter (fun (_, b) -> b.Serve.Protocol.b_cache_hit) warm)
  in
  Printf.printf
    "cold: %.2f builds/s (p50 %.3fs, p99 %.3fs)   warm: %.2f builds/s (p50 \
     %.3fs, p99 %.3fs)   speedup %.2fx   cache hits %d/%d   identical \
     images: %b\n"
    (bps cold_total) (pct 50. cold_lat) (pct 99. cold_lat) (bps warm_total)
    (pct 50. warm_lat) (pct 99. warm_lat) (cold_total /. warm_total) hits n
    (mismatches = []);
  let json =
    Printf.sprintf
      "{\n\
      \  \"app\": \"%s\",\n\
      \  \"modules\": %d,\n\
      \  \"weeks\": %d,\n\
      \  \"commits\": %d,\n\
      \  \"spec\": \"%s\",\n\
      \  \"cold\": {\"total_s\":%.6f,\"builds_per_s\":%.3f,\"p50_s\":%.6f,\
       \"p99_s\":%.6f},\n\
      \  \"warm\": {\"total_s\":%.6f,\"builds_per_s\":%.3f,\"p50_s\":%.6f,\
       \"p99_s\":%.6f},\n\
      \  \"speedup\": %.3f,\n\
      \  \"cache_hits\": %d,\n\
      \  \"identical\": %b,\n\
      \  \"per_commit\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      prof.Workload.Appgen.app_name prof.Workload.Appgen.n_modules weeks n
      spec cold_total (bps cold_total) (pct 50. cold_lat) (pct 99. cold_lat)
      warm_total (bps warm_total) (pct 50. warm_lat) (pct 99. warm_lat)
      (cold_total /. warm_total) hits
      (mismatches = [])
      (String.concat ",\n"
         (List.map
            (fun ((c : Workload.Commits.commit), ((cdt, _), (wdt, b))) ->
              Printf.sprintf
                "    {\"commit\":%d,\"week\":%d,\"dirty\":%d,\
                 \"cold_s\":%.6f,\"warm_s\":%.6f,\"hit\":%b}"
                c.c_index c.c_week
                (List.length c.c_dirty)
                cdt wdt b.Serve.Protocol.b_cache_hit)
            rows))
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_serve.json\n";
  (match mismatches with
  | ((c : Workload.Commits.commit), _) :: _ ->
    failwith
      (Printf.sprintf
         "serve: image served for commit %d is not byte-identical to a \
          from-scratch build"
         c.c_index)
  | [] -> ());
  if warm_total >= cold_total then
    failwith
      (Printf.sprintf
         "serve: warm replay (%.2fs) is not strictly faster than cold \
          rebuilds (%.2fs)"
         warm_total cold_total)

let serve_bench () = serve_impl ~mult:3 ~weeks:4 ~commits_per_week:6 ()

(* CI smoke: same gates at reduced scale — small enough for every push. *)
let serve_smoke () = serve_impl ~mult:1 ~weeks:2 ~commits_per_week:4 ()

(* -------------------------------------------------------- layout bench *)

(* One definition of the layout measurement columns: display header, JSON
   key, and how one interp result contributes.  The per-device table, the
   totals table, and the JSON device rows all render from this list, so
   adding a column is one entry here rather than three format strings. *)
type layout_col = {
  lc_head : string;   (* table column header *)
  lc_key : string;    (* JSON field name *)
  lc_of_run : Perfsim.Interp.result -> int;
  lc_total : bool;    (* include in the cross-device totals table *)
}

let layout_cols =
  [
    { lc_head = "cycles"; lc_key = "cycles";
      lc_of_run = (fun r -> r.Perfsim.Interp.cycles); lc_total = true };
    { lc_head = "icache miss"; lc_key = "icache_misses";
      lc_of_run = (fun r -> r.Perfsim.Interp.icache_misses); lc_total = true };
    { lc_head = "itlb miss"; lc_key = "itlb_misses";
      lc_of_run = (fun r -> r.Perfsim.Interp.itlb_misses); lc_total = true };
    { lc_head = "data pages"; lc_key = "data_pages";
      lc_of_run = (fun r -> r.Perfsim.Interp.data_pages_touched);
      lc_total = false };
    { lc_head = "cold pages"; lc_key = "cold_start_pages";
      lc_of_run = (fun r -> r.Perfsim.Interp.cold_start_pages);
      lc_total = true };
    { lc_head = "cold cost"; lc_key = "cold_start_cost";
      lc_of_run = (fun r -> r.Perfsim.Interp.cold_start_cost);
      lc_total = false };
  ]

let layout_col_index key =
  let rec go i = function
    | [] -> invalid_arg ("layout_col_index: " ^ key)
    | c :: _ when c.lc_key = key -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 layout_cols

(* Profile-guided layout comparison: Append vs caller-affinity vs the
   lib/pgo strategies (order-file, C3, balanced partitioning, bp-compress)
   across the device matrix.  Every strategy is pure reordering, so the
   interp differential (exit value + printed output per entry) is a hard
   assertion; on uber_rider so is the acceptance bar — some profile-guided
   strategy must beat caller-affinity on iTLB misses while staying no
   worse than Append on icache misses, bp-compress must strictly beat
   Append on estimated compressed size while staying within 5% of
   balanced on icache misses, and no startup-ordered strategy may fault
   more cold-start pages than Append.  A w-sweep shows the
   locality/compression trade-off curve.  Emits BENCH_layout.json. *)
let layout_bench_impl ~assert_wins app =
  let app_name = app.Workload.Appgen.app_name in
  title (Printf.sprintf "Layout: function-placement strategies (%s)" app_name);
  let mods = ok_exn (Workload.Appgen.generate_modules app) in
  let r = build mods in
  let program = r.Pipeline.program in
  let entries = "main" :: Workload.Appgen.span_entries in
  let args_for e = if e = "main" then [] else [ 1 ] in
  let profile = Pgo.Collect.collect ~args_for ~workload:app_name ~entries program in
  let caller_affinity_order =
    List.map
      (fun (f : Machine.Mfunc.t) -> f.Machine.Mfunc.name)
      (Outcore.Layout.optimize program).Machine.Program.funcs
  in
  (* Stitch is the one strategy that rewrites the program (cold blocks
     split to __text_cold, branches elided/materialized), so it carries
     its own program alongside its chain order. *)
  let stitch_program = Blocklayout.split_program ~profile program in
  (match Machine.Program.validate stitch_program with
  | Ok () -> ()
  | Error e -> failwith ("layout_bench: stitch split invalid: " ^ e));
  let strategies =
    [
      ("append", program, None);
      ("caller-affinity", program, Some caller_affinity_order);
      ("order-file", program, Some (Pgo.Order.compute `Order_file profile program));
      ("c3", program, Some (Pgo.Order.compute `C3 profile program));
      ("balanced", program, Some (Pgo.Order.compute `Balanced profile program));
      ( "bp-compress",
        program,
        Some
          (Pgo.Order.compute (`Bp_compress Pgo.Order.default_w) profile
             program) );
      ( "stitch",
        stitch_program,
        Some (Blocklayout.stitch_order ~profile stitch_program) );
    ]
  in
  (* The differential oracle: every strategy must reproduce the Append
     run's exit value and output on every entry. *)
  let run ?config ?order prog entry =
    match Perfsim.Interp.run ?config ?order ~args:(args_for entry) ~entry prog with
    | Ok res -> res
    | Error e ->
      failwith
        (Printf.sprintf "layout_bench: %s: %s" entry
           (Perfsim.Interp.error_to_string e))
  in
  let reference =
    List.map
      (fun entry ->
        let res = run program entry in
        (entry, (res.Perfsim.Interp.exit_value, res.output)))
      entries
  in
  let measure (sname, prog, order) =
    List.iter
      (fun entry ->
        let res = run ?order prog entry in
        let ev, out = List.assoc entry reference in
        if res.Perfsim.Interp.exit_value <> ev || res.output <> out then
          failwith
            (Printf.sprintf
               "layout_bench: %s diverges from append on %s (exit %d vs %d)"
               sname entry res.Perfsim.Interp.exit_value ev))
      entries;
    let per_device =
      List.map
        (fun (device : Perfsim.Device.t) ->
          let config = { Perfsim.Interp.default_config with device } in
          let acc = Array.make (List.length layout_cols) 0 in
          List.iter
            (fun entry ->
              let res = run ~config ?order prog entry in
              List.iteri (fun i c -> acc.(i) <- acc.(i) + c.lc_of_run res)
                layout_cols)
            entries;
          (device.Perfsim.Device.name, acc))
        Perfsim.Device.devices
    in
    (* One link per strategy: the placement-faithful compressed stream
       (hot chains in placement order, then the cold region) plus the
       hot-text/total-text split. *)
    let layout = Linker.link ?order prog in
    let compressed =
      (Lazy.force layout.Linker.compressed).Linker.Compress.compressed_bytes
    in
    ( sname,
      compressed,
      layout.Linker.hot_text_size,
      layout.Linker.text_size,
      per_device )
  in
  let results = List.map measure strategies in
  print_string
    (table
       ~header:("strategy" :: "device" :: List.map (fun c -> c.lc_head) layout_cols)
       (List.concat_map
          (fun (sname, _, _, _, per_device) ->
            List.map
              (fun (d, acc) ->
                sname :: d
                :: List.map string_of_int (Array.to_list acc))
              per_device)
          results));
  let find_result sname = List.find (fun (s, _, _, _, _) -> s = sname) results in
  let total key sname =
    let i = layout_col_index key in
    let _, _, _, _, per_device = find_result sname in
    List.fold_left (fun a (_, acc) -> a + acc.(i)) 0 per_device
  in
  let compressed_of sname =
    let _, c, _, _, _ = find_result sname in
    c
  in
  let hot_text_of sname =
    let _, _, h, _, _ = find_result sname in
    h
  in
  let text_of sname =
    let _, _, _, t, _ = find_result sname in
    t
  in
  title "Totals across the device matrix";
  let total_cols = List.filter (fun c -> c.lc_total) layout_cols in
  print_string
    (table
       ~header:
         ("strategy"
         :: List.map (fun c -> c.lc_head) total_cols
         @ [ "compressed B"; "hot text B"; "text B" ])
       (List.map
          (fun (sname, compressed, hot_text, text, _) ->
            (sname
            :: List.map
                 (fun c -> string_of_int (total c.lc_key sname))
                 total_cols)
            @ [ string_of_int compressed; string_of_int hot_text;
                string_of_int text ])
          results));
  let icache_of = total "icache_misses" in
  let itlb_of = total "itlb_misses" in
  let cold_of = total "cold_start_pages" in
  let append_ic = icache_of "append" in
  let ca_itlb = itlb_of "caller-affinity" in
  let accepted =
    List.filter
      (fun s -> itlb_of s < ca_itlb && icache_of s <= append_ic)
      [ "c3"; "balanced" ]
  in
  Printf.printf
    "strategies beating caller-affinity on iTLB and matching append on icache: %s\n"
    (if accepted = [] then "(none)" else String.concat ", " accepted);
  (* The trade-off curve: sweep bp-compress's weight from pure locality
     (w=0, the balanced order itself) to pure compression (w=1), measured
     on the default device. *)
  let sweep_ws = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let sweep =
    List.map
      (fun w ->
        let order = Pgo.Order.bp_compress ~w profile program in
        let compressed =
          (Linker.compress_estimate ~order program)
            .Linker.Compress.compressed_bytes
        in
        let ic = ref 0 and cold = ref 0 in
        List.iter
          (fun entry ->
            let res = run ~order program entry in
            ic := !ic + res.Perfsim.Interp.icache_misses;
            cold := !cold + res.Perfsim.Interp.cold_start_pages)
          entries;
        (w, compressed, !ic, !cold))
      sweep_ws
  in
  title "bp-compress w-sweep (default device): locality vs compressed size";
  print_string
    (table
       ~header:[ "w"; "compressed B"; "icache miss"; "cold pages" ]
       (List.map
          (fun (w, compressed, ic, cold) ->
            [ Printf.sprintf "%g" w; string_of_int compressed;
              string_of_int ic; string_of_int cold ])
          sweep));
  let json_strategy (sname, compressed, hot_text, text, per_device) =
    Printf.sprintf
      "    {\"strategy\":\"%s\",\"compressed_size\":%d,\"hot_text_bytes\":%d,\
       \"text_size\":%d,\"devices\":[\n\
       %s\n\
      \    ]}"
      sname compressed hot_text text
      (String.concat ",\n"
         (List.map
            (fun (d, acc) ->
              Printf.sprintf "      {\"device\":\"%s\",%s}" d
                (String.concat ","
                   (List.mapi
                      (fun i c ->
                        Printf.sprintf "\"%s\":%d" c.lc_key acc.(i))
                      layout_cols)))
            per_device))
  in
  let json_sweep =
    String.concat ",\n"
      (List.map
         (fun (w, compressed, ic, cold) ->
           Printf.sprintf
             "    {\"w\":%g,\"compressed_size\":%d,\"icache_misses\":%d,\
              \"cold_start_pages\":%d}"
             w compressed ic cold)
         sweep)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"app\": \"%s\",\n\
      \  \"entries\": %d,\n\
      \  \"strategies\": [\n\
       %s\n\
      \  ],\n\
      \  \"w_sweep\": [\n\
       %s\n\
      \  ],\n\
      \  \"identical\": true,\n\
      \  \"accepted\": [%s]\n\
       }\n"
      app_name (List.length entries)
      (String.concat ",\n" (List.map json_strategy results))
      json_sweep
      (String.concat ", " (List.map (Printf.sprintf "\"%s\"") accepted))
  in
  let oc = open_out "BENCH_layout.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_layout.json\n";
  if assert_wins then begin
    if accepted = [] then
      failwith
        "layout_bench: no profile-guided strategy beats caller-affinity on \
         iTLB while matching append on icache";
    let bpc = compressed_of "bp-compress" and apc = compressed_of "append" in
    if bpc >= apc then
      failwith
        (Printf.sprintf
           "layout_bench: bp-compress does not beat append on estimated \
            compressed size (%d vs %d bytes)"
           bpc apc);
    let bp_ic = icache_of "bp-compress" and bal_ic = icache_of "balanced" in
    if bp_ic * 100 > bal_ic * 105 then
      failwith
        (Printf.sprintf
           "layout_bench: bp-compress icache misses (%d) are more than 5%% \
            past balanced (%d)"
           bp_ic bal_ic);
    let append_cold = cold_of "append" in
    List.iter
      (fun s ->
        if cold_of s > append_cold then
          failwith
            (Printf.sprintf
               "layout_bench: %s faults more cold-start pages than append \
                (%d vs %d)"
               s (cold_of s) append_cold))
      [ "order-file"; "c3"; "balanced"; "bp-compress"; "stitch" ];
    (* Block-granularity gates: splitting must actually move bytes out of
       hot text, and the stitched placement must beat append on both
       startup metrics and stay at least as good as bp-compress on
       cold-start pages (the block-level win function ordering cannot
       reach). *)
    if hot_text_of "stitch" >= text_of "stitch" then
      failwith
        (Printf.sprintf
           "layout_bench: stitch hot text (%d) is not strictly smaller than \
            total text (%d) — no blocks were split"
           (hot_text_of "stitch") (text_of "stitch"));
    if cold_of "stitch" >= append_cold then
      failwith
        (Printf.sprintf
           "layout_bench: stitch does not reduce cold-start pages vs append \
            (%d vs %d)"
           (cold_of "stitch") append_cold);
    if itlb_of "stitch" >= itlb_of "append" then
      failwith
        (Printf.sprintf
           "layout_bench: stitch does not reduce iTLB misses vs append \
            (%d vs %d)"
           (itlb_of "stitch") (itlb_of "append"));
    if cold_of "stitch" > cold_of "bp-compress" then
      failwith
        (Printf.sprintf
           "layout_bench: stitch faults more cold-start pages than \
            bp-compress (%d vs %d)"
           (cold_of "stitch") (cold_of "bp-compress"))
  end

let layout_bench () = layout_bench_impl ~assert_wins:true Workload.Appgen.uber_rider
let layout_bench_small () = layout_bench_impl ~assert_wins:false Workload.Appgen.small

(* ----------------------------------------------------------------- E12 *)

let apps () =
  title "SVII-E1: generality across apps (5 rounds, whole-program vs per-module)";
  let rows =
    List.map
      (fun (profile, paper) ->
        let mods = ok_exn (Workload.Appgen.generate_modules profile) in
        let pm = build ~config:per_module_cfg mods in
        let wp = build mods in
        [
          profile.Workload.Appgen.app_name;
          string_of_int pm.Pipeline.code_size;
          string_of_int wp.Pipeline.code_size;
          Printf.sprintf "%.1f%%" (pct pm.Pipeline.code_size wp.Pipeline.code_size);
          paper;
        ])
      [
        (Workload.Appgen.uber_rider, "23%");
        (Workload.Appgen.uber_driver, "17%");
        (Workload.Appgen.uber_eats, "19%");
      ]
  in
  print_string
    (table ~header:[ "app"; "baseline code B"; "optimized code B"; "saving"; "paper" ] rows)

(* ----------------------------------------------------------------- E13 *)

let foreign () =
  title "SVII-E2: non-iOS programs - clang-like and kernel-like shapes";
  List.iter
    (fun (name, prog, paper) ->
      let base = Machine.Program.code_size_bytes prog in
      Printf.printf "\n%s: %d functions, %d insns, %d code bytes (paper saving: %s)\n"
        name
        (List.length prog.Machine.Program.funcs)
        (Machine.Program.insn_count prog) base paper;
      let rows = ref [] in
      List.iter
        (fun rounds ->
          let p, stats = Outcore.Repeat.run ~rounds prog in
          let cum = Outcore.Repeat.cumulative stats in
          let last =
            match List.rev cum with
            | s :: _ -> s
            | [] -> Outcore.Outliner.no_stats
          in
          rows :=
            [
              string_of_int rounds;
              string_of_int last.Outcore.Outliner.sequences_outlined;
              string_of_int last.Outcore.Outliner.functions_created;
              string_of_int (Machine.Program.code_size_bytes p);
              Printf.sprintf "%.1f%%" (pct base (Machine.Program.code_size_bytes p));
            ]
            :: !rows)
        [ 1; 2; 3; 4; 5 ];
      print_string
        (table
           ~header:[ "rounds"; "#seq outlined"; "#funcs created"; "code B"; "saving" ]
           (List.rev !rows)))
    [
      ("clang-like", Workload.Foreign.clang_like (), "25%");
      ("kernel-like", Workload.Foreign.kernel_like (), "14%");
    ]

(* ----------------------------------------------------------------- E16 *)

let datalayout () =
  title "SVI-3: llvm-link data ordering - the production regression and its fix";
  let mods = Lazy.force rider_modules in
  let variants =
    [
      ("no outlining, module-preserving",
       { Pipeline.default_config with outline_rounds = 0 });
      ("no outlining, interleaved",
       { Pipeline.default_config with outline_rounds = 0; data_order = Link.Interleaved });
      ("5 rounds, module-preserving", Pipeline.default_config);
      ("5 rounds, interleaved",
       { Pipeline.default_config with data_order = Link.Interleaved });
    ]
  in
  let spans = [ "span2"; "span5"; "span9" ] in
  let rows =
    List.map
      (fun (name, config) ->
        let r = build ~config mods in
        let cycles = ref 0 and faults = ref 0 and pages = ref 0 in
        List.iter
          (fun span ->
            match
              Perfsim.Interp.run ~config:Perfsim.Interp.default_config ~args:[ 1 ]
                ~entry:span r.Pipeline.program
            with
            | Ok res ->
              cycles := !cycles + res.cycles;
              faults := !faults + res.data_fault_cycles;
              pages := !pages + res.data_pages_touched
            | Error e -> failwith (Perfsim.Interp.error_to_string e))
          spans;
        [ name; string_of_int !pages; string_of_int !faults; string_of_int !cycles ])
      variants
  in
  print_string
    (table
       ~header:[ "configuration"; "data pages"; "fault cycles"; "total cycles" ]
       rows);
  print_endline
    "[paper: ~10% regression from interleaving, present with or without outlining;\n\
    \ fixed by preserving per-module data order in llvm-link]"

(* --------------------------------------------------------------- ablation *)

let ablate () =
  title "Ablation: outlining call strategies (whole program, 5 rounds)";
  let prog = (Lazy.force rider_unoutlined).Pipeline.program in
  let base = Machine.Program.code_size_bytes prog in
  let variant ?(pre = fun p -> p) name options =
    let p, _ = Outcore.Repeat.run ~options ~rounds:5 (pre prog) in
    [ name; string_of_int (Machine.Program.code_size_bytes p);
      Printf.sprintf "%.1f%%" (pct base (Machine.Program.code_size_bytes p)) ]
  in
  let d = Outcore.Outliner.default_options in
  let rows =
    [
      variant "all strategies" d;
      variant "no save-LR sites" { d with allow_save_lr = false };
      variant "no tail-call thunks" { d with allow_thunk = false };
      variant "no ret-ending patterns" { d with allow_ret = false };
      variant "min pattern length 3" { d with min_length = 3 };
      variant ~pre:(fun p -> fst (Outcore.Canonicalize.run p))
        "+ commutative canonicalization (future work 1)" d;
    ]
  in
  print_string (table ~header:[ "variant"; "code B"; "saving vs unoutlined" ] rows);
  (* Future work (2): deterministic vs randomized register assignment. *)
  title "Ablation: register assignment vs outlining (future work 2)";
  let mods = Lazy.force rider_modules in
  let merged =
    match Link.link ~flag_semantics:Link.Attributes ~name:"w" mods with
    | Ok m -> m
    | Error e -> failwith (Link.error_to_string e)
  in
  let rows =
    List.map
      (fun (name, seed) ->
        let prog =
          match seed with
          | None -> Codegen.compile_modul merged
          | Some s -> Codegen.compile_modul ~regalloc_seed:s merged
        in
        let b = Machine.Program.code_size_bytes prog in
        let p, _ = Outcore.Repeat.run ~rounds:5 prog in
        let a = Machine.Program.code_size_bytes p in
        [ name; string_of_int b; string_of_int a; Printf.sprintf "%.1f%%" (pct b a) ])
      [ ("deterministic allocation", None); ("randomized pools (seed 1)", Some 1);
        ("randomized pools (seed 2)", Some 2) ]
  in
  print_string
    (table ~header:[ "register assignment"; "code B"; "outlined B"; "saving" ] rows);
  print_endline
    "[randomized assignment destroys cross-function repetition: the outliner\n\
    \ recovers less — the interaction the paper's future work (2) points at]";
  (* Future work (3): outlined-code placement. *)
  title "Ablation: outlined-function placement (future work 3)";
  let span = "span8" in
  let base_prog = (Lazy.force rider_baseline).Pipeline.program in
  let rows =
    List.map
      (fun (name, layout) ->
        let r =
          build ~config:{ Pipeline.default_config with outlined_layout = layout }
            (Lazy.force rider_modules)
        in
        let cfg = Perfsim.Interp.default_config in
        match
          ( Perfsim.Interp.run ~config:cfg ~args:[ 1 ] ~entry:span base_prog,
            Perfsim.Interp.run ~config:cfg ~args:[ 1 ] ~entry:span r.Pipeline.program )
        with
        | Ok b, Ok o ->
          [ name;
            Printf.sprintf "%.3f" (float_of_int o.cycles /. float_of_int b.cycles);
            string_of_int o.icache_misses; string_of_int o.itlb_misses ]
        | Error e, _ | _, Error e -> failwith (Perfsim.Interp.error_to_string e))
      [ ("dense appended region (LLVM)", `Append);
        ("caller-affinity placement", `Caller_affinity) ]
  in
  print_string
    (table
       ~header:[ "placement"; span ^ " ratio vs baseline"; "icache misses"; "itlb misses" ]
       rows);
  print_endline
    "[negative result: shared outlined helpers want one dense hot region;\n\
    \ scattering them next to single callers inflates iTLB misses]"

(* ------------------------------------------------------------------ micro *)

let micro () =
  title "Micro-benchmarks (Bechamel): core data structures and passes";
  let prog = (Lazy.force rider_unoutlined).Pipeline.program in
  let seqs =
    let imap = ref 0 in
    let tbl = Hashtbl.create 1024 in
    List.filteri (fun i _ -> i < 400) prog.Machine.Program.funcs
    |> List.concat_map (fun (f : Machine.Mfunc.t) ->
           List.map
             (fun (b : Machine.Block.t) ->
               Array.map
                 (fun insn ->
                   match Hashtbl.find_opt tbl insn with
                   | Some id -> id
                   | None ->
                     incr imap;
                     Hashtbl.replace tbl insn !imap;
                     !imap)
                 b.body)
             f.blocks)
  in
  let small_seqs = List.filteri (fun i _ -> i < 60) seqs in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"suffix-tree build (app sample)" (Staged.stage (fun () ->
          ignore (Sufftree.Suffix_tree.build seqs)));
      Test.make ~name:"suffix-tree repeats (app sample)" (Staged.stage (fun () ->
          ignore (Sufftree.Suffix_tree.repeats (Sufftree.Suffix_tree.build seqs))));
      Test.make ~name:"naive repeats (small sample)" (Staged.stage (fun () ->
          ignore (Sufftree.Naive.all_repeated ~min_length:2 small_seqs)));
      Test.make ~name:"one outliner round (whole app)" (Staged.stage (fun () ->
          ignore (Outcore.Repeat.round ~engine:`Scratch () 1 prog)));
      Test.make ~name:"liveness (all functions)" (Staged.stage (fun () ->
          List.iter
            (fun f -> ignore (Machine.Liveness.compute f))
            prog.Machine.Program.funcs));
    ]
  in
  let rows = ref [] in
  List.iter
    (fun t ->
      let instances = [ Toolkit.Instance.monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
      let raw = Benchmark.all cfg instances t in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
          Toolkit.Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun name result ->
          let est =
            match Analyze.OLS.estimates result with
            | Some [ est ] -> Printf.sprintf "%.0f" est
            | Some _ | None -> "(no estimate)"
          in
          rows := [ name; est ] :: !rows)
        results)
    tests;
  print_string (table ~header:[ "benchmark"; "ns/run" ] (List.rev !rows))

(* ------------------------------------------------------------------ main *)

let experiments =
  [
    ("fig1", fig1);
    ("table1", table1);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig11", fig11);
    ("fig12", fig12);
    ("table2", table2);
    ("fig13", fig13);
    ("table3", table3);
    ("table4", table4);
    ("buildtime", buildtime);
    ("outline_bench", outline_bench);
    ("thinwpo", thinwpo);
    ("thinwpo_smoke", thinwpo_smoke);
    ("serve", serve_bench);
    ("serve_smoke", serve_smoke);
    ("layout_bench", layout_bench);
    ("layout_bench_small", layout_bench_small);
    ("apps", apps);
    ("foreign", foreign);
    ("datalayout", datalayout);
    ("ablate", ablate);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let chosen =
    match args with
    | [] -> List.map fst experiments
    | args -> args
  in
  (* Every name is checked before any experiment runs, so a misspelled one
     fails the invocation instead of being skipped. *)
  (match List.filter (fun n -> not (List.mem_assoc n experiments)) chosen with
  | [] -> ()
  | unknown ->
    List.iter (Printf.eprintf "unknown experiment %S\n") unknown;
    Printf.eprintf "available: %s\n"
      (String.concat " " (List.map fst experiments));
    exit 1);
  List.iter
    (fun name ->
      let t0 = Unix.gettimeofday () in
      (List.assoc name experiments) ();
      Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t0))
    chosen
