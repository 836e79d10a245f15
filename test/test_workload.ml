(* Tests for the workload generators, the pipelines, the statistics library
   and the printer round trip: the 26 benchmarks run to their expected
   values through every execution path; synthetic apps build and behave
   identically under all pipeline configurations. *)

let ok_exn = function
  | Ok x -> x
  | Error e -> Alcotest.fail e

let interp ?(outline = false) prog ~entry =
  let prog = if outline then fst (Outcore.Repeat.run ~rounds:5 prog) else prog in
  let config = { Perfsim.Interp.default_config with model_perf = false } in
  match Perfsim.Interp.run ~config ~entry prog with
  | Ok r -> r.Perfsim.Interp.exit_value
  | Error e -> Alcotest.fail (Perfsim.Interp.error_to_string e)

(* --- the 26 benchmarks + pathological ------------------------------------ *)

let benchmark_case (b : Workload.Benchmarks.t) =
  Alcotest.test_case b.bench_name `Quick (fun () ->
      let m = ok_exn (Swiftlet.Compile.compile_module ~name:"bench" b.source) in
      (match Eval.run ~entry:"main" m with
      | Ok r -> Alcotest.(check int) "eval" b.expected_exit r.exit_value
      | Error e -> Alcotest.fail (Eval.error_to_string e));
      let prog = Codegen.compile_modul m in
      Alcotest.(check int) "machine" b.expected_exit (interp prog ~entry:"main");
      Alcotest.(check int) "outlined" b.expected_exit
        (interp ~outline:true prog ~entry:"main"))

(* --- the app generator ---------------------------------------------------- *)

let small_modules = lazy (ok_exn (Workload.Appgen.generate_modules Workload.Appgen.small))

let test_app_generates () =
  let mods = Lazy.force small_modules in
  Alcotest.(check bool) "several modules" true (List.length mods >= 6);
  List.iter
    (fun (m : Ir.modul) ->
      match Ir.validate m with
      | Ok () -> ()
      | Error e -> Alcotest.fail (m.Ir.m_name ^ ": " ^ e))
    mods

let test_app_legacy_conflict () =
  let mods = Lazy.force small_modules in
  (* The Swift/ObjC mix must fail to link under legacy flag semantics. *)
  match Link.link ~flag_semantics:Link.Legacy ~name:"app" mods with
  | Error (Link.Flag_conflict _) -> ()
  | Ok _ -> Alcotest.fail "legacy link should conflict"
  | Error e -> Alcotest.fail (Link.error_to_string e)

let test_app_pipelines_agree () =
  let mods = Lazy.force small_modules in
  let configs =
    [
      ("per-module 0r",
       Pipeline.config_of_flags ~rounds:0
         ~base:{ Pipeline.default_config with flag_semantics = Link.Attributes }
         Pipeline.Per_module);
      ("per-module 5r", { Pipeline.default_ios_config with flag_semantics = Link.Attributes });
      ("wpo 0r", Pipeline.config_of_flags ~rounds:0 Pipeline.Whole_program);
      ("wpo 5r", Pipeline.default_config);
      ("wpo 5r interleaved", { Pipeline.default_config with data_order = Link.Interleaved });
    ]
  in
  let results =
    List.map
      (fun (name, config) ->
        let r = ok_exn (Pipeline.build ~config mods) in
        (match Machine.Program.validate r.Pipeline.program with
        | Ok () -> ()
        | Error e -> Alcotest.fail (name ^ ": invalid program: " ^ e));
        (name, interp r.Pipeline.program ~entry:"main"))
      configs
  in
  match results with
  | (_, expected) :: rest ->
    List.iter
      (fun (name, v) -> Alcotest.(check int) (name ^ " agrees") expected v)
      rest
  | [] -> Alcotest.fail "no results"

let test_app_wpo_beats_per_module () =
  let mods = Lazy.force small_modules in
  let pm =
    ok_exn (Pipeline.build ~config:{ Pipeline.default_ios_config with flag_semantics = Link.Attributes } mods)
  in
  let wp = ok_exn (Pipeline.build mods) in
  Alcotest.(check bool) "whole-program is smaller" true
    (wp.Pipeline.code_size < pm.Pipeline.code_size)

let test_app_spans_run () =
  let mods = Lazy.force small_modules in
  let r = ok_exn (Pipeline.build mods) in
  List.iter
    (fun span -> ignore (interp r.Pipeline.program ~entry:span))
    Workload.Appgen.span_entries

let test_growth_monotone () =
  (* More weeks, more code. *)
  let size_at w =
    let profile = Workload.Appgen.at_week Workload.Appgen.small w in
    let mods = ok_exn (Workload.Appgen.generate_modules profile) in
    let config = Pipeline.config_of_flags ~rounds:0 Pipeline.Whole_program in
    let r = ok_exn (Pipeline.build ~config mods) in
    r.Pipeline.code_size
  in
  let s0 = size_at 0 and s8 = size_at 8 in
  Alcotest.(check bool) "app grows" true (s8 > s0)

let test_system_module_untouched () =
  let mods = Lazy.force small_modules in
  let r = ok_exn (Pipeline.build mods) in
  List.iter
    (fun (f : Machine.Mfunc.t) ->
      if f.Machine.Mfunc.from_module = "system" then begin
        Alcotest.(check bool) (f.name ^ " marked") true f.Machine.Mfunc.no_outline;
        List.iter
          (fun (b : Machine.Block.t) ->
            Array.iter
              (fun i ->
                match i with
                | Machine.Insn.Bl t when String.length t >= 8 && String.sub t 0 8 = "OUTLINED" ->
                  Alcotest.fail "system code was rewritten by the outliner"
                | _ -> ())
              b.Machine.Block.body)
          f.Machine.Mfunc.blocks
      end)
    r.Pipeline.program.Machine.Program.funcs

(* --- foreign shapes -------------------------------------------------------- *)

let test_foreign_shapes () =
  List.iter
    (fun (name, prog) ->
      (match Machine.Program.validate prog with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e));
      let before = Machine.Program.code_size_bytes prog in
      let outlined, _ = Outcore.Repeat.run ~rounds:5 prog in
      (match Machine.Program.validate outlined with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ " outlined: " ^ e));
      let after = Machine.Program.code_size_bytes outlined in
      Alcotest.(check bool) (name ^ " shrinks >= 10%") true
        (float_of_int after < 0.9 *. float_of_int before))
    [
      ("clang-like", Workload.Foreign.clang_like ~functions:300 ());
      ("kernel-like", Workload.Foreign.kernel_like ~functions:300 ());
    ]

(* --- core spans ------------------------------------------------------------ *)

let test_corespan_runner () =
  let mods = Lazy.force small_modules in
  let base =
    (ok_exn (Pipeline.build ~config:{ Pipeline.default_ios_config with flag_semantics = Link.Attributes } mods)).Pipeline.program
  in
  let opt = (ok_exn (Pipeline.build mods)).Pipeline.program in
  match
    Workload.Corespans.run_span ~samples:2 ~base ~opt
      ~device:Perfsim.Device.default ~os:Perfsim.Device.default_os "span1"
  with
  | Error e -> Alcotest.fail e
  | Ok (b, o) ->
    Alcotest.(check bool) "positive cycles" true (b > 0. && o > 0.)

(* --- statistics ------------------------------------------------------------ *)

let test_regression () =
  (* y = 3x + 1, exactly. *)
  let pts = List.map (fun x -> (float_of_int x, (3. *. float_of_int x) +. 1.)) [ 0; 1; 2; 5; 9 ] in
  let f = Repro_stats.Regression.linear pts in
  Alcotest.(check (float 1e-9)) "slope" 3. f.Repro_stats.Regression.slope;
  Alcotest.(check (float 1e-9)) "intercept" 1. f.Repro_stats.Regression.intercept;
  Alcotest.(check (float 1e-9)) "r2" 1. f.Repro_stats.Regression.r2;
  Alcotest.(check (float 1e-9)) "predict" 31. (Repro_stats.Regression.predict f 10.)

let test_powerlaw () =
  (* y = 5 x^-2, exactly. *)
  let pts = List.map (fun x -> (float_of_int x, 5. /. float_of_int (x * x))) [ 1; 2; 3; 4; 8; 16 ] in
  let f = Repro_stats.Powerlaw.fit pts in
  Alcotest.(check (float 1e-6)) "a" 5. f.Repro_stats.Powerlaw.a;
  Alcotest.(check (float 1e-6)) "b" (-2.) f.Repro_stats.Powerlaw.b;
  Alcotest.(check (float 1e-6)) "r2" 1. f.Repro_stats.Powerlaw.r2

let test_percentile () =
  Alcotest.(check (float 1e-9)) "p50 odd" 3. (Repro_stats.Percentile.p50 [ 1.; 3.; 5. ]);
  Alcotest.(check (float 1e-9)) "p50 even" 2.5 (Repro_stats.Percentile.p50 [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 1e-9)) "p0" 1. (Repro_stats.Percentile.percentile 0. [ 4.; 1.; 3. ]);
  Alcotest.(check (float 1e-9)) "p100" 4. (Repro_stats.Percentile.percentile 100. [ 4.; 1.; 3. ]);
  Alcotest.(check (float 1e-9)) "geomean" 2. (Repro_stats.Percentile.geomean [ 1.; 2.; 4. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Percentile.percentile: empty sample list")
    (fun () -> ignore (Repro_stats.Percentile.p50 []))

let test_texttable () =
  let t = Repro_stats.Texttable.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "33"; "4" ] ] in
  List.iter
    (fun cell ->
      let rec contains i =
        i + String.length cell <= String.length t
        && (String.sub t i (String.length cell) = cell || contains (i + 1))
      in
      Alcotest.(check bool) ("mentions " ^ cell) true (contains 0))
    [ "a"; "bb"; "1"; "33" ]

(* --- printer round trip ----------------------------------------------------- *)

let test_asm_roundtrip () =
  let mods = Lazy.force small_modules in
  let r = ok_exn (Pipeline.build mods) in
  let prog = r.Pipeline.program in
  let src = Machine.Asm_printer.to_source prog in
  let reparsed = ok_exn (Machine.Asm_parser.parse_program src) in
  Alcotest.(check int) "code size preserved"
    (Machine.Program.code_size_bytes prog)
    (Machine.Program.code_size_bytes reparsed);
  (match Machine.Program.validate reparsed with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("reparsed invalid: " ^ e));
  (* Printing is a fixpoint after one round trip. *)
  Alcotest.(check string) "fixpoint" src (Machine.Asm_printer.to_source reparsed);
  (* And execution agrees. *)
  Alcotest.(check int) "behaviour" (interp prog ~entry:"main") (interp reparsed ~entry:"main")

let () =
  Alcotest.run "workload"
    [
      ( "benchmarks",
        List.map benchmark_case
          (Workload.Benchmarks.all @ [ Workload.Benchmarks.pathological ]) );
      ( "appgen",
        [
          Alcotest.test_case "generates valid modules" `Quick test_app_generates;
          Alcotest.test_case "legacy metadata conflict" `Quick test_app_legacy_conflict;
          Alcotest.test_case "pipelines agree" `Quick test_app_pipelines_agree;
          Alcotest.test_case "wpo beats per-module" `Quick test_app_wpo_beats_per_module;
          Alcotest.test_case "spans run" `Quick test_app_spans_run;
          Alcotest.test_case "growth monotone" `Quick test_growth_monotone;
          Alcotest.test_case "system module untouched" `Quick test_system_module_untouched;
        ] );
      ("foreign", [ Alcotest.test_case "shapes outline" `Quick test_foreign_shapes ]);
      ("corespans", [ Alcotest.test_case "runner" `Quick test_corespan_runner ]);
      ( "stats",
        [
          Alcotest.test_case "linear regression" `Quick test_regression;
          Alcotest.test_case "power law" `Quick test_powerlaw;
          Alcotest.test_case "percentiles" `Quick test_percentile;
          Alcotest.test_case "text table" `Quick test_texttable;
        ] );
      ("printer", [ Alcotest.test_case "asm round trip" `Quick test_asm_roundtrip ]);
    ]
