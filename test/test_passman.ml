(* The unified pass manager: spec grammar, registry completeness,
   --verify-each, the timing tree, and opt-bisect fault localization. *)

let ok_exn = function Ok x -> x | Error e -> failwith e

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --- spec parse/print ------------------------------------------------------ *)

let test_parse_print () =
  let canon s = Passman.print (ok_exn (Passman.parse s)) in
  Alcotest.(check string) "canonical form is stable"
    "dce,sil-outline(min=8),outline(rounds=5)"
    (canon "dce,sil-outline(min=8),outline(rounds=5)");
  Alcotest.(check string) "whitespace tolerated" "dce,outline(rounds=3)"
    (canon "  dce ,  outline( rounds = 3 ) ");
  let s = ok_exn (Passman.parse "a-b(x=1,y=z2),c") in
  Alcotest.(check bool) "parse (print s) = s" true
    (Passman.parse (Passman.print s) = Ok s)

let test_parse_errors () =
  List.iter
    (fun s ->
      match Passman.parse s with
      | Ok _ -> Alcotest.failf "expected a parse error for %S" s
      | Error _ -> ())
    [
      "";
      "dce,,fmsa";
      "outline(rounds=5";
      "outline rounds=5)";
      "Bad";
      "dce,outline(=3)";
      "outline(rounds)";
    ]

(* --- registry completeness -------------------------------------------------- *)

(* Every registered pass must be reachable from a pipeline string, and a
   config raised from a spec must run exactly that spec. *)
let test_registry () =
  List.iter
    (fun name ->
      match Pipeline.config_of_passes name with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "pass %s not reachable from a spec: %s" name e)
    Passman.registered_names;
  (* The spec the flags lower to raises back onto the same config facts. *)
  let check_roundtrip c =
    let s = Passman.print (Pipeline.spec_of_config c) in
    let c' = ok_exn (Pipeline.config_of_passes ~base:c s) in
    Alcotest.(check bool)
      ("config recovered through " ^ s)
      true
      (Pipeline.rounds_of_specs c'.Pipeline.passes
       = Pipeline.rounds_of_specs c.Pipeline.passes
      && c'.Pipeline.outlined_layout = c.Pipeline.outlined_layout
      && Pipeline.spec_of_config c' = Pipeline.spec_of_config c)
  in
  let wp = Pipeline.Whole_program in
  List.iter check_roundtrip
    [
      Pipeline.default_config;
      Pipeline.config_of_flags ~rounds:0 wp;
      Pipeline.config_of_flags ~layout:`Caller_affinity wp;
      Pipeline.config_of_flags ~layout:(`Bp_compress 0.25) wp;
      (* a weight [%g] would round still names itself exactly *)
      Pipeline.config_of_flags ~layout:(`Bp_compress 0.123456789) wp;
      Pipeline.config_of_flags ~layout:`Stitch wp;
      Pipeline.config_of_flags (Pipeline.Thin_wpo { workers = 2 });
    ];
  (* Explicit specs: pinned verbatim, outline rounds and layout derived.
     The three layout markers are alternatives (a spec may hold at most
     one), so it takes three specs to reach the whole registry. *)
  let explicit =
    [
      ( "dce,sil-outline(min=12),merge-functions,fmsa,\
         global-merge(min=6,max-holes=3),canonicalize,outline(rounds=4),\
         caller-affinity-layout",
        4,
        `Caller_affinity );
      ( "dce,thin-outline(workers=2,rounds=3),\
         pgo-layout(strategy=bp-compress,w=0.5)",
        3,
        `Bp_compress 0.5 );
      ("merge-functions,stitch", 0, `Stitch);
    ]
  in
  let covered =
    List.concat_map
      (fun (s, rounds, layout) ->
        let c = ok_exn (Pipeline.config_of_passes s) in
        let specs = ok_exn (Passman.parse s) in
        Alcotest.(check bool) ("spec pinned: " ^ s) true
          (Pipeline.spec_of_config c = specs);
        Alcotest.(check int) ("rounds of " ^ s) rounds
          (Pipeline.rounds_of_specs c.Pipeline.passes);
        Alcotest.(check bool) ("layout of " ^ s) true
          (c.Pipeline.outlined_layout = layout);
        List.map (fun sp -> sp.Passman.sp_name) specs)
      explicit
  in
  Alcotest.(check (list string)) "the explicit specs exercise the whole registry"
    (List.sort compare Passman.registered_names)
    (List.sort_uniq compare covered)

(* The pass table and the registries agree: every table entry is one
   registry pass with the table's parameters, linkedness and self-gating,
   cross-unit exactly when its place is [Across], and every registry pass
   has a table entry. *)
let test_table_matches_registries () =
  let env =
    {
      Passman.me_engine = `Scratch;
      me_scope = "";
      me_profile = Outcore.Profile.create ();
      me_on_stats = ignore;
      me_thin_workers = 1;
      me_thin_report = Thinwpo.Engine.Report.create ();
      me_warm = None;
    }
  in
  let facts (p : _ Passman.pass) =
    (p.p_name, p.p_params, p.p_linked, p.p_self_gated, p.p_across <> None)
  in
  let registry =
    List.map facts (Passman.mir_passes ~keep:(fun _ -> false))
    @ List.map facts (Passman.machine_passes env)
  in
  let table =
    List.map
      (fun (i : Passman.info) ->
        ( i.pi_name,
          List.map fst i.pi_params,
          i.pi_place = Passman.Linked,
          i.pi_rounds,
          i.pi_place = Passman.Across ))
      Passman.pass_table
  in
  let show (name, params, linked, gated, across) =
    Printf.sprintf "%s(%s) linked=%b self-gated=%b across=%b" name
      (String.concat "," params) linked gated across
  in
  Alcotest.(check (list string)) "one registry pass per table entry"
    (List.sort compare (List.map show table))
    (List.sort compare (List.map show registry));
  Alcotest.(check (list string)) "registered names are the table's"
    (List.map (fun (i : Passman.info) -> i.pi_name) Passman.pass_table)
    Passman.registered_names

(* The reference runs the default spec only (the lattice's transition
   differential checks that it matches the build); any other spec is an
   error, not a build. *)
let test_reference_default_only () =
  let modules =
    ok_exn
      (Swiftlet.Compile.compile_program
         (Workload.Appgen.generate_sources
            (Workload.Appgen.at_week Workload.Appgen.small 0)))
  in
  let config = ok_exn (Pipeline.config_of_passes "dce,fmsa,outline(rounds=2)") in
  match Pipeline.build_reference ~config modules with
  | Ok _ -> Alcotest.fail "the reference built a non-default spec"
  | Error e ->
    Alcotest.(check bool) ("error names the spec: " ^ e) true
      (contains e "dce,fmsa,outline(rounds=2)")

(* A per-module build runs one outliner per unit, each with its own round
   1, 2, ...  The report folds the units by round index, so SmallApp's
   per-module build prints the rounds its units ran, not one entry per
   unit round, and the CLI text is pinned here.  The fold must keep every
   total: round K is the sum of the units' own round K, each unit's list
   taken from an independent per-module run of the repeated outliner. *)
let test_pm_round_report () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/sizeopt.exe"
  in
  let out = Filename.temp_file "pm_rounds" ".txt" in
  let code =
    Sys.command
      (Printf.sprintf "%s build --app small --mode pm > %s" (Filename.quote exe)
         (Filename.quote out))
  in
  Alcotest.(check int) "the CLI builds" 0 code;
  let ic = open_in out in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let printed = lines [] in
  close_in ic;
  Sys.remove out;
  (* The report: the summary line's round count and the round lines. *)
  let rec from needle l i =
    if i + String.length needle > String.length l then None
    else if String.sub l i (String.length needle) = needle then
      Some (String.sub l i (String.length l - i))
    else from needle l (i + 1)
  in
  let report =
    List.filter_map
      (fun l ->
        if from "  round " l 0 = Some l then Some l
        else from "outlined rounds:" l 0)
      printed
  in
  Alcotest.(check (list string)) "the CLI's round report"
    [
      "outlined rounds: 3";
      "  round 1: 1151 occurrences -> 162 functions, 12980 bytes saved";
      "  round 2: 194 occurrences -> 45 functions, 736 bytes saved";
      "  round 3: 11 occurrences -> 3 functions, 24 bytes saved";
    ]
    report;
  let modules =
    ok_exn
      (Swiftlet.Compile.compile_program
         (Workload.Appgen.generate_sources Workload.Appgen.small))
  in
  let units =
    List.map
      (fun (m : Ir.modul) ->
        snd
          (Outcore.Repeat.run
             ~options:
               { Outcore.Outliner.default_options with scope_name = m.Ir.m_name }
             ~rounds:5
             (Codegen.compile_modul (fst (Dce.run m)))))
      modules
  in
  Alcotest.(check bool) "units stop after different rounds" true
    (List.length (List.sort_uniq compare (List.map List.length units)) > 1);
  let built =
    (ok_exn
       (Pipeline.build ~config:(Pipeline.config_of_flags Pipeline.Per_module)
          modules))
      .Pipeline.outline_stats
  in
  let total = List.fold_left Outcore.Outliner.add_stats Outcore.Outliner.no_stats in
  Alcotest.(check bool) "folded totals equal the units' totals" true
    (total built = total (List.concat units));
  Alcotest.(check int) "one entry per round index"
    (List.fold_left (fun acc u -> max acc (List.length u)) 0 units)
    (List.length built);
  List.iteri
    (fun k (s : Outcore.Outliner.round_stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "round %d sums the units' round %d" (k + 1) (k + 1))
        true
        (s = total (List.filter_map (fun u -> List.nth_opt u k) units)))
    built

(* --layout composes with --passes: a spec without a layout marker keeps
   the base strategy, names it, and builds what the explicit marker
   builds.  Stitch and caller-affinity bases used to build append. *)
let test_base_layout_kept () =
  let sources =
    Workload.Appgen.generate_sources
      (Workload.Appgen.at_week Workload.Appgen.small 0)
  in
  let image config =
    let res = ok_exn (Pipeline.build_sources ~config sources) in
    ( res.Pipeline.binary_size,
      Machine.Asm_printer.to_source res.Pipeline.program,
      res.Pipeline.function_order )
  in
  List.iter
    (fun (layout, marker) ->
      let base = Pipeline.config_of_flags ~layout Pipeline.Whole_program in
      let c = ok_exn (Pipeline.config_of_passes ~base "dce,outline(rounds=2)") in
      let name = Pipeline.layout_strategy_name layout in
      Alcotest.(check bool) (name ^ " kept") true
        (c.Pipeline.outlined_layout = layout);
      Alcotest.(check string) (name ^ " named in the spec")
        ("dce,outline(rounds=2)," ^ marker)
        (Passman.print (Pipeline.spec_of_config c));
      let explicit =
        ok_exn
          (Pipeline.config_of_passes ("dce,outline(rounds=2)," ^ marker))
      in
      Alcotest.(check bool) (name ^ " builds what its marker builds") true
        (image c = image explicit))
    [ (`Stitch, "stitch"); (`Caller_affinity, "caller-affinity-layout") ]

(* The build reads its layout off the spec alone.  The mirror field
   changes nothing, and [--rounds 0 --layout stitch] is the spec
   [dce,stitch], step for step. *)
let test_spec_decides_layout () =
  let sources =
    Workload.Appgen.generate_sources
      (Workload.Appgen.at_week Workload.Appgen.small 0)
  in
  let c = ok_exn (Pipeline.config_of_passes "dce,outline(rounds=1),stitch") in
  let res =
    ok_exn
      (Pipeline.build_sources
         ~config:{ c with Pipeline.outlined_layout = `Append }
         sources)
  in
  let roots =
    List.map (fun (t : Passman.timing) -> t.Passman.t_name) res.Pipeline.timing_tree
  in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " ran despite the mirror") true
        (List.mem phase roots))
    [ "stitch-split"; "stitch-order" ];
  Alcotest.(check bool) "cold blocks split off" true
    (res.Pipeline.layout.Linker.hot_text_size < res.Pipeline.layout.Linker.text_size);
  let base = { Pipeline.default_config with bisect_limit = Some 100 } in
  let steps config =
    List.map
      (fun (st : Passman.step) -> { st with Passman.st_seconds = 0.0 })
      (ok_exn (Pipeline.build_sources ~config sources)).Pipeline.pass_steps
  in
  let flags =
    Pipeline.config_of_flags ~base ~rounds:0 ~layout:`Stitch
      Pipeline.Whole_program
  in
  let spec = ok_exn (Pipeline.config_of_passes ~base "dce,stitch") in
  let flag_steps = steps flags in
  Alcotest.(check (list string)) "flags list the marker step"
    [ "dce"; "stitch" ]
    (List.map (fun (st : Passman.step) -> st.Passman.st_pass) flag_steps);
  Alcotest.(check bool) "flags and spec give equal pass_steps" true
    (flag_steps = steps spec)

(* A layout marker the bisect limit skips places nothing: the build
   equals the markerless one. *)
let test_skipped_marker_places_nothing () =
  let sources =
    Workload.Appgen.generate_sources
      (Workload.Appgen.at_week Workload.Appgen.small 0)
  in
  let build ?bisect_limit layout =
    let base = { Pipeline.default_config with bisect_limit } in
    ok_exn
      (Pipeline.build_sources
         ~config:
           (Pipeline.config_of_flags ~base ~rounds:0 ~layout
              Pipeline.Per_module)
         sources)
  in
  let marker (r : Pipeline.result) =
    List.find (fun (st : Passman.step) -> st.st_pass = "stitch") r.pass_steps
  in
  let gate = (marker (build ~bisect_limit:1000 `Stitch)).st_gate in
  let skipped = build ~bisect_limit:(gate - 1) `Stitch in
  let plain = build `Append in
  Alcotest.(check bool) "the marker step is skipped" false
    (marker skipped).st_applied;
  Alcotest.(check int) "binary size" plain.binary_size skipped.binary_size;
  Alcotest.(check bool) "function order" true
    (plain.function_order = skipped.function_order)

(* A negative round count runs no rounds and reserves no bisect steps:
   otherwise consecutive units get overlapping step numbers and a sharded
   build runs steps its limit should have cut. *)
let test_negative_rounds_reservation () =
  Alcotest.(check int) "outline(rounds=-1) reserves no steps" 1
    (Passman.reserved_steps (ok_exn (Passman.parse "dce,outline(rounds=-1)")));
  let sources =
    Workload.Appgen.generate_sources
      (Workload.Appgen.at_week Workload.Appgen.small 0)
  in
  List.iter
    (fun (name, mode) ->
      let config =
        ok_exn
          (Pipeline.config_of_passes
             ~base:{ Pipeline.default_config with mode; bisect_limit = Some 2 }
             "dce,outline(rounds=-1)")
      in
      let res = ok_exn (Pipeline.build_sources ~config sources) in
      let ran =
        List.filter (fun st -> st.Passman.st_applied) res.Pipeline.pass_steps
      in
      Alcotest.(check (list int)) (name ^ ": only steps 1 and 2 run") [ 1; 2 ]
        (List.map (fun st -> st.Passman.st_gate) ran))
    [
      ("pm", Pipeline.Per_module);
      ("thin w2", Pipeline.Thin_wpo { workers = 2 });
    ]

(* Pipelines no build can honour are refused up front: an outliner run
   twice would define its round-named symbols twice, and the layout
   markers are alternatives for the one final placement. *)
let test_rejected_pipelines () =
  List.iter
    (fun s ->
      match Pipeline.config_of_passes s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error e ->
        Alcotest.(check bool) (s ^ ": " ^ e) true
          (contains e "bad pass pipeline"))
    [
      "dce,outline(rounds=1),outline(rounds=1)";
      "dce,thin-outline(rounds=1),thin-outline(rounds=2)";
      "dce,outline(rounds=3),pgo-layout(strategy=c3),stitch";
      "dce,outline(rounds=3),caller-affinity-layout,pgo-layout";
      "dce,outline(rounds=3),stitch,stitch";
      "dce,outline(rounds=3),pgo-layout(strategy=stitch)";
      "dce,outline(rounds=3),pgo-layout(strategy=nope)";
      (* A spec runs in the order written, so a pass listed after one of
         a later place cannot run. *)
      "outline(rounds=1),dce";
      "dce,caller-affinity-layout,outline(rounds=2)";
      (* Integer parameters are checked when the spec is parsed. *)
      "dce,global-merge(min=abc)";
      "dce,thin-outline(workers=two)";
      "dce,thin-outline(min=2)";
    ];
  List.iter
    (fun (s, want) ->
      match Pipeline.config_of_passes s with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" s
      | Error e -> Alcotest.(check string) s ("bad pass pipeline: " ^ want) e)
    [
      ("outline(rounds=1),dce", "pass dce cannot run after outline");
      ( "dce,caller-affinity-layout,outline(rounds=2)",
        "pass outline cannot run after caller-affinity-layout" );
      ( "dce,global-merge(min=abc)",
        "pass global-merge: parameter min=abc is not an integer" );
      (* the duplicate-outliner and two-marker checks come first *)
      ( "outline(rounds=1),dce,outline(rounds=1)",
        "pass outline appears twice (its outlined symbols would clash)" );
      ( "stitch,dce,caller-affinity-layout",
        "more than one layout marker (stitch, caller-affinity-layout); keep \
         one" );
    ];
  (* A config that carries such a spec directly fails the build instead. *)
  let config =
    {
      Pipeline.default_config with
      passes = ok_exn (Passman.parse "dce,stitch,caller-affinity-layout");
    }
  in
  match Pipeline.build ~config [] with
  | Ok _ -> Alcotest.fail "a two-marker config built"
  | Error e ->
    Alcotest.(check bool) ("build error names the markers: " ^ e) true
      (contains e "layout marker")

(* Two units defining one symbol is the build's error, not an exception
   escaping it: sil-outline(min=1) names its helpers without a module
   scope, so per-module units collide at the system-linker merge. *)
let test_duplicate_symbols_are_errors () =
  let config =
    ok_exn
      (Pipeline.config_of_passes
         ~base:{ Pipeline.default_config with mode = Pipeline.Per_module }
         "dce,sil-outline(min=1)")
  in
  let sources = Workload.Appgen.generate_sources Workload.Appgen.small in
  match Pipeline.build_sources ~config sources with
  | Ok _ -> Alcotest.fail "colliding helpers linked"
  | Error e ->
    Alcotest.(check bool) ("error names the symbol: " ^ e) true
      (contains e "duplicate function")

(* --- verify-each ------------------------------------------------------------ *)

(* A deliberately broken pass: duplicating a function leaves the program
   structurally invalid (duplicate symbol), which only
   Machine.Program.validate notices. *)
let broken_pass =
  {
    Passman.p_name = "break";
    p_params = [];
    p_self_gated = false;
    p_linked = false;
    p_across = None;
    p_run =
      (fun _ _ (p : Machine.Program.t) ->
        { p with Machine.Program.funcs = p.funcs @ [ List.hd p.funcs ] });
  }

let break_spec = [ { Passman.sp_name = "break"; sp_params = [] } ]

let test_verify_each_catches () =
  let p = Fuzz.Machgen.generate (Random.State.make [| 5; 1 |]) ~fuel:6 in
  (* Without verify-each the corruption sails through the manager... *)
  let ctx = Passman.create_ctx () in
  let (_ : Machine.Program.t) =
    Passman.run_passes ctx Passman.machine_stage [ broken_pass ] break_spec p
  in
  (* ...with it, the violation is caught and attributed to the pass. *)
  let ctx = Passman.create_ctx ~verify_each:true () in
  match Passman.run_passes ctx Passman.machine_stage [ broken_pass ] break_spec p with
  | (_ : Machine.Program.t) ->
    Alcotest.fail "verify-each did not flag the broken pass"
  | exception Failure msg ->
    Alcotest.(check bool) ("failure names the pass: " ^ msg) true
      (contains msg "break")

(* --- timing tree ------------------------------------------------------------- *)

let small_sources =
  lazy
    (Workload.Appgen.generate_sources
       (Workload.Appgen.at_week Workload.Appgen.small 0))

let build_small ?(base = Pipeline.default_config) passes =
  let config = ok_exn (Pipeline.config_of_passes ~base passes) in
  ok_exn (Pipeline.build_sources ~config (Lazy.force small_sources))

(* Thin builds are the slow ones: one per worker count, shared. *)
let thin_builds = Hashtbl.create 2

let thin_build workers =
  match Hashtbl.find_opt thin_builds workers with
  | Some res -> res
  | None ->
    let res =
      build_small
        ~base:
          { Pipeline.default_config with mode = Pipeline.Thin_wpo { workers } }
        "dce,merge-functions,thin-outline(rounds=2)"
    in
    Hashtbl.replace thin_builds workers res;
    res

let root_names (res : Pipeline.result) =
  List.map (fun (t : Passman.timing) -> t.Passman.t_name) res.Pipeline.timing_tree

let find_root (res : Pipeline.result) name =
  match
    List.find_opt
      (fun (t : Passman.timing) -> t.Passman.t_name = name)
      res.Pipeline.timing_tree
  with
  | Some t -> t
  | None ->
    Alcotest.failf "no %s root in [%s]" name
      (String.concat "; " (root_names res))

(* The step nodes of a tree, in order, each with its parent's name: below
   the roots, the ["round K"] nodes and the leaves named after a pass
   (["<unit>/<pass>"] or ["<pass>"]). *)
let step_nodes (res : Pipeline.result) =
  let is_pass_label name =
    let pass =
      match String.rindex_opt name '/' with
      | Some i -> String.sub name (i + 1) (String.length name - i - 1)
      | None -> name
    in
    List.mem pass Passman.registered_names
  in
  let rec go parent (t : Passman.timing) =
    let here =
      if
        String.starts_with ~prefix:"round " t.Passman.t_name
        || (t.Passman.t_children = [] && is_pass_label t.Passman.t_name)
      then [ (parent, t) ]
      else []
    in
    here @ List.concat_map (go t.Passman.t_name) t.Passman.t_children
  in
  List.concat_map
    (fun (t : Passman.timing) ->
      List.concat_map (go t.Passman.t_name) t.Passman.t_children)
    res.Pipeline.timing_tree

(* Every bisect step adds its own node as the build runs, so the tree's
   step nodes are the step log: same count, same order, a skipped step
   noted as such and a round filed under its pass. *)
let check_steps_match name (res : Pipeline.result) =
  let nodes = step_nodes res and steps = res.Pipeline.pass_steps in
  Alcotest.(check int) (name ^ ": one node per step") (List.length steps)
    (List.length nodes);
  List.iter2
    (fun (st : Passman.step) (parent, (t : Passman.timing)) ->
      let label =
        if st.Passman.st_unit = "" then st.Passman.st_pass
        else st.Passman.st_unit ^ "/" ^ st.Passman.st_pass
      in
      if st.Passman.st_detail = "" then
        Alcotest.(check string) (name ^ ": step leaf") label t.Passman.t_name
      else begin
        Alcotest.(check string) (name ^ ": round node") st.Passman.st_detail
          t.Passman.t_name;
        Alcotest.(check string) (name ^ ": round's pass") label parent
      end;
      Alcotest.(check bool)
        (name ^ ": skipped iff noted")
        (not st.Passman.st_applied)
        (t.Passman.t_note = "skipped (opt-bisect)"))
    steps nodes

let test_tree_matches_steps () =
  check_steps_match "wp" (build_small "dce,outline(rounds=3)");
  let pm =
    build_small
      ~base:
        {
          Pipeline.default_config with
          mode = Pipeline.Per_module;
          bisect_limit = Some 9;
        }
      "dce,merge-functions,outline(rounds=3)"
  in
  Alcotest.(check bool) "pm: the limit skips a round" true
    (List.exists
       (fun (st : Passman.step) ->
         st.Passman.st_detail <> "" && not st.Passman.st_applied)
       pm.Pipeline.pass_steps);
  check_steps_match "pm bisect" pm;
  check_steps_match "thin"
    (thin_build 1)

(* The front end is timed as the first root of a source build. *)
let test_front_end_root () =
  Alcotest.(check string) "first root" "front-end"
    (List.hd (root_names (build_small "dce,outline(rounds=1)")))

(* Thin outlining is billed to its own linked-passes phase, not to the
   unit concat of system-linker-merge. *)
let test_linked_passes_phase () =
  let thin = thin_build 1 in
  Alcotest.(check int) "system-linker-merge times only the concat" 0
    (List.length (find_root thin "system-linker-merge").Passman.t_children);
  Alcotest.(check (list string)) "thin-outline sits under linked-passes"
    [ "thin-outline" ]
    (List.map
       (fun (t : Passman.timing) -> t.Passman.t_name)
       (find_root thin "linked-passes").Passman.t_children);
  (* Without linked passes there is no linked-passes phase. *)
  let pm =
    build_small
      ~base:{ Pipeline.default_config with mode = Pipeline.Per_module }
      "dce,outline(rounds=1)"
  in
  Alcotest.(check (list string)) "pm roots"
    [ "front-end"; "compile-modules"; "system-linker-merge"; "system-linker" ]
    (root_names pm)

(* With seconds masked, the tree is a function of the pipeline and the
   module list alone: forked units join in module order. *)
let test_tree_worker_independent () =
  let rec mask (t : Passman.timing) =
    {
      t with
      Passman.t_seconds = 0.;
      t_children = List.map mask t.Passman.t_children;
    }
  in
  let tree workers =
    Passman.render_tree (List.map mask (thin_build workers).Pipeline.timing_tree)
  in
  Alcotest.(check string) "thin tree at workers 1 and 2" (tree 1) (tree 2)

(* --- opt-bisect ------------------------------------------------------------- *)

let outline_spec =
  [ { Passman.sp_name = "outline"; sp_params = [ ("rounds", "5") ] } ]

(* A stale cache can crash the rewrite outright, not just diverge, so the
   run is trapped and an exception counts as disagreement — the same
   policy as the fuzz lattice's incremental/scratch differential. *)
let run_outline ?bisect_limit ~engine p =
  let ctx = Passman.create_ctx ?bisect_limit () in
  let env =
    {
      Passman.me_engine = engine;
      me_scope = "";
      me_profile = Outcore.Profile.create ();
      me_on_stats = (fun _ -> ());
      me_thin_workers = 1;
      me_thin_report = Thinwpo.Engine.Report.create ();
      me_warm = None;
    }
  in
  let q =
    try
      Ok
        (Passman.run_passes ctx Passman.machine_stage
           (Passman.machine_passes env) outline_spec p)
    with e -> Error (Printexc.to_string e)
  in
  (q, ctx)

let engines_agree ?bisect_limit p =
  let qi, _ = run_outline ?bisect_limit ~engine:`Incremental p in
  let qs, _ = run_outline ?bisect_limit ~engine:`Scratch p in
  match (qi, qs) with
  | Ok a, Ok b ->
    Machine.Asm_printer.to_source a = Machine.Asm_printer.to_source b
  | Error _, _ | _, Error _ -> false

(* Inject the stale-engine-rows fault, find a program where the
   incremental engine diverges from scratch at 5 rounds, then let
   opt-bisect localize the first faulty step.  The fault corrupts symbol
   arrays reused across rounds, so the culprit can never be round 1 (whose
   memo is empty) — bisect must land on a later round. *)
let test_bisect_localizes () =
  Outcore.Outliner.fault_stale_engine_rows := true;
  Fun.protect
    ~finally:(fun () -> Outcore.Outliner.fault_stale_engine_rows := false)
    (fun () ->
      let found = ref None and attempt = ref 0 in
      while !found = None && !attempt < 100 do
        let st = Random.State.make [| 1 + 104729; !attempt |] in
        let p = Fuzz.Machgen.generate st ~fuel:8 in
        if Machine.Program.validate p = Ok () && not (engines_agree p) then
          found := Some p;
        incr attempt
      done;
      match !found with
      | None ->
        Alcotest.fail "stale-cache fault not reachable in 100 random programs"
      | Some p -> (
        match
          Passman.bisect ~hi:5 ~fails:(fun n ->
              not (engines_agree ~bisect_limit:n p))
        with
        | None -> Alcotest.fail "bisect found no failing step"
        | Some n ->
          Alcotest.(check bool)
            (Printf.sprintf "stale cache localized past round 1 (step %d)" n)
            true (n >= 2);
          let res, ctx = run_outline ~bisect_limit:n ~engine:`Incremental p in
          let steps = Passman.steps ctx in
          List.iteri
            (fun i (st : Passman.step) ->
              Alcotest.(check string) "every step is an outline round"
                "outline" st.Passman.st_pass;
              Alcotest.(check string) "rounds recorded in order"
                (Printf.sprintf "round %d" (i + 1))
                st.Passman.st_detail)
            steps;
          (match res with
          | Error _ ->
            (* the faulty round crashed before its step was recorded *)
            Alcotest.(check int) "crash happened in the bisected step" (n - 1)
              (List.length steps)
          | Ok _ ->
            if List.length steps >= n then
              Alcotest.(check bool) "the bisected step ran" true
                (List.nth steps (n - 1)).Passman.st_applied)))

let () =
  Alcotest.run "passman"
    [
      ( "spec",
        [
          Alcotest.test_case "parse/print round-trip" `Quick test_parse_print;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
      ( "registry",
        [
          Alcotest.test_case "completeness" `Quick test_registry;
          Alcotest.test_case "the table matches the registries" `Quick
            test_table_matches_registries;
          Alcotest.test_case "the reference runs the default spec only"
            `Quick test_reference_default_only;
          Alcotest.test_case "a marker-free spec keeps the base layout" `Quick
            test_base_layout_kept;
          Alcotest.test_case "the spec decides the layout" `Quick
            test_spec_decides_layout;
          Alcotest.test_case "negative rounds reserve no steps" `Quick
            test_negative_rounds_reservation;
          Alcotest.test_case "a skipped layout marker places nothing"
            `Quick test_skipped_marker_places_nothing;
          Alcotest.test_case "impossible pipelines rejected" `Quick
            test_rejected_pipelines;
          Alcotest.test_case "duplicate symbols are a build error" `Quick
            test_duplicate_symbols_are_errors;
          Alcotest.test_case "per-module round report folds by round" `Quick
            test_pm_round_report;
        ] );
      ( "verify-each",
        [
          Alcotest.test_case "catches a broken pass" `Quick
            test_verify_each_catches;
        ] );
      ( "timing-tree",
        [
          Alcotest.test_case "step nodes are the step log" `Quick
            test_tree_matches_steps;
          Alcotest.test_case "front end is the first root" `Quick
            test_front_end_root;
          Alcotest.test_case "linked passes have their own phase" `Quick
            test_linked_passes_phase;
          Alcotest.test_case "independent of the worker count" `Quick
            test_tree_worker_independent;
        ] );
      ( "opt-bisect",
        [
          Alcotest.test_case "localizes the stale-cache fault" `Quick
            test_bisect_localizes;
        ] );
    ]
