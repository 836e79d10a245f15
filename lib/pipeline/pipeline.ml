type mode =
  | Per_module
  | Whole_program
  | Thin_wpo of { workers : int }

let mode_of_string ~workers = function
  | "wp" -> Ok Whole_program
  | "pm" -> Ok Per_module
  | "thin" -> Ok (Thin_wpo { workers })
  | m -> Error (Printf.sprintf "unknown mode: %S (want wp|pm|thin)" m)

type layout_strategy =
  [ `Append | `Caller_affinity | `Order_file | `C3 | `Balanced
  | `Bp_compress of float | `Stitch ]

let spec name params = { Passman.sp_name = name; sp_params = params }

(* The one strategy table: each strategy's [--layout] name and the marker
   pass that names it in a spec.  A [pgo-layout] marker carries the name
   as [strategy=]; bp-compress's weight rides along as [w=]. *)
let layout_table : (string * layout_strategy * string option) list =
  [
    ("append", `Append, None);
    ("caller-affinity", `Caller_affinity, Some "caller-affinity-layout");
    ("order-file", `Order_file, Some "pgo-layout");
    ("c3", `C3, Some "pgo-layout");
    ("balanced", `Balanced, Some "pgo-layout");
    ("bp-compress", `Bp_compress Pgo.Order.default_w, Some "pgo-layout");
    ("stitch", `Stitch, Some "stitch");
  ]

let table_entry (l : layout_strategy) =
  List.find
    (fun (_, l', _) ->
      match (l, l') with `Bp_compress _, `Bp_compress _ -> true | _ -> l = l')
    layout_table

let marker_pass l =
  let _, _, pass = table_entry l in
  pass

let is_marker name = List.exists (fun (_, _, m) -> m = Some name) layout_table

let layout_strategy_name l =
  let name, _, _ = table_entry l in
  match l with
  | `Bp_compress w -> Printf.sprintf "%s(w=%g)" name w
  | _ -> name

let layout_strategy_list =
  match
    List.rev_map
      (fun (n, _, _) -> if n = "bp-compress" then n ^ "[(w=0..1)]" else n)
      layout_table
  with
  | last :: rest -> String.concat ", " (List.rev rest) ^ " or " ^ last
  | [] -> ""

(* The one [w ∈ 0..1] check, for [--layout bp-compress(w)] and
   [pgo-layout(w=…)] alike. *)
let weight_of_string v =
  match float_of_string_opt (String.trim v) with
  | Some w when w >= 0.0 && w <= 1.0 -> Some w
  | Some _ | None -> None

(* [%g] unless it would round the weight: the marker must name the exact
   weight the flag gave. *)
let weight_to_string w =
  let s = Printf.sprintf "%g" w in
  if float_of_string s = w then s else Printf.sprintf "%.17g" w

let layout_strategy_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let err () =
    Error (Printf.sprintf "unknown layout %S (want %s)" s layout_strategy_list)
  in
  match List.find_opt (fun (name, _, _) -> name = s) layout_table with
  | Some (_, l, _) -> Ok l
  | None ->
    (* bp-compress(w=0.3) — also accepts the bare bp-compress(0.3). *)
    let w =
      match
        Scanf.sscanf_opt s "bp-compress(%[^)])%!" (String.split_on_char '=')
      with
      | Some [ k; v ] when String.trim k = "w" -> weight_of_string v
      | Some [ v ] -> weight_of_string v
      | Some _ | None -> None
    in
    match w with Some w -> Ok (`Bp_compress w) | None -> err ()

(* The marker pass naming [l] in a spec; [`Append], the linker's default
   order, has none. *)
let layout_marker l =
  match table_entry l with
  | _, _, None -> None
  | name, _, Some ("pgo-layout" as pass) ->
    let w =
      match l with `Bp_compress w -> [ ("w", weight_to_string w) ] | _ -> []
    in
    Some (spec pass (("strategy", name) :: w))
  | _, _, Some pass -> Some (spec pass [])

let layout_of_specs specs =
  (* [Passman.validate_specs] admits at most one marker. *)
  match List.find_opt (fun sp -> is_marker sp.Passman.sp_name) specs with
  | None -> Ok `Append
  | Some { Passman.sp_name = "pgo-layout"; sp_params } -> (
    let param k = List.assoc_opt k sp_params in
    let fail fmt = Printf.ksprintf (fun e -> Error ("pgo-layout: " ^ e)) fmt in
    match (param "w", Option.bind (param "w") weight_of_string) with
    | Some v, None -> fail "w=%s is not in 0..1" v
    | _, w -> (
      match
        layout_strategy_of_string
          (Option.value ~default:"bp-compress" (param "strategy"))
      with
      | Error e -> fail "%s" e
      | Ok l when marker_pass l <> Some "pgo-layout" ->
        fail "%s is not a profile-guided strategy" (layout_strategy_name l)
      | Ok (`Bp_compress d) -> Ok (`Bp_compress (Option.value ~default:d w))
      | Ok l -> Ok l))
  | Some { Passman.sp_name; _ } ->
    let _, l, _ = List.find (fun (_, _, m) -> m = Some sp_name) layout_table in
    Ok l

let rounds_of_specs specs =
  match
    List.find_opt
      (fun sp -> List.mem sp.Passman.sp_name [ "outline"; "thin-outline" ])
      specs
  with
  | Some sp -> Passman.int_param sp "rounds" ~default:5
  | None -> 0

let default_rounds = 5

(* What [sizeopt build] expresses without --passes: dce, then — with
   outlining on — the mode's outliner, then the layout strategy's marker
   pass. *)
let lowered_spec ~mode ~rounds layout =
  let r = ("rounds", string_of_int rounds) in
  let outliner =
    match mode with
    | _ when rounds <= 0 -> []
    | Thin_wpo { workers } ->
      [ spec "thin-outline" [ ("workers", string_of_int workers); r ] ]
    | Per_module | Whole_program -> [ spec "outline" [ r ] ]
  in
  (spec "dce" [] :: outliner) @ Option.to_list (layout_marker layout)

type config = {
  mode : mode;
  flag_semantics : Link.flag_semantics;
  data_order : Link.data_order;
  entry_points : string list;
  no_outline_modules : string list;
  outlined_layout : layout_strategy;
  layout_profile : Pgo.Profile.t option;
  outline_engine : [ `Incremental | `Scratch ];
  passes : Passman.spec list;
  verify_each : bool;
  print_after : Passman.print_after;
  bisect_limit : int option;
  warm_outline : Outcore.Outliner.warm option;
}

let default_config =
  {
    mode = Whole_program;
    flag_semantics = Link.Attributes;
    data_order = Link.Module_preserving;
    entry_points = [ "main" ];
    no_outline_modules = [ "system" ];
    outlined_layout = `Append;
    layout_profile = None;
    outline_engine = `Incremental;
    passes = lowered_spec ~mode:Whole_program ~rounds:default_rounds `Append;
    verify_each = false;
    print_after = `Never;
    bisect_limit = None;
    warm_outline = None;
  }

let default_ios_config = { default_config with mode = Per_module }

let spec_of_config c = c.passes

let config_of_flags ?(base = default_config) ?(rounds = default_rounds)
    ?(layout = `Append) mode =
  {
    base with
    mode;
    passes = lowered_spec ~mode ~rounds layout;
    outlined_layout = layout;
  }

type result = {
  program : Machine.Program.t;
  layout : Linker.layout;
  binary_size : int;
  code_size : int;
  function_order : string list option;
  timing_tree : Passman.timing list;
  pass_steps : Passman.step list;
  outline_stats : Outcore.Outliner.round_stats list;
}

(* Registries instantiated with inert environments, used only to resolve
   names, parameter lists and stage membership. *)
let template_mir = Passman.mir_passes ~keep:(fun _ -> false)

let template_machine =
  Passman.machine_passes
    {
      Passman.me_engine = `Scratch;
      me_scope = "";
      me_profile = Outcore.Profile.create ();
      me_on_stats = (fun _ -> ());
      me_thin_workers = 1;
      me_thin_report = Thinwpo.Engine.Report.create ();
      me_warm = None;
    }

let known_pass name =
  match Passman.find_pass template_mir name with
  | Some p -> Some p.Passman.p_params
  | None -> (
    match Passman.find_pass template_machine name with
    | Some p -> Some p.Passman.p_params
    | None -> None)

let config_of_passes ?(base = default_config) s =
  let ( let* ) = Result.bind in
  let markers specs =
    List.filter (fun sp -> is_marker sp.Passman.sp_name) specs
  in
  Result.map_error
    (fun e -> "bad pass pipeline: " ^ e)
    (let* specs = Passman.parse s in
     let* () = Passman.validate_specs ~known:known_pass specs in
     (* A spec without a layout marker keeps the base's, so the spec names
        the layout that runs. *)
     let specs =
       if markers specs = [] then specs @ markers base.passes else specs
     in
     (* The outliner's rounds must be an integer. *)
     let* _ = try Ok (rounds_of_specs specs) with Failure e -> Error e in
     let* outlined_layout = layout_of_specs specs in
     Ok { base with passes = specs; outlined_layout })

(* --- shared helpers -------------------------------------------------------- *)

(* System-framework modules ship outside the app binary on a real device;
   marking them no_outline keeps the outliner away, as §VII-B's execution
   profile assumes. *)
let mark_no_outline config (p : Machine.Program.t) =
  if config.no_outline_modules = [] then p
  else
    Machine.Program.replace_funcs p
      (List.map
         (fun (f : Machine.Mfunc.t) ->
           if List.mem f.Machine.Mfunc.from_module config.no_outline_modules then
             { f with Machine.Mfunc.no_outline = true }
           else f)
         p.Machine.Program.funcs)

(* --- the pass-manager pipeline --------------------------------------------- *)

(* The step budget of a build's self-profile of [main]. *)
let self_profile_max_steps = 20_000_000

(* Self-profile by tracing a [main] run of the built program.  A run the
   budget or a fault stops still yields its prefix counts; say so, since
   the layout then rests on a truncated profile. *)
let self_profile program =
  let on_error entry (e : Perfsim.Interp.error) =
    let reason =
      match e with
      | Step_limit_exceeded ->
        Printf.sprintf "%s at %d steps" (Perfsim.Interp.error_to_string e)
          self_profile_max_steps
      | _ -> Perfsim.Interp.error_to_string e
    in
    Printf.eprintf
      "warning: self-profile of %s stopped (%s); layout uses the counts seen \
       so far\n%!"
      entry reason
  in
  Pgo.Collect.collect
    ~config:
      {
        Pgo.Collect.default_config with
        Perfsim.Interp.max_steps = self_profile_max_steps;
      }
    ~on_error ~workload:"self" ~entries:[ "main" ] program

(* The one build body: [front_end ctx] yields the modules, then every
   phase runs as a root span of the context's timing tree. *)
let run_build ?dump ~config front_end =
  let outline_stats = ref [] in
  let ctx =
    Passman.create_ctx ~verify_each:config.verify_each
      ~print_after:config.print_after ?bisect_limit:config.bisect_limit ?dump
      ()
  in
  try
    let modules = front_end ctx in
    let specs = config.passes in
    (match Passman.validate_specs ~known:known_pass specs with
    | Ok () -> ()
    | Error e -> failwith e);
    let layout =
      match layout_of_specs specs with Ok l -> l | Error e -> failwith e
    in
    let keep (f : Ir.func) = List.mem f.Ir.name config.entry_points in
    let mir_registry = Passman.mir_passes ~keep in
    let thin_workers =
      match config.mode with Thin_wpo { workers } -> workers | _ -> 1
    in
    let machine_registry
        ?(on_stats = fun s -> outline_stats := !outline_stats @ s) scope =
      Passman.machine_passes
        {
          Passman.me_engine = config.outline_engine;
          me_scope = scope;
          me_profile = Outcore.Profile.create ();
          me_on_stats = on_stats;
          me_thin_workers = thin_workers;
          me_thin_report = Thinwpo.Engine.Report.create ();
          (* Only the whole-program outline pass takes the caller's warm
             pool; per-module units build over fresh ones. *)
          me_warm = (if scope = "" then config.warm_outline else None);
        }
    in
    let mir_specs, machine_specs =
      List.partition
        (fun sp -> Passman.find_pass template_mir sp.Passman.sp_name <> None)
        specs
    in
    let machine_unit_specs, machine_linked_specs =
      List.partition
        (fun sp ->
          match Passman.find_pass template_machine sp.Passman.sp_name with
          | Some p -> not p.Passman.p_linked
          | None -> true)
        machine_specs
    in
    let program =
      match config.mode with
      | Whole_program ->
        (* llvm-link -> opt -> llc(+machine passes over everything). *)
        let merged =
          Passman.span ctx "llvm-link" (fun () ->
              match
                Link.link ~flag_semantics:config.flag_semantics
                  ~data_order:config.data_order ~name:"whole" modules
              with
              | Ok m -> m
              | Error e -> failwith (Link.error_to_string e))
        in
        let optimized =
          Passman.span ctx "opt" (fun () ->
              Passman.run_passes ctx Passman.mir_stage mir_registry mir_specs
                merged)
        in
        let machine =
          Passman.span ctx "llc" (fun () ->
              mark_no_outline config (Codegen.compile_modul optimized))
        in
        if machine_specs <> [] then
          Passman.span ctx "machine-outliner" (fun () ->
              Passman.run_passes ctx Passman.machine_stage
                (machine_registry "") machine_specs machine)
        else machine
      | Per_module | Thin_wpo _ ->
        (* The default iOS pipeline: every module is optimized, lowered and
           machine-outlined on its own, then the system linker merges the
           units and the linked passes run over the result.  Thin-WPO is
           the same shape on a domain pool, with thin-outline as its
           linked pass.  Each unit runs in a forked pass context with a
           reserved block of bisect steps and a private stats sink, so
           step numbering, dump order, timing nodes and stats order are
           functions of the module list alone, never of domain scheduling
           — per-module is simply the one-worker pool. *)
        let workers =
          match config.mode with
          | Thin_wpo { workers } -> Thinwpo.Pool.resolve_workers workers
          | Per_module | Whole_program -> 1
        in
        let per_unit unit_specs f units =
          let reserved = Passman.reserved_steps unit_specs in
          let forked =
            Array.mapi (fun i _ -> Passman.fork ctx ~offset:(i * reserved)) units
          in
          let out =
            Thinwpo.Pool.map ~workers
              (fun i -> f forked.(i) units.(i))
              (Array.init (Array.length units) Fun.id)
          in
          Passman.join ctx ~advance:(Array.length units * reserved)
            (Array.to_list forked);
          out
        in
        let run_mir fctx mspecs (m : Ir.modul) =
          Passman.run_passes fctx Passman.mir_stage mir_registry
            ~unit_name:m.Ir.m_name mspecs m
        in
        (* A cross-unit MIR pass (global-merge) splits the MIR spec: the
           passes before it run per unit, it runs once across every unit,
           and the rest continue per unit. *)
        let rec split_across local = function
          | [] -> ([], List.rev local)
          | sp :: rest -> (
            match Passman.find_pass template_mir sp.Passman.sp_name with
            | Some { Passman.p_across = Some _; _ } ->
              let phases, tail = split_across [] rest in
              ((List.rev local, sp) :: phases, tail)
            | _ -> split_across (sp :: local) rest)
        in
        let across_phases, finish_specs = split_across [] mir_specs in
        let units =
          List.fold_left
            (fun units (local, sp) ->
              let locals =
                Passman.span ctx "compile-modules-local" (fun () ->
                    per_unit local (fun fctx m -> run_mir fctx local m) units)
              in
              Passman.span ctx sp.Passman.sp_name (fun () ->
                  Passman.run_across ctx Passman.mir_stage mir_registry ~workers
                    sp
                    (List.map
                       (fun (m : Ir.modul) -> (m.Ir.m_name, m))
                       (Array.to_list locals))
                  |> List.map snd |> Array.of_list))
            (Array.of_list modules) across_phases
        in
        let units =
          Passman.span ctx "compile-modules" (fun () ->
              let compiled =
                per_unit (finish_specs @ machine_unit_specs)
                  (fun fctx m ->
                    let stats = ref [] in
                    let machine =
                      mark_no_outline config
                        (Codegen.compile_modul (run_mir fctx finish_specs m))
                    in
                    let machine =
                      Passman.run_passes fctx Passman.machine_stage
                        (machine_registry
                           ~on_stats:(fun s -> stats := !stats @ s)
                           m.Ir.m_name)
                        ~unit_name:m.Ir.m_name machine_unit_specs machine
                    in
                    (machine, !stats))
                  units
              in
              (* Merge the per-unit stats in module order. *)
              Array.iter
                (fun (_, stats) -> outline_stats := !outline_stats @ stats)
                compiled;
              Array.to_list (Array.map fst compiled))
        in
        let merged =
          Passman.span ctx "system-linker-merge" (fun () ->
              (* Two units defining one symbol (e.g. helpers a MIR pass
                 names without a module scope) is a link error, not a
                 crash. *)
              try Machine.Program.concat units
              with Invalid_argument e -> failwith ("system linker: " ^ e))
        in
        if machine_linked_specs <> [] then
          Passman.span ctx "linked-passes" (fun () ->
              Passman.run_passes ctx Passman.machine_stage
                (machine_registry "") machine_linked_specs merged)
        else merged
    in
    (match Machine.Program.validate program with
    | Ok () -> ()
    | Error e -> failwith ("pipeline produced invalid program: " ^ e));
    (* Profile-guided strategies close the loop here: use the recorded
       profile (--profile-in), or self-profile by tracing a [main] run of
       the just-built program. *)
    let layout_profile () =
      match config.layout_profile with
      | Some p -> p
      | None ->
        Passman.span ctx "pgo-collect" (fun () -> self_profile program)
    in
    let program, function_order =
      match layout with
      | `Append | `Caller_affinity -> (program, None)
      | (`Order_file | `C3 | `Balanced | `Bp_compress _) as strategy ->
        let profile = layout_profile () in
        ( program,
          Some
            (Passman.span ctx "pgo-layout" (fun () ->
                 Pgo.Order.compute strategy profile program)) )
      | `Stitch ->
        (* Block-granularity placement transforms the program itself:
           cold blocks split to the [__text_cold] region, fallthroughs
           materialized where the split separates them, then chains
           ordered along the hottest interprocedural edges. *)
        let profile = layout_profile () in
        let split =
          Passman.span ctx "stitch-split" (fun () ->
              Blocklayout.split_program ~profile program)
        in
        (match Machine.Program.validate split with
        | Ok () -> ()
        | Error e -> failwith ("stitch produced invalid program: " ^ e));
        let order =
          Passman.span ctx "stitch-order" (fun () ->
              Blocklayout.stitch_order ~profile split)
        in
        (split, Some order)
    in
    let layout =
      Passman.span ctx "system-linker" (fun () ->
          Linker.link ?order:function_order program)
    in
    Ok
      {
        program;
        layout;
        binary_size = Linker.binary_size layout;
        code_size = layout.Linker.text_size;
        function_order;
        timing_tree = Passman.timing_tree ctx;
        pass_steps = Passman.steps ctx;
        outline_stats = !outline_stats;
      }
  with Failure e -> Error e

let build ?dump ?(config = default_config) modules =
  run_build ?dump ~config (fun _ -> modules)

let build_sources ?dump ?(config = default_config) sources =
  run_build ?dump ~config (fun ctx ->
      Passman.span ctx "front-end" (fun () ->
          match Swiftlet.Compile.compile_program sources with
          | Ok modules -> modules
          | Error e -> failwith e))

(* --- the pre-refactor sequencing (transitional reference) ------------------ *)

(* The hardcoded pipeline exactly as it was before the pass-manager
   refactor, kept so the fuzz lattice can assert the refactor is
   observationally exact: the default config must produce byte-identical
   programs through both paths.  Delete once the differential has soaked. *)

(* The pass facts the reference sequencing obeys, read off the spec. *)
let reference_find config name =
  List.find_opt (fun sp -> sp.Passman.sp_name = name) config.passes

let reference_opt_module config (m : Ir.modul) =
  let has name = reference_find config name <> None in
  let m = if has "dce" then fst (Dce.run m) else m in
  let m =
    match reference_find config "sil-outline" with
    | Some sp ->
      let min_occurrences = Passman.int_param sp "min" ~default:8 in
      fst (Swiftlet.Sil_outline.run ~min_occurrences m)
    | None -> m
  in
  let keep (f : Ir.func) = List.mem f.Ir.name config.entry_points in
  let m =
    if has "merge-functions" then fst (Merge_functions.run ~keep m) else m
  in
  let m = if has "fmsa" then fst (Fmsa.run ~keep m) else m in
  m

let reference_outline_options ~scope =
  { Outcore.Outliner.default_options with scope_name = scope }

let build_reference ?(config = default_config) modules =
  let outline_stats = ref [] in
  try
    let rounds = rounds_of_specs config.passes in
    let layout =
      match layout_of_specs config.passes with Ok l -> l | Error e -> failwith e
    in
    let program =
      match config.mode with
      | Thin_wpo _ ->
        failwith "build_reference: thin-WPO postdates the pass-manager refactor"
      | Whole_program ->
        let merged =
          match
            Link.link ~flag_semantics:config.flag_semantics
              ~data_order:config.data_order ~name:"whole" modules
          with
          | Ok m -> m
          | Error e -> failwith (Link.error_to_string e)
        in
        let optimized = reference_opt_module config merged in
        let machine = mark_no_outline config (Codegen.compile_modul optimized) in
        if rounds > 0 then begin
          let machine =
            if reference_find config "canonicalize" <> None then
              fst (Outcore.Canonicalize.run machine)
            else machine
          in
          let p, stats =
            Outcore.Repeat.run
              ~options:(reference_outline_options ~scope:"")
              ~engine:config.outline_engine ~rounds machine
          in
          outline_stats := stats;
          if layout = `Caller_affinity then Outcore.Layout.optimize p else p
        end
        else machine
      | Per_module -> (
        let units =
          List.map
            (fun (m : Ir.modul) ->
              let optimized = reference_opt_module config m in
              let machine =
                mark_no_outline config (Codegen.compile_modul optimized)
              in
              if rounds > 0 then begin
                let p, stats =
                  Outcore.Repeat.run
                    ~options:(reference_outline_options ~scope:m.Ir.m_name)
                    ~engine:config.outline_engine ~rounds machine
                in
                outline_stats := !outline_stats @ stats;
                p
              end
              else machine)
            modules
        in
        let merged = Machine.Program.concat units in
        if layout = `Caller_affinity && rounds > 0 then
          Outcore.Layout.optimize merged
        else merged)
    in
    (match Machine.Program.validate program with
    | Ok () -> ()
    | Error e -> failwith ("pipeline produced invalid program: " ^ e));
    let function_order =
      match layout with
      | `Append | `Caller_affinity -> None
      | `Stitch ->
        failwith "build_reference: stitch postdates the pass-manager refactor"
      | (`Order_file | `C3 | `Balanced | `Bp_compress _) as strategy ->
        let profile =
          match config.layout_profile with
          | Some p -> p
          | None -> self_profile program
        in
        Some (Pgo.Order.compute strategy profile program)
    in
    let layout = Linker.link ?order:function_order program in
    Ok
      {
        program;
        layout;
        binary_size = Linker.binary_size layout;
        code_size = layout.Linker.text_size;
        function_order;
        timing_tree = [];
        pass_steps = [];
        outline_stats = !outline_stats;
      }
  with Failure e -> Error e
