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

let layout_strategy_name = function
  | `Append -> "append"
  | `Caller_affinity -> "caller-affinity"
  | `Order_file -> "order-file"
  | `C3 -> "c3"
  | `Balanced -> "balanced"
  | `Bp_compress w -> Printf.sprintf "bp-compress(w=%g)" w
  | `Stitch -> "stitch"

(* The one place the valid-strategy list is written down: the CLI and the
   spec parser both route their errors through here. *)
let layout_strategy_list =
  "append, caller-affinity, order-file, c3, balanced, bp-compress[(w=0..1)] \
   or stitch"

let layout_strategy_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let err () =
    Error (Printf.sprintf "unknown layout %S (want %s)" s layout_strategy_list)
  in
  match s with
  | "append" -> Ok `Append
  | "caller-affinity" -> Ok `Caller_affinity
  | "order-file" -> Ok `Order_file
  | "c3" -> Ok `C3
  | "balanced" -> Ok `Balanced
  | "bp-compress" -> Ok (`Bp_compress Pgo.Order.default_w)
  | "stitch" -> Ok `Stitch
  | _ ->
    (* bp-compress(w=0.3) — also accepts the bare bp-compress(0.3). *)
    let prefix = "bp-compress(" in
    let np = String.length prefix and n = String.length s in
    if n > np + 1 && String.sub s 0 np = prefix && s.[n - 1] = ')' then begin
      let inner = String.sub s np (n - np - 1) in
      let num =
        match String.index_opt inner '=' with
        | Some i when String.trim (String.sub inner 0 i) = "w" ->
          Some (String.sub inner (i + 1) (String.length inner - i - 1))
        | Some _ -> None
        | None -> Some inner
      in
      match Option.bind num (fun v -> float_of_string_opt (String.trim v)) with
      | Some w when w >= 0.0 && w <= 1.0 -> Ok (`Bp_compress w)
      | Some _ | None -> err ()
    end
    else err ()

type config = {
  mode : mode;
  outline_rounds : int;
  flag_semantics : Link.flag_semantics;
  data_order : Link.data_order;
  entry_points : string list;
  no_outline_modules : string list;
  outlined_layout : layout_strategy;
  layout_profile : Pgo.Profile.t option;
  outline_engine : [ `Incremental | `Scratch ];
  passes : Passman.spec list option;
  verify_each : bool;
  print_after : Passman.print_after;
  bisect_limit : int option;
  warm_outline : (Outcore.Outliner.engine * (string -> bool)) option;
}

let default_config =
  {
    mode = Whole_program;
    outline_rounds = 5;
    flag_semantics = Link.Attributes;
    data_order = Link.Module_preserving;
    entry_points = [ "main" ];
    no_outline_modules = [ "system" ];
    outlined_layout = `Append;
    layout_profile = None;
    outline_engine = `Incremental;
    passes = None;
    verify_each = false;
    print_after = `Never;
    bisect_limit = None;
    warm_outline = None;
  }

let default_ios_config = { default_config with mode = Per_module }

type result = {
  program : Machine.Program.t;
  layout : Linker.layout;
  binary_size : int;
  code_size : int;
  function_order : string list option;
  timings : (string * float) list;
  timing_tree : Passman.timing list;
  pass_steps : Passman.step list;
  outline_stats : Outcore.Outliner.round_stats list;
  outline_profile : Outcore.Profile.t;
  thin_profile : Thinwpo.Engine.Report.t;
}

(* --- pipeline specs -------------------------------------------------------- *)

let spec name params = { Passman.sp_name = name; sp_params = params }

(* What [sizeopt build] expresses without --passes: dce, then — with
   outlining on — the mode's outliner and the layout strategy's marker
   pass (layout only ever ran together with outlining). *)
let lowered_spec (c : config) =
  let rounds = ("rounds", string_of_int c.outline_rounds) in
  spec "dce" []
  ::
  (if c.outline_rounds <= 0 then []
   else
     (match c.mode with
     | Thin_wpo { workers } ->
       spec "thin-outline" [ ("workers", string_of_int workers); rounds ]
     | Per_module | Whole_program -> spec "outline" [ rounds ])
     ::
     (match c.outlined_layout with
     | `Append -> []
     | `Caller_affinity -> [ spec "caller-affinity-layout" [] ]
     | `Stitch -> [ spec "stitch" [] ]
     | `Bp_compress w ->
       [
         spec "pgo-layout"
           [ ("strategy", "bp-compress"); ("w", Printf.sprintf "%g" w) ];
       ]
     | `Order_file -> [ spec "pgo-layout" [ ("strategy", "order-file") ] ]
     | `C3 -> [ spec "pgo-layout" [ ("strategy", "c3") ] ]
     | `Balanced -> [ spec "pgo-layout" [ ("strategy", "balanced") ] ]))

let spec_of_config c =
  match c.passes with
  | Some specs -> specs
  | None -> lowered_spec c

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
  match Passman.parse s with
  | Error e -> Error ("bad pass pipeline: " ^ e)
  | Ok specs -> (
    match Passman.validate_specs ~known:known_pass specs with
    | Error e -> Error ("bad pass pipeline: " ^ e)
    | Ok () -> (
      try
        let find n =
          List.find_opt (fun sp -> sp.Passman.sp_name = n) specs
        in
        let outline_rounds =
          match (find "outline", find "thin-outline") with
          | Some sp, _ | None, Some sp -> Passman.int_param sp "rounds" ~default:5
          | None, None -> 0
        in
        let pgo_layout sp : layout_strategy =
          let param k = List.assoc_opt k sp.Passman.sp_params in
          let w =
            match param "w" with
            | None -> Pgo.Order.default_w
            | Some v -> (
              match float_of_string_opt v with
              | Some w when w >= 0.0 && w <= 1.0 -> w
              | Some _ | None ->
                failwith (Printf.sprintf "pgo-layout: w=%s is not in 0..1" v))
          in
          match
            layout_strategy_of_string
              (Option.value ~default:"bp-compress" (param "strategy"))
          with
          | Ok ((`Order_file | `C3 | `Balanced) as l) -> l
          | Ok (`Bp_compress _) -> `Bp_compress w
          | Ok ((`Append | `Caller_affinity | `Stitch) as l) ->
            failwith
              (Printf.sprintf "pgo-layout: %s is not a profile-guided strategy"
                 (layout_strategy_name l))
          | Error e -> failwith ("pgo-layout: " ^ e)
        in
        (* [validate_specs] admits at most one layout marker. *)
        let marker =
          List.find_map
            (fun sp ->
              match sp.Passman.sp_name with
              | "caller-affinity-layout" -> Some `Caller_affinity
              | "stitch" -> Some `Stitch
              | "pgo-layout" -> Some (pgo_layout sp)
              | _ -> None)
            specs
        in
        Ok
          {
            base with
            outline_rounds;
            outlined_layout =
              (match (marker, base.outlined_layout) with
              | Some l, _ -> l
              | None, (`Caller_affinity | `Stitch) -> `Append
              | None, l -> l);
            passes = Some specs;
          }
      with Failure e -> Error ("bad pass pipeline: " ^ e)))

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

(* --- the timing tree ------------------------------------------------------- *)

let delta_note (st : Passman.step) =
  if not st.Passman.st_applied then "skipped (opt-bisect)"
  else if st.Passman.st_before = st.Passman.st_after then
    Printf.sprintf "%d" st.Passman.st_after
  else Printf.sprintf "%d -> %d" st.Passman.st_before st.Passman.st_after

(* One tree: coarse phases at the root, the pass steps of each phase as
   children, outline rounds as children of the outline pass, and the
   outliner's per-phase split (from Outcore.Profile) — or, for thin-outline
   rounds, the per-shard timing subtree plus the global decision round
   (from the thin report) — as grandchildren. *)
let build_timing_tree phases steps profile thin_report =
  let steps = Array.of_list steps in
  let prof = ref (Outcore.Profile.rounds profile) in
  let next_prof () =
    match !prof with
    | [] -> None
    | r :: rest ->
      prof := rest;
      Some r
  in
  let tprof = ref (Thinwpo.Engine.Report.rounds thin_report) in
  let next_tprof () =
    match !tprof with
    | [] -> None
    | r :: rest ->
      tprof := rest;
      Some r
  in
  let step_name (st : Passman.step) =
    if st.Passman.st_unit = "" then st.Passman.st_pass
    else st.Passman.st_unit ^ "/" ^ st.Passman.st_pass
  in
  let children lo hi =
    let out = ref [] in
    let i = ref lo in
    while !i < hi do
      let st = steps.(!i) in
      if st.Passman.st_detail = "" then begin
        out :=
          Passman.leaf ~note:(delta_note st) (step_name st)
            st.Passman.st_seconds
          :: !out;
        incr i
      end
      else begin
        (* a run of sub-steps of one pass instance (e.g. outline rounds) *)
        let kids = ref [] in
        let j = ref !i in
        while
          !j < hi
          && steps.(!j).Passman.st_pass = st.Passman.st_pass
          && steps.(!j).Passman.st_unit = st.Passman.st_unit
          && steps.(!j).Passman.st_detail <> ""
        do
          let s = steps.(!j) in
          let grand =
            if s.Passman.st_pass = "outline" && s.Passman.st_applied then
              match next_prof () with
              | Some rp ->
                [
                  Passman.leaf "seq-build" rp.Outcore.Profile.rp_seq_build;
                  Passman.leaf "tree-build" rp.Outcore.Profile.rp_tree_build;
                  Passman.leaf "enumerate" rp.Outcore.Profile.rp_enumerate;
                  Passman.leaf "score" rp.Outcore.Profile.rp_score;
                  Passman.leaf "rewrite" rp.Outcore.Profile.rp_rewrite;
                ]
              | None -> []
            else if s.Passman.st_pass = "thin-outline" && s.Passman.st_applied
            then
              match next_tprof () with
              | Some tr ->
                List.map
                  (fun (sh : Thinwpo.Engine.Report.shard) ->
                    Passman.leaf
                      ~note:(Printf.sprintf "%d funcs" sh.rs_funcs)
                      ("shard " ^ sh.rs_module)
                      (sh.rs_discover +. sh.rs_rewrite))
                  tr.Thinwpo.Engine.Report.rr_shards
                @ [
                    Passman.leaf
                      ~note:
                        (Printf.sprintf "%d selected"
                           tr.Thinwpo.Engine.Report.rr_selected)
                      "global-decision" tr.Thinwpo.Engine.Report.rr_decide;
                  ]
              | None -> []
            else []
          in
          kids :=
            Passman.node ~note:(delta_note s) ~seconds:s.Passman.st_seconds
              s.Passman.st_detail grand
            :: !kids;
          incr j
        done;
        out := Passman.node (step_name st) (List.rev !kids) :: !out;
        i := !j
      end
    done;
    List.rev !out
  in
  List.map
    (fun (name, dt, lo, hi) -> Passman.node ~seconds:dt name (children lo hi))
    phases

(* --- the pass-manager pipeline --------------------------------------------- *)

let build ?dump ?(config = default_config) modules =
  let timings = ref [] in
  let phases = ref [] in
  let outline_stats = ref [] in
  let outline_profile = Outcore.Profile.create () in
  let thin_report = Thinwpo.Engine.Report.create () in
  let ctx =
    Passman.create_ctx ~verify_each:config.verify_each
      ~print_after:config.print_after ?bisect_limit:config.bisect_limit ?dump
      ()
  in
  let timed name f =
    let steps_before = List.length (Passman.steps ctx) in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    timings := (name, dt) :: !timings;
    phases := (name, dt, steps_before, List.length (Passman.steps ctx)) :: !phases;
    r
  in
  try
    let specs = spec_of_config config in
    (match Passman.validate_specs ~known:known_pass specs with
    | Ok () -> ()
    | Error e -> failwith e);
    let keep (f : Ir.func) = List.mem f.Ir.name config.entry_points in
    let mir_registry = Passman.mir_passes ~keep in
    let thin_workers =
      match config.mode with Thin_wpo { workers } -> workers | _ -> 1
    in
    let machine_registry ?(profile = outline_profile)
        ?(on_stats = fun s -> outline_stats := !outline_stats @ s) scope =
      Passman.machine_passes
        {
          Passman.me_engine = config.outline_engine;
          me_scope = scope;
          me_profile = profile;
          me_on_stats = on_stats;
          me_thin_workers = thin_workers;
          me_thin_report = thin_report;
          (* The warm engine is whole-program state: per-module scopes get
             their own dirty-set reuse within a run but never share caches
             across requests (module-scoped symbol arrays would leak between
             apps). *)
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
          timed "llvm-link" (fun () ->
              match
                Link.link ~flag_semantics:config.flag_semantics
                  ~data_order:config.data_order ~name:"whole" modules
              with
              | Ok m -> m
              | Error e -> failwith (Link.error_to_string e))
        in
        let optimized =
          timed "opt" (fun () ->
              Passman.run_passes ctx Passman.mir_stage mir_registry mir_specs
                merged)
        in
        let machine =
          timed "llc" (fun () ->
              mark_no_outline config (Codegen.compile_modul optimized))
        in
        if machine_specs <> [] then
          timed "machine-outliner" (fun () ->
              Passman.run_passes ctx Passman.machine_stage
                (machine_registry "") machine_specs machine)
        else machine
      | Per_module | Thin_wpo _ ->
        (* The default iOS pipeline: every module is optimized, lowered and
           machine-outlined on its own, then the system linker merges the
           units and the linked passes run over the result.  Thin-WPO is
           the same shape on a domain pool, with thin-outline as its
           linked pass.  Each unit runs in a forked pass context with a
           reserved block of bisect steps and private outline
           profile/stats sinks, so step numbering, dump order and stats
           order are functions of the module list alone, never of domain
           scheduling — per-module is simply the one-worker pool. *)
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
                timed "compile-modules-local" (fun () ->
                    per_unit local (fun fctx m -> run_mir fctx local m) units)
              in
              timed sp.Passman.sp_name (fun () ->
                  Passman.run_across ctx Passman.mir_stage mir_registry ~workers
                    sp
                    (List.map
                       (fun (m : Ir.modul) -> (m.Ir.m_name, m))
                       (Array.to_list locals))
                  |> List.map snd |> Array.of_list))
            (Array.of_list modules) across_phases
        in
        let units =
          timed "compile-modules" (fun () ->
              let compiled =
                per_unit (finish_specs @ machine_unit_specs)
                  (fun fctx m ->
                    let profile = Outcore.Profile.create () in
                    let stats = ref [] in
                    let machine =
                      mark_no_outline config
                        (Codegen.compile_modul (run_mir fctx finish_specs m))
                    in
                    let machine =
                      Passman.run_passes fctx Passman.machine_stage
                        (machine_registry ~profile
                           ~on_stats:(fun s -> stats := !stats @ s)
                           m.Ir.m_name)
                        ~unit_name:m.Ir.m_name machine_unit_specs machine
                    in
                    (machine, profile, !stats))
                  units
              in
              (* Merge the per-unit sinks in module order. *)
              Array.iter
                (fun (_, profile, stats) ->
                  Outcore.Profile.append ~into:outline_profile profile;
                  outline_stats := !outline_stats @ stats)
                compiled;
              Array.to_list (Array.map (fun (p, _, _) -> p) compiled))
        in
        timed "system-linker-merge" (fun () ->
            (* Two units defining one symbol (e.g. helpers a MIR pass
               names without a module scope) is a link error, not a
               crash. *)
            let merged =
              try Machine.Program.concat units
              with Invalid_argument e -> failwith ("system linker: " ^ e)
            in
            if machine_linked_specs <> [] then
              Passman.run_passes ctx Passman.machine_stage
                (machine_registry "") machine_linked_specs merged
            else merged)
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
        timed "pgo-collect" (fun () ->
            Pgo.Collect.collect
              ~config:
                {
                  Pgo.Collect.default_config with
                  Perfsim.Interp.max_steps = 20_000_000;
                }
              ~workload:"self" ~entries:[ "main" ] program)
    in
    let program, function_order =
      match config.outlined_layout with
      | `Append | `Caller_affinity -> (program, None)
      | (`Order_file | `C3 | `Balanced | `Bp_compress _) as strategy ->
        let profile = layout_profile () in
        ( program,
          Some
            (timed "pgo-layout" (fun () ->
                 Pgo.Order.compute strategy profile program)) )
      | `Stitch ->
        (* Block-granularity placement transforms the program itself:
           cold blocks split to the [__text_cold] region, fallthroughs
           materialized where the split separates them, then chains
           ordered along the hottest interprocedural edges. *)
        let profile = layout_profile () in
        let split =
          timed "stitch-split" (fun () ->
              Blocklayout.split_program ~profile program)
        in
        (match Machine.Program.validate split with
        | Ok () -> ()
        | Error e -> failwith ("stitch produced invalid program: " ^ e));
        let order =
          timed "stitch-order" (fun () ->
              Blocklayout.stitch_order ~profile split)
        in
        (split, Some order)
    in
    let layout =
      timed "system-linker" (fun () ->
          Linker.link ?order:function_order program)
    in
    Ok
      {
        program;
        layout;
        binary_size = Linker.binary_size layout;
        code_size = layout.Linker.text_size;
        function_order;
        timings = List.rev !timings;
        timing_tree =
          build_timing_tree (List.rev !phases) (Passman.steps ctx)
            outline_profile thin_report;
        pass_steps = Passman.steps ctx;
        outline_stats = !outline_stats;
        outline_profile;
        thin_profile = thin_report;
      }
  with Failure e -> Error e

let build_sources ?dump ?config sources =
  match Swiftlet.Compile.compile_program sources with
  | Error e -> Error e
  | Ok modules -> build ?dump ?config modules

(* --- the pre-refactor sequencing (transitional reference) ------------------ *)

(* The hardcoded pipeline exactly as it was before the pass-manager
   refactor, kept so the fuzz lattice can assert the refactor is
   observationally exact: the default config must produce byte-identical
   programs through both paths.  Delete once the differential has soaked. *)

let reference_timed timings name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  timings := (name, Unix.gettimeofday () -. t0) :: !timings;
  r

(* The pass facts the reference sequencing obeys, read off the spec. *)
let reference_find config name =
  List.find_opt (fun sp -> sp.Passman.sp_name = name) (spec_of_config config)

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
  let timings = ref [] in
  let outline_stats = ref [] in
  let outline_profile = Outcore.Profile.create () in
  try
    let program =
      match config.mode with
      | Thin_wpo _ ->
        failwith "build_reference: thin-WPO postdates the pass-manager refactor"
      | Whole_program ->
        let merged =
          reference_timed timings "llvm-link" (fun () ->
              match
                Link.link ~flag_semantics:config.flag_semantics
                  ~data_order:config.data_order ~name:"whole" modules
              with
              | Ok m -> m
              | Error e -> failwith (Link.error_to_string e))
        in
        let optimized =
          reference_timed timings "opt" (fun () ->
              reference_opt_module config merged)
        in
        let machine =
          reference_timed timings "llc" (fun () ->
              mark_no_outline config (Codegen.compile_modul optimized))
        in
        if config.outline_rounds > 0 then
          reference_timed timings "machine-outliner" (fun () ->
              let machine =
                if reference_find config "canonicalize" <> None then
                  fst (Outcore.Canonicalize.run machine)
                else machine
              in
              let p, stats =
                Outcore.Repeat.run
                  ~options:(reference_outline_options ~scope:"")
                  ~profile:outline_profile ~engine:config.outline_engine
                  ~rounds:config.outline_rounds machine
              in
              outline_stats := stats;
              match config.outlined_layout with
              | `Caller_affinity -> Outcore.Layout.optimize p
              | `Append | `Order_file | `C3 | `Balanced | `Bp_compress _
              | `Stitch ->
                p)
        else machine
      | Per_module ->
        let units =
          reference_timed timings "compile-modules" (fun () ->
              List.map
                (fun (m : Ir.modul) ->
                  let optimized = reference_opt_module config m in
                  let machine =
                    mark_no_outline config (Codegen.compile_modul optimized)
                  in
                  if config.outline_rounds > 0 then begin
                    let p, stats =
                      Outcore.Repeat.run
                        ~options:(reference_outline_options ~scope:m.Ir.m_name)
                        ~profile:outline_profile ~engine:config.outline_engine
                        ~rounds:config.outline_rounds machine
                    in
                    outline_stats := !outline_stats @ stats;
                    p
                  end
                  else machine)
                modules)
        in
        reference_timed timings "system-linker-merge" (fun () ->
            let merged = Machine.Program.concat units in
            match config.outlined_layout with
            | `Caller_affinity when config.outline_rounds > 0 ->
              Outcore.Layout.optimize merged
            | `Caller_affinity | `Append | `Order_file | `C3 | `Balanced
            | `Bp_compress _ | `Stitch ->
              merged)
    in
    (match Machine.Program.validate program with
    | Ok () -> ()
    | Error e -> failwith ("pipeline produced invalid program: " ^ e));
    let function_order =
      match config.outlined_layout with
      | `Append | `Caller_affinity -> None
      | `Stitch ->
        failwith "build_reference: stitch postdates the pass-manager refactor"
      | (`Order_file | `C3 | `Balanced | `Bp_compress _) as strategy ->
        let profile =
          match config.layout_profile with
          | Some p -> p
          | None ->
            reference_timed timings "pgo-collect" (fun () ->
                Pgo.Collect.collect
                  ~config:
                    {
                      Pgo.Collect.default_config with
                      Perfsim.Interp.max_steps = 20_000_000;
                    }
                  ~workload:"self" ~entries:[ "main" ] program)
        in
        Some
          (reference_timed timings "pgo-layout" (fun () ->
               Pgo.Order.compute strategy profile program))
    in
    let layout =
      reference_timed timings "system-linker" (fun () ->
          Linker.link ?order:function_order program)
    in
    Ok
      {
        program;
        layout;
        binary_size = Linker.binary_size layout;
        code_size = layout.Linker.text_size;
        function_order;
        timings = List.rev !timings;
        timing_tree = [];
        pass_steps = [];
        outline_stats = !outline_stats;
        outline_profile;
        thin_profile = Thinwpo.Engine.Report.create ();
      }
  with Failure e -> Error e
