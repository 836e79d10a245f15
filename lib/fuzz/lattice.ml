type failure = {
  point : string;
  reason : string;
}

type verdict =
  | Pass of int
  | Skip of string
  | Fail of failure

(* --- lattice points -------------------------------------------------------- *)

(* Each optional-pass combination is an edit of the point's lowered spec
   ([dce], then the outliner and layout marker when outlining is on): the
   MIR passes go after [dce], [canonicalize] right before the outliner. *)
let pass_combos =
  let sp name params = { Passman.sp_name = name; sp_params = params } in
  let sil = sp "sil-outline" [ ("min", "8") ]
  and merge = sp "merge-functions" []
  and fmsa = sp "fmsa" []
  and gmerge = sp "global-merge" [ ("min", "4"); ("max-holes", "6") ] in
  let edit ?(dce = true) ?(mir = []) ?(canon = false) () = function
    | [] -> []
    | dce_sp :: machine ->
      (if dce then [ dce_sp ] else [])
      @ mir
      @ if canon && machine <> [] then sp "canonicalize" [] :: machine
        else machine
  in
  [
    ("plain", edit ());
    ("nodce", edit ~dce:false ());
    ("sil", edit ~mir:[ sil ] ());
    ("merge", edit ~mir:[ merge ] ());
    ("fmsa", edit ~mir:[ fmsa ] ());
    ("gmerge", edit ~mir:[ gmerge ] ());
    ("canon", edit ~canon:true ());
    ("all", edit ~mir:[ sil; merge; fmsa; gmerge ] ~canon:true ());
  ]

let with_passes f (c : Pipeline.config) =
  { c with Pipeline.passes = Some (f (Pipeline.spec_of_config c)) }

(* The lattice's normalized base: attribute flag semantics, module-order
   data, outlined functions appended, no recorded profile.  The reference
   oracle links under the same semantics. *)
let normalized (c : Pipeline.config) =
  {
    c with
    Pipeline.flag_semantics = Link.Attributes;
    data_order = Link.Module_preserving;
    outlined_layout = `Append;
    layout_profile = None;
  }

let points base =
  let base = normalized base in
  let modes = [ ("pm", Pipeline.Per_module); ("wp", Pipeline.Whole_program) ] in
  let rounds = [ 0; 1; 3 ] in
  let main =
    List.concat_map
      (fun (mname, mode) ->
        List.concat_map
          (fun r ->
            List.map
              (fun (pname, f) ->
                ( Printf.sprintf "%s/r%d/%s" mname r pname,
                  with_passes f { base with Pipeline.mode; outline_rounds = r }
                ))
              pass_combos)
          rounds)
      modes
  in
  let wp3 = { base with Pipeline.mode = Whole_program; outline_rounds = 3 } in
  let thin_axes =
    (* Thin-WPO config points: the sharded summary-exchange engine must
       agree with the reference oracle at every worker count.  The
       byte-identity across these points and the size bound against the
       full whole-program build are checked by [thin_differential]. *)
    List.map
      (fun w ->
        ( Printf.sprintf "thin/r3/w%d" w,
          { base with Pipeline.mode = Thin_wpo { workers = w }; outline_rounds = 3 }
        ))
      [ 1; 2; 4 ]
  in
  let link_axes =
    [
      ("wp/r3/legacy-flags", { wp3 with Pipeline.flag_semantics = Link.Legacy });
      ( "wp/r3/interleaved",
        { wp3 with Pipeline.data_order = Link.Interleaved } );
      ( "wp/r3/legacy-interleaved",
        {
          wp3 with
          Pipeline.flag_semantics = Link.Legacy;
          data_order = Link.Interleaved;
        } );
      ( "wp/r3/caller-affinity",
        { wp3 with Pipeline.outlined_layout = `Caller_affinity } );
      (* Profile-guided layouts self-profile (no recorded profile in the
         lattice): the pipeline traces a [main] run and lays functions out
         from it.  Semantics must survive every placement. *)
      ( "wp/r3/layout-order-file",
        { wp3 with Pipeline.outlined_layout = `Order_file } );
      ("wp/r3/layout-c3", { wp3 with Pipeline.outlined_layout = `C3 });
      ( "wp/r3/layout-balanced",
        { wp3 with Pipeline.outlined_layout = `Balanced } );
      ( "wp/r3/layout-bp-compress",
        { wp3 with Pipeline.outlined_layout = `Bp_compress 0.5 } );
      (* Block-granularity placement also rewrites the program (hot/cold
         split, branch elision/materialization); the oracle run below
         executes the split program under the stitched order. *)
      ("wp/r3/layout-stitch", { wp3 with Pipeline.outlined_layout = `Stitch });
      ( "wp/r3/scratch-engine",
        { wp3 with Pipeline.outline_engine = `Scratch } );
    ]
  in
  main @ link_axes @ thin_axes

(* --- flags ------------------------------------------------------------------ *)

let attach_flags style modules =
  List.mapi
    (fun i (m : Ir.modul) ->
      let v =
        match style with
        | Swiftgen.Uniform_attrs -> Ir.Attrs [ ("gc_mode", 0) ]
        | Swiftgen.Uniform_packed ->
          Ir.Packed (Link.pack_objc_gc ~gc_mode:0 ~compiler_id:7 ~version:502)
        | Swiftgen.Mixed_compilers ->
          (* Same gc mode, different compiler identity/version bits: the
             §VI-2 spurious conflict under Legacy semantics. *)
          Ir.Packed
            (Link.pack_objc_gc ~gc_mode:0 ~compiler_id:(1 + i)
               ~version:(500 + i))
      in
      { m with Ir.flags = [ ("objc_gc", v) ] })
    modules

(* --- running one side -------------------------------------------------------- *)

let render_output l = "[" ^ String.concat "; " (List.map string_of_int l) ^ "]"

let render_run exit_value output =
  Printf.sprintf "exit=%d output=%s" exit_value (render_output output)

let interp_config =
  {
    Perfsim.Interp.default_config with
    model_perf = false;
    max_steps = 20_000_000;
  }

(* Tighter budget for the machine and thin-only checks: generated machine
   programs and fuel-10 thin reproducers finish in thousands of steps, and
   fault-corrupted variants routinely loop to whatever cap they get. *)
let machine_interp_config =
  { Perfsim.Interp.default_config with model_perf = false; max_steps = 2_000_000 }

(* A Legacy-semantics point over Mixed_compilers modules must die in
   llvm-link with the spurious flag conflict. *)
let expect_conflict (cfg : Pipeline.config) style n_modules =
  cfg.Pipeline.mode = Pipeline.Whole_program
  && cfg.Pipeline.flag_semantics = Link.Legacy
  && style = Swiftgen.Mixed_compilers
  && n_modules >= 2

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The spec round trip: every point's pipeline spec must print and parse
   back to itself, so each point is reproducible as [sizeopt build
   --passes]. *)
let spec_round_trip (label, cfg) =
  let specs = Pipeline.spec_of_config cfg in
  let fail reason = Error { point = label ^ "/spec"; reason } in
  if specs = [] then Ok ()
  else
    match Passman.parse (Passman.print specs) with
    | Error e -> fail ("pipeline-spec round-trip failed to parse: " ^ e)
    | Ok specs' when specs' <> specs ->
      fail
        (Printf.sprintf "pipeline-spec round-trip not identity: %S vs %S"
           (Passman.print specs) (Passman.print specs'))
    | Ok _ -> Ok ()

let run_point ?(interp = interp_config) modules (label, cfg) ~style ~ref_exit
    ~ref_output =
  match spec_round_trip (label, cfg) with
  | Error f -> Error f
  | Ok () -> (
    (* A stale cache or a corrupted decision can crash a pass outright: an
       exception is this point's failure, not the whole run's. *)
    match
      try Pipeline.build ~config:cfg modules
      with e -> Error ("raised " ^ Printexc.to_string e)
    with
    | Error msg ->
      if expect_conflict cfg style (List.length modules) then
        if contains_substring msg "module flag conflict" then Ok None
        else
          Error
            {
              point = label;
              reason =
                "expected a module flag conflict under Legacy semantics, got \
                 a different failure: " ^ msg;
            }
      else Error { point = label; reason = "pipeline failed: " ^ msg }
    | Ok res ->
      if expect_conflict cfg style (List.length modules) then
        Error
          {
            point = label;
            reason =
              "Legacy flag semantics should have reported a module flag \
               conflict for mixed-compiler modules, but the build succeeded";
          }
      else begin
      (* Execute under the placement the pipeline actually linked with:
         a broken profile-guided order would surface here as a bad jump
         or divergence. *)
      match
        Perfsim.Interp.run ~config:interp ?order:res.function_order
          ~entry:"main" res.program
      with
      | Error e ->
        Error
          {
            point = label;
            reason =
              "machine execution failed: " ^ Perfsim.Interp.error_to_string e
              ^ " (reference: " ^ render_run ref_exit ref_output ^ ")";
          }
      | Ok r ->
        if r.exit_value <> ref_exit || r.output <> ref_output then
          Error
            {
              point = label;
              reason =
                Printf.sprintf "oracle divergence: reference %s, %s got %s"
                  (render_run ref_exit ref_output)
                  label
                  (render_run r.exit_value r.output);
            }
        else Ok (Some res)
      end)

(* Strip the round count out of a label so results can be grouped into
   monotonicity chains: same mode, same passes, same link axes. *)
let chain_key label cfg =
  match String.index_opt label '/' with
  | Some _ ->
    let parts = String.split_on_char '/' label in
    let parts = List.filter (fun p -> String.length p < 2 || String.sub p 0 1 <> "r"
                                       || not (String.for_all (fun c -> c >= '0' && c <= '9')
                                                 (String.sub p 1 (String.length p - 1)))) parts in
    String.concat "/" parts
  | None -> ignore cfg; label

let check_monotone results =
  (* [results]: (label, rounds, binary_size) list in lattice order. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (label, cfg, rounds, size) ->
      let key = chain_key label cfg in
      let prev = try Hashtbl.find tbl key with Not_found -> [] in
      Hashtbl.replace tbl key ((label, rounds, size) :: prev))
    results;
  Hashtbl.fold
    (fun _key chain acc ->
      match acc with
      | Some _ -> acc
      | None ->
        let chain = List.sort (fun (_, a, _) (_, b, _) -> compare a b) chain in
        let rec scan = function
          | (la, ra, sa) :: ((lb, rb, sb) :: _ as rest) ->
            if rb > ra && sb > sa then
              Some
                {
                  point = lb;
                  reason =
                    Printf.sprintf
                      "image size not monotone in outline rounds: %s = %d \
                       bytes but %s = %d bytes"
                      la sa lb sb;
                }
            else scan rest
          | _ -> None
        in
        scan chain)
    tbl None

(* The compressed-size model's property check: the estimate must be a
   deterministic function of placement that is sensitive to permutation
   only through window locality.  Theorem-shaped, never tuned:

   - determinism: estimating twice gives identical results;
   - content-total invariance: with the window disabled the estimate is a
     function of content alone, so every permutation agrees byte-for-byte
     (and raw bytes never change under any order);
   - soundness: the windowed estimate never exceeds the pure-literal
     bound under any order;
   - sensitivity: if the program carries byte-identical function bodies
     (render-keyed, exactly like [Linker.duplicate_function_bodies]),
     placing the clones adjacent must strictly beat the literal bound —
     redundancy inside the window has to be worth something. *)
let compress_property (p : Machine.Program.t) =
  let fail reason = Some { point = "compress/property"; reason } in
  let names = List.map (fun (f : Machine.Mfunc.t) -> f.name) p.Machine.Program.funcs in
  let rev = List.rev names in
  let est = Linker.compress_estimate p in
  let est2 = Linker.compress_estimate p in
  let est_rev = Linker.compress_estimate ~order:rev p in
  let lit = Linker.compress_estimate ~window:0 p in
  let lit_rev = Linker.compress_estimate ~window:0 ~order:rev p in
  if est <> est2 then fail "compressed-size estimate is not deterministic"
  else if est.Linker.Compress.raw_bytes <> est_rev.Linker.Compress.raw_bytes
  then
    fail
      (Printf.sprintf
         "content-stream length changed under permutation: %d vs %d"
         est.Linker.Compress.raw_bytes est_rev.Linker.Compress.raw_bytes)
  else if lit <> lit_rev then
    fail
      (Printf.sprintf
         "window-0 estimate is not content-total-invariant: %d vs %d under \
          a reversed placement"
         lit.Linker.Compress.compressed_bytes
         lit_rev.Linker.Compress.compressed_bytes)
  else if
    est.Linker.Compress.compressed_bytes > lit.Linker.Compress.compressed_bytes
    || est_rev.Linker.Compress.compressed_bytes
       > lit_rev.Linker.Compress.compressed_bytes
  then
    fail
      "windowed estimate exceeded the pure-literal bound under some \
       placement"
  else begin
    (* Sensitivity, guarded: only meaningful when a clone family exists
       whose body both clears the minimum match length and fits the
       window (adjacent copies must be reachable back-references). *)
    let by_render = Hashtbl.create 64 in
    List.iter
      (fun (f : Machine.Mfunc.t) ->
        let key = Content.render f in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_render key) in
        Hashtbl.replace by_render key (f.name :: prev))
      p.Machine.Program.funcs;
    let has_clone_family =
      Hashtbl.fold
        (fun key fs acc ->
          acc
          || (List.length fs >= 2
             && String.length key >= Linker.Compress.min_match
             && String.length key <= Linker.Compress.window_default / 2))
        by_render false
    in
    if not has_clone_family then None
    else begin
      (* Clones adjacent: sort names by render key, ties on name. *)
      let keyed =
        List.map
          (fun (f : Machine.Mfunc.t) -> (Content.render f, f.name))
          p.Machine.Program.funcs
      in
      let sorted = List.sort compare keyed in
      let adjacent = List.map snd sorted in
      let est_adj = Linker.compress_estimate ~order:adjacent p in
      if
        est_adj.Linker.Compress.compressed_bytes
        >= lit.Linker.Compress.compressed_bytes
      then
        fail
          (Printf.sprintf
             "placing byte-identical bodies adjacent did not beat the \
              literal bound: %d vs %d"
             est_adj.Linker.Compress.compressed_bytes
             lit.Linker.Compress.compressed_bytes)
      else None
    end
  end

(* --- the Swiftlet check ------------------------------------------------------ *)

(* The transition differential: the pass-manager pipeline must be
   observationally exact, so default-config builds are compared
   byte-for-byte against the preserved pre-refactor sequencing
   (Pipeline.build_reference) in both modes. *)
let transition_differential modules =
  let one name cfg =
    match
      ( Pipeline.build ~config:cfg modules,
        Pipeline.build_reference ~config:cfg modules )
    with
    | Ok a, Ok b ->
      if
        Machine.Asm_printer.to_source a.Pipeline.program
        <> Machine.Asm_printer.to_source b.Pipeline.program
      then
        Some
          {
            point = name;
            reason =
              "pass manager diverged from the pre-refactor sequencing \
               (default config must be byte-identical)";
          }
      else None
    | Error ea, Error eb ->
      if ea = eb then None
      else
        Some
          {
            point = name;
            reason =
              Printf.sprintf
                "pass manager failed differently from the pre-refactor \
                 sequencing: %S vs %S"
                ea eb;
          }
    | Ok _, Error e ->
      Some
        {
          point = name;
          reason =
            "pre-refactor sequencing failed where the pass manager \
             succeeded: " ^ e;
        }
    | Error e, Ok _ ->
      Some
        {
          point = name;
          reason =
            "pass manager failed where the pre-refactor sequencing \
             succeeded: " ^ e;
        }
  in
  match one "transition/wp-default" Pipeline.default_config with
  | Some f -> Some f
  | None -> one "transition/pm-default" Pipeline.default_ios_config

(* The refactor-exactness differential: the thin strategy instances over
   the lib/merge framework must reproduce the frozen pre-refactor passes
   ([Merge_reference]) byte-for-byte — per module and on the linked whole
   module, with the entry point kept, exactly as the pipeline runs them. *)
let merge_refactor_differential modules whole =
  let keep (f : Ir.func) = f.Ir.name = "main" in
  let pp m = Format.asprintf "%a" Ir.pp_modul m in
  let diff name (m : Ir.modul) =
    if
      pp (fst (Merge_functions.run ~keep m))
      <> pp (fst (Merge_reference.Merge_functions.run ~keep m))
    then
      Some
        {
          point = "refactor/merge-functions";
          reason =
            "lib/merge Merge_functions diverged from the frozen pre-refactor \
             pass on module " ^ name;
        }
    else if
      pp (fst (Fmsa.run ~keep m))
      <> pp (fst (Merge_reference.Fmsa.run ~keep m))
    then
      Some
        {
          point = "refactor/fmsa";
          reason =
            "lib/merge Fmsa diverged from the frozen pre-refactor pass on \
             module " ^ name;
        }
    else None
  in
  List.fold_left
    (fun acc (m : Ir.modul) ->
      match acc with Some _ -> acc | None -> diff m.Ir.m_name m)
    None
    (modules @ [ whole ])

(* The thin-WPO differentials.  Two properties ride on the thin points:

   - the worker count must never reach the image: every [thin/*] point
     builds a byte-identical program (ThinLTO's determinism contract,
     and the property a corrupted decision table breaks first);
   - the optimistic summary join must stay close to the full
     whole-program oracle — summaries carry counts, not bodies, so exact
     equality is not the contract, but a thin image more than 5% + 256
     bytes past the wp/r3 image means the exchange lost real patterns. *)
let thin_size_slack full = (full * 5 / 100) + 256

let thin_differential thins full_wpo =
  match thins with
  | [] -> None
  | (l0, src0, sz0) :: rest -> (
    match List.find_opt (fun (_, src, _) -> src <> src0) rest with
    | Some (l, _, _) ->
      Some
        {
          point = l;
          reason =
            Printf.sprintf
              "thin-WPO output depends on the worker count: %s and %s built \
               different programs"
              l0 l;
        }
    | None -> (
      match full_wpo with
      | None -> None
      | Some full ->
        let bound = full + thin_size_slack full in
        if sz0 > bound then
          Some
            {
              point = l0;
              reason =
                Printf.sprintf
                  "thin-WPO image strayed too far from full whole-program: \
                   %d bytes vs %d (bound %d)"
                  sz0 full bound;
            }
        else None))

(* The serve differential: replay a short commit stream (initial build,
   then [edits] single-module appends, then a verbatim retry) through one
   warm server and require every served image byte-identical to a scratch
   [Pipeline.build_sources] of the same request.  The retry must answer
   from the result cache with the previous bytes.  This is what catches a
   server that leaks warm state across edits or serves stale cache
   entries ([Serve.Server.fault_stale_cache_entry] in the self-test). *)
let serve_spec = "dce,outline(rounds=3)"

let serve_commits sources edits =
  let nmods = List.length sources in
  let rec go acc cur i =
    if i > edits then List.rev acc
    else begin
      let target = fst (List.nth cur ((i - 1) mod nmods)) in
      let next =
        List.map
          (fun (m, s) ->
            if String.equal m target then
              ( m,
                s
                ^ Printf.sprintf
                    "\nfunc srv_edit%d(v: Int) -> Int {\n  return v * %d + %d\n}\n"
                    i
                    ((2 * i) + 3)
                    i )
            else (m, s))
          cur
      in
      go (next :: acc) next (i + 1)
    end
  in
  go [ sources ] sources 1

let serve_differential ?(edits = 1) sources =
  let server = Serve.Server.create () in
  let cfg =
    match
      Pipeline.config_of_passes
        ~base:{ Pipeline.default_config with mode = Pipeline.Whole_program }
        serve_spec
    with
    | Ok c -> c
    | Error e -> invalid_arg ("serve_differential: bad spec: " ^ e)
  in
  let request i srcs =
    Serve.Protocol.print_request
      (Serve.Protocol.Build
         {
           br_id = Printf.sprintf "c%d" i;
           br_app = "fuzz";
           br_mode = "wp";
           br_workers = 0;
           br_passes = Some serve_spec;
           br_want_image = true;
           br_source = Serve.Protocol.Inline srcs;
         })
  in
  let serve i srcs =
    let payload, _ = Serve.Server.handle server (request i srcs) in
    Serve.Protocol.parse_response payload
  in
  let commits = serve_commits sources edits in
  let fail i reason = Some { point = Printf.sprintf "serve/commit%d" i; reason } in
  let failure = ref None in
  let last = ref None in
  List.iteri
    (fun i srcs ->
      if !failure = None then
        match (serve i srcs, Pipeline.build_sources ~config:cfg srcs) with
        | Error e, _ ->
          failure := fail i ("unparsable serve response: " ^ e)
        | Ok (Serve.Protocol.Error_reply { e_message; _ }), Ok _ ->
          failure :=
            fail i ("server failed where scratch succeeded: " ^ e_message)
        | Ok (Serve.Protocol.Built _), Error e ->
          failure := fail i ("server succeeded where scratch failed: " ^ e)
        | Ok (Serve.Protocol.Error_reply _), Error _ ->
          (* consistently rejected; nothing to compare *)
          last := None
        | Ok (Serve.Protocol.Built b), Ok res ->
          let scratch_img = Machine.Asm_printer.to_source res.Pipeline.program in
          if b.Serve.Protocol.b_image <> Some scratch_img then
            failure :=
              fail i
                "served image is not byte-identical to a from-scratch build \
                 of the same request"
          else if b.Serve.Protocol.b_binary_size <> res.Pipeline.binary_size
          then
            failure :=
              fail i
                (Printf.sprintf
                   "served binary size %d disagrees with scratch %d"
                   b.Serve.Protocol.b_binary_size res.Pipeline.binary_size)
          else last := Some (srcs, b)
        | Ok _, _ -> failure := fail i "unexpected response kind")
    commits;
  (match (!failure, !last) with
  | None, Some (srcs, prev) -> (
    (* CI-retry shape: same request again must hit and serve equal bytes *)
    match serve (edits + 1) srcs with
    | Ok (Serve.Protocol.Built b) ->
      if not b.Serve.Protocol.b_cache_hit then
        failure := fail (edits + 1) "request retry missed the result cache"
      else if b.Serve.Protocol.b_image <> prev.Serve.Protocol.b_image then
        failure :=
          fail (edits + 1)
            "cache hit served different bytes from the build that \
             populated the entry"
    | Ok (Serve.Protocol.Error_reply { e_message; _ }) ->
      failure := fail (edits + 1) ("retry failed: " ^ e_message)
    | Ok _ -> failure := fail (edits + 1) "unexpected response kind on retry"
    | Error e ->
      failure := fail (edits + 1) ("unparsable serve response: " ^ e))
  | _ -> ());
  !failure

(* The reference oracle every Swiftlet check starts from: compile, attach
   the program's flag style, link whole under the normalized semantics and
   run the MIR interpreter.  A front-end, link or eval failure skips the
   program; otherwise [k] gets the modules, the linked module and the
   reference result. *)
let with_oracle (p : Swiftgen.program) k =
  match Swiftlet.Compile.compile_program (Swiftgen.to_sources p) with
  | Error msg -> Skip ("front-end: " ^ msg)
  | Ok modules -> (
    let modules = attach_flags p.flag_style modules in
    let base = normalized Pipeline.default_config in
    match
      Link.link ~flag_semantics:base.Pipeline.flag_semantics
        ~data_order:base.Pipeline.data_order ~name:"whole" modules
    with
    | Error e -> Skip ("reference link: " ^ Link.error_to_string e)
    | Ok whole -> (
      match Eval.run ~max_steps:5_000_000 ~entry:"main" whole with
      | Error e -> Skip ("reference eval: " ^ Eval.error_to_string e)
      | Ok res ->
        k ~modules ~whole ~ref_exit:res.exit_value ~ref_output:res.output))

let check ?(verify_each = false) (p : Swiftgen.program) =
  with_oracle p (fun ~modules ~whole ~ref_exit ~ref_output ->
      let pts =
        points { Pipeline.default_config with Pipeline.verify_each }
      in
      let failure = ref (transition_differential modules) in
      if !failure = None then
        failure := merge_refactor_differential modules whole;
      let sizes = ref [] in
      let thins = ref [] in
      let full_wpo = ref None in
      let full_prog = ref None in
      List.iter
        (fun ((label, cfg) as pt) ->
          if !failure = None then
            match
              run_point modules pt ~style:p.flag_style ~ref_exit ~ref_output
            with
            | Error f -> failure := Some f
            | Ok None -> ()
            | Ok (Some res) ->
              sizes :=
                (label, cfg, cfg.Pipeline.outline_rounds, res.binary_size)
                :: !sizes;
              if label = "wp/r3/plain" then begin
                full_wpo := Some res.binary_size;
                full_prog := Some res.Pipeline.program
              end;
              (match cfg.Pipeline.mode with
              | Pipeline.Thin_wpo _ ->
                thins :=
                  ( label,
                    Machine.Asm_printer.to_source res.Pipeline.program,
                    res.binary_size )
                  :: !thins
              | _ -> ()))
        pts;
      match !failure with
      | Some f -> Fail f
      | None -> (
        match check_monotone (List.rev !sizes) with
        | Some f -> Fail f
        | None -> (
          match thin_differential (List.rev !thins) !full_wpo with
          | Some f -> Fail f
          | None -> (
            match
              Option.join (Option.map compress_property !full_prog)
            with
            | Some f -> Fail f
            | None -> (
              match serve_differential (Swiftgen.to_sources p) with
              | Some f -> Fail f
              (* every point, plus the two transition-differential
                 points, the two refactor-exactness differentials
                 (merge-functions and fmsa against their frozen
                 pre-refactor copies), the two thin-WPO differentials,
                 the compressed-size property check, and the three serve
                 replay steps (build, edit, retry) *)
              | None -> Pass (List.length pts + 4 + 2 + 1 + 3))))))

(* The focused checks' shared sweep: run [pts] until the first failure
   under the machine check's tight step budget — the corrupted programs
   they hunt often loop until the budget, the full 20M-step allowance
   would make the shrink loop crawl, and honest programs finish well
   within 2M — then hold the thin points to [thin_differential] against
   [full].  [extra] counts the differentials on top of the points. *)
let focused_points (p : Swiftgen.program) ~modules ~ref_exit ~ref_output
    ~full ~extra pts =
  let failure = ref None in
  let thins = ref [] in
  List.iter
    (fun ((label, cfg) as pt) ->
      if !failure = None then
        match
          run_point ~interp:machine_interp_config modules pt
            ~style:p.flag_style ~ref_exit ~ref_output
        with
        | Error f -> failure := Some f
        | Ok None -> ()
        | Ok (Some res) -> (
          match cfg.Pipeline.mode with
          | Pipeline.Thin_wpo _ ->
            thins :=
              ( label,
                Machine.Asm_printer.to_source res.Pipeline.program,
                res.binary_size )
              :: !thins
          | _ -> ()))
    pts;
  match !failure with
  | Some f -> Fail f
  | None -> (
    match thin_differential (List.rev !thins) full with
    | Some f -> Fail f
    | None -> Pass (List.length pts + extra))

(* The thin-only check: reference oracle, the three thin points, and both
   thin differentials — nothing else.  This is
   what the self-test's fault phase and its shrink loop run: a full
   [check] sweeps fifty-odd points per program, which the greedy shrinker
   would multiply by hundreds of deletion attempts. *)
let check_thin (p : Swiftgen.program) =
  with_oracle p (fun ~modules ~whole:_ ~ref_exit ~ref_output ->
      let pts =
        List.filter
          (fun (_, (cfg : Pipeline.config)) ->
            match cfg.Pipeline.mode with
            | Pipeline.Thin_wpo _ -> true
            | _ -> false)
          (points Pipeline.default_config)
      in
      let wp3 =
        match
          Pipeline.build
            ~config:
              {
                (normalized Pipeline.default_config) with
                Pipeline.mode = Whole_program;
                outline_rounds = 3;
              }
            modules
        with
        | Ok res -> Some res.Pipeline.binary_size
        | Error _ -> None
      in
      focused_points p ~modules ~ref_exit ~ref_output ~full:wp3 ~extra:2 pts)

(* The serve-only check: front-end gate, then the serve replay differential
   with two edits — what the self-test's stale-cache fault phase and its
   shrink loop run (a full lattice sweep per deletion attempt would
   dominate the self-test, and the serve differential alone is what the
   fault must trip). *)
let check_serve (p : Swiftgen.program) =
  let sources = Swiftgen.to_sources p in
  match Swiftlet.Compile.compile_program sources with
  | Error msg -> Skip ("front-end: " ^ msg)
  | Ok _ -> (
    match serve_differential ~edits:2 sources with
    | Some f -> Fail f
    (* initial build + two edits + the retry *)
    | None -> Pass 4)

(* The global-merge-only check: reference oracle, then the optimistic
   merger at round 0 in all three modes, with a two-worker-count thin pair
   whose images must be byte-identical.  This is what the self-test's
   dropped-rollback fault phase and its shrink loop run: the fault lives
   entirely in Global_merge, so sweeping the full lattice per deletion
   attempt would bury the signal in unrelated points. *)
let check_gmerge (p : Swiftgen.program) =
  with_oracle p (fun ~modules ~whole:_ ~ref_exit ~ref_output ->
      let base =
        with_passes
          (List.assoc "gmerge" pass_combos)
          {
            (normalized Pipeline.default_config) with
            Pipeline.outline_rounds = 0;
          }
      in
      let pts =
        [
          ("gmerge/pm/r0", { base with Pipeline.mode = Per_module });
          ("gmerge/wp/r0", { base with Pipeline.mode = Whole_program });
          ( "gmerge/thin/r0/w1",
            { base with Pipeline.mode = Thin_wpo { workers = 1 } } );
          ( "gmerge/thin/r0/w2",
            { base with Pipeline.mode = Thin_wpo { workers = 2 } } );
        ]
      in
      focused_points p ~modules ~ref_exit ~ref_output ~full:None ~extra:1 pts)

(* --- the machine check ------------------------------------------------------- *)

let machine_points = [ ("r1", 1, false); ("r3", 3, false); ("r5", 5, false);
                       ("canon-r3", 3, true) ]

let check_machine (p : Machine.Program.t) =
  match Perfsim.Interp.run ~config:machine_interp_config ~entry:"main" p with
  | Error e -> Skip ("base run: " ^ Perfsim.Interp.error_to_string e)
  | Ok base -> (
    let base_size = Machine.Program.code_size_bytes p in
    let failure = ref None in
    let last_size = ref None in
    List.iter
      (fun (label, rounds, canon) ->
        if !failure = None then begin
          let q = if canon then fst (Outcore.Canonicalize.run p) else p in
          let q', _stats = Outcore.Repeat.run ~engine:`Scratch ~rounds q in
          (* Incremental/scratch differential: the dirty-block engine must
             produce a byte-identical program at every point.  A stale
             cache can also crash the rewrite outright, so trap exceptions
             and report them as divergence. *)
          (match
             try
               Ok (fst (Outcore.Repeat.run ~engine:`Incremental ~rounds q))
             with e -> Error (Printexc.to_string e)
           with
          | Error msg ->
            failure :=
              Some
                {
                  point = label ^ "/incremental";
                  reason = "incremental engine raised: " ^ msg;
                }
          | Ok qi ->
            if
              Machine.Asm_printer.to_source qi
              <> Machine.Asm_printer.to_source q'
            then
              failure :=
                Some
                  {
                    point = label ^ "/incremental";
                    reason =
                      "incremental/scratch divergence: engines produced \
                       different programs";
                  });
          if !failure <> None then ()
          else
          match Machine.Program.validate q' with
          | Error msg ->
            failure :=
              Some { point = label; reason = "invalid after outlining: " ^ msg }
          | Ok () -> (
            let size = Machine.Program.code_size_bytes q' in
            if size > base_size then
              failure :=
                Some
                  {
                    point = label;
                    reason =
                      Printf.sprintf
                        "outlining grew the code: %d -> %d bytes" base_size size;
                  }
            else begin
              (match !last_size with
              | Some (prev_label, prev_rounds, prev_size)
                when (not canon) && rounds > prev_rounds && size > prev_size ->
                failure :=
                  Some
                    {
                      point = label;
                      reason =
                        Printf.sprintf
                          "code size not monotone in rounds: %s = %d, %s = %d"
                          prev_label prev_size label size;
                    }
              | _ -> ());
              if not canon then last_size := Some (label, rounds, size);
              if !failure = None then
                match
                  Perfsim.Interp.run ~config:machine_interp_config ~entry:"main"
                    q'
                with
                | Error e ->
                  failure :=
                    Some
                      {
                        point = label;
                        reason =
                          "execution failed after outlining: "
                          ^ Perfsim.Interp.error_to_string e
                          ^ " (base: "
                          ^ render_run base.exit_value base.output
                          ^ ")";
                      }
                | Ok r ->
                  if
                    r.exit_value <> base.exit_value || r.output <> base.output
                  then
                    failure :=
                      Some
                        {
                          point = label;
                          reason =
                            Printf.sprintf
                              "oracle divergence: base %s, %s got %s"
                              (render_run base.exit_value base.output)
                              label
                              (render_run r.exit_value r.output);
                        }
            end)
        end)
      machine_points;
    (* The split-then-place differential: collect a block-level profile of
       the base program, split its cold blocks to the __text_cold region,
       and require the split program — run under the stitched chain order,
       so the interpreter sees the exact placed byte sequence — to
       validate, reproduce the base result, and never grow.  This is the
       point the dropped-materialized-branch fault must trip. *)
    if !failure = None then begin
      let profile =
        Pgo.Collect.collect
          ~config:
            {
              Pgo.Collect.default_config with
              Perfsim.Interp.max_steps = 2_000_000;
            }
          ~workload:"fuzz" ~entries:[ "main" ] p
      in
      let split, order = Blocklayout.apply ~profile p in
      match Machine.Program.validate split with
      | Error msg ->
        failure :=
          Some { point = "stitch"; reason = "invalid after hot/cold split: " ^ msg }
      | Ok () -> (
        let size = Machine.Program.code_size_bytes split in
        if size > base_size then
          failure :=
            Some
              {
                point = "stitch";
                reason =
                  Printf.sprintf "hot/cold splitting grew the code: %d -> %d bytes"
                    base_size size;
              }
        else
          match
            Perfsim.Interp.run ~config:machine_interp_config ~order
              ~entry:"main" split
          with
          | Error e ->
            failure :=
              Some
                {
                  point = "stitch";
                  reason =
                    "execution failed after hot/cold split: "
                    ^ Perfsim.Interp.error_to_string e
                    ^ " (base: "
                    ^ render_run base.exit_value base.output
                    ^ ")";
                }
          | Ok r ->
            if r.exit_value <> base.exit_value || r.output <> base.output then
              failure :=
                Some
                  {
                    point = "stitch";
                    reason =
                      Printf.sprintf "oracle divergence: base %s, stitch got %s"
                        (render_run base.exit_value base.output)
                        (render_run r.exit_value r.output);
                  })
    end;
    match !failure with
    | Some f -> Fail f
    | None -> Pass (List.length machine_points + 1))
