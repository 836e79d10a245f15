(* The unified merge layer: policy keys and fingerprints, thunk semantics
   under the evaluator, keep/entry exemptions, hole-budget boundaries, the
   optimistic global merger's cross-module protocol and its worker-count
   determinism, and the interaction with block-granularity layout (thunks
   are never executed by the workload, so stitch must classify them cold). *)

let empty_module name =
  { Ir.m_name = name; funcs = []; globals = []; externs = []; flags = [] }

let eval_exn ?args m ~entry =
  match Eval.run ?args ~entry m with
  | Ok r -> r
  | Error e -> Alcotest.fail ("eval error: " ^ Eval.error_to_string e)

let link_exn mods =
  match
    Link.link ~flag_semantics:Link.Attributes
      ~data_order:Link.Module_preserving ~name:"whole" mods
  with
  | Ok m -> m
  | Error e -> Alcotest.fail ("link error: " ^ Link.error_to_string e)

let pp_modul m = Format.asprintf "%a" Ir.pp_modul m

(* A four-instruction body whose immediate and callee differ per clone:
   exact under [exact_policy], immediate-holed under [fmsa_policy], and a
   three-hole (two immediates + the call target) candidate under
   [global_policy]. *)
let call_func name ~target ~k ~scale =
  let b = Builder.create ~name ~nparams:1 () in
  let p = List.hd (Builder.params b) in
  let x = Builder.binop b Ir.Add (Ir.V p) (Ir.Imm k) in
  let r = Builder.call b target [ Ir.V x ] in
  let s = Builder.binop b Ir.Mul (Ir.V r) (Ir.Imm scale) in
  let t = Builder.binop b Ir.Sub (Ir.V s) (Ir.V p) in
  Builder.terminate b (Ir.Ret (Ir.V t));
  Builder.finish b

let helper name op =
  let b = Builder.create ~name ~nparams:1 () in
  let p = List.hd (Builder.params b) in
  let x = Builder.binop b op (Ir.V p) (Ir.V p) in
  Builder.terminate b (Ir.Ret (Ir.V x));
  Builder.finish b

(* --- keys and fingerprints -------------------------------------------------- *)

let test_fingerprint () =
  let f1 = call_func "f1" ~target:"ha" ~k:5 ~scale:3 in
  let f1' = call_func "renamed" ~target:"ha" ~k:5 ~scale:3 in
  let f2 = call_func "f2" ~target:"hb" ~k:9 ~scale:7 in
  List.iter
    (fun policy ->
      Alcotest.(check bool)
        "fingerprint is deterministic" true
        (Merge.fingerprint ~policy f1 = Merge.fingerprint ~policy f1);
      Alcotest.(check bool)
        "fingerprint ignores the function name" true
        (Merge.fingerprint ~policy f1 = Merge.fingerprint ~policy f1'))
    [ Merge.exact_policy; Merge.fmsa_policy; Merge.global_policy ];
  (* Differing immediates and callees: only the global policy unifies. *)
  Alcotest.(check bool)
    "exact policy distinguishes the clones" false
    (Merge.fingerprint ~policy:Merge.exact_policy f1
    = Merge.fingerprint ~policy:Merge.exact_policy f2);
  Alcotest.(check bool)
    "fmsa policy still sees the callee difference" false
    (Merge.fingerprint ~policy:Merge.fmsa_policy f1
    = Merge.fingerprint ~policy:Merge.fmsa_policy f2);
  Alcotest.(check bool)
    "global policy unifies immediates and callees" true
    (Merge.fingerprint ~policy:Merge.global_policy f1
    = Merge.fingerprint ~policy:Merge.global_policy f2);
  let _, holes = Merge.key ~policy:Merge.global_policy f1 in
  Alcotest.(check int) "two immediates and one target hole" 3
    (List.length holes)

(* --- global merging across modules ------------------------------------------ *)

let two_modules () =
  let ma =
    {
      (empty_module "ma") with
      Ir.funcs =
        [ helper "ha" Ir.Add; call_func "ca" ~target:"ha" ~k:5 ~scale:3 ];
    }
  in
  let mb =
    {
      (empty_module "mb") with
      Ir.funcs =
        [ helper "hb" Ir.Xor; call_func "cb" ~target:"hb" ~k:9 ~scale:7 ];
    }
  in
  (ma, mb)

let test_global_merge_semantics () =
  let ma, mb = two_modules () in
  let merged, stats = Global_merge.run_modules [ ma; mb ] in
  Alcotest.(check int) "one group" 1 stats.Global_merge.groups;
  Alcotest.(check int) "both clones thunked" 2 stats.Global_merge.funcs_merged;
  Alcotest.(check int) "one merged function" 1 stats.Global_merge.merged_created;
  Alcotest.(check int) "nothing rolled back" 0 stats.Global_merge.rolled_back;
  let ma', mb' = (List.nth merged 0, List.nth merged 1) in
  (* Host is the first member's module; the other module calls via extern. *)
  Alcotest.(check bool)
    "merged function hosted in ma" true
    (List.exists
       (fun (f : Ir.func) -> String.length f.Ir.name >= 3
                             && String.sub f.Ir.name 0 3 = "gm_")
       ma'.Ir.funcs);
  Alcotest.(check bool)
    "mb gained an extern for the merged function" true
    (List.exists
       (fun e -> String.length e >= 3 && String.sub e 0 3 = "gm_")
       mb'.Ir.externs);
  List.iter
    (fun m ->
      match Ir.validate m with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("merged module invalid: " ^ e))
    merged;
  (* Thunk semantics: the linked merged program computes what the linked
     original did, for every entry and argument. *)
  let whole = link_exn [ ma; mb ] and whole' = link_exn merged in
  List.iter
    (fun (entry, arg) ->
      Alcotest.(check int)
        (Printf.sprintf "%s(%d)" entry arg)
        (eval_exn whole ~entry ~args:[ arg ]).exit_value
        (eval_exn whole' ~entry ~args:[ arg ]).exit_value)
    [ ("ca", 0); ("ca", 11); ("cb", 0); ("cb", 11); ("ha", 4); ("hb", 4) ]

let test_keep_exemption () =
  let ma, mb = two_modules () in
  let keep (f : Ir.func) = f.Ir.name = "ca" in
  let _, stats = Global_merge.run_modules ~keep [ ma; mb ] in
  (* With ca kept, cb's group is a singleton: no merge may happen. *)
  Alcotest.(check int) "no group" 0 stats.Global_merge.groups;
  Alcotest.(check int) "nothing thunked" 0 stats.Global_merge.funcs_merged

let test_hole_budgets () =
  let ma, mb = two_modules () in
  (* call_func has 3 global-policy holes: max_holes=3 merges, 2 refuses. *)
  let _, at3 = Global_merge.run_modules ~max_holes:3 [ ma; mb ] in
  Alcotest.(check int) "max_holes=3 admits the pair" 1 at3.Global_merge.groups;
  let _, at2 = Global_merge.run_modules ~max_holes:2 [ ma; mb ] in
  Alcotest.(check int) "max_holes=2 refuses the pair" 0 at2.Global_merge.groups;
  (* min_instrs above the body size (4 instructions + terminator = 5)
     refuses too, and the boundary value still admits. *)
  let _, at5 = Global_merge.run_modules ~min_instrs:5 [ ma; mb ] in
  Alcotest.(check int) "min_instrs=5 still admits the 5-count bodies" 1
    at5.Global_merge.groups;
  let _, big = Global_merge.run_modules ~min_instrs:6 [ ma; mb ] in
  Alcotest.(check int) "min_instrs=6 refuses the 5-count bodies" 0
    big.Global_merge.groups;
  (* The register budget: params + holes must fit Machine.Reg.max_args.
     Six params + three holes = 9 > 8 is refused; five params + three
     holes = 8 is admitted. *)
  let wide name nparams target k =
    let b = Builder.create ~name ~nparams () in
    let p = List.hd (Builder.params b) in
    let x = Builder.binop b Ir.Add (Ir.V p) (Ir.Imm k) in
    let r = Builder.call b target [ Ir.V x ] in
    let s = Builder.binop b Ir.Mul (Ir.V r) (Ir.Imm k) in
    let t = Builder.binop b Ir.Sub (Ir.V s) (Ir.V p) in
    Builder.terminate b (Ir.Ret (Ir.V t));
    Builder.finish b
  in
  let mods nparams =
    [
      {
        (empty_module "wa") with
        Ir.funcs = [ helper "ha" Ir.Add; wide "wca" nparams "ha" 5 ];
      };
      {
        (empty_module "wb") with
        Ir.funcs = [ helper "hb" Ir.Xor; wide "wcb" nparams "hb" 9 ];
      };
    ]
  in
  let _, over = Global_merge.run_modules (mods 6) in
  Alcotest.(check int) "9 registers refused" 0 over.Global_merge.groups;
  let _, fits = Global_merge.run_modules (mods 5) in
  Alcotest.(check int) "8 registers admitted" 1 fits.Global_merge.groups

let test_worker_determinism () =
  (* Enough clone families spread over several modules to give the
     parallel rounds real work, then: byte-identical output for any
     worker count. *)
  let mods =
    List.init 6 (fun i ->
        {
          (empty_module (Printf.sprintf "m%d" i)) with
          Ir.funcs =
            [
              helper (Printf.sprintf "h%d" i)
                (if i mod 2 = 0 then Ir.Add else Ir.Xor);
              call_func
                (Printf.sprintf "c%d" i)
                ~target:(Printf.sprintf "h%d" i)
                ~k:(3 + i) ~scale:(2 * i + 1);
            ];
        })
  in
  let run w =
    let out, _ = Global_merge.run_modules ~workers:w mods in
    String.concat "\n---\n" (List.map pp_modul out)
  in
  let w1 = run 1 in
  Alcotest.(check string) "workers 2 = workers 1" w1 (run 2);
  Alcotest.(check string) "workers 4 = workers 1" w1 (run 4)

(* --- pipeline-level determinism and stitch interaction ----------------------- *)

let pipeline_modules () =
  let ma, mb = two_modules () in
  let bmain = Builder.create ~name:"main" ~nparams:0 () in
  let r = Builder.call bmain "ca" [ Ir.Imm 7 ] in
  let s = Builder.binop bmain Ir.And (Ir.V r) (Ir.Imm 255) in
  Builder.terminate bmain (Ir.Ret (Ir.V s));
  let mm =
    { (empty_module "mmain") with Ir.funcs = [ Builder.finish bmain ] }
  in
  [ ma; mb; mm ]

let build_exn cfg mods =
  match Pipeline.build ~config:cfg mods with
  | Ok r -> r
  | Error e -> Alcotest.fail ("pipeline build failed: " ^ e)

let config_exn ~base spec =
  match Pipeline.config_of_passes ~base spec with
  | Ok c -> c
  | Error e -> Alcotest.fail e

let step_key (st : Passman.step) =
  ( (st.Passman.st_pass, st.Passman.st_detail, st.Passman.st_unit),
    (st.Passman.st_gate, st.Passman.st_applied),
    (st.Passman.st_before, st.Passman.st_after) )

let test_thin_pipeline_determinism () =
  let mods = pipeline_modules () in
  let mode_config mode ?bisect_limit spec =
    config_exn
      ~base:{ Pipeline.default_config with Pipeline.mode; bisect_limit }
      spec
  in
  let thin w = Pipeline.Thin_wpo { workers = w } in
  let image w =
    Machine.Asm_printer.to_source
      (build_exn
         (mode_config (thin w) "dce,global-merge,thin-outline(rounds=3)")
         mods)
        .Pipeline.program
  in
  let w1 = image 1 in
  Alcotest.(check string) "thin gmerge workers 2 = 1" w1 (image 2);
  Alcotest.(check string) "thin gmerge workers 4 = 1" w1 (image 4);
  (* Per-module and thin run one per-unit path, so with the same spec the
     modes must agree on the image, the function order and the whole step
     log (bisect numbers included) — unlimited and at every bisect limit. *)
  let spec = "dce,global-merge,outline(rounds=3)" in
  let observe ?bisect_limit mode =
    let r = build_exn (mode_config mode ?bisect_limit spec) mods in
    ( Machine.Asm_printer.to_source r.Pipeline.program,
      r.Pipeline.function_order,
      List.map step_key r.Pipeline.pass_steps )
  in
  let agree ?bisect_limit what =
    let ((img, _, _) as pm) = observe ?bisect_limit Pipeline.Per_module in
    List.iter
      (fun w ->
        let ((img', _, _) as th) = observe ?bisect_limit (thin w) in
        Alcotest.(check string) (Printf.sprintf "%s: pm = thin w%d image" what w)
          img img';
        Alcotest.(check bool)
          (Printf.sprintf "%s: pm = thin w%d order and steps" what w)
          true (pm = th))
      [ 1; 2 ]
  in
  agree "unlimited";
  let pm_image, _, _ = observe Pipeline.Per_module in
  Alcotest.(check string) "pm gmerge = thin gmerge" w1 pm_image;
  let _, _, steps = observe Pipeline.Per_module in
  let last = List.fold_left (fun a (_, (g, _), _) -> max a g) 0 steps in
  Alcotest.(check bool) "steps were numbered" true (last > 0);
  for limit = 1 to last do
    agree ~bisect_limit:limit (Printf.sprintf "limit %d" limit)
  done

let test_merge_then_stitch () =
  (* Global merging rewrites functions into thunks; the stitch layout then
     rewrites blocks and emits an explicit placement order.  The two must
     compose: the merged function survives into the placed image and the
     program still computes main's answer under the stitched order. *)
  let mods = pipeline_modules () in
  let plain =
    build_exn
      { Pipeline.default_config with Pipeline.mode = Pipeline.Per_module }
      mods
  in
  let cfg =
    config_exn
      ~base:{ Pipeline.default_config with Pipeline.mode = Pipeline.Per_module }
      "dce,global-merge,outline(rounds=5),stitch"
  in
  let res = build_exn cfg mods in
  Alcotest.(check bool)
    "a merged function exists" true
    (List.exists
       (fun (f : Machine.Mfunc.t) ->
         String.length f.Machine.Mfunc.name >= 3
         && String.sub f.Machine.Mfunc.name 0 3 = "gm_")
       res.Pipeline.program.Machine.Program.funcs);
  let order =
    match res.Pipeline.function_order with
    | Some o -> o
    | None -> Alcotest.fail "stitch produced no order"
  in
  Alcotest.(check bool)
    "merged function placed by the stitch order" true
    (List.exists
       (fun s -> String.length s >= 3 && String.sub s 0 3 = "gm_")
       order);
  let run =
    match
      Perfsim.Interp.run
        ~config:
          { Perfsim.Interp.default_config with model_perf = false }
        ~order ~entry:"main" res.Pipeline.program
    with
    | Ok r -> r
    | Error e ->
      Alcotest.fail
        ("merged+stitched execution failed: "
        ^ Perfsim.Interp.error_to_string e)
  in
  let base =
    match
      Perfsim.Interp.run
        ~config:
          { Perfsim.Interp.default_config with model_perf = false }
        ~entry:"main" plain.Pipeline.program
    with
    | Ok r -> r
    | Error e ->
      Alcotest.fail ("plain execution failed: " ^ Perfsim.Interp.error_to_string e)
  in
  Alcotest.(check int) "merge+stitch preserves main" base.exit_value
    run.exit_value

(* --- refactor exactness (unit-sized spot check) ------------------------------ *)

let test_reference_exactness () =
  let ma, mb = two_modules () in
  let keep (f : Ir.func) = f.Ir.name = "main" in
  List.iter
    (fun m ->
      Alcotest.(check string) "merge-functions matches the frozen pass"
        (pp_modul (fst (Merge_reference.Merge_functions.run ~keep m)))
        (pp_modul (fst (Merge_functions.run ~keep m)));
      Alcotest.(check string) "fmsa matches the frozen pass"
        (pp_modul (fst (Merge_reference.Fmsa.run ~keep m)))
        (pp_modul (fst (Fmsa.run ~keep m))))
    [ ma; mb; link_exn [ ma; mb ] ]

(* --- keys against their Printf oracles ---------------------------------------- *)

(* [Merge.key] as it was printed with one [Printf] call per token, kept as
   the oracle for the global policy, which [Merge_reference] predates.  The
   hole order comes from OCaml's right-to-left evaluation of [add]'s
   arguments. *)
let printf_key ~(policy : Merge.policy) (f : Ir.func) =
  let vmap = Hashtbl.create 64 and vnext = ref 0 in
  let lmap = Hashtbl.create 16 and lnext = ref 0 in
  let v x =
    match Hashtbl.find_opt vmap x with
    | Some i -> i
    | None ->
      let i = !vnext in
      incr vnext;
      Hashtbl.replace vmap x i;
      i
  in
  let l x =
    match Hashtbl.find_opt lmap x with
    | Some i -> i
    | None ->
      let i = !lnext in
      incr lnext;
      Hashtbl.replace lmap x i;
      i
  in
  List.iter (fun p -> ignore (v p)) f.Ir.params;
  List.iter (fun (b : Ir.block) -> ignore (l b.label)) f.Ir.blocks;
  let holes = ref [] in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let op site o =
    match o with
    | Ir.V x -> "v" ^ string_of_int (v x)
    | Ir.Imm n ->
      if policy.imm_hole site then begin
        holes := Merge.H_imm n :: !holes;
        "?"
      end
      else "#" ^ string_of_int n
    | Ir.Global g ->
      if policy.sym_hole site then begin
        holes := Merge.H_op o :: !holes;
        "?"
      end
      else "@" ^ g
    | Ir.Fn g ->
      if policy.sym_hole site then begin
        holes := Merge.H_op o :: !holes;
        "?"
      end
      else "&" ^ g
  in
  add "params:%d;" (List.length f.Ir.params);
  List.iter
    (fun (b : Ir.block) ->
      add "L%d:" (l b.label);
      List.iter
        (fun (p : Ir.phi) ->
          add "phi v%d=" (v p.phi_dst);
          List.iter
            (fun (lbl, o) -> add "[L%d %s]" (l lbl) (op Merge.S_phi o))
            p.incoming)
        b.phis;
      List.iter
        (fun i ->
          (match Ir.def_of_instr i with
          | Some d -> add "v%d=" (v d)
          | None -> ());
          (match i with
          | Ir.Assign (_, o) -> add "asn %s" (op Merge.S_assign o)
          | Ir.Binop (_, o2, a, b2) ->
            let tag =
              match o2 with
              | Ir.Add -> "add"
              | Ir.Sub -> "sub"
              | Ir.Mul -> "mul"
              | Ir.Div -> "div"
              | Ir.And -> "and"
              | Ir.Or -> "or"
              | Ir.Xor -> "xor"
              | Ir.Shl -> "shl"
              | Ir.Lshr -> "lshr"
              | Ir.Ashr -> "ashr"
            in
            add "bin.%s %s %s" tag (op Merge.S_binop a) (op Merge.S_binop b2)
          | Ir.Icmp (_, c, a, b2) ->
            add "icmp %s %s %s" (Machine.Cond.to_string c) (op Merge.S_icmp a)
              (op Merge.S_icmp b2)
          | Ir.Load (_, base, off) -> add "ld %s %d" (op Merge.S_load_base base) off
          | Ir.Store (x, base, off) ->
            add "st %s %s %d" (op Merge.S_store_val x) (op Merge.S_store_base base) off
          | Ir.Call (_, fn, args) ->
            if policy.target_hole then begin
              holes := Merge.H_target fn :: !holes;
              add "call ?"
            end
            else add "call %s" fn;
            List.iter (fun a -> add " %s" (op Merge.S_call_arg a)) args
          | Ir.Call_indirect (_, fn, args) ->
            add "calli %s" (op Merge.S_calli_fn fn);
            List.iter (fun a -> add " %s" (op Merge.S_calli_arg a)) args
          | Ir.Retain o -> add "retain %s" (op Merge.S_retain o)
          | Ir.Release o -> add "release %s" (op Merge.S_release o)
          | Ir.Alloc_object (_, meta, size) -> add "alloco %s %d" meta size
          | Ir.Alloc_array (_, n) -> add "alloca %s" (op Merge.S_alloc_len n));
          add ";")
        b.instrs;
      (match b.term with
      | Ir.Ret o -> add "ret %s" (op Merge.S_term o)
      | Ir.Br lbl -> add "br L%d" (l lbl)
      | Ir.Cond_br (o, a, b2) -> add "cbr %s L%d L%d" (op Merge.S_term o) (l a) (l b2)
      | Ir.Unreachable -> add "unreachable");
      add "|")
    f.Ir.blocks;
  (Buffer.contents buf, List.rev !holes)

(* A function whose two-operand sites each resolve two holes or two
   values not yet numbered: a binop and an icmp of two immediates, a
   binop of two symbols, and a binop of two values defined nowhere before
   it.  Resolving either site's operands in the other order moves its
   holes or its numbering. *)
let hole_order_witness () =
  let b = Builder.create ~name:"witness" ~nparams:0 () in
  let later = Builder.fresh b and later' = Builder.fresh b in
  let x = Builder.binop b Ir.Sub (Ir.Imm 3) (Ir.Imm 5) in
  let c = Builder.icmp b Machine.Cond.Lt (Ir.Imm 7) (Ir.Imm 11) in
  let s = Builder.binop b Ir.Add (Ir.Global "g") (Ir.Fn "h") in
  let y = Builder.binop b Ir.Mul (Ir.V later) (Ir.V later') in
  Builder.store b (Ir.Imm 13) (Ir.V x) 8;
  Builder.call_void b "sink" [ Ir.V c; Ir.V s; Ir.V y ];
  Builder.terminate b (Ir.Ret (Ir.V y));
  Builder.finish b

let corpus_funcs () =
  let app p =
    match Workload.Appgen.generate_modules p with
    | Ok mods -> mods
    | Error e -> Alcotest.fail e
  in
  let swiftgen seed =
    let p = Fuzz.Swiftgen.generate (Random.State.make [| seed; 0 |]) ~fuel:8 in
    match Swiftlet.Compile.compile_program (Fuzz.Swiftgen.to_sources p) with
    | Ok mods -> mods
    | Error e -> Alcotest.fail e
  in
  let mods =
    app Workload.Appgen.uber_rider
    @ app (Workload.Appgen.scaled ~mult:3 Workload.Appgen.small)
    @ List.concat_map swiftgen (List.init 30 (fun i -> i + 1))
  in
  hole_order_witness ()
  :: List.concat_map (fun (m : Ir.modul) -> m.Ir.funcs) mods

let test_key_oracles () =
  let funcs = corpus_funcs () in
  let hole_text = function
    | Merge.H_imm n -> "#" ^ string_of_int n
    | Merge.H_op (Ir.Global g) -> "@" ^ g
    | Merge.H_op (Ir.Fn g) -> "&" ^ g
    | Merge.H_op (Ir.V _ | Ir.Imm _) -> "<not a symbol>"
    | Merge.H_target g -> "call " ^ g
  in
  let holes = Alcotest.testable (Fmt.of_to_string hole_text) ( = ) in
  List.iter
    (fun (f : Ir.func) ->
      let what = Printf.sprintf "%s: %s" f.Ir.name in
      Alcotest.(check string) (what "exact key = frozen normalize_key")
        (Merge_reference.Merge_functions.normalize_key f)
        (fst (Merge.key ~policy:Merge.exact_policy f));
      let ref_key, ref_imms = Merge_reference.Fmsa.key_with_holes f in
      let key, hs = Merge.key ~policy:Merge.fmsa_policy f in
      Alcotest.(check string) (what "fmsa key = frozen key_with_holes")
        ref_key key;
      Alcotest.(check (list holes)) (what "fmsa holes = frozen immediates")
        (List.map (fun n -> Merge.H_imm n) ref_imms)
        hs;
      let p_key, p_holes = printf_key ~policy:Merge.global_policy f in
      let key, hs = Merge.key ~policy:Merge.global_policy f in
      Alcotest.(check string) (what "global key = Printf key") p_key key;
      Alcotest.(check (list holes)) (what "global holes = Printf holes")
        p_holes hs)
    funcs

let () =
  Alcotest.run "merge"
    [
      ( "framework",
        [
          Alcotest.test_case "fingerprints" `Quick test_fingerprint;
          Alcotest.test_case "reference exactness" `Quick
            test_reference_exactness;
          Alcotest.test_case "keys match their Printf oracles" `Quick
            test_key_oracles;
        ] );
      ( "global",
        [
          Alcotest.test_case "cross-module semantics" `Quick
            test_global_merge_semantics;
          Alcotest.test_case "keep exemption" `Quick test_keep_exemption;
          Alcotest.test_case "hole budgets" `Quick test_hole_budgets;
          Alcotest.test_case "worker determinism" `Quick
            test_worker_determinism;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "thin determinism" `Quick
            test_thin_pipeline_determinism;
          Alcotest.test_case "merge then stitch" `Quick test_merge_then_stitch;
        ] );
    ]
