(* Tests for the profile-guided layout subsystem (lib/pgo): profile
   serialization, profile collection determinism, the ordering strategies'
   permutation/hot-cold/differential properties, Linker.link ~order, and
   the caller-affinity anchor chasing they compete against. *)

open Machine

let parse text =
  match Asm_parser.parse_program text with
  | Ok p -> p
  | Error e -> Alcotest.fail ("parse error: " ^ e)

let run_exn ?config ?args ?order p ~entry =
  match Perfsim.Interp.run ?config ?args ?order ~entry p with
  | Ok r -> r
  | Error e -> Alcotest.fail ("exec error: " ^ Perfsim.Interp.error_to_string e)

(* A small program with a shared helper, a call chain and a never-executed
   function: enough shape for every strategy to disagree with program
   order while agreeing on semantics. *)
let sample_program () =
  parse
    {|
func main:
entry:
  stp fp, lr, [sp, #-16]!
  bl helper
  bl mid
  mov x0, #7
  ldp fp, lr, [sp], #16
  ret
func cold_never:
entry:
  mov x0, #99
  ret
func mid:
entry:
  stp fp, lr, [sp, #-16]!
  bl helper
  bl leaf
  ldp fp, lr, [sp], #16
  ret
func helper:
entry:
  mov x9, #1
  ret
func leaf:
entry:
  mov x10, #2
  ret
|}

let collect_sample () =
  let p = sample_program () in
  (p, Pgo.Collect.collect ~workload:"sample" ~entries:[ "main" ] p)

let build_small ?(config = Pipeline.default_config) () =
  match
    Pipeline.build_sources ~config
      (Workload.Appgen.generate_sources Workload.Appgen.small)
  with
  | Ok r -> r.Pipeline.program
  | Error e -> Alcotest.fail e

(* The small app's default build, and the entries its profiles trace. *)
let small_app = lazy (build_small ())
let small_entries = [ "main"; "span1"; "span2" ]
let small_args e = if e = "main" then [] else [ 1 ]

let collect_small () =
  Pgo.Collect.collect ~args_for:small_args ~workload:"small"
    ~entries:small_entries (Lazy.force small_app)

(* --- Profile serialization ------------------------------------------------ *)

let test_profile_roundtrip () =
  let profile =
    Pgo.Profile.make ~workload:"w" ~entries:[ "main"; "span1" ]
      ~first_touch:[ "main"; "b"; "a" ]
      ~counts:[ ("b", 2); ("main", 1); ("a", 5) ]
      ~edges:[ (("main", "b"), 2); (("b", "a"), 5) ]
      ~blocks:[ (("main", "entry"), 1); (("b", "l1"), 2) ]
      ()
  in
  let s = Pgo.Profile.to_string profile in
  (match Pgo.Profile.of_string s with
  | Ok p' ->
    Alcotest.(check bool) "round-trip equal" true (Pgo.Profile.equal profile p');
    Alcotest.(check string) "canonical re-serialization" s
      (Pgo.Profile.to_string p')
  | Error e -> Alcotest.fail ("of_string: " ^ e));
  Alcotest.(check int) "count a" 5 (Pgo.Profile.count profile "a");
  Alcotest.(check int) "edge b->a" 5
    (Pgo.Profile.edge_weight profile ~caller:"b" ~callee:"a");
  Alcotest.(check bool) "executed" true (Pgo.Profile.executed profile "b");
  Alcotest.(check bool) "not executed" false (Pgo.Profile.executed profile "z")

let test_profile_rejects_garbage () =
  let bad v =
    match Pgo.Profile.of_string v with
    | Ok _ -> Alcotest.fail "accepted malformed profile"
    | Error _ -> ()
  in
  bad "pgo-profile v99\nworkload w\n";
  bad "not-a-profile\n";
  bad "pgo-profile v1\ncount onlyonefield\n";
  bad "pgo-profile v1\nedge a b notanumber\n";
  (* A repeated key is rejected at the repeat's line (blank lines
     counted), whichever value it carries. *)
  let duplicate kind line text =
    match Pgo.Profile.of_string text with
    | Ok _ -> Alcotest.fail ("accepted a duplicate " ^ kind ^ " key")
    | Error e ->
      Alcotest.(check bool)
        (kind ^ ": " ^ e) true
        (String.starts_with
           ~prefix:(Printf.sprintf "line %d: duplicate %s key" line kind)
           e)
  in
  duplicate "count" 5
    "pgo-profile v2\nworkload w\ncount a 1\ncount b 2\ncount a 1\n";
  duplicate "touch" 4 "pgo-profile v2\ntouch a\n\ntouch a\n";
  duplicate "edge" 4 "pgo-profile v2\nedge a b 1\nedge b a 1\nedge a b 7\n";
  duplicate "block" 3 "pgo-profile v2\nblock f l 1\nblock f l 2\n";
  (* The same names under different directives are distinct keys. *)
  match
    Pgo.Profile.of_string
      "pgo-profile v2\ntouch a\ncount a 1\nedge a b 1\nblock a b 1\n"
  with
  | Ok p ->
    Alcotest.(check int) "edge a->b" 1
      (Pgo.Profile.edge_weight p ~caller:"a" ~callee:"b")
  | Error e -> Alcotest.fail ("rejected distinct keys: " ^ e)

(* Every lookup agrees with a linear scan of the list it indexes, for
   every key the profile names and for absent ones. *)
let test_profile_index () =
  let program = Lazy.force small_app in
  let check_index label (p : Pgo.Profile.t) =
    let scan l k = Option.value ~default:0 (List.assoc_opt k l) in
    let mismatches = ref [] in
    let expect what a b =
      if a <> b then
        mismatches :=
          Printf.sprintf "%s: scan %d, lookup %d" what a b :: !mismatches
    in
    let names =
      "no_such_function"
      :: List.map (fun (f : Mfunc.t) -> f.Mfunc.name) program.Program.funcs
    in
    List.iter
      (fun f ->
        expect ("count " ^ f) (scan p.counts f) (Pgo.Profile.count p f);
        expect ("executed " ^ f)
          (Bool.to_int (List.mem f p.first_touch))
          (Bool.to_int (Pgo.Profile.executed p f)))
      names;
    List.iter
      (fun ((caller, callee), w) ->
        expect ("edge " ^ caller ^ " " ^ callee) w
          (Pgo.Profile.edge_weight p ~caller ~callee))
      p.edges;
    List.iter
      (fun ((func, label), n) ->
        expect ("block " ^ func ^ " " ^ label) n
          (Pgo.Profile.block_count p ~func ~label))
      p.blocks;
    expect "absent edge" 0
      (Pgo.Profile.edge_weight p ~caller:"main" ~callee:"no_such_function");
    expect "absent block" 0
      (Pgo.Profile.block_count p ~func:"main" ~label:"no_such_label");
    Alcotest.(check bool) (label ^ ": non-empty") true
      (p.counts <> [] && p.edges <> [] && p.blocks <> []);
    Alcotest.(check (list string)) (label ^ ": index = scan") [] !mismatches
  in
  let profile = collect_small () in
  check_index "collected" profile;
  match Pgo.Profile.of_string (Pgo.Profile.to_string profile) with
  | Ok p -> check_index "round-trip" p
  | Error e -> Alcotest.fail ("of_string: " ^ e)

(* --- Collection ----------------------------------------------------------- *)

let test_collect_counts () =
  let _, profile = collect_sample () in
  Alcotest.(check (list string))
    "first touch follows execution order"
    [ "main"; "helper"; "mid"; "leaf" ]
    profile.Pgo.Profile.first_touch;
  (* helper entered from both main and mid. *)
  Alcotest.(check int) "helper entries" 2 (Pgo.Profile.count profile "helper");
  Alcotest.(check int) "main->helper" 1
    (Pgo.Profile.edge_weight profile ~caller:"main" ~callee:"helper");
  Alcotest.(check int) "mid->helper" 1
    (Pgo.Profile.edge_weight profile ~caller:"mid" ~callee:"helper");
  Alcotest.(check bool) "cold function untouched" false
    (Pgo.Profile.executed profile "cold_never")

let test_profile_determinism () =
  (* Same program + same workload twice: byte-identical serialization,
     and the bytes the collector has always written for this workload. *)
  let collect () = Pgo.Profile.to_string (collect_small ()) in
  let profile = collect () in
  Alcotest.(check string) "byte-identical profiles" profile (collect ());
  Alcotest.(check string) "pinned profile MD5" "b82266f3c2d7dd49032dec6ccd3bf5e3"
    (Digest.to_hex (Digest.string profile))

(* A run the step budget stops is reported to [on_error] and still
   contributes the counts up to the cap. *)
let test_collect_reports_step_cap () =
  let errors = ref [] in
  let profile =
    Pgo.Collect.collect
      ~config:{ Pgo.Collect.default_config with Perfsim.Interp.max_steps = 1000 }
      ~on_error:(fun entry e -> errors := (entry, e) :: !errors)
      ~workload:"capped" ~entries:[ "main" ] (Lazy.force small_app)
  in
  Alcotest.(check bool) "main reported step-capped" true
    (!errors = [ ("main", Perfsim.Interp.Step_limit_exceeded) ]);
  Alcotest.(check bool) "prefix counts kept" true
    (profile.first_touch <> [] && profile.counts <> [] && profile.blocks <> [])

(* One accumulator across two different programs — the small app built
   without outlining and with it — counts by name: its profile is the
   sum of the two single-program profiles, and its first touches are the
   first program's followed by the second's new ones. *)
let test_counts_accumulate_across_programs () =
  let plain =
    build_small
      ~config:(Pipeline.config_of_flags ~rounds:0 Pipeline.Whole_program)
      ()
  in
  let outlined = Lazy.force small_app in
  Alcotest.(check bool) "the builds differ" false
    (List.length plain.Program.funcs = List.length outlined.Program.funcs);
  let config = Pgo.Collect.default_config in
  let c = Perfsim.Interp.create_counts () in
  List.iter
    (fun p -> ignore (Perfsim.Interp.run ~config ~counts:c ~entry:"main" p))
    [ plain; outlined ];
  let l = Perfsim.Interp.count_lists c in
  let shared =
    Pgo.Profile.make ~workload:"w" ~entries:[ "main" ] ~first_touch:l.first_touch
      ~counts:l.entry_counts ~edges:l.edge_counts ~blocks:l.block_counts ()
  in
  let one p = Pgo.Collect.collect ~workload:"w" ~entries:[ "main" ] p in
  let a = one plain and b = one outlined in
  let sum xs ys =
    let t = Hashtbl.create 256 in
    List.iter
      (fun (k, n) ->
        Hashtbl.replace t k (n + Option.value ~default:0 (Hashtbl.find_opt t k)))
      (xs @ ys);
    List.of_seq (Hashtbl.to_seq t)
  in
  let summed =
    Pgo.Profile.make ~workload:"w" ~entries:[ "main" ]
      ~first_touch:
        (a.first_touch
        @ List.filter (fun f -> not (List.mem f a.first_touch)) b.first_touch)
      ~counts:(sum a.counts b.counts) ~edges:(sum a.edges b.edges)
      ~blocks:(sum a.blocks b.blocks) ()
  in
  Alcotest.(check string) "shared accumulator = sum of single runs"
    (Pgo.Profile.to_string summed) (Pgo.Profile.to_string shared)

(* --- Ordering strategies -------------------------------------------------- *)

let strategies : Pgo.Order.strategy list =
  [ `Order_file; `C3; `Balanced; `Bp_compress 0.5 ]

let test_orders_are_permutations () =
  let p, profile = collect_sample () in
  let names =
    List.sort String.compare
      (List.map (fun (f : Mfunc.t) -> f.Mfunc.name) p.Program.funcs)
  in
  List.iter
    (fun s ->
      let order = Pgo.Order.compute s profile p in
      Alcotest.(check (list string))
        (Pgo.Order.strategy_name s ^ " permutes all functions")
        names
        (List.sort String.compare order))
    strategies

let test_hot_cold_split () =
  let p, profile = collect_sample () in
  List.iter
    (fun s ->
      let order = Pgo.Order.compute s profile p in
      let cold_pos =
        Option.get
          (List.find_index (fun n -> n = "cold_never") order)
      in
      List.iteri
        (fun i n ->
          if Pgo.Profile.executed profile n then
            Alcotest.(check bool)
              (Pgo.Order.strategy_name s ^ ": hot " ^ n ^ " before cold tail")
              true (i < cold_pos))
        order)
    strategies

let test_differential_across_strategies () =
  let p, profile = collect_sample () in
  let reference = run_exn p ~entry:"main" in
  let base_layout = Linker.link p in
  List.iter
    (fun s ->
      let order = Pgo.Order.compute s profile p in
      let r = run_exn ~order p ~entry:"main" in
      Alcotest.(check int)
        (Pgo.Order.strategy_name s ^ " exit value")
        reference.Perfsim.Interp.exit_value r.Perfsim.Interp.exit_value;
      Alcotest.(check (list int))
        (Pgo.Order.strategy_name s ^ " output")
        reference.output r.output;
      let layout = Linker.link ~order p in
      Alcotest.(check int)
        (Pgo.Order.strategy_name s ^ " text size unchanged")
        base_layout.Linker.text_size layout.Linker.text_size)
    strategies

let test_linker_explicit_order () =
  let p = sample_program () in
  let order = [ "leaf"; "main" ] in
  let l = Linker.link ~order p in
  let addr = Linker.address_of l in
  Alcotest.(check int) "leaf placed first" l.Linker.text_base (addr "leaf");
  Alcotest.(check bool) "main second" true (addr "main" > addr "leaf");
  (* Unknown names are ignored; unlisted functions follow in program order. *)
  let l2 = Linker.link ~order:[ "nosuchfunc"; "mid" ] p in
  Alcotest.(check int) "unknown skipped" l2.Linker.text_base
    (Linker.address_of l2 "mid");
  Alcotest.(check int) "text size invariant" l.Linker.text_size
    l2.Linker.text_size

(* --- bp-compress ----------------------------------------------------------- *)

let test_bp_compress_w0_is_balanced () =
  let p, profile = collect_sample () in
  Alcotest.(check (list string))
    "w=0 produces exactly the balanced order (sample)"
    (Pgo.Order.balanced profile p)
    (Pgo.Order.bp_compress ~w:0.0 profile p);
  Alcotest.(check (list string))
    "compute (`Bp_compress 0.) = compute `Balanced"
    (Pgo.Order.compute `Balanced profile p)
    (Pgo.Order.compute (`Bp_compress 0.0) profile p)

let test_bp_compress_w0_is_balanced_app () =
  (* The degeneration must hold on a program big enough for the bisection
     and local search to actually run, not just on toy inputs. *)
  let program = Lazy.force small_app in
  let profile = collect_small () in
  Alcotest.(check (list string))
    "w=0 produces exactly the balanced order (small app)"
    (Pgo.Order.balanced profile program)
    (Pgo.Order.bp_compress ~w:0.0 profile program)

(* --- the compressed-size estimator ----------------------------------------- *)

(* Deterministic pseudo-random content with no internal repeats longer
   than chance: what a function body looks like to the byte model. *)
let lcg_string seed len =
  let b = Buffer.create len in
  let s = ref seed in
  for _ = 1 to len do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    Buffer.add_char b (Char.chr (Char.code 'a' + (!s mod 26)))
  done;
  Buffer.contents b

let compressed ?window s =
  (Linker.Compress.estimate_stream ?window s).Linker.Compress.compressed_bytes

let test_adjacent_beats_interleaved () =
  (* Two distinct bodies, two copies each.  With a window holding one
     body but not two, adjacent clones are back-references and
     interleaved clones are out of reach. *)
  let len = 400 in
  let a = lcg_string 1 len and b = lcg_string 2 len in
  let window = len + (len / 2) in
  let adjacent = a ^ a ^ b ^ b and interleaved = a ^ b ^ a ^ b in
  Alcotest.(check bool)
    "identical adjacent bodies compress strictly better than interleaved"
    true
    (compressed ~window adjacent < compressed ~window interleaved);
  (* Same property through the program-level API: duplicate function
     bodies adjacent vs separated, pure reordering. *)
  let p =
    parse
      {|
func main:
entry:
  mov x0, #1
  add x0, x0, #2
  mul x1, x0, x0
  sub x2, x1, x0
  eor x3, x2, x1
  ret
func clone_a:
entry:
  mov x9, #77
  add x9, x9, #3
  mul x10, x9, x9
  orr x11, x10, x9
  ret
func filler:
entry:
  mov x4, #8
  lsl x5, x4, #2
  asr x6, x5, #1
  and x7, x6, x5
  ret
func clone_b:
entry:
  mov x9, #77
  add x9, x9, #3
  mul x10, x9, x9
  orr x11, x10, x9
  ret
|}
  in
  let body_len =
    String.length
      (Content.render
         (List.find
            (fun (f : Mfunc.t) -> f.Mfunc.name = "clone_a")
            p.Program.funcs))
  in
  let window = body_len + (body_len / 2) in
  let est order =
    (Linker.compress_estimate ~window ~order p)
      .Linker.Compress.compressed_bytes
  in
  Alcotest.(check bool)
    "clones adjacent beat clones separated" true
    (est [ "main"; "clone_a"; "clone_b"; "filler" ]
    < est [ "clone_a"; "main"; "filler"; "clone_b" ])

let test_estimate_monotone_in_window () =
  (* Repeats at several distances: every window step unlocks more of
     them, so the estimate must not grow as the window does. *)
  let x = lcg_string 3 300 in
  let s =
    x ^ lcg_string 4 100 ^ x ^ lcg_string 5 800 ^ x ^ lcg_string 6 2000 ^ x
  in
  let windows = [ 0; 64; 512; 1024; 4096; Linker.Compress.window_default ] in
  let sizes = List.map (fun w -> compressed ~window:w s) windows in
  let rec check_pairs = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "estimate monotone in window size" true (b <= a);
      check_pairs rest
    | _ -> ()
  in
  check_pairs sizes;
  (* The window-0 bound is the pure-literal encoding... *)
  Alcotest.(check int) "window 0 is the literal bound"
    (((String.length s * 9) + 7) / 8)
    (compressed ~window:0 s);
  (* ...and the widest window on this input strictly beats it. *)
  Alcotest.(check bool) "redundancy inside the window pays" true
    (compressed s < compressed ~window:0 s)

(* --- Caller-affinity anchor chasing (the strategy pgo competes with) ------ *)

let test_static_callers_chain () =
  let p =
    parse
      {|
func anchor:
entry:
  stp fp, lr, [sp, #-16]!
  bl out1
  bl out1
  ldp fp, lr, [sp], #16
  ret
func other:
entry:
  stp fp, lr, [sp, #-16]!
  bl out1
  ldp fp, lr, [sp], #16
  ret
func out1:
entry:
  stp fp, lr, [sp, #-16]!
  bl out2
  ldp fp, lr, [sp], #16
  ret
func out2:
entry:
  mov x9, #3
  ret
|}
  in
  let p =
    Program.replace_funcs p
      (List.map
         (fun (f : Mfunc.t) ->
           { f with Mfunc.is_outlined = String.length f.name >= 3
                                        && String.sub f.name 0 3 = "out" })
         p.Program.funcs)
  in
  let callers = Outcore.Layout.static_callers p in
  Alcotest.(check int) "anchor calls out1 twice" 2
    (List.assoc "anchor" (Hashtbl.find callers "out1"));
  Alcotest.(check int) "out1 calls out2 once" 1
    (List.assoc "out1" (Hashtbl.find callers "out2"));
  (* out2's only caller is outlined out1, whose home is anchor: the chain
     must chase through out1 to the concrete anchor. *)
  let opt = Outcore.Layout.optimize p in
  let names = List.map (fun (f : Mfunc.t) -> f.Mfunc.name) opt.Program.funcs in
  let pos n = Option.get (List.find_index (fun x -> x = n) names) in
  Alcotest.(check int) "out1 right after anchor" (pos "anchor" + 1) (pos "out1");
  Alcotest.(check int) "out2 follows the same anchor chain" (pos "out1" + 1)
    (pos "out2");
  Alcotest.(check bool) "non-outlined order preserved" true
    (pos "anchor" < pos "other")

let () =
  Alcotest.run "pgo"
    [
      ( "profile",
        [
          Alcotest.test_case "serialization round-trip" `Quick
            test_profile_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick
            test_profile_rejects_garbage;
          Alcotest.test_case "lookups agree with the lists" `Slow
            test_profile_index;
        ] );
      ( "collect",
        [
          Alcotest.test_case "interpreter counts -> profile" `Quick
            test_collect_counts;
          Alcotest.test_case "deterministic serialized profile" `Slow
            test_profile_determinism;
          Alcotest.test_case "step cap reported, prefix kept" `Slow
            test_collect_reports_step_cap;
          Alcotest.test_case "one accumulator across two programs" `Slow
            test_counts_accumulate_across_programs;
        ] );
      ( "order",
        [
          Alcotest.test_case "strategies are permutations" `Quick
            test_orders_are_permutations;
          Alcotest.test_case "hot/cold split" `Quick test_hot_cold_split;
          Alcotest.test_case "interp differential across strategies" `Quick
            test_differential_across_strategies;
          Alcotest.test_case "linker explicit order" `Quick
            test_linker_explicit_order;
        ] );
      ( "bp-compress",
        [
          Alcotest.test_case "w=0 degenerates to balanced" `Quick
            test_bp_compress_w0_is_balanced;
          Alcotest.test_case "w=0 degenerates to balanced (small app)" `Slow
            test_bp_compress_w0_is_balanced_app;
        ] );
      ( "compress",
        [
          Alcotest.test_case "adjacent clones beat interleaved" `Quick
            test_adjacent_beats_interleaved;
          Alcotest.test_case "estimate monotone in window" `Quick
            test_estimate_monotone_in_window;
        ] );
      ( "caller-affinity",
        [
          Alcotest.test_case "static_callers + anchor chasing" `Quick
            test_static_callers_chain;
        ] );
    ]
