(* Thin-WPO: summary exchange, the global decision round, and the
   determinism contract — the output program must be a function of the
   input alone, never of the worker count, domain scheduling, or repeated
   runs.  Degenerate shardings (one module, an empty module, all-identical
   modules) exercise the boundaries of the first-appearance sharder. *)

open Machine

let ok_exn = function Ok x -> x | Error e -> Alcotest.fail e

let source p = Asm_printer.to_source p

let thin_config ?rounds workers =
  Pipeline.config_of_flags ?rounds (Pipeline.Thin_wpo { workers })

let build_thin ~workers srcs =
  ok_exn (Pipeline.build_sources ~config:(thin_config workers) srcs)

(* The small appgen workload, generated once and shared. *)
let small_srcs =
  lazy (Workload.Appgen.generate_sources Workload.Appgen.small)

let linked_small () =
  (ok_exn
     (Pipeline.build_sources
        ~config:(thin_config ~rounds:0 1)
        (Lazy.force small_srcs)))
    .Pipeline.program

let module_shards (p : Program.t) =
  List.sort_uniq compare
    (List.map (fun (f : Mfunc.t) -> f.from_module) p.Program.funcs)
  |> List.map (fun modul ->
         ( modul,
           Program.replace_funcs p
             (List.filter
                (fun (f : Mfunc.t) -> f.from_module = modul)
                p.Program.funcs) ))

(* --- summaries -------------------------------------------------------------- *)

let test_hash_stability () =
  (* Same candidate list hashed twice: identical hashes (no interner or
     scheduling dependence), and honest hashes use the full 64-bit space
     (no two distinct patterns of this probe collide). *)
  let p = Fuzz.Machgen.generate (Random.State.make [| 22; 7 |]) ~fuel:8 in
  let cands = Outcore.Outliner.enumerate p in
  Alcotest.(check bool) "the probe program yields candidates" true
    (cands <> []);
  let h1 = List.map Thinwpo.Summary.hash_candidate cands in
  let h2 = List.map Thinwpo.Summary.hash_candidate cands in
  Alcotest.(check bool) "hashing is pure" true (h1 = h2)

(* Keys join patterns, ranking hashes order them: on every keyed window,
   two materialized windows must share a key exactly when their candidates
   hash alike, and every summary entry's ranking hash must be the hash of
   the candidate at its representative.  [hash_candidate] with the
   instruction printer memoized, as it runs over every window. *)
let check_window_keys label p =
  let w = Outcore.Outliner.windows p in
  let printed = Hashtbl.create 1024 in
  let print i =
    match Hashtbl.find_opt printed i with
    | Some s -> s
    | None ->
      let s = Insn.to_string i in
      Hashtbl.replace printed i s;
      s
  in
  let hash_candidate (c : Outcore.Candidate.t) =
    Thinwpo.Summary.hash_rendered c.strategy ~needs_lr_frame:c.needs_lr_frame
      ~length:c.length (List.map print c.insns)
  in
  let by_key = Hashtbl.create 4096 and by_hash = Hashtbl.create 4096 in
  let windows = ref 0 and bad = ref 0 in
  let agree tbl k v =
    match Hashtbl.find_opt tbl k with
    | Some v' -> if v' <> v then incr bad
    | None -> Hashtbl.replace tbl k v
  in
  Outcore.Outliner.iter_windows w ~lengths:(List.init 31 (fun i -> i + 2))
    (fun ~block ~pos ~len ~key ~call:_ ~shape:_ ->
      match Outcore.Outliner.window_candidate w ~block ~pos ~len with
      | None -> incr bad
      | Some c ->
        incr windows;
        let h = hash_candidate c in
        agree by_key key h;
        agree by_hash h key);
  let s =
    Thinwpo.Engine.summarize ~state:(Thinwpo.Engine.create_state ())
      ~options:Outcore.Outliner.default_options ~modul:label p
  in
  Array.iteri
    (fun i _ ->
      let pt = s.Thinwpo.Summary.sm_pattern i in
      let block, pos = pt.ps_rep in
      match Outcore.Outliner.window_candidate w ~block ~pos ~len:pt.ps_length with
      | Some c when hash_candidate c = Lazy.force pt.ps_hash ->
        if i = 0 then
          Alcotest.(check bool) (label ^ ": memoized printing hashes alike")
            true
            (hash_candidate c = Thinwpo.Summary.hash_candidate c)
      | _ -> incr bad)
    s.sm_keys;
  Alcotest.(check int) (label ^ ": keys and hashes agree") 0 !bad;
  !windows

let test_window_keys () =
  let windows = ref 0 in
  for seed = 1 to 40 do
    let p = Fuzz.Machgen.generate (Random.State.make [| seed |]) ~fuel:8 in
    windows := !windows + check_window_keys (Printf.sprintf "seed %d" seed) p
  done;
  List.iter
    (fun (modul, shard) ->
      windows := !windows + check_window_keys modul shard)
    (module_shards (linked_small ()));
  Alcotest.(check bool) "windows were keyed" true (!windows > 0)

(* --- carried shard state ------------------------------------------------------ *)

(* Rounds run twice over: once on one state carried across the rounds,
   once on the same facts with empty scan memos every round.  Each round,
   every module's summary columns and the round's output must agree.
   Returns the blocks the carried state reused. *)
let check_carried_state label p =
  let carried = Thinwpo.Engine.create_state () in
  let cold = Thinwpo.Engine.create_state () in
  let report = Thinwpo.Engine.Report.create () in
  let rec go round p =
    if round <= 5 then begin
      let options = { Outcore.Outliner.default_options with round } in
      List.iter
        (fun (modul, shard) ->
          let columns state =
            let s = Thinwpo.Engine.summarize ~state ~options ~modul shard in
            Thinwpo.Summary.(s.sm_keys, s.sm_free, s.sm_save)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s round %d %s: summary columns" label round
               modul)
            true
            (columns carried = columns (Thinwpo.Engine.fresh_scans cold)))
        (module_shards p);
      let p1, stats =
        Thinwpo.Engine.run_round ~report ~workers:2 ~state:carried ~options p
      in
      let p2, _ =
        Thinwpo.Engine.run_round ~workers:1
          ~state:(Thinwpo.Engine.fresh_scans cold) ~options p
      in
      Alcotest.(check string)
        (Printf.sprintf "%s round %d: image" label round)
        (source p2) (source p1);
      if stats.Outcore.Outliner.sequences_outlined > 0 then go (round + 1) p1
    end
  in
  go 1 p;
  List.fold_left
    (fun acc (r : Thinwpo.Engine.Report.round) ->
      List.fold_left
        (fun acc (sh : Thinwpo.Engine.Report.shard) -> acc + sh.rs_reused)
        acc r.rr_shards)
    0
    (Thinwpo.Engine.Report.rounds report)

let test_carried_state () =
  for seed = 1 to 40 do
    let p = Fuzz.Machgen.generate (Random.State.make [| seed |]) ~fuel:8 in
    ignore (check_carried_state (Printf.sprintf "seed %d" seed) p)
  done;
  let reused = check_carried_state "small app" (linked_small ()) in
  Alcotest.(check bool) "the small app's later rounds reuse rows" true
    (reused > 0)

(* The ranked site assignment claims packed windows through the scanner's
   shape and call bits; building every window's single-site candidate
   instead must retain the same table. *)
let test_packed_refine () =
  let p = linked_small () in
  let options = Outcore.Outliner.default_options in
  let sorted table =
    List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) table [])
  in
  List.iter
    (fun workers ->
      let packed = Thinwpo.Engine.retained ~workers ~options p in
      let reference =
        Thinwpo.Engine.retained ~per_window:true ~workers ~options p
      in
      Alcotest.(check int) "one table per shard" (Array.length reference)
        (Array.length packed);
      Array.iteri
        (fun i table ->
          Alcotest.(check bool)
            (Printf.sprintf "workers=%d shard %d: same retained candidates"
               workers i)
            true
            (sorted table = sorted reference.(i)))
        packed;
      Alcotest.(check bool) "candidates were retained" true
        (Array.exists (fun t -> Hashtbl.length t > 0) packed))
    [ 1; 2 ]

(* --- the global decision round ---------------------------------------------- *)

let mk_pattern ?(strategy = Outcore.Candidate.Ends_with_ret) ?(lr = false)
    ?(sp = false) ?(len = 8) ?(free = 6) ?(save = 0) hash =
  {
    Thinwpo.Summary.ps_key = Int64.to_int hash;
    ps_hash = Lazy.from_val hash;
    ps_rep = (0, 0);
    ps_length = len;
    ps_shape =
      Outcore.Candidate.shape strategy ~needs_lr_frame:lr ~touches_sp:sp;
    ps_n_free = free;
    ps_n_save = save;
  }

let mk_summary modul patterns = Thinwpo.Summary.of_patterns ~modul patterns

let test_decide_tie_breaking () =
  (* Two patterns with identical benefit must rank by unsigned hash
     ascending — 0x10 before 0x8000000000000001 even though the latter is
     negative as a signed int64. *)
  let b =
    Outcore.Cost_model.benefit_of_counts Outcore.Candidate.Ends_with_ret
      ~needs_lr_frame:false ~pattern_len:8 ~n_free:6 ~n_save:0
  in
  Alcotest.(check bool) "the tie fixture is profitable" true (b >= 1);
  let summaries =
    [
      mk_summary "beta" [ mk_pattern 0x8000000000000001L; mk_pattern 0x10L ];
      mk_summary "alpha" [ mk_pattern 0x10L ];
    ]
  in
  let ds = Thinwpo.Summary.decide ~round:1 summaries in
  Alcotest.(check int) "both ties selected" 2 (List.length ds);
  let d0 = List.nth ds 0 and d1 = List.nth ds 1 in
  (* 0x10 has double the sites (two shards), so it wins on benefit; the
     point here is the names and ranks are stable and positional. *)
  Alcotest.(check string) "rank 0 name" "OUTLINED_THIN_1_0" d0.dc_name;
  Alcotest.(check string) "rank 1 name" "OUTLINED_THIN_1_1" d1.dc_name;
  Alcotest.(check int) "ranks positional" 1 d1.dc_rank;
  Alcotest.(check string) "host is the least contributing module" "alpha"
    d0.dc_host;
  (* Now a pure tie: equal counts, distinct hashes, one shard. *)
  let ds =
    Thinwpo.Summary.decide ~round:3
      [ mk_summary "m" [ mk_pattern 0x8000000000000001L; mk_pattern 0x10L ] ]
  in
  (match ds with
  | [ a; b ] ->
    Alcotest.(check bool) "unsigned hash order breaks the tie" true
      (a.Thinwpo.Summary.dc_hash = 0x10L
      && b.Thinwpo.Summary.dc_hash = 0x8000000000000001L);
    Alcotest.(check string) "round number in the name" "OUTLINED_THIN_3_0"
      a.Thinwpo.Summary.dc_name
  | _ -> Alcotest.fail "expected exactly two decisions");
  (* Arrival order of the summaries must not matter. *)
  let flip =
    Thinwpo.Summary.decide ~round:1
      [
        mk_summary "alpha" [ mk_pattern 0x10L ];
        mk_summary "beta" [ mk_pattern 0x8000000000000001L; mk_pattern 0x10L ];
      ]
  in
  Alcotest.(check bool) "decision table independent of summary order" true
    (Thinwpo.Summary.decide ~round:1 summaries = flip)

let test_decide_filters () =
  (* A single global site can never profit; an unprofitable pattern with
     two sites is rejected by the cost model. *)
  let ds =
    Thinwpo.Summary.decide ~round:1
      [
        mk_summary "m"
          [ mk_pattern ~free:1 0x1L; mk_pattern ~len:2 ~free:2 ~save:0 0x2L ];
      ]
  in
  Alcotest.(check int) "no decision survives the filters" 0 (List.length ds);
  (* sp-unsafety is the OR of the two legality bits. *)
  let ds =
    Thinwpo.Summary.decide ~round:1
      [
        mk_summary "m"
          [ mk_pattern ~sp:true 0x1L;
            mk_pattern ~lr:true ~save:6 ~free:0 ~strategy:Outcore.Candidate.Plain_call 0x2L ];
      ]
  in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        ("decision " ^ d.Thinwpo.Summary.dc_name ^ " marked sp-unsafe")
        true d.Thinwpo.Summary.dc_sp_unsafe)
    ds;
  Alcotest.(check bool) "the sp fixture selected something" true (ds <> [])

(* --- end-to-end determinism ------------------------------------------------- *)

let test_workers_byte_identical () =
  let srcs = Lazy.force small_srcs in
  let r1 = build_thin ~workers:1 srcs in
  (* The identity must not be vacuous: thin outlining actually fired. *)
  let outlined =
    List.fold_left
      (fun acc (s : Outcore.Outliner.round_stats) ->
        acc + s.sequences_outlined)
      0 r1.Pipeline.outline_stats
  in
  Alcotest.(check bool) "thin outlining rewrote sites" true (outlined > 0);
  List.iter
    (fun workers ->
      let r = build_thin ~workers srcs in
      Alcotest.(check string)
        (Printf.sprintf "workers=%d byte-identical to workers=1" workers)
        (source r1.Pipeline.program) (source r.Pipeline.program);
      Alcotest.(check int)
        (Printf.sprintf "workers=%d same binary size" workers)
        r1.Pipeline.binary_size r.Pipeline.binary_size)
    [ 2; 4; 0 (* auto-detect *) ];
  (* Repeated runs at the same worker count reproduce the image too. *)
  let r2 = build_thin ~workers:2 srcs in
  let r3 = build_thin ~workers:2 srcs in
  Alcotest.(check string) "repeated runs byte-identical"
    (source r2.Pipeline.program) (source r3.Pipeline.program)

let test_thin_tracks_full_wpo () =
  (* Discovery is window-complete up to the scan cap, so thin usually
     lands at or below the serial whole-program image (it even catches
     non-maximal repeats the serial enumeration misses); the optimistic
     losses that remain must stay within 1%. *)
  let srcs = Lazy.force small_srcs in
  let thin = build_thin ~workers:2 srcs in
  let full = ok_exn (Pipeline.build_sources srcs) in
  let t = thin.Pipeline.code_size and f = full.Pipeline.code_size in
  let slack = max (f / 100) 64 in
  Alcotest.(check bool)
    (Printf.sprintf "thin code size %d within 1%% of full WPO %d" t f)
    true
    (t - f <= slack)

(* --- degenerate shardings --------------------------------------------------- *)

let repeats_body =
  (* Enough straight-line repetition for the outliner to bite. *)
  {|
  var acc = s
  acc = acc * 3 + 7
  acc = acc * 3 + 7
  acc = acc * 3 + 7
  acc = acc * 3 + 7
  return acc
|}

let clone_module i =
  let src =
    Printf.sprintf
      "func work_%d_a(s: Int) -> Int {%s}\nfunc work_%d_b(s: Int) -> Int {%s}\n"
      i repeats_body i repeats_body
  in
  (Printf.sprintf "clone%d" i, src)

let test_degenerate_shardings () =
  let check label srcs =
    let r1 = build_thin ~workers:1 srcs in
    let r4 = build_thin ~workers:4 srcs in
    Alcotest.(check string) (label ^ ": workers=1 = workers=4")
      (source r1.Pipeline.program) (source r4.Pipeline.program)
  in
  (* One module: a single shard, phases degenerate to the serial shape. *)
  check "single module" [ clone_module 0 ];
  (* An empty module among real ones: an empty shard must not perturb
     sharding, naming, or the merge. *)
  check "empty module"
    [ clone_module 0; ("hollow", ""); clone_module 1 ];
  (* All-identical modules (same bodies, per-module symbol names): every
     shard reports the same pattern hashes, the join sums their counts,
     and one host emits each body. *)
  check "all-identical modules" (List.init 4 clone_module);
  (* The identical-clone case must actually outline across the shards. *)
  let r = build_thin ~workers:2 (List.init 4 clone_module) in
  let hosted =
    List.filter (fun (f : Mfunc.t) -> f.Mfunc.is_outlined) r.Pipeline.program.Program.funcs
  in
  Alcotest.(check bool) "clone corpus produced outlined hosts" true
    (hosted <> [])

let () =
  Alcotest.run "thinwpo"
    [
      ( "summary",
        [
          Alcotest.test_case "hash stability" `Quick test_hash_stability;
          Alcotest.test_case "window keys agree with content hashes" `Quick
            test_window_keys;
          Alcotest.test_case "carried shard state equals a cold scan" `Quick
            test_carried_state;
          Alcotest.test_case "packed refine equals per-window candidates"
            `Quick test_packed_refine;
        ] );
      ( "decide",
        [
          Alcotest.test_case "tie-breaking" `Quick test_decide_tie_breaking;
          Alcotest.test_case "filters" `Quick test_decide_filters;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical across workers" `Quick
            test_workers_byte_identical;
          Alcotest.test_case "thin tracks full WPO size" `Quick
            test_thin_tracks_full_wpo;
          Alcotest.test_case "degenerate shardings" `Quick
            test_degenerate_shardings;
        ] );
    ]
