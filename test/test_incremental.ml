(* Tests for the incremental outlining engine (the build-time fix the
   paper's §VII calls for), which reuses a block's symbols only while the
   block is physically unchanged: byte-equality with the from-scratch
   reference, also on a program edited between rounds, whole-app
   determinism, stale-row fault detection, and the per-phase build
   profile. *)

open Machine

let ok_exn = function Ok x -> x | Error e -> Alcotest.fail e

let source p = Asm_printer.to_source p

let run_both ?(rounds = 5) p =
  let scratch, _ = Outcore.Repeat.run ~engine:`Scratch ~rounds p in
  let inc, _ = Outcore.Repeat.run ~engine:`Incremental ~rounds p in
  (scratch, inc)

let outlined_names (p : Program.t) =
  List.filter_map
    (fun (f : Mfunc.t) ->
      if f.Mfunc.is_outlined then Some f.Mfunc.name else None)
    p.Program.funcs
  |> List.sort compare

(* The uber_rider workload is built once and shared by the tests below. *)
let rider_mods =
  lazy (ok_exn (Workload.Appgen.generate_modules Workload.Appgen.uber_rider))

let rider_build = lazy (ok_exn (Pipeline.build (Lazy.force rider_mods)))

let test_engines_agree_random () =
  (* Seeded machine programs through both engines at several round counts;
     reusing unchanged blocks' symbols must never change the output. *)
  for seed = 1 to 12 do
    let p = Fuzz.Machgen.generate (Random.State.make [| seed; 11 |]) ~fuel:8 in
    List.iter
      (fun rounds ->
        let scratch, inc = run_both ~rounds p in
        if source scratch <> source inc then
          Alcotest.failf "engines diverge on seed %d, rounds %d" seed rounds)
      [ 1; 2; 5 ]
  done

let test_engines_agree_uber_rider () =
  let r = Lazy.force rider_build in
  let scratch, inc = run_both r.Pipeline.program in
  Alcotest.(check string)
    "engines byte-identical on an already-outlined rider image"
    (source scratch) (source inc);
  (* And the whole pipeline with the scratch engine matches the default. *)
  let cfg = { Pipeline.default_config with outline_engine = `Scratch } in
  let rs = ok_exn (Pipeline.build ~config:cfg (Lazy.force rider_mods)) in
  Alcotest.(check string) "pipeline output independent of engine"
    (source r.Pipeline.program)
    (source rs.Pipeline.program)

let test_uber_rider_determinism () =
  (* Building the same module list twice must reproduce the image bit for
     bit: same text, same outlined names, same sizes. *)
  let r1 = Lazy.force rider_build in
  let r2 = ok_exn (Pipeline.build (Lazy.force rider_mods)) in
  Alcotest.(check string) "identical program text" (source r1.Pipeline.program)
    (source r2.Pipeline.program);
  Alcotest.(check (list string)) "identical outlined names"
    (outlined_names r1.Pipeline.program)
    (outlined_names r2.Pipeline.program);
  Alcotest.(check int) "identical binary size" r1.Pipeline.binary_size
    r2.Pipeline.binary_size

let test_module_order_determinism () =
  (* Under Module_preserving data order, permuting the module list on the
     command line must not change what gets outlined or how big the image
     is (the §VI determinism requirement). *)
  let r1 = Lazy.force rider_build in
  let cfg = { Pipeline.default_config with data_order = Link.Module_preserving } in
  let r2 = ok_exn (Pipeline.build ~config:cfg (List.rev (Lazy.force rider_mods))) in
  Alcotest.(check (list string)) "same outlined names under permutation"
    (outlined_names r1.Pipeline.program)
    (outlined_names r2.Pipeline.program);
  Alcotest.(check int) "same binary size under permutation"
    r1.Pipeline.binary_size r2.Pipeline.binary_size;
  Alcotest.(check int) "same code size under permutation"
    r1.Pipeline.code_size r2.Pipeline.code_size

let test_stale_cache_fault_detected () =
  (* Reusing rows by name alone must be observable: the incremental engine
     either produces a different program than the reference or crashes on
     the stale sequence table.  Either way the differential catches it —
     this is the fuzz harness's second self-test fault. *)
  let p = Fuzz.Machgen.generate (Random.State.make [| 1; 11 |]) ~fuel:8 in
  let scratch, _ = Outcore.Repeat.run ~engine:`Scratch ~rounds:5 p in
  Outcore.Outliner.fault_stale_engine_rows := true;
  let caught =
    Fun.protect
      ~finally:(fun () -> Outcore.Outliner.fault_stale_engine_rows := false)
      (fun () ->
        try
          let faulty, _ = Outcore.Repeat.run ~engine:`Incremental ~rounds:5 p in
          source scratch <> source faulty
        with _ -> true)
  in
  Alcotest.(check bool) "stale rows diverge from the reference" true caught;
  (* The flag reset must restore byte-equality. *)
  let scratch', inc = run_both p in
  Alcotest.(check string) "engines agree again after fault reset"
    (source scratch') (source inc)

(* The engine keeps nothing keyed by name alone, so it may be fed a program
   edited behind its back: after round 1, double the body of a block round
   1 left alone (same label, new content) and round 2 must still equal the
   from-scratch round on the edited program.  Seeds are searched for one
   where that round rewrites the edited block, so stale symbols for it
   cannot go unnoticed. *)
let test_engine_follows_edit () =
  let opts2 = { Outcore.Outliner.default_options with round = 2 } in
  let edit (p : Program.t) fname label =
    Program.replace_funcs p
      (List.map
         (fun (f : Mfunc.t) ->
           if f.name <> fname then f
           else
             Mfunc.map_blocks
               (fun (b : Block.t) ->
                 if b.label <> label then b
                 else { b with body = Array.append b.body b.body })
               f)
         p.funcs)
  in
  let body_of (p : Program.t) fname label =
    match Program.find_func p fname with
    | None -> None
    | Some f ->
      List.find_map
        (fun (b : Block.t) -> if b.label = label then Some b.body else None)
        f.blocks
  in
  let attempt seed =
    let p = Fuzz.Machgen.generate (Random.State.make [| seed; 11 |]) ~fuel:8 in
    let round = Outcore.Repeat.round ~engine:`Incremental () in
    let p1, st1 = round 1 p in
    if st1.Outcore.Outliner.sequences_outlined = 0 then None
    else
      let untouched =
        List.concat_map
          (fun (f : Mfunc.t) ->
            if f.no_outline then []
            else
              List.filter_map
                (fun (b : Block.t) ->
                  match body_of p f.name b.label with
                  | Some body when body == b.body && Array.length body >= 2 ->
                    Some (f.name, b.label)
                  | _ -> None)
                f.blocks)
          p1.funcs
      in
      List.find_map
        (fun (fname, label) ->
          let edited = edit p1 fname label in
          let expected, _ = Outcore.Outliner.run_round opts2 edited in
          if body_of expected fname label = body_of edited fname label then
            None
          else Some (round, edited, expected))
        untouched
  in
  let rec search seed =
    if seed > 100 then
      Alcotest.fail "no seed in 1..100 outlines an edited block in round 2"
    else match attempt seed with Some x -> x | None -> search (seed + 1)
  in
  let round, edited, expected = search 1 in
  let got, _ = round 2 edited in
  Alcotest.(check string) "round 2 on the edited program equals scratch"
    (source expected) (source got)

let test_profile_phases () =
  let p = Fuzz.Machgen.generate (Random.State.make [| 3; 11 |]) ~fuel:8 in
  let profile = Outcore.Profile.create () in
  let _p', stats = Outcore.Repeat.run ~profile ~rounds:3 p in
  let rounds = Outcore.Profile.rounds profile in
  (* The round that outlines nothing and stops the loop is still executed
     and profiled, so the profile may hold one more record than the stats. *)
  let n_stats = List.length stats and n_rounds = List.length rounds in
  Alcotest.(check bool)
    (Printf.sprintf "profile records every executed round (%d stats, %d profiled)"
       n_stats n_rounds)
    true
    (n_rounds = n_stats || n_rounds = n_stats + 1);
  List.iteri
    (fun i (r : Outcore.Profile.round_profile) ->
      Alcotest.(check int) "rounds recorded in order" (i + 1) r.rp_round;
      let nonneg x = x >= 0.0 in
      Alcotest.(check bool) "phase times are non-negative" true
        (nonneg r.rp_seq_build && nonneg r.rp_tree_build
        && nonneg r.rp_enumerate && nonneg r.rp_score && nonneg r.rp_rewrite))
    rounds;
  Alcotest.(check bool) "totals add up" true
    (Outcore.Profile.total profile
    >= List.fold_left
         (fun a r -> a +. Outcore.Profile.round_total r)
         0.0 rounds
       -. 1e-9);
  Alcotest.(check bool) "json renders an array" true
    (String.length (Outcore.Profile.to_json profile) >= 2
    && (Outcore.Profile.to_json profile).[0] = '[')

let () =
  Alcotest.run "incremental"
    [
      ( "differential",
        [
          Alcotest.test_case "engines agree on random programs" `Quick
            test_engines_agree_random;
          Alcotest.test_case "engines agree on uber_rider" `Slow
            test_engines_agree_uber_rider;
          Alcotest.test_case "engine follows an edited program" `Quick
            test_engine_follows_edit;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "uber_rider builds reproducibly" `Slow
            test_uber_rider_determinism;
          Alcotest.test_case "module order does not matter" `Slow
            test_module_order_determinism;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "stale engine rows are caught" `Quick
            test_stale_cache_fault_detected;
        ] );
      ( "profile",
        [ Alcotest.test_case "per-phase rounds" `Quick test_profile_phases ] );
    ]
