(* Bounded smoke tests for the differential fuzzing harness: a short
   deterministic sweep must find no divergences, generation must be
   reproducible from the seed, and the fault-injection self-test must
   catch — and shrink — a deliberately broken outliner legality rule. *)

let test_determinism () =
  let gen () =
    Fuzz.Swiftgen.print_source
      (Fuzz.Swiftgen.generate (Random.State.make [| 7; 3 |]) ~fuel:7)
  in
  Alcotest.(check string) "same seed, same program" (gen ()) (gen ());
  let m () =
    Machine.Asm_printer.to_source
      (Fuzz.Machgen.generate (Random.State.make [| 7; 4 |]) ~fuel:7)
  in
  Alcotest.(check string) "same seed, same machine program" (m ()) (m ())

let test_lattice_shape () =
  let pts = Fuzz.Lattice.points Pipeline.default_config in
  Alcotest.(check bool) "lattice has both modes and link axes" true
    (List.length pts >= 40);
  let labels = List.map fst pts in
  Alcotest.(check bool) "labels unique" true
    (List.length (List.sort_uniq compare labels) = List.length labels);
  List.iter
    (fun label ->
      Alcotest.(check bool)
        (label ^ " present") true (List.mem label labels))
    [ "pm/r0/plain"; "wp/r3/all"; "wp/r3/legacy-flags"; "wp/r3/interleaved" ]

let test_fuzz_sweep () =
  match Fuzz.Driver.fuzz ~seed:1 ~count:15 ~fuel:5 () with
  | Ok s ->
    Alcotest.(check int) "all programs generated" 15 s.Fuzz.Driver.programs;
    Alcotest.(check bool) "most programs in-domain" true (s.skipped <= 3);
    Alcotest.(check bool) "points actually checked" true
      (s.points_checked > 300)
  | Error report -> Alcotest.fail ("fuzz divergence:\n" ^ report)

let test_mixed_flags_conflict_is_exercised () =
  (* The flag machinery itself: Mixed_compilers modules must conflict under
     Legacy whole-program linking and link fine under Attributes. *)
  let mods =
    Fuzz.Lattice.attach_flags Fuzz.Swiftgen.Mixed_compilers
      [
        { Ir.m_name = "a"; funcs = []; globals = []; externs = []; flags = [] };
        { Ir.m_name = "b"; funcs = []; globals = []; externs = []; flags = [] };
      ]
  in
  (match Link.link ~flag_semantics:Link.Legacy ~name:"app" mods with
  | Error (Link.Flag_conflict _) -> ()
  | Ok _ -> Alcotest.fail "legacy link of mixed-compiler flags should conflict"
  | Error e -> Alcotest.fail (Link.error_to_string e));
  match Link.link ~flag_semantics:Link.Attributes ~name:"app" mods with
  | Ok _ -> ()
  | Error e ->
    Alcotest.fail ("attributes link should succeed: " ^ Link.error_to_string e)

let test_self_test_catches_injected_bug () =
  match Fuzz.Driver.self_test ~seed:1 () with
  | Ok _report -> ()
  | Error report -> Alcotest.fail report

let test_flag_restored_after_self_test () =
  Alcotest.(check bool) "legality flag reset" false
    !Outcore.Legality.unsafe_outline_lr

(* --- golden image corpus ---------------------------------------------------- *)

(* Byte-identity pin for pipeline refactors: program #0 of [sizeopt fuzz
   --seed S] for S = 1..golden_seeds, built at every Swiftlet lattice point,
   must keep the recorded digest of its image and function order.  A build
   error is pinned by the digest of its message.  On a mismatch the whole
   actual table is printed, ready to replace the file after an intended
   change. *)
let golden_path = "golden/lattice_images.golden"
let golden_seeds = 24
let golden_fuel = 8

let build_digest = function
  | Error e -> "error:" ^ Digest.to_hex (Digest.string e)
  | Ok (r : Pipeline.result) ->
    let order =
      match r.Pipeline.function_order with
      | None -> "-"
      | Some o -> String.concat "," o
    in
    Digest.to_hex
      (Digest.string
         (Machine.Asm_printer.to_source r.Pipeline.program ^ "\norder " ^ order))

let golden_table () =
  let pts = Fuzz.Lattice.points Pipeline.default_config in
  let rows = Buffer.create 8192 in
  Printf.bprintf rows "points %s\n" (String.concat " " (List.map fst pts));
  for seed = 1 to golden_seeds do
    let p =
      Fuzz.Swiftgen.generate (Random.State.make [| seed; 0 |]) ~fuel:golden_fuel
    in
    match Swiftlet.Compile.compile_program (Fuzz.Swiftgen.to_sources p) with
    | Error _ -> Printf.bprintf rows "%d * front-end-reject\n" seed
    | Ok modules ->
      let modules =
        Fuzz.Lattice.attach_flags p.Fuzz.Swiftgen.flag_style modules
      in
      List.iter
        (fun (label, config) ->
          Printf.bprintf rows "%d %s %s\n" seed label
            (build_digest (Pipeline.build ~config modules)))
        pts
  done;
  Buffer.contents rows

let test_golden_images () =
  let actual = golden_table () in
  let golden = In_channel.with_open_bin golden_path In_channel.input_all in
  let first_line s = List.hd (String.split_on_char '\n' s) in
  if not (String.equal actual golden) then
    Alcotest.failf "%s drifted from %s.\n--- actual table ---\n%s"
      (if first_line actual = first_line golden then "images"
       else "the lattice point labels")
      golden_path actual

let () =
  Alcotest.run "fuzz"
    [
      ( "fuzz",
        [
          Alcotest.test_case "generation is deterministic" `Quick
            test_determinism;
          Alcotest.test_case "lattice shape" `Quick test_lattice_shape;
          Alcotest.test_case "15-program differential sweep" `Slow
            test_fuzz_sweep;
          Alcotest.test_case "mixed flags exercise the legacy conflict" `Quick
            test_mixed_flags_conflict_is_exercised;
          Alcotest.test_case "self-test catches injected outliner bug" `Slow
            test_self_test_catches_injected_bug;
          Alcotest.test_case "legality flag restored" `Quick
            test_flag_restored_after_self_test;
          Alcotest.test_case "golden image corpus" `Slow test_golden_images;
        ] );
    ]
