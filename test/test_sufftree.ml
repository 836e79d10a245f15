(* Tests for the generalized suffix tree, including cross-checks against the
   quadratic reference implementation. *)

let check = Alcotest.(check bool)

let occ_list =
  Alcotest.testable
    (fun ppf l ->
      List.iter
        (fun (o : Sufftree.Suffix_tree.occurrence) ->
          Format.fprintf ppf "(%d,%d) " o.seq o.pos)
        l)
    ( = )

let banana = [| 1; 2; 3; 2; 3; 2 |] (* b a n a n a *)

let test_contains () =
  let t = Sufftree.Suffix_tree.build [ banana ] in
  check "ana" true (Sufftree.Suffix_tree.contains t [| 2; 3; 2 |]);
  check "anan" true (Sufftree.Suffix_tree.contains t [| 2; 3; 2; 3 |]);
  check "banana" true (Sufftree.Suffix_tree.contains t banana);
  check "nab" false (Sufftree.Suffix_tree.contains t [| 3; 2; 1 |]);
  check "empty" true (Sufftree.Suffix_tree.contains t [||]);
  check "bananas" false (Sufftree.Suffix_tree.contains t [| 1; 2; 3; 2; 3; 2; 9 |])

let test_leaves () =
  let t = Sufftree.Suffix_tree.build [ banana ] in
  (* 6 symbols + 1 sentinel = 7 suffixes. *)
  Alcotest.(check int) "leaf count" 7 (Sufftree.Suffix_tree.count_leaves t)

let test_repeats_banana () =
  let t = Sufftree.Suffix_tree.build [ banana ] in
  let reps = Sufftree.Suffix_tree.repeats ~min_length:2 t in
  (* Right-maximal repeats of length >= 2 in "banana": "ana" (an occurs only
     as prefix of ana; "na" likewise is right-maximal? na occurs at 2 and 4,
     followed by 'n' and end -> right-maximal). *)
  let syms r =
    match r.Sufftree.Suffix_tree.occs with
    | o :: _ -> Array.to_list (Sufftree.Suffix_tree.substring_at t o r.length)
    | [] -> []
  in
  let sorted = List.sort compare (List.map syms reps) in
  Alcotest.(check (list (list int)))
    "repeats" [ [ 2; 3; 2 ]; [ 3; 2 ] ] sorted

let test_multi_sequence () =
  (* Pattern [5;6] appears once in each of two sequences: the generalized
     tree must find it without gluing sequences together. *)
  let t = Sufftree.Suffix_tree.build [ [| 5; 6; 1 |]; [| 2; 5; 6 |] ] in
  let reps = Sufftree.Suffix_tree.repeats ~min_length:2 t in
  let target =
    List.find_opt
      (fun r ->
        r.Sufftree.Suffix_tree.length = 2
        &&
        match r.occs with
        | o :: _ ->
          Sufftree.Suffix_tree.substring_at t o 2 = [| 5; 6 |]
        | [] -> false)
      reps
  in
  match target with
  | None -> Alcotest.fail "pattern [5;6] not found"
  | Some r ->
    Alcotest.check occ_list "occurrences"
      [ { Sufftree.Suffix_tree.seq = 0; pos = 0 }; { seq = 1; pos = 1 } ]
      r.occs

let test_no_cross_sequence_repeat () =
  (* [1;2] would repeat only if sequences were glued: seq0 ends with 1 and
     seq1 starts with 2. *)
  let t = Sufftree.Suffix_tree.build [ [| 7; 1 |]; [| 2; 8 |] ] in
  let reps = Sufftree.Suffix_tree.repeats ~min_length:2 t in
  Alcotest.(check int) "no repeats" 0 (List.length reps)

let test_negative_rejected () =
  Alcotest.check_raises "negative symbol"
    (Invalid_argument "Suffix_tree.build: negative symbol") (fun () ->
      ignore (Sufftree.Suffix_tree.build [ [| 1; -3 |] ]))

(* Cross-check against the naive reference on random inputs. *)
let normalize_tree_repeats t reps =
  List.map
    (fun (r : Sufftree.Suffix_tree.repeat) ->
      let syms =
        match r.occs with
        | o :: _ -> Array.to_list (Sufftree.Suffix_tree.substring_at t o r.length)
        | [] -> []
      in
      let occs =
        List.sort
          (fun (a : Sufftree.Suffix_tree.occurrence) b ->
            match Int.compare a.seq b.seq with
            | 0 -> Int.compare a.pos b.pos
            | c -> c)
          r.occs
      in
      (syms, occs))
    reps
  |> List.sort compare

let gen_seqs =
  QCheck.Gen.(
    let seq = list_size (int_range 0 24) (int_range 0 3) in
    map (List.map Array.of_list) (list_size (int_range 1 3) seq))

let arb_seqs =
  QCheck.make gen_seqs
    ~print:(fun seqs ->
      String.concat "|"
        (List.map
           (fun s ->
             String.concat ","
               (List.map string_of_int (Array.to_list s)))
           seqs))

let prop_matches_naive =
  QCheck.Test.make ~count:300 ~name:"tree repeats = naive right-maximal repeats"
    arb_seqs (fun seqs ->
      let t = Sufftree.Suffix_tree.build seqs in
      let tree = normalize_tree_repeats t (Sufftree.Suffix_tree.repeats ~min_length:2 t) in
      let naive = Sufftree.Naive.repeats ~min_length:2 seqs in
      tree = naive)

(* Deterministic seeded sweep: 200 random inputs with longer sequences and
   a wider alphabet than the QCheck shrinker-friendly generator explores.
   Any disagreement prints the offending input, which reproduces from the
   fixed seed alone. *)
let test_seeded_matches_naive () =
  let st = Random.State.make [| 0x5eed; 200 |] in
  for i = 1 to 200 do
    let n_seqs = 1 + Random.State.int st 3 in
    let seqs =
      List.init n_seqs (fun _ ->
          Array.init (Random.State.int st 48) (fun _ -> Random.State.int st 7))
    in
    let t = Sufftree.Suffix_tree.build seqs in
    let tree =
      normalize_tree_repeats t (Sufftree.Suffix_tree.repeats ~min_length:2 t)
    in
    let naive = Sufftree.Naive.repeats ~min_length:2 seqs in
    if tree <> naive then
      Alcotest.failf "seeded case %d: tree/naive disagree on %s" i
        (String.concat "|"
           (List.map
              (fun s ->
                String.concat ","
                  (List.map string_of_int (Array.to_list s)))
              seqs))
  done

let prop_contains =
  QCheck.Test.make ~count:300 ~name:"contains agrees with substring scan"
    QCheck.(pair arb_seqs (make QCheck.Gen.(list_size (int_range 1 4) (int_range 0 3))))
    (fun (seqs, needle_l) ->
      let needle = Array.of_list needle_l in
      let t = Sufftree.Suffix_tree.build seqs in
      let naive_contains =
        List.exists
          (fun s ->
            let n = Array.length s and m = Array.length needle in
            let rec at i =
              if i + m > n then false
              else if Array.sub s i m = needle then true
              else at (i + 1)
            in
            at 0)
          seqs
      in
      Sufftree.Suffix_tree.contains t needle = naive_contains)

(* The arena tree must report exactly the classic tree's repeat set,
   including when its buffers come from a reused pool.  Both trees report
   through the callback API; [collect] copies each report out of the
   reused buffer and checks the buffer is in strictly increasing text
   order.  Occurrence symbols are read back from the input sequences since
   the arena tree has no [substring_at]. *)
let collect iter =
  let acc = ref [] in
  iter (fun ~length ~occs ~count ->
      if count < 2 then Alcotest.failf "a repeat reported %d occurrences" count;
      for i = 1 to count - 1 do
        if occs.(i - 1) >= occs.(i) then
          Alcotest.fail "occurrences out of text order"
      done;
      let occs =
        List.init count (fun i ->
            {
              Sufftree.Suffix_tree.seq = Sufftree.Suffix_tree.occ_seq occs.(i);
              pos = Sufftree.Suffix_tree.occ_pos occs.(i);
            })
      in
      acc := { Sufftree.Suffix_tree.length; occs } :: !acc);
  List.rev !acc

let arena_repeats a = collect (Sufftree.Arena_tree.iter_repeats ~min_length:2 a)

let normalize_arena_repeats seqs reps =
  let arr = Array.of_list seqs in
  List.map
    (fun (r : Sufftree.Suffix_tree.repeat) ->
      let syms =
        match r.occs with
        | (o : Sufftree.Suffix_tree.occurrence) :: _ ->
          Array.to_list (Array.sub arr.(o.seq) o.pos r.length)
        | [] -> []
      in
      (syms, r.occs))
    reps
  |> List.sort compare

let prop_arena_matches_classic =
  QCheck.Test.make ~count:300 ~name:"arena repeats = classic repeats"
    arb_seqs (fun seqs ->
      let c = Sufftree.Suffix_tree.build seqs in
      let a = Sufftree.Arena_tree.build (Array.of_list seqs) in
      let listed = Sufftree.Suffix_tree.repeats ~min_length:2 c in
      normalize_arena_repeats seqs (arena_repeats a)
      = normalize_tree_repeats c listed
      && collect (Sufftree.Suffix_tree.iter_repeats ~min_length:2 c) = listed)

let check_pooled pool seqs what =
  let a = Sufftree.Arena_tree.build ~pool (Array.of_list seqs) in
  let c = Sufftree.Suffix_tree.build seqs in
  let got = normalize_arena_repeats seqs (arena_repeats a) in
  let want =
    normalize_tree_repeats c (Sufftree.Suffix_tree.repeats ~min_length:2 c)
  in
  if got <> want then
    Alcotest.failf "pooled build %s disagrees with the classic tree" what;
  let suffixes = List.fold_left (fun acc s -> acc + Array.length s + 1) 0 seqs in
  Alcotest.(check int) "leaf count" suffixes (Sufftree.Arena_tree.count_leaves a)

let test_arena_pool_reuse () =
  (* Consecutive builds on one pool with growing and shrinking inputs: a
     recycled (oversized) array that is not fully re-initialized would leak
     the previous tree's state into this one. *)
  let pool = Sufftree.Arena_tree.create_pool () in
  let st = Random.State.make [| 0xa12e; 60 |] in
  for i = 1 to 60 do
    let n_seqs = 1 + Random.State.int st 3 in
    let seqs =
      List.init n_seqs (fun _ ->
          Array.init (Random.State.int st 40) (fun _ -> Random.State.int st 6))
    in
    check_pooled pool seqs (string_of_int i)
  done

(* The tree recycles arrays that construction leaves dead (suffix links,
   the children table) as its tour's cursor and stack and its report
   buffer.  A large build, then a small one and a larger one on one pool:
   every array the small tree borrows is oversized and full of the large
   tree's state, and the larger one outgrows them all again, so reuse that
   aliased live data, or read past what it wrote, would disagree with the
   classic tree. *)
let test_arena_recycled_arrays () =
  let pool = Sufftree.Arena_tree.create_pool () in
  let st = Random.State.make [| 0xdead; 3 |] in
  let input n_seqs len alphabet =
    List.init n_seqs (fun _ ->
        Array.init len (fun _ -> Random.State.int st alphabet))
  in
  check_pooled pool (input 40 60 5) "large";
  check_pooled pool (input 3 12 3) "small";
  check_pooled pool (input 80 70 4) "larger";
  check_pooled pool (input 1 0 2) "empty sequence";
  check_pooled pool (input 60 50 7) "large again"

let prop_leaf_count =
  QCheck.Test.make ~count:200 ~name:"leaf count = number of suffixes"
    arb_seqs (fun seqs ->
      let t = Sufftree.Suffix_tree.build seqs in
      let expected =
        List.fold_left (fun acc s -> acc + Array.length s + 1) 0 seqs
      in
      Sufftree.Suffix_tree.count_leaves t = expected)

let () =
  Alcotest.run "sufftree"
    [
      ( "suffix_tree",
        [
          Alcotest.test_case "contains" `Quick test_contains;
          Alcotest.test_case "leaf count" `Quick test_leaves;
          Alcotest.test_case "banana repeats" `Quick test_repeats_banana;
          Alcotest.test_case "multi-sequence repeat" `Quick test_multi_sequence;
          Alcotest.test_case "no cross-sequence repeat" `Quick
            test_no_cross_sequence_repeat;
          Alcotest.test_case "negative symbols rejected" `Quick
            test_negative_rejected;
          Alcotest.test_case "seeded 200-array naive agreement" `Quick
            test_seeded_matches_naive;
        ] );
      ( "arena_tree",
        [
          Alcotest.test_case "pooled builds stay correct" `Quick
            test_arena_pool_reuse;
          Alcotest.test_case "recycled arrays alias nothing live" `Quick
            test_arena_recycled_arrays;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_matches_naive; prop_contains; prop_leaf_count;
            prop_arena_matches_classic;
          ] );
    ]
