(* Tests for the machine outliner: strategies, legality, cost model, greedy
   selection, repeated outlining (the paper's Figure 11), and structural
   integrity of rewritten programs. *)

open Machine

let parse text =
  match Asm_parser.parse_program text with
  | Ok p -> p
  | Error e -> Alcotest.fail ("parse error: " ^ e)

let validate_ok p =
  match Program.validate p with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid program after outlining: " ^ e)

let run ?(rounds = 1) ?options p =
  let p', stats = Outcore.Repeat.run ?options ~rounds p in
  validate_ok p';
  (p', stats)

let count_outlined p =
  List.length (List.filter (fun (f : Mfunc.t) -> f.Mfunc.is_outlined) p.Program.funcs)

(* Three functions share a 6-instruction prefix; blocks end in tail calls so
   LR is dead and the plain-call strategy applies. *)
let framed_func name k =
  Printf.sprintf
    {|
func %s:
entry:
  stp fp, lr, [sp, #-16]!
  mov x1, #1
  mov x2, #2
  mov x3, #3
  mov x4, #4
  mov x5, #5
  mov x6, #6
  mov x9, #%d
  ldp fp, lr, [sp], #16
  b ext
|}
    name k

let shared_prefix_prog =
  parse
    ("extern ext\n" ^ framed_func "f1" 101 ^ framed_func "f2" 102
   ^ framed_func "f3" 103)

let test_basic_outlining () =
  let before = Program.code_size_bytes shared_prefix_prog in
  let p', stats = run shared_prefix_prog in
  let after = Program.code_size_bytes p' in
  Alcotest.(check bool) "size shrinks" true (after < before);
  Alcotest.(check int) "one outlined function" 1 (count_outlined p');
  (match stats with
  | [ s ] ->
    Alcotest.(check int) "three sites" 3 s.Outcore.Outliner.sequences_outlined;
    (* 3 sites x 24 bytes inline, 4-byte calls, 28-byte function:
       3*(24-4) - 28 = 32. *)
    Alcotest.(check int) "bytes saved" 32 s.Outcore.Outliner.bytes_saved;
    Alcotest.(check int) "size delta matches stats" (before - after)
      s.Outcore.Outliner.bytes_saved
  | l -> Alcotest.fail (Printf.sprintf "expected 1 round, got %d" (List.length l)))

let test_ret_strategy () =
  (* Identical epilogue + ret in two functions: outlined via a tail branch,
     outlined function keeps the ret. *)
  let p =
    parse
      {|
func g1:
entry:
  mov x0, #7
  mov x1, #8
  mov x2, #9
  ret
func g2:
entry:
  mov x9, #1
  mov x0, #7
  mov x1, #8
  mov x2, #9
  ret
|}
  in
  let p', _ = run p in
  Alcotest.(check int) "one outlined function" 1 (count_outlined p');
  let outlined =
    List.find (fun (f : Mfunc.t) -> f.Mfunc.is_outlined) p'.Program.funcs
  in
  (match (Mfunc.entry outlined).Block.term with
  | Block.Ret -> ()
  | t ->
    Alcotest.fail
      (Format.asprintf "outlined function should end in ret, got %a"
         Block.pp_terminator t));
  (* Both call sites must now be tail branches. *)
  List.iter
    (fun (f : Mfunc.t) ->
      if not f.Mfunc.is_outlined then
        match (Mfunc.entry f).Block.term with
        | Block.Tail_call n ->
          Alcotest.(check string) "tail call target" outlined.Mfunc.name n
        | t ->
          Alcotest.fail
            (Format.asprintf "expected tail call in %s, got %a" f.Mfunc.name
               Block.pp_terminator t))
    p'.Program.funcs

let test_thunk_strategy () =
  (* The paper's Figure 4: a register move followed by a call, repeated.
     The outlined function must tail-call the original callee. *)
  let p =
    parse
      {|
extern swift_release
extern ext
func h1:
entry:
  mov x0, x20
  bl swift_release
  mov x9, #1
  b ext
func h2:
entry:
  mov x0, x20
  bl swift_release
  mov x9, #2
  b ext
func h3:
entry:
  mov x0, x20
  bl swift_release
  mov x9, #3
  b ext
|}
  in
  let p', _ = run p in
  Alcotest.(check int) "one outlined function" 1 (count_outlined p');
  let outlined =
    List.find (fun (f : Mfunc.t) -> f.Mfunc.is_outlined) p'.Program.funcs
  in
  (match (Mfunc.entry outlined).Block.term with
  | Block.Tail_call "swift_release" -> ()
  | t ->
    Alcotest.fail
      (Format.asprintf "thunk should tail-call the callee, got %a"
         Block.pp_terminator t));
  Alcotest.(check int) "thunk body is the prefix" 1
    (Array.length (Mfunc.entry outlined).Block.body)

let test_save_lr_strategy () =
  (* Leaf functions with a live LR and a mid-block repeat: outlining must
     spill LR around the call, and must not happen when the strategy is
     disabled. *)
  let text =
    {|
func k1:
entry:
  mov x1, #1
  mov x2, #2
  mov x3, #3
  mov x4, #4
  mov x5, #5
  mov x6, #6
  mov x9, #201
  ret
func k2:
entry:
  mov x1, #1
  mov x2, #2
  mov x3, #3
  mov x4, #4
  mov x5, #5
  mov x6, #6
  mov x9, #202
  ret
func k3:
entry:
  mov x1, #1
  mov x2, #2
  mov x3, #3
  mov x4, #4
  mov x5, #5
  mov x6, #6
  mov x9, #203
  ret
|}
  in
  let p', _ = run (parse text) in
  Alcotest.(check int) "outlined with save-lr" 1 (count_outlined p');
  let k1 = Option.get (Program.find_func p' "k1") in
  let body = (Mfunc.entry k1).Block.body in
  (match body.(0) with
  | Insn.Str (r, { base = Reg.SP; off = -16; mode = Insn.Pre }) when Reg.equal r Reg.lr -> ()
  | i -> Alcotest.fail ("expected lr spill, got " ^ Insn.to_string i));
  (match body.(2) with
  | Insn.Ldr (r, { base = Reg.SP; off = 16; mode = Insn.Post }) when Reg.equal r Reg.lr -> ()
  | i -> Alcotest.fail ("expected lr reload, got " ^ Insn.to_string i));
  (* Disabling save-lr leaves the program untouched. *)
  let options = { Outcore.Outliner.default_options with allow_save_lr = false } in
  let p2, stats = run ~options (parse text) in
  Alcotest.(check int) "no outlining without save-lr" 0 (count_outlined p2);
  Alcotest.(check int) "no rounds recorded" 0 (List.length stats)

let test_sp_blocks_save_lr () =
  (* A candidate that touches SP cannot use the save-LR strategy, because
     the spill moves SP under the candidate's feet. *)
  let text =
    {|
func s1:
entry:
  ldr x1, [sp, #8]
  mov x2, #2
  mov x3, #3
  mov x4, #4
  mov x5, #5
  mov x6, #6
  mov x9, #301
  ret
func s2:
entry:
  ldr x1, [sp, #8]
  mov x2, #2
  mov x3, #3
  mov x4, #4
  mov x5, #5
  mov x6, #6
  mov x9, #302
  ret
func s3:
entry:
  ldr x1, [sp, #8]
  mov x2, #2
  mov x3, #3
  mov x4, #4
  mov x5, #5
  mov x6, #6
  mov x9, #303
  ret
|}
  in
  let p', _ = run (parse text) in
  (* The 6-instruction prefix includes the SP load and LR is live, so the
     prefix is not outlinable; only a shorter LR-free... there is none, so
     nothing may be outlined with an SP-touching body at a live-LR site. *)
  List.iter
    (fun (f : Mfunc.t) ->
      if f.Mfunc.is_outlined then
        List.iter
          (fun (b : Block.t) ->
            Array.iter
              (fun i ->
                if Insn.touches_sp i then
                  Alcotest.fail
                    ("sp-touching insn outlined at live-LR site: "
                   ^ Insn.to_string i))
              b.Block.body)
          f.Mfunc.blocks)
    p'.Program.funcs

let test_lr_insns_never_outlined () =
  (* Prologue/epilogue sequences that save/restore LR must never move into
     an outlined function. *)
  let text =
    {|
extern callee
func p1:
entry:
  stp fp, lr, [sp, #-16]!
  bl callee
  mov x9, #1
  ldp fp, lr, [sp], #16
  ret
func p2:
entry:
  stp fp, lr, [sp, #-16]!
  bl callee
  mov x9, #2
  ldp fp, lr, [sp], #16
  ret
func p3:
entry:
  stp fp, lr, [sp, #-16]!
  bl callee
  mov x9, #3
  ldp fp, lr, [sp], #16
  ret
|}
  in
  let p', _ = run ~rounds:3 (parse text) in
  List.iter
    (fun (f : Mfunc.t) ->
      if f.Mfunc.is_outlined then
        List.iter
          (fun (b : Block.t) ->
            Array.iter
              (fun i ->
                if Insn.touches_lr i && not (Insn.is_call i) then
                  Alcotest.fail ("LR-touching insn outlined: " ^ Insn.to_string i))
              b.Block.body)
          f.Mfunc.blocks)
    p'.Program.funcs

let test_no_outline_attribute () =
  let text =
    {|
extern ext
func n1 no_outline:
entry:
  mov x1, #1
  mov x2, #2
  mov x3, #3
  b ext
func n2 no_outline:
entry:
  mov x1, #1
  mov x2, #2
  mov x3, #3
  b ext
func n3 no_outline:
entry:
  mov x1, #1
  mov x2, #2
  mov x3, #3
  b ext
|}
  in
  let p', _ = run (parse text) in
  Alcotest.(check int) "respects no_outline" 0 (count_outlined p')

(* Figure 11: BCD repeats 8 times, ABCD 5 times.  The greedy choice (BCD)
   blocks ABCD in round one; repeated outlining recovers [A; bl BCD] in
   round two. *)
let fig11_prog () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "extern ext\n";
  let a = "mov x10, #100" in
  let b = "mov x11, #111" in
  let c = "mov x12, #122" in
  let d = "mov x13, #133" in
  let pro = "  stp fp, lr, [sp, #-16]!\n" in
  let epi = "  ldp fp, lr, [sp], #16\n" in
  for i = 1 to 8 do
    Buffer.add_string buf
      (Printf.sprintf "func bcd%d:\nentry:\n%s  mov x9, #%d\n  %s\n  %s\n  %s\n  mov x8, #%d\n%s  b ext\n"
         i pro i b c d (1000 + i) epi)
  done;
  for i = 1 to 5 do
    Buffer.add_string buf
      (Printf.sprintf
         "func abcd%d:\nentry:\n%s  mov x9, #%d\n  %s\n  %s\n  %s\n  %s\n  mov x8, #%d\n%s  b ext\n"
         i pro (100 + i) a b c d (2000 + i) epi)
  done;
  parse (Buffer.contents buf)

let test_fig11_greedy_picks_bcd () =
  let p = fig11_prog () in
  let p1, stats = run ~rounds:1 p in
  (match stats with
  | s :: _ ->
    Alcotest.(check bool) "many sites outlined" true
      (s.Outcore.Outliner.sequences_outlined >= 13)
  | [] -> Alcotest.fail "nothing outlined");
  (* The first outlined function is the greedy (highest-benefit) pick: BCD
     with 13 occurrences, not ABCD. *)
  let outlined =
    List.filter (fun (f : Mfunc.t) -> f.Mfunc.is_outlined) p1.Program.funcs
  in
  let first = List.hd outlined in
  Alcotest.(check int) "greedy body length is 3" 3
    (Array.length (Mfunc.entry first).Block.body)

let test_fig11_repeat_beats_single_round () =
  let p = fig11_prog () in
  let p1, _ = run ~rounds:1 p in
  let p2, stats2 = run ~rounds:5 p in
  Alcotest.(check bool) "at least two effective rounds" true
    (List.length stats2 >= 2);
  Alcotest.(check bool) "repeated outlining is strictly smaller" true
    (Program.code_size_bytes p2 < Program.code_size_bytes p1)

let test_overlapping_occurrences () =
  (* Pattern [m;m] inside [m;m;m;m;m]: self-overlapping occurrences must be
     pruned, and the rewrite must stay well-formed. *)
  let text =
    {|
extern ext
func o1:
entry:
  stp fp, lr, [sp, #-16]!
  mov x1, #1
  mov x1, #1
  mov x1, #1
  mov x1, #1
  mov x1, #1
  ldp fp, lr, [sp], #16
  b ext
func o2:
entry:
  stp fp, lr, [sp, #-16]!
  mov x1, #1
  mov x1, #1
  mov x1, #1
  mov x1, #1
  mov x1, #1
  ldp fp, lr, [sp], #16
  b ext
func o3:
entry:
  stp fp, lr, [sp, #-16]!
  mov x1, #1
  mov x1, #1
  mov x1, #1
  mov x1, #1
  mov x1, #1
  ldp fp, lr, [sp], #16
  b ext
|}
  in
  let p = parse text in
  let before = Program.code_size_bytes p in
  let p', _ = run ~rounds:5 p in
  Alcotest.(check bool) "shrinks" true (Program.code_size_bytes p' < before)

let test_unprofitable_not_outlined () =
  (* A 2-instruction plain pattern occurring twice: 2*(8-4) - 12 < 1, so the
     outliner must leave it alone. *)
  let text =
    {|
extern ext
func u1:
entry:
  mov x1, #1
  mov x2, #2
  mov x9, #501
  b ext
func u2:
entry:
  mov x1, #1
  mov x2, #2
  mov x9, #502
  b ext
|}
  in
  let p', _ = run (parse text) in
  Alcotest.(check int) "not outlined" 0 (count_outlined p')

let test_round_stats_monotonic () =
  let p = fig11_prog () in
  let _, stats = run ~rounds:5 p in
  let cum = Outcore.Repeat.cumulative stats in
  let rec check_mono = function
    | (a : Outcore.Outliner.round_stats) :: (b : Outcore.Outliner.round_stats) :: rest ->
      Alcotest.(check bool) "cumulative sequences non-decreasing" true
        (b.sequences_outlined >= a.sequences_outlined);
      Alcotest.(check bool) "cumulative functions non-decreasing" true
        (b.functions_created >= a.functions_created);
      check_mono (b :: rest)
    | [ _ ] | [] -> ()
  in
  check_mono cum


(* A small executable-program generator (a trimmed copy of the perfsim
   differential generator) for semantics-preservation properties. *)
let gen_exec_like =
  QCheck.Gen.(
    let insn =
      oneof
        [
          map2 (fun d s -> Insn.mov_r (Reg.x d) (Reg.x s)) (int_range 0 5) (int_range 0 5);
          map2 (fun d n -> Insn.mov_i (Reg.x d) n) (int_range 0 5) (int_range 0 9);
          map3
            (fun op d s -> Insn.Binop (op, Reg.x d, Reg.x s, Insn.Rop (Reg.x ((d + s) mod 6))))
            (oneofl Insn.[ Add; Mul; And; Orr; Eor; Sub ])
            (int_range 0 5) (int_range 0 5);
        ]
    in
    map
      (fun insns ->
        let main =
          Mfunc.make ~name:"main"
            [ Block.make ~label:"entry"
                (insns @ [ Insn.mov_r (Reg.x 0) (Reg.x 3) ])
                Block.Ret ]
        in
        Program.make [ main ])
      (list_size (int_range 1 20) insn))

let arb_exec_like =
  QCheck.make gen_exec_like ~print:(fun p -> Format.asprintf "%a" Program.pp p)

(* --- Future-work features ------------------------------------------------ *)

let test_canonicalize () =
  let p =
    parse
      {|
func c1:
entry:
  add x3, x2, x1
  eor x4, x9, x5
  sub x5, x7, x6
  orr x6, xzr, x9
  ret
|}
  in
  let p', n = Outcore.Canonicalize.run p in
  Alcotest.(check int) "two rewrites" 2 n;
  let body = (Mfunc.entry (List.hd p'.Program.funcs)).Block.body in
  (match body.(0) with
  | Insn.Binop (Insn.Add, d, a, Insn.Rop b) ->
    Alcotest.(check bool) "operands ordered" true
      (Reg.equal d (Reg.x 3) && Reg.equal a (Reg.x 1) && Reg.equal b (Reg.x 2))
  | i -> Alcotest.fail ("bad add: " ^ Insn.to_string i));
  (* sub is not commutative and must be untouched. *)
  (match body.(2) with
  | Insn.Binop (Insn.Sub, _, a, Insn.Rop b) ->
    Alcotest.(check bool) "sub untouched" true
      (Reg.equal a (Reg.x 7) && Reg.equal b (Reg.x 6))
  | i -> Alcotest.fail ("bad sub: " ^ Insn.to_string i));
  (* Register moves (ORR xzr idiom = Mov) stay put. *)
  match body.(3) with
  | Insn.Mov (_, _) -> ()
  | i -> Alcotest.fail ("mov rewritten: " ^ Insn.to_string i)

let test_canonicalize_helps_outlining () =
  (* Sequences differing only in commutative operand order unify. *)
  let mk i a b =
    Printf.sprintf
      "func q%d:\nentry:\n  stp fp, lr, [sp, #-16]!\n  add x9, %s, %s\n  eor x10, x9, x11\n  mul x11, x10, x12\n  and x12, x11, x13\n  mov x8, #%d\n  ldp fp, lr, [sp], #16\n  b ext\n"
      i a b (600 + i)
  in
  let text =
    "extern ext\n" ^ mk 1 "x1" "x2" ^ mk 2 "x2" "x1" ^ mk 3 "x1" "x2"
  in
  let p = parse text in
  let plain, _ = Outcore.Repeat.run ~rounds:5 p in
  let canon, _ = Outcore.Repeat.run ~rounds:5 (fst (Outcore.Canonicalize.run p)) in
  Alcotest.(check bool) "canonicalized outlines at least as well" true
    (Program.code_size_bytes canon <= Program.code_size_bytes plain)

let test_layout_pure_permutation () =
  (* hot1 contains the pattern three times, so it is the dominant caller
     and the outlined function must be placed right after it. *)
  let seq = "  mov x11, #111\n  mov x12, #122\n  mov x13, #133\n" in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "extern ext\n";
  Buffer.add_string buf
    ("func hot1:\nentry:\n  stp fp, lr, [sp, #-16]!\n" ^ seq ^ "  mov x8, #1\n" ^ seq
   ^ "  mov x8, #2\n" ^ seq ^ "  ldp fp, lr, [sp], #16\n  b ext\n");
  for i = 2 to 6 do
    Buffer.add_string buf
      (Printf.sprintf
         "func cold%d:\nentry:\n  stp fp, lr, [sp, #-16]!\n  mov x9, #%d\n%s  mov x8, #%d\n  ldp fp, lr, [sp], #16\n  b ext\n"
         i i seq (100 + i))
  done;
  let p = parse (Buffer.contents buf) in
  let p5, _ = Outcore.Repeat.run ~rounds:5 p in
  let laid = Outcore.Layout.optimize p5 in
  Alcotest.(check int) "same code size" (Program.code_size_bytes p5)
    (Program.code_size_bytes laid);
  let names prog =
    List.sort String.compare (List.map (fun (f : Mfunc.t) -> f.Mfunc.name) prog.Program.funcs)
  in
  Alcotest.(check (list string)) "same function set" (names p5) (names laid);
  (match Program.validate laid with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* The outlined function must sit directly after its dominant caller. *)
  let arr = Array.of_list laid.Program.funcs in
  let pos name =
    let found = ref (-1) in
    Array.iteri (fun i (f : Mfunc.t) -> if f.Mfunc.name = name then found := i) arr;
    !found
  in
  let out_pos = ref (-1) in
  Array.iteri (fun i (f : Mfunc.t) -> if f.Mfunc.is_outlined then out_pos := i) arr;
  Alcotest.(check int) "outlined sits right after hot1" (pos "hot1" + 1) !out_pos

let prop_canonicalize_preserves_semantics =
  QCheck.Test.make ~count:200 ~name:"canonicalization preserves behaviour"
    arb_exec_like (fun p ->
      let interp prog =
        let config = { Perfsim.Interp.default_config with model_perf = false } in
        match Perfsim.Interp.run ~config ~entry:"main" prog with
        | Ok r -> Ok (r.Perfsim.Interp.exit_value, r.Perfsim.Interp.output)
        | Error e -> Error e
      in
      match interp p with
      | Error _ -> QCheck.assume_fail ()
      | Ok before -> (
        let p', _ = Outcore.Canonicalize.run p in
        match interp p' with
        | Error e ->
          QCheck.Test.fail_reportf "canonicalized failed: %s"
            (Perfsim.Interp.error_to_string e)
        | Ok after -> before = after))

(* Analysis / statistics pass ------------------------------------------- *)

(* Discovery has three front doors over one candidate core: the classic
   suffix tree (the serial selector, Analysis), the pooled arena tree
   (thin-WPO's long patterns) and the keyed window scanner (thin-WPO's
   windows up to length 32).  On generated programs the two trees must
   yield the same candidates, and every site the tree reports at a scanned
   length must be a scanned window, with the same call kind, and all of
   one candidate's sites under one key. *)
let test_discovery_paths_agree () =
  let pool = Sufftree.Arena_tree.create_pool () in
  let sites = ref 0 and covered = ref 0 and split = ref 0 in
  for seed = 1 to 40 do
    let p = Fuzz.Machgen.generate (Random.State.make [| seed |]) ~fuel:8 in
    let sorted l = List.sort compare l in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: arena and suffix tree agree" seed)
      true
      (sorted (Outcore.Outliner.enumerate p)
      = sorted (Outcore.Outliner.enumerate ~pool p));
    let scanned = Hashtbl.create 256 in
    Outcore.Outliner.iter_windows (Outcore.Outliner.windows p)
      ~lengths:(List.init 31 (fun i -> i + 2))
      (fun ~block ~pos ~len ~key ~call ~strategy:_ ~needs_lr_frame:_
           ~touches_sp:_ -> Hashtbl.replace scanned (block, pos, len) (key, call));
    List.iter
      (fun (c : Outcore.Candidate.t) ->
        if c.length <= 32 then begin
          let keys =
            List.filter_map
              (fun (s : Outcore.Candidate.site) ->
                incr sites;
                match Hashtbl.find_opt scanned (s.block_id, s.start, c.length) with
                | Some (key, call) when call = s.call ->
                  incr covered;
                  Some key
                | _ -> None)
              c.sites
          in
          if List.length (List.sort_uniq compare keys) > 1 then incr split
        end)
      (Outcore.Outliner.enumerate ~all:true p)
  done;
  Alcotest.(check bool) "the programs have sites to scan" true (!sites > 0);
  Alcotest.(check int) "scanning covers every enumerated site" !sites !covered;
  Alcotest.(check int) "one key per candidate" 0 !split

let test_analysis_report () =
  let p = fig11_prog () in
  let r = Outcore.Analysis.analyze p in
  Alcotest.(check bool) "has patterns" true (Array.length r.patterns > 0);
  Alcotest.(check int) "rank starts at 1" 1 r.patterns.(0).rank;
  (* Patterns are sorted by frequency. *)
  let ok = ref true in
  Array.iteri
    (fun i s ->
      if i > 0 && s.Outcore.Analysis.frequency > r.patterns.(i - 1).frequency then
        ok := false)
    r.patterns;
  Alcotest.(check bool) "sorted by frequency" true !ok;
  let hist = Outcore.Analysis.length_histogram r in
  Alcotest.(check bool) "histogram non-empty" true (hist <> []);
  let total_hist = List.fold_left (fun acc (_, n) -> acc + n) 0 hist in
  Alcotest.(check int) "histogram covers all candidates" r.candidates_total
    total_hist;
  let curve = Outcore.Analysis.cumulative_savings r in
  Alcotest.(check bool) "curve is non-decreasing" true
    (let ok = ref true in
     Array.iteri (fun i (_, v) -> if i > 0 && v < snd curve.(i - 1) then ok := false) curve;
     !ok);
  let need_all = Outcore.Analysis.patterns_needed_for r 1.0 in
  Alcotest.(check int) "all patterns reach 100%" (Array.length r.patterns) need_all

(* Property tests --------------------------------------------------------- *)

let gen_program =
  (* Random programs built from a small pool of instructions, so repeats are
     likely.  Blocks end in ret or a tail call to an extern. *)
  QCheck.Gen.(
    let insn =
      oneof
        [
          map2 (fun d s -> Insn.mov_r (Reg.x d) (Reg.x s)) (int_range 0 5) (int_range 0 5);
          map2 (fun d n -> Insn.mov_i (Reg.x d) n) (int_range 0 5) (int_range 0 3);
          map (fun d -> Insn.Binop (Insn.Add, Reg.x d, Reg.x d, Insn.Imm 1)) (int_range 0 5);
          return (Insn.Bl "ext");
        ]
    in
    let block =
      map2
        (fun insns retish -> (insns, retish))
        (list_size (int_range 0 8) insn)
        bool
    in
    map
      (fun blocks ->
        let funcs =
          List.mapi
            (fun i (insns, retish) ->
              let term = if retish then Block.Ret else Block.Tail_call "ext" in
              Mfunc.make ~name:(Printf.sprintf "f%d" i)
                [ Block.make ~label:"entry" insns term ])
            blocks
        in
        Program.make ~externs:[ "ext" ] funcs)
      (list_size (int_range 1 12) block))

let arb_program =
  QCheck.make gen_program ~print:(fun p -> Format.asprintf "%a" Program.pp p)

let prop_outlined_valid =
  QCheck.Test.make ~count:200 ~name:"outlined programs validate"
    arb_program (fun p ->
      let p', _ = Outcore.Repeat.run ~rounds:5 p in
      match Program.validate p' with Ok () -> true | Error _ -> false)

let prop_size_never_grows =
  QCheck.Test.make ~count:200 ~name:"outlining never grows code"
    arb_program (fun p ->
      let p', _ = Outcore.Repeat.run ~rounds:5 p in
      Program.code_size_bytes p' <= Program.code_size_bytes p)

let prop_fixpoint =
  QCheck.Test.make ~count:100 ~name:"outlining reaches a fixpoint"
    arb_program (fun p ->
      let p', _ = Outcore.Repeat.run ~rounds:10 p in
      let _, stats = Outcore.Repeat.run ~options:{ Outcore.Outliner.default_options with round = 100 } ~rounds:1 p' in
      stats = [])

let test_overlapping_ret_patterns () =
  (* Two ret-ending patterns whose occurrences overlap — the short one is a
     suffix of the long one — so selecting either must consume the shared
     body slots AND the terminator slot of its blocks.  Regression test for
     [site_free]/[site_take] indexing the terminator as slot [n]: with an
     [n]-slot occupancy array, probing a ret-ending site walks one past the
     body and crashes (or, if clamped, lets both patterns claim the same
     terminator). *)
  let tail long =
    let shared = "  mov x3, #3\n  mov x4, #4\n  ret\n" in
    if long then "  mov x1, #1\n  mov x2, #2\n" ^ shared
    else "  mov x9, #9\n" ^ shared
  in
  let p =
    parse
      ("func a1:\nentry:\n" ^ tail true ^ "func a2:\nentry:\n" ^ tail true
     ^ "func a3:\nentry:\n" ^ tail false ^ "func a4:\nentry:\n" ^ tail false)
  in
  (* Candidates: [mov x1; mov x2; mov x3; mov x4; ret] (2 sites, benefit
     2*16-20=12) and [mov x3; mov x4; ret] (4 sites, benefit 4*8-12=20).
     Greedy takes the short one everywhere; the long one's two sites then
     collide with already-consumed slots and it must outline nothing. *)
  let p', stats = run p in
  Alcotest.(check int) "one outlined function" 1 (count_outlined p');
  (match stats with
  | [ s ] ->
    Alcotest.(check int) "four sites" 4 s.Outcore.Outliner.sequences_outlined;
    Alcotest.(check int) "one function" 1 s.Outcore.Outliner.functions_created
  | l -> Alcotest.fail (Printf.sprintf "expected 1 round, got %d" (List.length l)));
  let outlined =
    List.find (fun (f : Mfunc.t) -> f.Mfunc.is_outlined) p'.Program.funcs
  in
  Alcotest.(check int) "outlined body is the two shared movs" 2
    (Array.length (Mfunc.entry outlined).Block.body);
  List.iter
    (fun (f : Mfunc.t) ->
      if not f.Mfunc.is_outlined then
        match (Mfunc.entry f).Block.term with
        | Block.Tail_call n ->
          Alcotest.(check string)
            (f.Mfunc.name ^ " tail-calls the outlined function")
            outlined.Mfunc.name n
        | t ->
          Alcotest.fail
            (Format.asprintf "expected tail call in %s, got %a" f.Mfunc.name
               Block.pp_terminator t))
    p'.Program.funcs

let prop_stats_match_size_delta =
  QCheck.Test.make ~count:100 ~name:"per-round bytes_saved sums to size delta"
    arb_program (fun p ->
      let p', stats = Outcore.Repeat.run ~rounds:5 p in
      let saved = List.fold_left (fun a s -> a + s.Outcore.Outliner.bytes_saved) 0 stats in
      Program.code_size_bytes p - Program.code_size_bytes p' = saved)

let () =
  Alcotest.run "outliner"
    [
      ( "strategies",
        [
          Alcotest.test_case "basic plain-call" `Quick test_basic_outlining;
          Alcotest.test_case "ends-with-ret" `Quick test_ret_strategy;
          Alcotest.test_case "thunk" `Quick test_thunk_strategy;
          Alcotest.test_case "save-lr" `Quick test_save_lr_strategy;
          Alcotest.test_case "sp blocks save-lr" `Quick test_sp_blocks_save_lr;
          Alcotest.test_case "lr insns never outlined" `Quick
            test_lr_insns_never_outlined;
        ] );
      ( "selection",
        [
          Alcotest.test_case "no_outline respected" `Quick test_no_outline_attribute;
          Alcotest.test_case "fig11 greedy picks BCD" `Quick
            test_fig11_greedy_picks_bcd;
          Alcotest.test_case "fig11 repeat beats single round" `Quick
            test_fig11_repeat_beats_single_round;
          Alcotest.test_case "overlapping ret-ending patterns" `Quick
            test_overlapping_ret_patterns;
          Alcotest.test_case "overlapping occurrences" `Quick
            test_overlapping_occurrences;
          Alcotest.test_case "unprofitable untouched" `Quick
            test_unprofitable_not_outlined;
          Alcotest.test_case "cumulative stats monotonic" `Quick
            test_round_stats_monotonic;
        ] );
      ( "discovery",
        [
          Alcotest.test_case "arena, suffix tree and probing agree" `Quick
            test_discovery_paths_agree;
        ] );
      ("analysis", [ Alcotest.test_case "report" `Quick test_analysis_report ]);
      ( "future-work",
        [
          Alcotest.test_case "canonicalize rewrites" `Quick test_canonicalize;
          Alcotest.test_case "canonicalize helps outlining" `Quick
            test_canonicalize_helps_outlining;
          Alcotest.test_case "layout is a pure permutation" `Quick
            test_layout_pure_permutation;
          QCheck_alcotest.to_alcotest prop_canonicalize_preserves_semantics;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_outlined_valid;
            prop_size_never_grows;
            prop_fixpoint;
            prop_stats_match_size_delta;
          ] );
    ]
