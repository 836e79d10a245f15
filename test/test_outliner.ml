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

(* Discovery has three front doors over one repeat judge and one rule:
   the classic suffix tree (the serial selector, Analysis), the pooled
   arena tree (thin-WPO's long patterns) and the keyed window scanner
   (thin-WPO's windows up to length 32).  On generated programs the two
   trees must report the same judged repeat sites, and every site a tree
   reports at a scanned length must be a scanned window, with the same
   call kind, and all the sites reported under one key must scan to one
   key. *)
let test_discovery_paths_agree () =
  let pool = Sufftree.Arena_tree.create_pool () in
  let sites = ref 0 and covered = ref 0 and split = ref 0 in
  for seed = 1 to 40 do
    let p = Fuzz.Machgen.generate (Random.State.make [| seed |]) ~fuel:8 in
    let w = Outcore.Outliner.windows p in
    let reports ?pool () =
      let acc = ref [] in
      Outcore.Outliner.iter_repeats w ?pool ~min_length:2
        (fun ~block ~pos ~len ~key ~call ~shape ->
          acc := (block, pos, len, key, call, shape) :: !acc);
      List.rev !acc
    in
    let listed = reports () in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: arena and suffix tree agree" seed)
      true
      (List.sort compare listed = List.sort compare (reports ~pool ()));
    let scanned = Hashtbl.create 256 in
    Outcore.Outliner.iter_windows w
      ~lengths:(List.init 31 (fun i -> i + 2))
      (fun ~block ~pos ~len ~key ~call ~shape:_ ->
        Hashtbl.replace scanned (block, pos, len) (key, call));
    let keys = Hashtbl.create 256 in
    List.iter
      (fun (block, pos, len, key, call, _) ->
        if len <= 32 then begin
          incr sites;
          match Hashtbl.find_opt scanned (block, pos, len) with
          | Some (key', call') when call' = call ->
            incr covered;
            (match Hashtbl.find_opt keys key with
            | Some k when k <> key' -> incr split
            | _ -> Hashtbl.replace keys key key')
          | _ -> ()
        end)
      listed
  done;
  Alcotest.(check bool) "the programs have sites to scan" true (!sites > 0);
  Alcotest.(check int) "scanning covers every enumerated site" !sites !covered;
  Alcotest.(check int) "one key per candidate" 0 !split

(* The outlining rule against an independent oracle: strategy, LR-frame
   bit, SP bit and call kind re-derived here by naive scans of each
   window's instructions, with SP-unsafe callees recomputed by a naive
   fixed point and LR liveness asked of {!Liveness} point by point.
   Checked on every window of lengths 2-32 through [window_candidate] and
   [iter_windows], and on every site [iter_repeats] reports, under the
   default options and with every optional strategy
   switched off. *)
module Rule_oracle = struct
  open Outcore

  (* Outlined functions that touch SP, closed under "calls or tail-calls
     one of them". *)
  let sp_unsafe (p : Program.t) =
    let outlined = List.filter (fun (f : Mfunc.t) -> f.is_outlined) p.funcs in
    let callees (f : Mfunc.t) =
      List.concat_map
        (fun (b : Block.t) ->
          (match b.term with Block.Tail_call t -> [ t ] | _ -> [])
          @ List.filter_map
              (function Insn.Bl t -> Some t | _ -> None)
              (Array.to_list b.body))
        f.blocks
    in
    let rec fix unsafe =
      let unsafe' =
        List.filter_map
          (fun (f : Mfunc.t) ->
            if
              List.mem f.name unsafe
              || List.exists
                   (fun (b : Block.t) -> Array.exists Insn.touches_sp b.body)
                   f.blocks
              || List.exists (fun t -> List.mem t unsafe) (callees f)
            then Some f.name
            else None)
          outlined
      in
      if List.length unsafe' = List.length unsafe then unsafe else fix unsafe'
    in
    let unsafe = fix [] in
    fun name -> List.mem name unsafe

  (* The blocks discovery numbers, in its order. *)
  let blocks (p : Program.t) =
    Array.of_list
      (List.concat_map
         (fun (f : Mfunc.t) ->
           if f.no_outline then []
           else
             List.filter_map
               (fun (b : Block.t) ->
                 let has_ret = b.term = Block.Ret in
                 if Array.length b.body = 0 && not has_ret then None
                 else Some (f, b, has_ret))
               f.blocks)
         p.funcs)

  (* The verdict for [len] symbols at [pos]: [None], or the strategy,
     LR-frame bit, SP bit and the site's call kind ([None] when the site
     is dropped).  [note] hears which rule decided. *)
  let verdict (o : Outliner.options) ~sp_unsafe ~lr_live ~note
      ((_, (b : Block.t), has_ret) : Mfunc.t * Block.t * bool) pos len =
    let n = Array.length b.body in
    let with_ret = has_ret && pos + len = n + 1 in
    let body =
      Array.to_list (Array.sub b.body pos (if with_ret then len - 1 else len))
    in
    if body = [] then None
    else if List.exists (fun i -> Legality.classify i = Legality.Illegal) body
    then (note "illegal"; None)
    else if with_ret && not o.allow_ret then None
    else
      let strategy =
        if with_ret then Candidate.Ends_with_ret
        else
          match List.nth body (List.length body - 1) with
          | Insn.Bl _ when o.allow_thunk -> Candidate.Thunk
          | _ -> Candidate.Plain_call
      in
      let checked =
        if strategy = Candidate.Thunk then
          List.filteri (fun i _ -> i < List.length body - 1) body
        else body
      in
      let lr = List.exists Insn.is_call checked in
      let direct = List.exists Insn.touches_sp checked in
      let sp =
        direct
        || List.exists
             (function Insn.Bl t -> sp_unsafe t | _ -> false)
             checked
      in
      if lr && sp then begin
        note (if direct then "LR frame with SP" else "SP-unsafe callee");
        None
      end
      else
        let call =
          if strategy <> Candidate.Plain_call || not (lr_live pos) then
            Some Candidate.Call_free
          else if o.allow_save_lr && not sp then Some Candidate.Call_save_lr
          else None
        in
        List.iter
          (fun (tag, on) -> if on then note tag)
          [
            ("ret-ending", strategy = Candidate.Ends_with_ret);
            ("thunk", strategy = Candidate.Thunk);
            ("plain call", strategy = Candidate.Plain_call);
            ("LR frame", lr);
            ("SP-relevant", sp);
            ("save-LR site", call = Some Candidate.Call_save_lr);
            ("dropped site", call = None);
          ];
        Some (strategy, lr, sp, call)

  (* Mismatches and windows judged on [p] under [o]; [seen] collects which
     rules decided. *)
  let check seen (o : Outliner.options) p =
    let sp_unsafe = sp_unsafe p and blocks = blocks p in
    let lv = Hashtbl.create 16 in
    let lr_live s pos =
      let f, (b : Block.t), _ = blocks.(s) in
      let l =
        match Hashtbl.find_opt lv f.Mfunc.name with
        | Some l -> l
        | None ->
          let l = Liveness.compute f in
          Hashtbl.replace lv f.name l;
          l
      in
      Liveness.lr_live_before l ~label:b.label pos
    in
    let verdict s pos len =
      verdict o ~sp_unsafe ~lr_live:(lr_live s)
        ~note:(fun tag -> Hashtbl.replace seen tag ())
        blocks.(s) pos len
    in
    let bad = ref 0 and judged = ref 0 in
    let expect ok = if not ok then incr bad in
    let w = Outliner.windows ~options:o p in
    let lengths = List.init 31 (fun i -> i + 2) in
    let scanned = Hashtbl.create 1024 in
    Outliner.iter_windows w ~lengths (fun ~block ~pos ~len ~key:_ ~call ~shape ->
        Hashtbl.replace scanned (block, pos, len) (shape, call));
    Array.iteri
      (fun s ((f : Mfunc.t), (b : Block.t), has_ret) ->
        let seq_len = Array.length b.body + Bool.to_int has_ret in
        List.iter
          (fun len ->
            for pos = 0 to seq_len - len do
              incr judged;
              let v = verdict s pos len in
              (match (v, Outliner.window_candidate w ~block:s ~pos ~len) with
              | (None | Some (_, _, _, None)), None -> ()
              | Some (strategy, lr, sp, Some call), Some c ->
                let ilen = List.length c.insns in
                expect
                  (c.strategy = strategy && c.needs_lr_frame = lr
                  && c.touches_sp = sp && c.length = len
                  && c.insns = Array.to_list (Array.sub b.body pos ilen)
                  && c.sites
                     = [
                         {
                           Candidate.func = f.name;
                           block = b.label;
                           block_id = s;
                           start = pos;
                           len = ilen;
                           with_ret = ilen < len;
                           call;
                         };
                       ])
              | _ -> incr bad);
              expect
                (Hashtbl.find_opt scanned (s, pos, len)
                = match v with
                  | Some (strategy, lr, sp, Some call) ->
                    Some
                      ( Candidate.shape strategy ~needs_lr_frame:lr
                          ~touches_sp:sp,
                        call )
                  | _ -> None)
            done)
          lengths)
      blocks;
    Outliner.iter_repeats w ~min_length:2
      (fun ~block ~pos ~len ~key:_ ~call ~shape ->
        incr judged;
        expect
          (verdict block pos len
          = Some
              ( Candidate.shape_strategy shape,
                Candidate.shape_needs_lr_frame shape,
                Candidate.shape_touches_sp shape,
                Some call )));
    (!bad, !judged)
end

let test_rule_oracle () =
  let small rounds =
    (match
       Pipeline.build_sources
         ~config:(Pipeline.config_of_flags ~rounds Pipeline.Whole_program)
         (Workload.Appgen.generate_sources Workload.Appgen.small)
     with
    | Ok r -> r
    | Error e -> Alcotest.fail e)
      .Pipeline.program
  in
  let linked = small 0 in
  let shards =
    List.sort_uniq compare
      (List.map (fun (f : Mfunc.t) -> f.from_module) linked.Program.funcs)
    |> List.map (fun m ->
           ( m,
             Program.replace_funcs linked
               (List.filter
                  (fun (f : Mfunc.t) -> f.from_module = m)
                  linked.Program.funcs) ))
  in
  (* Each generated program also after one round, and the small app after
     two: calls to outlined frame fragments are SP-relevant. *)
  let programs =
    List.concat_map
      (fun seed ->
        let p = Fuzz.Machgen.generate (Random.State.make [| seed |]) ~fuel:8 in
        [
          (Printf.sprintf "seed %d" seed, p);
          ( Printf.sprintf "seed %d, outlined" seed,
            fst (Outcore.Outliner.run_round Outcore.Outliner.default_options p) );
        ])
      (List.init 40 (fun i -> i + 1))
    @ shards
    @ [ ("small app, outlined twice", small 2) ]
  in
  let strict =
    {
      Outcore.Outliner.default_options with
      allow_ret = false;
      allow_thunk = false;
      allow_save_lr = false;
    }
  in
  let judged = ref 0 and seen = Hashtbl.create 8 in
  List.iter
    (fun (label, p) ->
      List.iter
        (fun (name, o) ->
          let bad, n = Rule_oracle.check seen o p in
          judged := !judged + n;
          Alcotest.(check int) (Printf.sprintf "%s, %s options" label name) 0 bad)
        [ ("default", Outcore.Outliner.default_options); ("strict", strict) ])
    programs;
  Alcotest.(check bool) "windows were judged" true (!judged > 0);
  List.iter
    (fun tag -> Alcotest.(check bool) (tag ^ " verdicts occur") true (Hashtbl.mem seen tag))
    [
      "illegal"; "LR frame with SP"; "SP-unsafe callee"; "ret-ending";
      "thunk"; "plain call"; "LR frame"; "SP-relevant"; "save-LR site";
      "dropped site";
    ]

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

(* The interner: equal legal instructions share one symbol across blocks
   and calls; an illegal instruction (here one that reads LR) gets a new
   symbol every time, even when the same body is interned again; the ret
   symbol comes last exactly when the block ends in [ret]. *)
let test_interner () =
  let imap = Outcore.Instr_map.create () in
  let add = Insn.Binop (Insn.Add, Reg.x 1, Reg.x 2, Insn.Imm 3) in
  let mov = Insn.Mov (Reg.x 4, Insn.Imm 5) in
  let save_lr = Insn.Mov (Reg.x 28, Insn.Rop Reg.lr) in
  Alcotest.(check bool) "reading LR is illegal" true
    (Outcore.Legality.classify save_lr = Outcore.Legality.Illegal);
  let body = [| add; save_lr; mov; save_lr |] in
  let a = Outcore.Instr_map.seq_of_block imap ~has_ret:true body in
  let b = Outcore.Instr_map.seq_of_block imap ~has_ret:false body in
  let ret = Outcore.Instr_map.ret_symbol imap in
  Alcotest.(check int) "ret slot appended" 5 (Array.length a);
  Alcotest.(check int) "no ret slot" 4 (Array.length b);
  Alcotest.(check int) "ret symbol last" ret a.(4);
  Alcotest.(check bool) "ret symbol only in the ret slot" true
    (Array.for_all (fun s -> s <> ret) b
    && Array.for_all (fun s -> s <> ret) (Array.sub a 0 4));
  Alcotest.(check int) "legal shared across blocks" a.(0) b.(0);
  Alcotest.(check int) "legal shared across blocks (2)" a.(2) b.(2);
  Alcotest.(check int) "legal shared with single lookups" a.(0)
    (Outcore.Instr_map.symbol_of_insn imap add);
  let illegal = [ a.(1); a.(3); b.(1); b.(3) ] in
  Alcotest.(check int) "illegal symbols all distinct" 4
    (List.length (List.sort_uniq Int.compare illegal));
  Alcotest.(check bool) "illegal symbols never shared with legal ones" true
    (List.for_all (fun s -> s <> a.(0) && s <> a.(2)) illegal);
  Alcotest.(check bool) "a single illegal lookup is fresh too" true
    (not (List.mem (Outcore.Instr_map.symbol_of_insn imap save_lr) illegal))

(* Programs the round-level checks below run on: Machgen seeds 1-40 and the
   linked small and uber_rider apps, each before round 1 and after rounds
   1, 2 and 3 of the incremental engine. *)
let round_programs =
  lazy
    (let linked app =
       (match
          Pipeline.build_sources
            ~config:(Pipeline.config_of_flags ~rounds:0 Pipeline.Whole_program)
            (Workload.Appgen.generate_sources app)
        with
       | Ok r -> r
       | Error e -> Alcotest.fail e)
         .Pipeline.program
     in
     let rounds name p =
       let round = Outcore.Repeat.round () in
       let rec go k p acc =
         if k > 3 then List.rev acc
         else
           let p = fst (round k p) in
           go (k + 1) p ((Printf.sprintf "%s after round %d" name k, p) :: acc)
       in
       (name, p) :: go 1 p []
     in
     List.concat_map
       (fun seed ->
         rounds (Printf.sprintf "seed %d" seed)
           (Fuzz.Machgen.generate (Random.State.make [| seed |]) ~fuel:8))
       (List.init 40 (fun i -> i + 1))
     @ rounds "small app" (linked Workload.Appgen.small)
     @ rounds "uber_rider" (linked Workload.Appgen.uber_rider))

(* The rule reads LR liveness from a one-bit dataflow over LR alone
   ({!Liveness.lr_compute}).  Gen/kill liveness is separable per register,
   so at every point of every block its bit must be the LR bit of the full
   register-set dataflow. *)
let test_lr_liveness_exact () =
  let points = ref 0 and live = ref 0 in
  List.iter
    (fun (name, (p : Program.t)) ->
      List.iter
        (fun (f : Mfunc.t) ->
          let full = Liveness.compute f and lr = Liveness.lr_compute f in
          List.iter
            (fun (b : Block.t) ->
              let want = Liveness.points full ~label:b.label in
              let got = Liveness.lr_points lr ~label:b.label in
              if Bytes.length got <> Array.length want then
                Alcotest.failf "%s: %s/%s has %d LR points, not %d" name f.name
                  b.label (Bytes.length got) (Array.length want);
              Array.iteri
                (fun i set ->
                  incr points;
                  let expected = Regset.mem Reg.lr set in
                  if expected then incr live;
                  if expected <> (Bytes.get got i = '\001') then
                    Alcotest.failf "%s: %s/%s point %d: LR-only says %b" name
                      f.name b.label i (not expected))
                want)
            f.blocks)
        p.funcs)
    (Lazy.force round_programs);
  Alcotest.(check bool) "LR is live at some points and dead at others" true
    (!live > 0 && !live < !points)

(* Selection breaks benefit ties on the smallest site, compared by an int
   rank per block in place of the (func, block, start) string tuple.  On
   every site discovery finds, sorting by (rank, start) must give the
   tuple order, with ties exactly where the tuples tie. *)
let test_site_rank_order () =
  let pairs = ref 0 in
  List.iter
    (fun (name, (p : Program.t)) ->
      let rank = Outcore.Outliner.site_ranks p in
      let sites =
        List.concat_map
          (fun (c : Outcore.Candidate.t) -> c.sites)
          (Outcore.Outliner.enumerate p)
        |> List.sort_uniq compare |> Array.of_list
      in
      let key (s : Outcore.Candidate.site) = (rank.(s.block_id), s.start) in
      let tuple (s : Outcore.Candidate.site) = (s.func, s.block, s.start) in
      Array.stable_sort (fun a b -> compare (key a) (key b)) sites;
      for i = 1 to Array.length sites - 1 do
        incr pairs;
        let a = sites.(i - 1) and b = sites.(i) in
        let by_rank = compare (key a) (key b)
        and by_tuple = compare (tuple a) (tuple b) in
        if by_tuple > 0 || (by_rank = 0) <> (by_tuple = 0) then
          Alcotest.failf "%s: %s/%s+%d and %s/%s+%d ordered apart" name a.func
            a.block a.start b.func b.block b.start
      done)
    (Lazy.force round_programs);
  Alcotest.(check bool) "sites were compared" true (!pairs > 1000)

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
          Alcotest.test_case "the rule agrees with a naive oracle" `Quick
            test_rule_oracle;
          Alcotest.test_case "LR-only liveness is exact" `Quick
            test_lr_liveness_exact;
          Alcotest.test_case "site ranks order sites as tuples do" `Quick
            test_site_rank_order;
        ] );
      ( "interner",
        [
          Alcotest.test_case "legal shared, illegal fresh, ret last" `Quick
            test_interner;
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
