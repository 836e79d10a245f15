(* Tests for the linker, caches and machine-code interpreter, plus the
   central differential property of the whole project: outlining preserves
   program semantics. *)

open Machine

let parse text =
  match Asm_parser.parse_program text with
  | Ok p -> p
  | Error e -> Alcotest.fail ("parse error: " ^ e)

let run_exn ?config ?args p ~entry =
  match Perfsim.Interp.run ?config ?args ~entry p with
  | Ok r -> r
  | Error e -> Alcotest.fail ("exec error: " ^ Perfsim.Interp.error_to_string e)

(* --- Linker -------------------------------------------------------------- *)

let test_linker_layout () =
  let p =
    parse
      {|
extern ext
data tbl: 1 2 3
func a:
entry:
  nop
  ret
func b:
entry:
  adr x0, tbl
  b ext
|}
  in
  let l = Linker.link p in
  Alcotest.(check int) "text size = code size" (Program.code_size_bytes p)
    l.Linker.text_size;
  Alcotest.(check int) "data size" 24 l.Linker.data_size;
  let a = Linker.address_of l "a" and b = Linker.address_of l "b" in
  Alcotest.(check int) "a at text base" l.Linker.text_base a;
  Alcotest.(check int) "b follows a" (a + 8) b;
  Alcotest.(check bool) "data above text" true
    (Linker.address_of l "tbl" >= l.Linker.data_base);
  Alcotest.(check bool) "extern mapped high" true
    (Linker.address_of l "ext" > 0x1000_0000);
  Alcotest.(check int) "binary size" (l.Linker.text_size + l.Linker.data_size + l.Linker.image_overhead)
    (Linker.binary_size l)

let test_duplicate_bodies () =
  let p =
    parse
      {|
func c1:
entry:
  mov x0, #1
  ret
func c2:
entry:
  mov x0, #1
  ret
func c3:
entry:
  mov x0, #2
  ret
|}
  in
  match Linker.duplicate_function_bodies p with
  | [ (2, 8) ] -> ()
  | other ->
    Alcotest.fail
      (Printf.sprintf "expected one clone group of 2 x 8 bytes, got %d groups"
         (List.length other))

(* --- Caches -------------------------------------------------------------- *)

let test_icache () =
  let c = Perfsim.Icache.create ~size_bytes:256 ~line_bytes:64 ~assoc:2 in
  (* 2 sets x 2 ways. *)
  Alcotest.(check bool) "cold miss" false (Perfsim.Icache.access c 0);
  Alcotest.(check bool) "same line hits" true (Perfsim.Icache.access c 60);
  Alcotest.(check bool) "next line misses" false (Perfsim.Icache.access c 64);
  (* Fill set 0 beyond its 2 ways: lines 0, 128, 256 map to set 0. *)
  ignore (Perfsim.Icache.access c 128);
  ignore (Perfsim.Icache.access c 256);
  (* Line 0 was LRU in set 0 and must have been evicted. *)
  Alcotest.(check bool) "lru evicted" false (Perfsim.Icache.access c 0);
  Alcotest.(check bool) "counted" true (Perfsim.Icache.misses c >= 4)

let test_tlb () =
  let t = Perfsim.Tlb.create ~entries:2 ~page_bytes:4096 in
  Alcotest.(check bool) "cold" false (Perfsim.Tlb.access t 100);
  Alcotest.(check bool) "same page" true (Perfsim.Tlb.access t 4000);
  Alcotest.(check bool) "second page" false (Perfsim.Tlb.access t 5000);
  Alcotest.(check bool) "third page evicts first" false (Perfsim.Tlb.access t 9000);
  Alcotest.(check bool) "first page gone" false (Perfsim.Tlb.access t 100)

(* --- Interpreter --------------------------------------------------------- *)

let sum_prog =
  parse
    {|
func sum:
entry:
  mov x1, #0
  mov x2, #1
  b loop
loop:
  cmp x2, x0
  b.gt done, body
body:
  add x1, x1, x2
  add x2, x2, #1
  b loop
done:
  mov x0, x1
  ret
|}

let test_loop_sum () =
  let r = run_exn sum_prog ~entry:"sum" ~args:[ 10 ] in
  Alcotest.(check int) "sum 1..10" 55 r.exit_value;
  let r0 = run_exn sum_prog ~entry:"sum" ~args:[ 0 ] in
  Alcotest.(check int) "empty sum" 0 r0.exit_value

let fib_prog =
  parse
    {|
func fib:
entry:
  cmp x0, #2
  b.lt base, rec
base:
  ret
rec:
  stp fp, lr, [sp, #-16]!
  stp x19, x20, [sp, #-16]!
  mov x19, x0
  sub x0, x19, #1
  bl fib
  mov x20, x0
  sub x0, x19, #2
  bl fib
  add x0, x20, x0
  ldp x19, x20, [sp], #16
  ldp fp, lr, [sp], #16
  ret
|}

let test_recursion () =
  let r = run_exn fib_prog ~entry:"fib" ~args:[ 10 ] in
  Alcotest.(check int) "fib 10" 55 r.exit_value;
  Alcotest.(check bool) "made calls" true (r.calls > 50)

let test_memory_and_globals () =
  let p =
    parse
      {|
data tbl: 10 20 30
data ptrs: @tbl
func main:
entry:
  adr x1, ptrs
  ldr x2, [x1]       ; x2 = &tbl
  ldr x3, [x2, #8]   ; 20
  ldr x4, [x2, #16]  ; 30
  add x0, x3, x4
  str x0, [x2]       ; overwrite tbl[0]
  ldr x5, [x2]
  add x0, x0, x5
  ret
|}
  in
  let r = run_exn p ~entry:"main" in
  Alcotest.(check int) "loads/stores" 100 r.exit_value

let test_csel_cset_div () =
  let p =
    parse
      {|
func main:
entry:
  mov x1, #7
  mov x2, #0
  sdiv x3, x1, x2     ; AArch64: x/0 = 0
  cmp x1, #7
  cset x4, eq         ; 1
  cmp x1, #8
  csel x5, x1, x4, eq ; not equal -> x4 = 1
  add x0, x3, x4
  add x0, x0, x5
  ret
|}
  in
  let r = run_exn p ~entry:"main" in
  Alcotest.(check int) "csel/cset/sdiv" 2 r.exit_value

let test_runtime_alloc_refcount () =
  let p =
    parse
      {|
extern swift_allocObject
extern swift_retain
extern swift_release
extern print_i64
func main:
entry:
  stp fp, lr, [sp, #-16]!
  mov x0, #42          ; "metadata"
  mov x1, #32          ; size
  bl swift_allocObject
  mov x19, x0
  bl swift_retain
  mov x0, x19
  bl swift_retain
  mov x0, x19
  ldr x0, [x19]        ; refcount must be 3
  bl print_i64
  mov x0, x19
  bl swift_release
  ldr x0, [x19]        ; 2
  bl print_i64
  ldr x0, [x19, #8]    ; metadata
  bl print_i64
  ldp fp, lr, [sp], #16
  ret
|}
  in
  let r = run_exn p ~entry:"main" in
  Alcotest.(check (list int)) "refcounts and metadata" [ 3; 2; 42 ] r.output

let test_tail_call_semantics () =
  let p =
    parse
      {|
func double_inc:
entry:
  add x0, x0, #1
  b double        ; tail call: returns directly to main's caller site
func double:
entry:
  add x0, x0, x0
  ret
func main:
entry:
  stp fp, lr, [sp, #-16]!
  mov x0, #20
  bl double_inc
  add x0, x0, #1  ; 43
  ldp fp, lr, [sp], #16
  ret
|}
  in
  let r = run_exn p ~entry:"main" in
  Alcotest.(check int) "tail call" 43 r.exit_value

let test_step_limit () =
  let p = parse "func spin:\nentry:\n  nop\n  b entry\n" in
  let config = { Perfsim.Interp.default_config with max_steps = 1000 } in
  match Perfsim.Interp.run ~config ~entry:"spin" p with
  | Error Perfsim.Interp.Step_limit_exceeded -> ()
  | Ok _ -> Alcotest.fail "expected step limit"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Perfsim.Interp.error_to_string e)

let test_null_and_unknown () =
  let p = parse "func main:\nentry:\n  mov x1, #0\n  ldr x0, [x1]\n  ret\n" in
  (match Perfsim.Interp.run ~entry:"main" p with
  | Error Perfsim.Interp.Null_access -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected null access");
  let p2 = parse "extern mystery\nfunc main:\nentry:\n  stp fp, lr, [sp, #-16]!\n  bl mystery\n  ldp fp, lr, [sp], #16\n  ret\n" in
  (match Perfsim.Interp.run ~entry:"main" p2 with
  | Error (Perfsim.Interp.Unknown_symbol "mystery") -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected unknown symbol");
  let config = { Perfsim.Interp.default_config with unknown_extern = `Noop } in
  match Perfsim.Interp.run ~config ~entry:"main" p2 with
  | Ok r -> Alcotest.(check int) "noop extern returns 0" 0 r.exit_value
  | Error e -> Alcotest.fail (Perfsim.Interp.error_to_string e)

let test_perf_counters () =
  let r = run_exn fib_prog ~entry:"fib" ~args:[ 15 ] in
  Alcotest.(check bool) "cycles > steps" true (r.cycles > r.steps);
  Alcotest.(check bool) "icache accessed once per step" true
    (r.icache_accesses = r.steps);
  (* A hot recursive function should hit in cache nearly always. *)
  Alcotest.(check bool) "icache mostly hits" true
    (r.icache_misses * 100 < r.icache_accesses)

(* --- Cold-start page-in ---------------------------------------------------- *)

(* main calls a tiny [early] helper, then a [late] function pushed more
   than a page away by ~20 KiB of padding.  The cold-start window closes
   when [early] returns — the first completed intra-image call — so only
   the pages fetched up to that point count. *)
let cold_start_prog () =
  let b = Buffer.create 65536 in
  Buffer.add_string b
    "func main:\n\
     entry:\n\
     \  stp fp, lr, [sp, #-16]!\n\
     \  bl early\n\
     \  bl late\n\
     \  mov x0, #5\n\
     \  ldp fp, lr, [sp], #16\n\
     \  ret\n";
  Buffer.add_string b "func early:\nentry:\n  mov x9, #1\n  ret\n";
  Buffer.add_string b "func pad:\nentry:\n";
  for _ = 1 to 5000 do
    Buffer.add_string b "  add x9, x9, #1\n"
  done;
  Buffer.add_string b "  ret\n";
  Buffer.add_string b "func late:\nentry:\n  mov x10, #2\n  ret\n";
  parse (Buffer.contents b)

let test_cold_start_pages () =
  let p = cold_start_prog () in
  let run order =
    match Perfsim.Interp.run ~order ~entry:"main" p with
    | Ok r -> r
    | Error e ->
      Alcotest.fail ("exec error: " ^ Perfsim.Interp.error_to_string e)
  in
  let near = run [ "main"; "early"; "pad"; "late" ] in
  (* main and early share the first 16 KiB page; late's page is faulted
     after the marker and must not count. *)
  Alcotest.(check int) "helper on the entry page: one cold page" 1
    near.cold_start_pages;
  Alcotest.(check bool) "cold-start cost priced per page" true
    (near.cold_start_cost > 0
    && near.cold_start_cost mod near.cold_start_pages = 0);
  (* The padding between main and early now forces a second fault before
     the marker. *)
  let far = run [ "main"; "pad"; "early"; "late" ] in
  Alcotest.(check bool) "separating the helper faults more pages" true
    (far.cold_start_pages > near.cold_start_pages);
  Alcotest.(check int) "same semantics either way" near.exit_value
    far.exit_value

let test_cold_start_deterministic () =
  let p = cold_start_prog () in
  let r1 = run_exn p ~entry:"main" and r2 = run_exn p ~entry:"main" in
  Alcotest.(check int) "cold pages repeat" r1.cold_start_pages
    r2.cold_start_pages;
  Alcotest.(check int) "cold cost repeats" r1.cold_start_cost
    r2.cold_start_cost;
  let config = { Perfsim.Interp.default_config with model_perf = false } in
  let r3 = run_exn ~config p ~entry:"main" in
  Alcotest.(check int) "no perf model, no page-in trace" 0 r3.cold_start_pages;
  Alcotest.(check int) "no perf model, no cold cost" 0 r3.cold_start_cost

let test_backtrace_through_outlined_code () =
  (* §VI-4: a crash inside an outlined function must show
     OUTLINED_FUNCTION_* as the leaf frame, with the real feature function
     one level deeper. *)
  let text =
    {|
func feature_a:
entry:
  stp fp, lr, [sp, #-16]!
  mov x1, #0
  mov x2, #7
  mov x3, #8
  mov x4, #9
  mov x5, #10
  ldr x6, [x1]
  ldp fp, lr, [sp], #16
  ret
func feature_b:
entry:
  stp fp, lr, [sp, #-16]!
  mov x1, #0
  mov x2, #7
  mov x3, #8
  mov x4, #9
  mov x5, #10
  ldr x6, [x1]
  ldp fp, lr, [sp], #16
  ret
func feature_c:
entry:
  stp fp, lr, [sp, #-16]!
  mov x1, #0
  mov x2, #7
  mov x3, #8
  mov x4, #9
  mov x5, #10
  ldr x6, [x1]
  ldp fp, lr, [sp], #16
  ret
func main:
entry:
  stp fp, lr, [sp, #-16]!
  bl feature_a
  ldp fp, lr, [sp], #16
  ret
|}
  in
  let p = parse text in
  let p', _ = Outcore.Repeat.run ~rounds:5 p in
  (* The null deref sits inside an outlined function now. *)
  let has_outlined =
    List.exists (fun (f : Mfunc.t) -> f.Mfunc.is_outlined) p'.Program.funcs
  in
  Alcotest.(check bool) "pattern was outlined" true has_outlined;
  match Perfsim.Interp.run_with_backtrace ~entry:"main" p' with
  | Ok _ -> Alcotest.fail "expected a null access"
  | Error { error = Perfsim.Interp.Null_access; backtrace; _ } -> (
    match backtrace with
    | leaf :: caller :: _ ->
      Alcotest.(check bool) "leaf frame is outlined" true
        (String.length leaf >= 8 && String.sub leaf 0 8 = "OUTLINED");
      Alcotest.(check string) "real function one level down" "feature_a" caller
    | _ -> Alcotest.fail "backtrace too short")
  | Error f -> Alcotest.fail (Perfsim.Interp.error_to_string f.error)

let mentions sub line =
  let n = String.length sub and ln = String.length line in
  let rec at i = i + n <= ln && (String.sub line i n = sub || at (i + 1)) in
  at 0

let test_trace_ring_symbolized () =
  (* A crashing program with the trace ring on must leave a symbolized
     dump behind: every line carries "sym+0xoff" resolved through the
     linker layout, and the crashing function appears in it. *)
  let p =
    parse
      {|
func crasher:
entry:
  mov x1, #0
  nop
  nop
  ldr x6, [x1]
  ret
func main:
entry:
  stp fp, lr, [sp, #-16]!
  bl crasher
  ldp fp, lr, [sp], #16
  ret
|}
  in
  let config = { Perfsim.Interp.default_config with trace_ring = 16 } in
  let trace =
    match Perfsim.Interp.run_with_backtrace ~config ~entry:"main" p with
    | Ok _ -> Alcotest.fail "expected a null access"
    | Error { error = Perfsim.Interp.Null_access; trace; _ } -> trace
    | Error f -> Alcotest.fail (Perfsim.Interp.error_to_string f.error)
  in
  Alcotest.(check bool) "trace non-empty" true (trace <> []);
  Alcotest.(check bool) "crashing function symbolized" true
    (List.exists (mentions "crasher+0x") trace);
  Alcotest.(check bool) "every line symbolized" true
    (List.for_all (mentions "+0x") trace);
  Alcotest.(check bool) "faulting load is the last entry" true
    (match List.rev trace with
    | last :: _ -> mentions "ldr" last
    | [] -> false)

let test_concurrent_failures_keep_own_diagnostics () =
  (* Two failing programs with different call stacks run at the same time
     on two domains: every failure must carry its own run's backtrace and
     trace-ring dump, never the other domain's. *)
  let shallow =
    parse
      {|
func alpha:
entry:
  mov x1, #0
  ldr x6, [x1]
  ret
func main:
entry:
  stp fp, lr, [sp, #-16]!
  bl alpha
  ldp fp, lr, [sp], #16
  ret
|}
  in
  let deep =
    parse
      {|
func gamma:
entry:
  mov x2, #0
  ldr x7, [x2]
  ret
func beta:
entry:
  stp fp, lr, [sp, #-16]!
  bl gamma
  ldp fp, lr, [sp], #16
  ret
func main:
entry:
  stp fp, lr, [sp, #-16]!
  bl beta
  ldp fp, lr, [sp], #16
  ret
|}
  in
  let config = { Perfsim.Interp.default_config with trace_ring = 4 } in
  let diagnostics p =
    List.init 50 (fun _ ->
        match Perfsim.Interp.run_with_backtrace ~config ~entry:"main" p with
        | Ok _ -> Error "expected a null access"
        | Error f -> Ok (f.backtrace, f.trace))
  in
  let other = Domain.spawn (fun () -> diagnostics deep) in
  let mine = diagnostics shallow in
  let theirs = Domain.join other in
  let check label stack crasher results =
    List.iter
      (function
        | Error e -> Alcotest.fail e
        | Ok (backtrace, trace) ->
          Alcotest.(check (list string)) (label ^ " backtrace") stack backtrace;
          Alcotest.(check bool) (label ^ " trace names its crasher") true
            (List.exists (mentions (crasher ^ "+0x")) trace))
      results
  in
  check "shallow" [ "alpha"; "main" ] "alpha" mine;
  check "deep" [ "gamma"; "beta"; "main" ] "gamma" theirs

(* --- Differential property: outlining preserves semantics --------------- *)

let gen_function i =
  (* Deterministic pseudo-random but semantically meaningful function built
     from a seed: arithmetic on x0, optional helper calls. *)
  QCheck.Gen.(
    let body_insn =
      frequency
        [
          (4, map2 (fun d n -> Insn.mov_i (Reg.x d) n) (int_range 1 5) (int_range 0 9));
          (4, map2 (fun d s -> Insn.mov_r (Reg.x d) (Reg.x s)) (int_range 0 5) (int_range 0 5));
          ( 4,
            map3
              (fun op d s -> Insn.Binop (op, Reg.x d, Reg.x s, Insn.Imm 3))
              (oneofl [ Insn.Add; Insn.Sub; Insn.Orr; Insn.Eor ])
              (int_range 0 5) (int_range 0 5) );
          ( 2,
            map2
              (fun d s -> Insn.Binop (Insn.Add, Reg.x d, Reg.x d, Insn.Rop (Reg.x s)))
              (int_range 0 5) (int_range 0 5) );
          (1, return (Insn.Bl "helper"));
        ]
    in
    map
      (fun insns ->
        let has_call = List.exists Insn.is_call insns in
        let prologue =
          if has_call then
            [ Insn.Stp (Reg.fp, Reg.lr, { Insn.base = Reg.SP; off = -16; mode = Insn.Pre }) ]
          else []
        in
        let epilogue =
          if has_call then
            [ Insn.Ldp (Reg.fp, Reg.lr, { Insn.base = Reg.SP; off = 16; mode = Insn.Post }) ]
          else []
        in
        Mfunc.make ~name:(Printf.sprintf "gen%d" i)
          [ Block.make ~label:"entry" (prologue @ insns @ epilogue) Block.Ret ])
      (list_size (int_range 1 12) body_insn))

let gen_program =
  QCheck.Gen.(
    let* nfuncs = int_range 1 8 in
    let rec gen_funcs i acc =
      if i >= nfuncs then return (List.rev acc)
      else
        let* f = gen_function i in
        gen_funcs (i + 1) (f :: acc)
    in
    let* funcs = gen_funcs 0 [] in
    (* helper: a leaf that mixes its argument. *)
    let helper =
      Mfunc.make ~name:"helper"
        [
          Block.make ~label:"entry"
            [
              Insn.Binop (Insn.Eor, Reg.x 0, Reg.x 0, Insn.Imm 21);
              Insn.Binop (Insn.Add, Reg.x 0, Reg.x 0, Insn.Imm 1);
            ]
            Block.Ret;
        ]
    in
    (* main: call every generated function, folding results through x0 via a
       callee-saved accumulator. *)
    let calls =
      List.concat_map
        (fun (f : Mfunc.t) ->
          [
            Insn.mov_r (Reg.x 0) (Reg.x 19);
            Insn.Bl f.Mfunc.name;
            Insn.Binop (Insn.Add, Reg.x 19, Reg.x 0, Insn.Rop (Reg.x 19));
          ])
        funcs
    in
    let main =
      Mfunc.make ~name:"main"
        [
          Block.make ~label:"entry"
            ([
               Insn.Stp (Reg.fp, Reg.lr, { Insn.base = Reg.SP; off = -16; mode = Insn.Pre });
               Insn.Stp (Reg.x 19, Reg.x 20, { Insn.base = Reg.SP; off = -16; mode = Insn.Pre });
               Insn.mov_i (Reg.x 19) 7;
             ]
            @ calls
            @ [
                Insn.mov_r (Reg.x 0) (Reg.x 19);
                Insn.Ldp (Reg.x 19, Reg.x 20, { Insn.base = Reg.SP; off = 16; mode = Insn.Post });
                Insn.Ldp (Reg.fp, Reg.lr, { Insn.base = Reg.SP; off = 16; mode = Insn.Post });
              ])
            Block.Ret;
        ]
    in
    return (Program.make (main :: helper :: funcs)))

let arb_exec_program =
  QCheck.make gen_program ~print:(fun p -> Format.asprintf "%a" Program.pp p)

let interp_result p =
  let config = { Perfsim.Interp.default_config with model_perf = false } in
  match Perfsim.Interp.run ~config ~entry:"main" p with
  | Ok r -> Ok (r.exit_value, r.output, r.steps)
  | Error e -> Error e

let prop_outlining_preserves_semantics =
  QCheck.Test.make ~count:300 ~name:"outlining preserves observable behaviour"
    arb_exec_program (fun p ->
      match interp_result p with
      | Error e ->
        QCheck.Test.fail_reportf "base program failed: %s"
          (Perfsim.Interp.error_to_string e)
      | Ok (v0, out0, steps0) -> (
        let p', _ = Outcore.Repeat.run ~rounds:5 p in
        match interp_result p' with
        | Error e ->
          QCheck.Test.fail_reportf "outlined program failed: %s"
            (Perfsim.Interp.error_to_string e)
        | Ok (v1, out1, steps1) ->
          if v0 <> v1 then QCheck.Test.fail_reportf "exit %d <> %d" v0 v1
          else if out0 <> out1 then QCheck.Test.fail_report "output differs"
          else if steps1 < steps0 then
            QCheck.Test.fail_report "outlining cannot reduce dynamic steps"
          else true))

let () =
  Alcotest.run "perfsim"
    [
      ( "linker",
        [
          Alcotest.test_case "layout" `Quick test_linker_layout;
          Alcotest.test_case "duplicate bodies" `Quick test_duplicate_bodies;
        ] );
      ( "caches",
        [
          Alcotest.test_case "icache" `Quick test_icache;
          Alcotest.test_case "tlb" `Quick test_tlb;
        ] );
      ( "interp",
        [
          Alcotest.test_case "loop sum" `Quick test_loop_sum;
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "memory and globals" `Quick test_memory_and_globals;
          Alcotest.test_case "csel/cset/sdiv" `Quick test_csel_cset_div;
          Alcotest.test_case "runtime alloc/refcount" `Quick
            test_runtime_alloc_refcount;
          Alcotest.test_case "tail call" `Quick test_tail_call_semantics;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "null and unknown extern" `Quick
            test_null_and_unknown;
          Alcotest.test_case "perf counters" `Quick test_perf_counters;
          Alcotest.test_case "cold-start page-in trace" `Quick
            test_cold_start_pages;
          Alcotest.test_case "cold-start determinism" `Quick
            test_cold_start_deterministic;
          Alcotest.test_case "backtrace through outlined code" `Quick
            test_backtrace_through_outlined_code;
          Alcotest.test_case "trace ring dump is symbolized" `Quick
            test_trace_ring_symbolized;
          Alcotest.test_case "concurrent failures keep own diagnostics"
            `Quick test_concurrent_failures_keep_own_diagnostics;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_outlining_preserves_semantics ] );
    ]
