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

(* A TLB is a one-set cache: 2 entries of 4 KiB pages. *)
let test_tlb () =
  let t = Perfsim.Icache.create ~size_bytes:8192 ~line_bytes:4096 ~assoc:2 in
  Alcotest.(check bool) "cold" false (Perfsim.Icache.access t 100);
  Alcotest.(check bool) "same page" true (Perfsim.Icache.access t 4000);
  Alcotest.(check bool) "second page" false (Perfsim.Icache.access t 5000);
  Alcotest.(check bool) "third page evicts first" false (Perfsim.Icache.access t 9000);
  Alcotest.(check bool) "first page gone" false (Perfsim.Icache.access t 100)

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
  Alcotest.(check int) "csel/cset/sdiv" 2 r.exit_value;
  (* Every condition after a less, equal and greater [cmp], read three
     ways: [cset], [csel] and [b.cond].  Each program prints one bit per
     (condition, comparison). *)
  let conds = [ ("eq", ( = )); ("ne", ( <> )); ("lt", ( < )); ("le", ( <= ));
                ("gt", ( > )); ("ge", ( >= )) ] in
  let lhs = [ 1; 2; 3 ] in
  let expected =
    List.concat_map
      (fun (_, f) -> List.map (fun a -> Bool.to_int (f a 2)) lhs)
      conds
  in
  let program read =
    let b = Buffer.create 4096 in
    Buffer.add_string b
      "extern print_i64\nfunc main:\nentry:\n  stp fp, lr, [sp, #-16]!\n  mov x9, #0\n  mov x10, #1\n";
    let k = ref 0 in
    List.iter
      (fun (c, _) ->
        List.iter
          (fun a ->
            incr k;
            Printf.bprintf b "  mov x1, #%d\n  cmp x1, #2\n" a;
            (match read with
            | `Cset -> Printf.bprintf b "  cset x0, %s\n" c
            | `Csel -> Printf.bprintf b "  csel x0, x10, x9, %s\n" c
            | `Bcond ->
              Printf.bprintf b
                "  b.%s t%d, f%d\nt%d:\n  mov x0, #1\n  b j%d\nf%d:\n  mov x0, #0\n  b j%d\nj%d:\n"
                c !k !k !k !k !k !k !k);
            Buffer.add_string b "  bl print_i64\n")
          lhs)
      conds;
    Buffer.add_string b "  ldp fp, lr, [sp], #16\n  mov x0, #0\n  ret\n";
    parse (Buffer.contents b)
  in
  List.iter
    (fun (name, read) ->
      let r = run_exn (program read) ~entry:"main" in
      Alcotest.(check (list int)) (name ^ ": six conditions") expected r.output)
    [ ("cset", `Cset); ("csel", `Csel); ("b.cond", `Bcond) ];
  (* [cmp] orders its operands; it does not subtract them, so the most
     negative value stays below 1. *)
  let p =
    parse
      {|
func main:
entry:
  mov x1, #1
  lsl x1, x1, #62     ; min_int
  cmp x1, #1
  b.lt less, more
less:
  mov x0, #1
  ret
more:
  mov x0, #2
  ret
|}
  in
  Alcotest.(check int) "cmp does not overflow" 1
    (run_exn p ~entry:"main").exit_value

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

(* Unbounded recursion pushes 16 bytes a frame; the run stops with a stack
   overflow on the push that takes SP below the 1 MiB stack region, long
   before the step budget, while a 10,000-deep recursion that unwinds
   still runs to completion. *)
let test_stack_overflow () =
  let recursion ~depth =
    parse
      (Printf.sprintf
         {|
func down:
entry:
  cbz x0, base, more
more:
  stp fp, lr, [sp, #-16]!
  sub x0, x0, #1
  bl down
  add x0, x0, #1
  ldp fp, lr, [sp], #16
  ret
base:
  ret
func main:
entry:
  stp fp, lr, [sp, #-16]!
  mov x0, #%d
  bl down
  ldp fp, lr, [sp], #16
  ret
|}
         depth)
  in
  let run ?(max_steps = 10_000_000) p =
    Perfsim.Interp.run
      ~config:{ Perfsim.Interp.default_config with max_steps }
      ~entry:"main" p
  in
  (match run (recursion ~depth:10_000) with
  | Ok r -> Alcotest.(check int) "deep recursion returns" 10_000 r.exit_value
  | Error e -> Alcotest.fail (Perfsim.Interp.error_to_string e));
  let show = function
    | Ok _ -> "ok"
    | Error e -> Perfsim.Interp.error_to_string e
  in
  (* main pushes one frame in 3 steps; each level of [down] runs 4 steps
     and pushes 16 bytes on its second, so level 65,536 pushes past the
     region on step 3 + 4 * 65,535 + 2. *)
  let unbounded = recursion ~depth:max_int in
  let at = 3 + (4 * 65_535) + 2 in
  Alcotest.(check string) "overflow" "stack overflow"
    (show (run ~max_steps:at unbounded));
  Alcotest.(check string) "not before its step" "step limit exceeded"
    (show (run ~max_steps:(at - 1) unbounded));
  Alcotest.(check string) "within the default budget" "stack overflow"
    (show (run unbounded))

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
  (match Perfsim.Interp.run ~config ~entry:"main" p2 with
  | Ok r -> Alcotest.(check int) "noop extern returns 0" 0 r.exit_value
  | Error e -> Alcotest.fail (Perfsim.Interp.error_to_string e));
  (* Each failure happens on a pinned step: with one step less the run
     stops at the budget instead. *)
  let fails_at name ~steps error p =
    let run max_steps =
      Perfsim.Interp.run
        ~config:{ Perfsim.Interp.default_config with max_steps }
        ~entry:"main" p
    in
    let show = function
      | Ok _ -> "ok"
      | Error e -> Perfsim.Interp.error_to_string e
    in
    Alcotest.(check string) (name ^ ": error")
      (Perfsim.Interp.error_to_string error) (show (run steps));
    Alcotest.(check string) (name ^ ": not before step " ^ string_of_int steps)
      "step limit exceeded" (show (run (steps - 1)))
  in
  fails_at "null load" ~steps:2 Perfsim.Interp.Null_access p;
  fails_at "unknown extern" ~steps:2 (Perfsim.Interp.Unknown_symbol "mystery") p2;
  fails_at "adr of an unknown symbol" ~steps:3
    (Perfsim.Interp.Unknown_symbol "nowhere")
    (parse "func main:\nentry:\n  mov x1, #1\n  nop\n  adr x0, nowhere\n  ret\n");
  fails_at "blr to an unknown extern" ~steps:3
    (Perfsim.Interp.Unknown_symbol "mystery")
    (parse
       "extern mystery\nfunc main:\nentry:\n  stp fp, lr, [sp, #-16]!\n  adr x1, mystery\n  blr x1\n  ldp fp, lr, [sp], #16\n  ret\n");
  fails_at "tail call to an unknown extern" ~steps:2
    (Perfsim.Interp.Unknown_symbol "mystery")
    (parse "extern mystery\nfunc main:\nentry:\n  mov x0, #3\n  b mystery\n");
  fails_at "blr to a non-address" ~steps:3 (Perfsim.Interp.Bad_jump 12345)
    (parse
       "func main:\nentry:\n  stp fp, lr, [sp, #-16]!\n  mov x1, #12345\n  blr x1\n  ldp fp, lr, [sp], #16\n  ret\n");
  fails_at "ret to a non-address" ~steps:2 (Perfsim.Interp.Bad_jump 8)
    (parse "func main:\nentry:\n  mov lr, #8\n  ret\n");
  fails_at "unaligned store" ~steps:3 (Perfsim.Interp.Unaligned_access 0x20004)
    (parse
       "func main:\nentry:\n  mov x1, #1\n  lsl x1, x1, #17\n  str x1, [x1, #4]!\n  ret\n");
  fails_at "bounds trap" ~steps:3
    (Perfsim.Interp.Trap "array index out of bounds")
    (parse
       "extern swift_bounds_fail\nfunc main:\nentry:\n  stp fp, lr, [sp, #-16]!\n  mov x0, #1\n  bl swift_bounds_fail\n  ret\n")

(* xzr reads as zero whatever was written to it, and write-back to a base
   register comes before the loaded value lands in it. *)
let test_edge_semantics () =
  let p =
    parse
      {|
extern print_i64
data tbl: 10 20 30 40
data buf: 0 0 0 0
func main:
entry:
  stp fp, lr, [sp, #-16]!
  mov x1, #5
  mov xzr, #7
  mov x0, xzr           ; 0
  bl print_i64
  add xzr, x1, #1
  add x0, xzr, #9       ; 9
  bl print_i64
  add x0, x1, xzr       ; 5
  bl print_i64
  cmp x1, #5
  csel xzr, x1, x1, eq
  csel x0, xzr, x1, eq  ; 0
  bl print_i64
  adr x6, tbl
  ldr xzr, [x6]
  mov x0, xzr           ; 0
  bl print_i64
  ldr x1, [x6, #8]!     ; x6 = tbl+8, then x1 = 20
  ldr x0, [x6]          ; 20
  bl print_i64
  adr x1, tbl
  ldr x1, [x1, #8]!     ; loaded 20 wins over the write-back
  mov x0, x1
  bl print_i64
  adr x2, tbl
  ldr x2, [x2], #8      ; 10
  mov x0, x2
  bl print_i64
  adr x3, tbl
  ldp x3, x4, [x3, #16]!  ; 30, 40
  add x0, x3, x4        ; 70
  bl print_i64
  adr x5, tbl
  ldp x6, x5, [x5], #16   ; 10, then 20 over the write-back
  mov x0, x6
  bl print_i64
  mov x0, x5
  bl print_i64
  adr x7, buf
  str x7, [x7, #8]!     ; stores the written-back address
  ldr x8, [x7]
  sub x0, x8, x7        ; 0
  bl print_i64
  adr x9, buf
  add x9, x9, #32
  stp x9, x9, [x9, #-16]!
  ldp x10, x11, [x9]
  sub x0, x10, x9       ; 0
  sub x0, x0, x11
  add x0, x0, x9        ; 0
  bl print_i64
  adr x12, buf
  ldr x0, [x12], #0     ; post-index by zero: buf[0], still 0
  bl print_i64
  mov x1, #3
  lsl x0, x1, #65       ; shift amounts wrap at 64: 6
  bl print_i64
  mov x2, #64
  lsl x0, x1, x2        ; 3
  bl print_i64
  mov x2, #-7
  mov x3, #2
  sdiv x0, x2, x3       ; rounds toward zero: -3
  bl print_i64
  asr x0, x2, #1        ; -4
  bl print_i64
  ldp fp, lr, [sp], #16
  mov x0, #0
  ret
|}
  in
  let r = run_exn p ~entry:"main" in
  Alcotest.(check (list int)) "outputs"
    [ 0; 9; 5; 0; 0; 20; 20; 10; 70; 10; 20; 0; 0; 0; 6; 3; -3; -4 ]
    r.output

(* --- Pinned runs ------------------------------------------------------------ *)

(* One line per run: every result field (the output list by length and
   digest), or the error. *)
let show_run = function
  | Error e -> "error: " ^ Perfsim.Interp.error_to_string e
  | Ok (r : Perfsim.Interp.result) ->
    let out = String.concat " " (List.map string_of_int r.output) in
    Printf.sprintf
      "exit %d output %d/%s steps %d outlined %d cycles %d icache %d/%d itlb \
       %d dtlb %d data-pages %d data-fault %d cold %d/%d branches %d calls %d"
      r.exit_value (List.length r.output)
      (Digest.to_hex (Digest.string out))
      r.steps r.outlined_steps r.cycles r.icache_misses r.icache_accesses
      r.itlb_misses r.dtlb_misses r.data_pages_touched r.data_fault_cycles
      r.cold_start_pages r.cold_start_cost r.branches r.calls

(* The count lists by length and the digest of their canonical text:
   first touches in order, the other three sorted. *)
let show_counts c =
  let l = Perfsim.Interp.count_lists c in
  let pair (a, b) = a ^ "/" ^ b in
  let lines =
    List.map (fun s -> "touch " ^ s) l.first_touch
    @ List.sort compare
        (List.map (fun (f, n) -> Printf.sprintf "entry %s %d" f n) l.entry_counts)
    @ List.sort compare
        (List.map
           (fun (e, n) -> Printf.sprintf "edge %s %d" (pair e) n)
           l.edge_counts)
    @ List.sort compare
        (List.map
           (fun (b, n) -> Printf.sprintf "block %s %d" (pair b) n)
           l.block_counts)
  in
  Printf.sprintf "%d/%d/%d/%d %s" (List.length l.first_touch)
    (List.length l.entry_counts) (List.length l.edge_counts)
    (List.length l.block_counts)
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let build_app ~config profile =
  match
    Pipeline.build_sources ~config (Workload.Appgen.generate_sources profile)
  with
  | Ok r -> (r.Pipeline.program, r.Pipeline.function_order)
  | Error e -> Alcotest.fail e

let pinned_apps =
  [
    ( "uber_rider",
      lazy
        (build_app ~config:Pipeline.default_config Workload.Appgen.uber_rider)
    );
    ( "SmallApp_x3 pm stitch",
      lazy
        (let config =
           match
             Pipeline.config_of_passes ~base:Pipeline.default_ios_config
               "dce,merge-functions,fmsa,global-merge,outline(rounds=5),stitch"
           with
           | Ok c -> c
           | Error e -> Alcotest.fail e
         in
         build_app ~config
           (Workload.Appgen.scaled ~mult:3 Workload.Appgen.small)) );
  ]

(* (app, configuration, result line, count lists), recorded from an
   interpreter that executed each slot's [Insn.t] directly; decoding the
   slots at link time must reproduce them exactly. *)
let pinned_runs =
  [
    ("uber_rider", "measure",
     "exit 408863 output 0/d41d8cd98f00b204e9800998ecf8427e steps 19832755 \
      outlined 2758824 cycles 116734314 icache 36858/19832755 itlb 225 dtlb \
      58 data-pages 58 data-fault 5800000 cold 15/1500000 branches 3224051 \
      calls 630108",
     "2112/2112/11002/5687 49a172446197a810336ca22517238861");
    ("uber_rider", "profile",
     "exit 408863 output 0/d41d8cd98f00b204e9800998ecf8427e steps 19832755 \
      outlined 2758824 cycles 0 icache 0/0 itlb 0 dtlb 0 data-pages 0 \
      data-fault 0 cold 0/0 branches 3224051 calls 630108",
     "2112/2112/11002/5687 49a172446197a810336ca22517238861");
    ("SmallApp_x3 pm stitch", "measure",
     "exit 828677 output 0/d41d8cd98f00b204e9800998ecf8427e steps 9650086 \
      outlined 184058 cycles 53906746 icache 919/9650086 itlb 4 dtlb 22 \
      data-pages 22 data-fault 2200000 cold 4/400000 branches 1110434 calls \
      59272",
     "561/561/1103/1681 97118cf4f088bd5cb4d85248cc818a48");
    ("SmallApp_x3 pm stitch", "profile",
     "exit 828677 output 0/d41d8cd98f00b204e9800998ecf8427e steps 9650086 \
      outlined 184058 cycles 0 icache 0/0 itlb 0 dtlb 0 data-pages 0 \
      data-fault 0 cold 0/0 branches 1110434 calls 59272",
     "561/561/1103/1681 97118cf4f088bd5cb4d85248cc818a48");
  ]

let test_pinned_runs () =
  List.iter
    (fun (app, cfg, want_run, want_counts) ->
      let program, order = Lazy.force (List.assoc app pinned_apps) in
      let config =
        if cfg = "measure" then Perfsim.Interp.default_config
        else Pgo.Collect.default_config
      in
      let counts = Perfsim.Interp.create_counts () in
      let r = Perfsim.Interp.run ~config ?order ~counts ~entry:"main" program in
      let name = app ^ " " ^ cfg in
      Alcotest.(check string) (name ^ ": result") want_run (show_run r);
      Alcotest.(check string) (name ^ ": counts") want_counts (show_counts counts))
    pinned_runs

(* A failing run's backtrace and trace-ring lines, through a call, a
   conditional branch and a tail call, with the ring keeping only the
   last six slots. *)
let test_pinned_failure () =
  let p =
    parse
      {|
func leaf:
entry:
  mov x1, #0
  ldr x2, [x1]
  ret
func mid:
entry:
  cmp x0, #3
  b.ge tail, out
out:
  ret
tail:
  b leaf
func main:
entry:
  stp fp, lr, [sp, #-16]!
  mov x0, #4
  bl mid
  ldp fp, lr, [sp], #16
  ret
|}
  in
  let config = { Perfsim.Interp.default_config with trace_ring = 6 } in
  match Perfsim.Interp.run_with_backtrace ~config ~entry:"main" p with
  | Ok _ -> Alcotest.fail "expected a null access"
  | Error f ->
    Alcotest.(check string) "error" "null access"
      (Perfsim.Interp.error_to_string f.error);
    Alcotest.(check (list string)) "backtrace" [ "leaf"; "main" ] f.backtrace;
    Alcotest.(check (list string)) "trace"
      [
        "0x010024  main+0x8                     bl mid";
        "0x01000c  mid+0x0                      cmp x0, #3";
        "0x010010  mid+0x4                      b.cond";
        "0x010018  mid+0xc                      b <tail>";
        "0x010000  leaf+0x0                     mov x1, #0";
        "0x010004  leaf+0x4                     ldr x2, [x1]";
      ]
      f.trace

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
          Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
          Alcotest.test_case "null and unknown extern" `Quick
            test_null_and_unknown;
          Alcotest.test_case "edge semantics" `Quick test_edge_semantics;
          Alcotest.test_case "decoded runs are pinned" `Slow test_pinned_runs;
          Alcotest.test_case "failure diagnostics are pinned" `Quick
            test_pinned_failure;
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
