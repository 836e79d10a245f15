(* Tests for the machine IR: registers, register sets, liveness, the
   assembly parser and program validation. *)

open Machine

let reg = Alcotest.testable Reg.pp Reg.equal

let test_reg_roundtrip () =
  for i = 0 to Reg.count - 1 do
    let r = Reg.of_index i in
    Alcotest.(check int) "index/of_index" i (Reg.index r);
    match Reg.of_string (Reg.to_string r) with
    | Some r' -> Alcotest.check reg "string roundtrip" r r'
    | None -> Alcotest.fail ("of_string failed for " ^ Reg.to_string r)
  done

let test_reg_classes () =
  Alcotest.(check bool) "x19 callee-saved" true (Reg.is_callee_saved (Reg.x 19));
  Alcotest.(check bool) "x0 caller-saved" true (Reg.is_caller_saved (Reg.x 0));
  Alcotest.(check bool) "lr callee-saved" true (Reg.is_callee_saved Reg.lr);
  Alcotest.(check bool) "sp not allocatable" false (Reg.is_allocatable Reg.SP);
  Alcotest.(check bool) "x18 not allocatable" false (Reg.is_allocatable (Reg.x 18));
  Alcotest.check reg "arg 0" (Reg.x 0) (Reg.arg 0);
  Alcotest.check reg "lr alias" (Reg.x 30) Reg.lr

let test_regset () =
  let s = Regset.of_list [ Reg.x 0; Reg.lr; Reg.SP ] in
  Alcotest.(check int) "cardinal" 3 (Regset.cardinal s);
  Alcotest.(check bool) "mem lr" true (Regset.mem Reg.lr s);
  Alcotest.(check bool) "mem x1" false (Regset.mem (Reg.x 1) s);
  let s2 = Regset.remove Reg.lr s in
  Alcotest.(check bool) "removed" false (Regset.mem Reg.lr s2);
  Alcotest.(check int) "diff" 1 (Regset.cardinal (Regset.diff s s2));
  Alcotest.(check bool) "to/of roundtrip" true
    (Regset.equal s (Regset.of_list (Regset.to_list s)))

let test_insn_uses_defs () =
  let open Insn in
  let u i = Regset.to_list (uses i) and d i = Regset.to_list (defs i) in
  Alcotest.(check (list (Alcotest.testable Reg.pp Reg.equal)))
    "mov uses" [ Reg.x 1 ] (u (mov_r (Reg.x 0) (Reg.x 1)));
  Alcotest.(check (list (Alcotest.testable Reg.pp Reg.equal)))
    "mov defs" [ Reg.x 0 ] (d (mov_r (Reg.x 0) (Reg.x 1)));
  Alcotest.(check bool) "cmp defines flags" true
    (Regset.mem Reg.NZCV (defs (Cmp (Reg.x 0, Imm 3))));
  Alcotest.(check bool) "cset reads flags" true
    (Regset.mem Reg.NZCV (uses (Cset (Reg.x 0, Cond.Eq))));
  Alcotest.(check bool) "bl clobbers lr" true (Regset.mem Reg.lr (defs (Bl "f")));
  Alcotest.(check bool) "bl clobbers x17" true (Regset.mem (Reg.x 17) (defs (Bl "f")));
  Alcotest.(check bool) "bl preserves x19" false (Regset.mem (Reg.x 19) (defs (Bl "f")));
  let pre = { base = Reg.SP; off = -16; mode = Pre } in
  Alcotest.(check bool) "stp pre-index writes sp" true
    (Regset.mem Reg.SP (defs (Stp (Reg.x 19, Reg.x 20, pre))));
  Alcotest.(check bool) "stp pre-index modifies sp" true
    (modifies_sp (Stp (Reg.x 19, Reg.x 20, pre)));
  let off = { base = Reg.SP; off = 16; mode = Offset } in
  Alcotest.(check bool) "ldr offset does not modify sp" false
    (modifies_sp (Ldr (Reg.x 0, off)));
  Alcotest.(check bool) "ldr from sp touches sp" true (touches_sp (Ldr (Reg.x 0, off)))

let parse_exn text =
  match Asm_parser.parse_program text with
  | Ok p -> p
  | Error e -> Alcotest.fail ("parse error: " ^ e)

let simple_func =
  {|
func f module=m1:
entry:
  mov x0, #1
  cmp x0, #2
  b.lt then, else
then:
  mov x0, #10
  b join
else:
  mov x0, #20
  b join
join:
  ret
|}

let test_parse_simple () =
  let p = parse_exn simple_func in
  Alcotest.(check int) "one function" 1 (List.length p.Program.funcs);
  let f = List.hd p.Program.funcs in
  Alcotest.(check string) "name" "f" f.Mfunc.name;
  Alcotest.(check string) "module" "m1" f.Mfunc.from_module;
  Alcotest.(check int) "blocks" 4 (List.length f.Mfunc.blocks);
  Alcotest.(check (result unit string)) "validates" (Ok ()) (Program.validate p)

let test_parse_addressing () =
  let p =
    parse_exn
      {|
func g:
entry:
  stp x19, x20, [sp, #-16]!
  ldr x0, [sp, #8]
  str x1, [x2]
  ldp x19, x20, [sp], #16
  ret
|}
  in
  let f = List.hd p.Program.funcs in
  let b = Mfunc.entry f in
  (match b.Block.body.(0) with
  | Insn.Stp (_, _, { base = Reg.SP; off = -16; mode = Insn.Pre }) -> ()
  | i -> Alcotest.fail ("bad stp: " ^ Insn.to_string i));
  (match b.Block.body.(3) with
  | Insn.Ldp (_, _, { base = Reg.SP; off = 16; mode = Insn.Post }) -> ()
  | i -> Alcotest.fail ("bad ldp: " ^ Insn.to_string i))

let test_parse_tail_call_resolution () =
  let p =
    parse_exn
      {|
func a:
entry:
  nop
  b other      ; not a label here -> tail call
func other:
entry:
  ret
|}
  in
  let a = List.hd p.Program.funcs in
  (match (Mfunc.entry a).Block.term with
  | Block.Tail_call "other" -> ()
  | t -> Alcotest.fail (Format.asprintf "expected tail call, got %a" Block.pp_terminator t));
  Alcotest.(check (result unit string)) "validates" (Ok ()) (Program.validate p)

let test_validate_errors () =
  let bad_branch = parse_exn "func f:\nentry:\n  b nowhere\n" in
  (match Program.validate bad_branch with
  | Ok () -> Alcotest.fail "expected validation error"
  | Error _ -> ());
  let bad_sym = parse_exn "func f:\nentry:\n  bl missing\n  ret\n" in
  (match Program.validate bad_sym with
  | Ok () -> Alcotest.fail "expected unknown-symbol error"
  | Error _ -> ());
  let ok_sym =
    parse_exn "extern missing\nfunc f:\nentry:\n  bl missing\n  ret\n"
  in
  Alcotest.(check (result unit string)) "extern resolves" (Ok ())
    (Program.validate ok_sym)

let test_parse_data () =
  let p = parse_exn "data tbl: 1 2 @f 4\nfunc f:\nentry:\n  adr x0, tbl\n  ret\n" in
  Alcotest.(check int) "data objects" 1 (List.length p.Program.data);
  let d = List.hd p.Program.data in
  Alcotest.(check int) "data size" 32 (Dataobj.size_bytes d);
  Alcotest.(check (result unit string)) "validates" (Ok ()) (Program.validate p)

(* Liveness -------------------------------------------------------------- *)

let func_exn text =
  match Asm_parser.parse_func text with
  | Ok f -> f
  | Error e -> Alcotest.fail ("parse error: " ^ e)

let test_liveness_straightline () =
  let f =
    func_exn
      {|
func f:
entry:
  mov x1, #1
  add x0, x1, x1
  ret
|}
  in
  let lv = Liveness.compute f in
  (* Before `add`, x1 is live; x0 is not. *)
  let live = Liveness.live_before lv ~label:"entry" 1 in
  Alcotest.(check bool) "x1 live" true (Regset.mem (Reg.x 1) live);
  Alcotest.(check bool) "x0 dead" false (Regset.mem (Reg.x 0) live);
  (* LR is live throughout a frameless leaf function (needed by ret). *)
  Alcotest.(check bool) "lr live at entry" true
    (Liveness.lr_live_before lv ~label:"entry" 0)

let test_liveness_lr_dead_after_save () =
  let f =
    func_exn
      {|
func f:
entry:
  stp fp, lr, [sp, #-16]!
  bl g
  mov x1, x0
  ldp fp, lr, [sp], #16
  ret
|}
  in
  let lv = Liveness.compute f in
  (* After the prologue stores LR, it is dead until the epilogue reloads. *)
  Alcotest.(check bool) "lr dead after prologue" false
    (Liveness.lr_live_before lv ~label:"entry" 2);
  Alcotest.(check bool) "lr live before prologue" true
    (Liveness.lr_live_before lv ~label:"entry" 0)

let test_liveness_across_branches () =
  let f =
    func_exn
      {|
func f:
entry:
  mov x5, #7
  cmp x0, #0
  b.eq a, b
a:
  mov x0, x5
  b join
b:
  mov x0, #0
  b join
join:
  ret
|}
  in
  let lv = Liveness.compute f in
  (* x5 is live out of entry (used in block a). *)
  Alcotest.(check bool) "x5 live out of entry" true
    (Regset.mem (Reg.x 5) (Liveness.live_out lv ~label:"entry"));
  (* NZCV is live between cmp and the conditional branch. *)
  Alcotest.(check bool) "flags live before terminator" true
    (Regset.mem Reg.NZCV (Liveness.live_before lv ~label:"entry" 2));
  Alcotest.(check bool) "x5 dead in block b" false
    (Regset.mem (Reg.x 5) (Liveness.live_before lv ~label:"b" 0))

let contains_substring text sub =
  let n = String.length text and m = String.length sub in
  let rec at i = i + m <= n && (String.sub text i m = sub || at (i + 1)) in
  at 0

let test_printer_parser_roundtrip () =
  let p = parse_exn simple_func in
  let text = Format.asprintf "%a" Program.pp p in
  (* The printer output is not the parser's input grammar; just check it is
     non-empty and mentions every block label. *)
  List.iter
    (fun (f : Mfunc.t) ->
      List.iter
        (fun (b : Block.t) ->
          Alcotest.(check bool)
            ("mentions " ^ b.Block.label) true
            (contains_substring text b.Block.label))
        f.Mfunc.blocks)
    p.Program.funcs


(* Printer/parser round trip on random programs. *)

let gen_rt_program =
  QCheck.Gen.(
    let insn =
      oneof
        [
          map2 (fun d s -> Insn.mov_r (Reg.x d) (Reg.x s)) (int_range 0 28) (int_range 0 28);
          map2 (fun d n -> Insn.mov_i (Reg.x d) n) (int_range 0 28) (int_range (-4096) 65535);
          map3
            (fun op d s -> Insn.Binop (op, Reg.x d, Reg.x s, Insn.Imm 12))
            (oneofl Insn.[ Add; Sub; Mul; Sdiv; And; Orr; Eor; Lsl; Lsr; Asr ])
            (int_range 0 28) (int_range 0 28);
          map2
            (fun d off -> Insn.Ldr (Reg.x d, { Insn.base = Reg.SP; off = 8 * off; mode = Insn.Offset }))
            (int_range 0 28) (int_range 0 16);
          map2
            (fun s off -> Insn.Stp (Reg.x s, Reg.x (s + 1), { Insn.base = Reg.SP; off = -16 * off; mode = Insn.Pre }))
            (int_range 0 20) (int_range 1 4);
          return (Insn.Bl "ext");
          map (fun d -> Insn.Adr (Reg.x d, "tbl")) (int_range 0 28);
          map (fun r -> Insn.Cmp (Reg.x r, Insn.Imm 3)) (int_range 0 28);
          map (fun d -> Insn.Cset (Reg.x d, Cond.Le)) (int_range 0 28);
          return Insn.Nop;
        ]
    in
    let func i =
      map2
        (fun insns two_blocks ->
          if two_blocks then
            Mfunc.make ~name:(Printf.sprintf "rt%d" i)
              [
                Block.make ~label:"entry" insns (Block.Cbnz (Reg.x 0, "other", "other2"));
                Block.make ~label:"other" [] (Block.B "other2");
                Block.make ~label:"other2" [] Block.Ret;
              ]
          else
            Mfunc.make ~name:(Printf.sprintf "rt%d" i)
              [ Block.make ~label:"entry" insns Block.Ret ])
        (list_size (int_range 0 10) insn)
        bool
    in
    let* n = int_range 1 5 in
    let rec go i acc =
      if i >= n then return (List.rev acc)
      else
        let* f = func i in
        go (i + 1) (f :: acc)
    in
    let* funcs = go 0 [] in
    return
      (Program.make
         ~data:[ Dataobj.make ~name:"tbl" [ Dataobj.Word 3; Dataobj.Sym "rt0" ] ]
         ~externs:[ "ext" ] funcs))

let prop_asm_roundtrip =
  QCheck.Test.make ~count:300 ~name:"asm print/parse round trip"
    (QCheck.make gen_rt_program ~print:Asm_printer.to_source)
    (fun p ->
      let src = Asm_printer.to_source p in
      match Asm_parser.parse_program src with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
      | Ok p' ->
        Asm_printer.to_source p' = src
        && Program.code_size_bytes p' = Program.code_size_bytes p)

(* --- the direct printers against their Format oracles ------------------------- *)

(* The instruction and terminator printers as they were written with
   [Format] and [Printf], before the text was built directly.  Every byte
   of the direct printers must match them. *)
module Oracle = struct
  let reg ppf = function
    | Reg.X 29 -> Format.pp_print_string ppf "fp"
    | Reg.X 30 -> Format.pp_print_string ppf "lr"
    | Reg.X i -> Format.fprintf ppf "x%d" i
    | Reg.SP -> Format.pp_print_string ppf "sp"
    | Reg.XZR -> Format.pp_print_string ppf "xzr"
    | Reg.NZCV -> Format.pp_print_string ppf "nzcv"

  let operand ppf = function
    | Insn.Rop r -> reg ppf r
    | Insn.Imm n -> Format.fprintf ppf "#%d" n

  let addr ppf (a : Insn.addr) =
    match a.mode with
    | Insn.Offset ->
      if a.off = 0 then Format.fprintf ppf "[%a]" reg a.base
      else Format.fprintf ppf "[%a, #%d]" reg a.base a.off
    | Insn.Pre -> Format.fprintf ppf "[%a, #%d]!" reg a.base a.off
    | Insn.Post -> Format.fprintf ppf "[%a], #%d" reg a.base a.off

  let binop_name op =
    List.assoc op
      Insn.
        [ (Add, "add"); (Sub, "sub"); (Mul, "mul"); (Sdiv, "sdiv");
          (And, "and"); (Orr, "orr"); (Eor, "eor"); (Lsl, "lsl");
          (Lsr, "lsr"); (Asr, "asr") ]

  let insn ppf = function
    | Insn.Mov (d, Insn.Rop s) -> Format.fprintf ppf "orr %a, xzr, %a" reg d reg s
    | Insn.Mov (d, Insn.Imm n) -> Format.fprintf ppf "mov %a, #%d" reg d n
    | Insn.Binop (op, d, a, b) ->
      Format.fprintf ppf "%s %a, %a, %a" (binop_name op) reg d reg a operand b
    | Insn.Cmp (a, b) -> Format.fprintf ppf "cmp %a, %a" reg a operand b
    | Insn.Cset (d, c) -> Format.fprintf ppf "cset %a, %a" reg d Cond.pp c
    | Insn.Csel (d, a, b, c) ->
      Format.fprintf ppf "csel %a, %a, %a, %a" reg d reg a reg b Cond.pp c
    | Insn.Ldr (d, a) -> Format.fprintf ppf "ldr %a, %a" reg d addr a
    | Insn.Str (s, a) -> Format.fprintf ppf "str %a, %a" reg s addr a
    | Insn.Ldp (d1, d2, a) ->
      Format.fprintf ppf "ldp %a, %a, %a" reg d1 reg d2 addr a
    | Insn.Stp (s1, s2, a) ->
      Format.fprintf ppf "stp %a, %a, %a" reg s1 reg s2 addr a
    | Insn.Adr (d, sym) -> Format.fprintf ppf "adr %a, %s" reg d sym
    | Insn.Bl sym -> Format.fprintf ppf "bl %s" sym
    | Insn.Blr r -> Format.fprintf ppf "blr %a" reg r
    | Insn.Nop -> Format.pp_print_string ppf "nop"

  let terminator ppf = function
    | Block.Ret -> Format.pp_print_string ppf "ret"
    | Block.B l -> Format.fprintf ppf "b %s" l
    | Block.Bcond (c, t, f) ->
      Format.fprintf ppf "b.%a %s (else %s)" Cond.pp c t f
    | Block.Cbz (r, t, f) -> Format.fprintf ppf "cbz %a, %s (else %s)" reg r t f
    | Block.Cbnz (r, t, f) ->
      Format.fprintf ppf "cbnz %a, %s (else %s)" reg r t f
    | Block.Tail_call s -> Format.fprintf ppf "b %s" s
    | Block.Fallthrough l -> Format.fprintf ppf "fall %s" l

  let terminator_source t =
    let reg r = Format.asprintf "%a" reg r in
    match t with
    | Block.Ret -> "ret"
    | Block.B l -> Printf.sprintf "b %s" l
    | Block.Bcond (c, a, b) ->
      Printf.sprintf "b.%s %s, %s" (Cond.to_string c) a b
    | Block.Cbz (r, a, b) -> Printf.sprintf "cbz %s, %s, %s" (reg r) a b
    | Block.Cbnz (r, a, b) -> Printf.sprintf "cbnz %s, %s, %s" (reg r) a b
    | Block.Tail_call s -> Printf.sprintf "b %s" s
    | Block.Fallthrough l -> Printf.sprintf "fall %s" l
end

(* Every register, x0..x28, fp, lr, sp, xzr and nzcv. *)
let all_regs = List.init Reg.count Reg.of_index
let all_conds = Cond.[ Eq; Ne; Lt; Le; Gt; Ge ]
let immediates = [ 0; 1; 8; 4095; 65535; -1; -16; -4096; max_int; min_int ]

let all_operands =
  List.map (fun r -> Insn.Rop r) all_regs
  @ List.map (fun n -> Insn.Imm n) immediates

(* Every addressing mode, over every base and every offset. *)
let all_addrs =
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun base -> List.map (fun off -> { Insn.base; off; mode }) immediates)
        all_regs)
    Insn.[ Offset; Pre; Post ]

let every_insn () =
  let x n = Reg.x n and a0 = List.hd all_addrs in
  let each l f = List.concat_map f l in
  List.concat
    [
      each all_regs (fun d -> List.map (fun o -> Insn.Mov (d, o)) all_operands);
      each Insn.[ Add; Sub; Mul; Sdiv; And; Orr; Eor; Lsl; Lsr; Asr ] (fun op ->
          each all_regs (fun r ->
              Insn.Binop (op, x 0, r, Insn.Imm 1)
              :: List.map (fun o -> Insn.Binop (op, r, x 1, o)) all_operands));
      each all_regs (fun r -> List.map (fun o -> Insn.Cmp (r, o)) all_operands);
      each all_regs (fun r ->
          each all_conds (fun c ->
              [ Insn.Cset (r, c); Insn.Csel (r, x 1, x 2, c);
                Insn.Csel (x 0, r, x 2, c); Insn.Csel (x 0, x 1, r, c) ]));
      each all_regs (fun r ->
          [ Insn.Ldr (r, a0); Insn.Str (r, a0); Insn.Ldp (r, x 1, a0);
            Insn.Ldp (x 0, r, a0); Insn.Stp (r, x 1, a0); Insn.Stp (x 0, r, a0);
            Insn.Adr (r, "tbl"); Insn.Blr r ]);
      each all_addrs (fun a ->
          [ Insn.Ldr (x 3, a); Insn.Str (x 3, a); Insn.Ldp (x 3, x 4, a);
            Insn.Stp (x 3, x 4, a) ]);
      [ Insn.Bl "ext"; Insn.Bl "_$s4main.x"; Insn.Adr (x 0, "_$s4main.x");
        Insn.Nop ];
    ]

let every_terminator () =
  Block.[ Ret; B "l1"; Tail_call "ext"; Fallthrough "l2" ]
  @ List.map (fun c -> Block.Bcond (c, "then", "else")) all_conds
  @ List.concat_map
      (fun r -> Block.[ Cbz (r, "then", "else"); Cbnz (r, "then", "else") ])
      all_regs

(* One line per text that differs from its oracle; none is the pass. *)
let mismatches cases ~oracle ~printers =
  List.concat_map
    (fun x ->
      let want = oracle x in
      List.filter_map
        (fun (name, print) ->
          let got = print x in
          if got = want then None
          else Some (Printf.sprintf "%s: %S, want %S" name got want))
        printers)
    cases

let test_printer_oracle () =
  let insns = every_insn () and terms = every_terminator () in
  Alcotest.(check (list string)) "instruction text" []
    (mismatches insns ~oracle:(Format.asprintf "%a" Oracle.insn)
       ~printers:
         [ ("to_string", Insn.to_string); ("pp", Format.asprintf "%a" Insn.pp) ]);
  Alcotest.(check (list string)) "terminator content text" []
    (mismatches terms ~oracle:(Format.asprintf "%a" Oracle.terminator)
       ~printers:
         [
           ("terminator_to_string", Block.terminator_to_string ?source:None);
           ("pp_terminator", Format.asprintf "%a" Block.pp_terminator);
         ]);
  Alcotest.(check (list string)) "terminator source text" []
    (mismatches terms ~oracle:Oracle.terminator_source
       ~printers:[ ("source", Block.terminator_to_string ~source:true) ])

(* Printing a compiled or generated program and parsing it back gives
   every function, block, instruction and terminator back. *)
let test_source_reparses () =
  let compiled app =
    match
      Pipeline.build_sources
        ~config:(Pipeline.config_of_flags ~rounds:1 Pipeline.Whole_program)
        (Workload.Appgen.generate_sources app)
    with
    | Ok r -> r.Pipeline.program
    | Error e -> Alcotest.fail e
  in
  let programs =
    ("uber_rider", compiled Workload.Appgen.uber_rider)
    :: ("SmallApp", compiled Workload.Appgen.small)
    :: List.init 40 (fun i ->
           ( Printf.sprintf "Machgen seed %d" (i + 1),
             Fuzz.Machgen.generate (Random.State.make [| i + 1 |]) ~fuel:8 ))
  in
  List.iter
    (fun (name, (p : Program.t)) ->
      match Asm_parser.parse_program (Asm_printer.to_source p) with
      | Error e -> Alcotest.fail (name ^ ": reparse failed: " ^ e)
      | Ok p' ->
        let shape (p : Program.t) =
          List.map (fun (f : Mfunc.t) -> (f.name, f.blocks)) p.funcs
        in
        Alcotest.(check bool) (name ^ ": same functions") true
          (shape p = shape p');
        let data (p : Program.t) =
          List.map (fun (d : Dataobj.t) -> (d.name, d.words)) p.data
        in
        Alcotest.(check bool) (name ^ ": same data and externs") true
          (data p = data p' && p.externs = p'.externs))
    programs

(* The published FNV-1a 64-bit test vectors: every content hash in the
   repo (compression model, merge fingerprints, thin-WPO ranking, serve
   cache keys) rests on this kernel. *)
let test_fnv_vectors () =
  List.iter
    (fun (s, h) ->
      Alcotest.(check string)
        (Printf.sprintf "fnv1a64 %S" s)
        h
        (Printf.sprintf "%016Lx" (Content.hash_string s)))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ]

let () =
  Alcotest.run "machine"
    [
      ( "reg",
        [
          Alcotest.test_case "roundtrip" `Quick test_reg_roundtrip;
          Alcotest.test_case "classes" `Quick test_reg_classes;
          Alcotest.test_case "regset" `Quick test_regset;
        ] );
      ("insn", [ Alcotest.test_case "uses/defs" `Quick test_insn_uses_defs ]);
      ( "parser",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "addressing" `Quick test_parse_addressing;
          Alcotest.test_case "tail-call resolution" `Quick
            test_parse_tail_call_resolution;
          Alcotest.test_case "validation errors" `Quick test_validate_errors;
          Alcotest.test_case "data" `Quick test_parse_data;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "straight line" `Quick test_liveness_straightline;
          Alcotest.test_case "lr dead after save" `Quick
            test_liveness_lr_dead_after_save;
          Alcotest.test_case "across branches" `Quick
            test_liveness_across_branches;
        ] );
      ( "printer",
        [
          Alcotest.test_case "roundtrip mentions labels" `Quick
            test_printer_parser_roundtrip;
          QCheck_alcotest.to_alcotest prop_asm_roundtrip;
          Alcotest.test_case "direct printers match Format" `Quick
            test_printer_oracle;
          Alcotest.test_case "compiled source reparses" `Quick
            test_source_reparses;
        ] );
      ("content", [ Alcotest.test_case "fnv vectors" `Quick test_fnv_vectors ]);
    ]
