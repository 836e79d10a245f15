(* End-to-end tests for the Swiftlet front end: every program is compiled
   to MIR, checked against the MIR evaluator AND against machine code
   executed in the interpreter — and most are additionally run after five
   rounds of whole-program outlining. *)

let compile_exn src =
  match Swiftlet.Compile.compile_module ~name:"m" src with
  | Ok m -> m
  | Error e -> Alcotest.fail e

let eval_outputs m =
  match Eval.run ~entry:"main" m with
  | Ok r -> (r.exit_value, r.output)
  | Error e -> Alcotest.fail ("eval: " ^ Eval.error_to_string e)

let machine_outputs ?(outline = false) m =
  let prog = Codegen.compile_modul m in
  (match Machine.Program.validate prog with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid machine program: " ^ e));
  let prog = if outline then fst (Outcore.Repeat.run ~rounds:5 prog) else prog in
  let config = { Perfsim.Interp.default_config with model_perf = false } in
  match Perfsim.Interp.run ~config ~entry:"main" prog with
  | Ok r -> (r.exit_value, r.output)
  | Error e -> Alcotest.fail ("machine: " ^ Perfsim.Interp.error_to_string e)

(* Compile, run through all three paths, check outputs agree and match. *)
let check_program ?expect_exit ?expect_output src =
  let m = compile_exn src in
  (match Ir.validate m with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("lowered module invalid: " ^ e));
  let ev, eo = eval_outputs m in
  let mv, mo = machine_outputs m in
  Alcotest.(check int) "eval vs machine exit" ev mv;
  Alcotest.(check (list int)) "eval vs machine output" eo mo;
  let ov, oo = machine_outputs ~outline:true m in
  Alcotest.(check int) "outlined exit" ev ov;
  Alcotest.(check (list int)) "outlined output" eo oo;
  (match expect_exit with
  | Some v -> Alcotest.(check int) "exit value" v ev
  | None -> ());
  match expect_output with
  | Some o -> Alcotest.(check (list int)) "output" o eo
  | None -> ()

let test_arith () =
  check_program ~expect_exit:42
    {|
func main() -> Int {
  let a = 2 + 3 * 4        // 14
  let b = (2 + 3) * 4      // 20
  let c = 100 / 8          // 12
  let d = 100 % 8          // 4
  let e = -(a - b)         // 6
  let f = 7 & 12           // 4
  let g = 1 << 4           // 16
  let h = 256 >> 3         // 32
  print(a) print(b) print(c) print(d) print(e) print(f) print(g) print(h)
  return a + b + d + f     // 42
}
|}
    ~expect_output:[ 14; 20; 12; 4; 6; 4; 16; 32 ]

let test_control_flow () =
  check_program ~expect_exit:55
    {|
func main() -> Int {
  var acc = 0
  for i in 1 ..< 11 {
    acc = acc + i
  }
  var j = 10
  while j > 0 {
    if j % 2 == 0 {
      print(j)
    } else {
      print(0 - j)
    }
    j = j - 1
  }
  return acc
}
|}
    ~expect_output:[ 10; -9; 8; -7; 6; -5; 4; -3; 2; -1 ]

let test_short_circuit () =
  (* side(x) prints; && and || must not evaluate their right side when the
     left side decides. *)
  check_program
    {|
func side(x: Int) -> Bool {
  print(x)
  return x > 0
}
func main() -> Int {
  if false && side(1) { print(100) }
  if true || side(2) { print(200) }
  if true && side(3) { print(300) }
  if false || side(4) { print(400) }
  return 0
}
|}
    ~expect_output:[ 200; 3; 300; 4; 400 ]

let test_recursion () =
  check_program ~expect_exit:55
    {|
func fib(n: Int) -> Int {
  if n < 2 { return n }
  return fib(n - 1) + fib(n - 2)
}
func main() -> Int {
  return fib(10)
}
|}

let test_classes () =
  check_program
    {|
class Point {
  var x: Int
  var y: Int
  init(x: Int, y: Int) {
    self.x = x
    self.y = y
  }
  func norm() -> Int {
    return self.x * self.x + self.y * self.y
  }
  func shift(dx: Int) {
    self.x = self.x + dx
  }
}
func main() -> Int {
  let p = Point(3, 4)
  print(p.norm())
  p.shift(1)
  print(p.x)
  p.y = 0
  return p.norm()          // x=4, y=0 -> 16
}
|}
    ~expect_output:[ 25; 4 ] ~expect_exit:16

let test_arrays () =
  check_program ~expect_exit:285
    {|
func main() -> Int {
  let a = array(10)
  for i in 0 ..< 10 {
    a[i] = i * i
  }
  var total = 0
  for i in 0 ..< len(a) {
    total = total + a[i]
  }
  return total
}
|}

let test_bounds_trap () =
  let m = compile_exn
    {|
func main() -> Int {
  let a = array(3)
  return a[5]
}
|}
  in
  (match Eval.run ~entry:"main" m with
  | Error (Eval.Trap _) -> ()
  | Ok _ -> Alcotest.fail "expected bounds trap in eval"
  | Error e -> Alcotest.fail ("unexpected eval error: " ^ Eval.error_to_string e));
  let prog = Codegen.compile_modul m in
  let config = { Perfsim.Interp.default_config with model_perf = false } in
  match Perfsim.Interp.run ~config ~entry:"main" prog with
  | Error (Perfsim.Interp.Trap _) -> ()
  | Ok _ -> Alcotest.fail "expected bounds trap in machine"
  | Error e -> Alcotest.fail ("unexpected machine error: " ^ Perfsim.Interp.error_to_string e)

let test_closures () =
  check_program ~expect_exit:30
    {|
func apply(f: (Int) -> Int, x: Int) -> Int {
  return f(x)
}
func main() -> Int {
  let k = 7
  let addk = { (x: Int) in return x + k }
  print(addk(3))                 // 10
  let r = apply({ (x: Int) in return x * 2 }, 10)
  print(r)                       // 20
  return 10 + r
}
|}
    ~expect_output:[ 10; 20 ]

let test_function_values () =
  check_program ~expect_exit:9
    {|
func triple(x: Int) -> Int { return x * 3 }
func main() -> Int {
  let f = triple
  return f(3)
}
|}

let test_specialization_creates_clones () =
  let m = compile_exn
    {|
func evaluate(f: (Int) -> Int, x: Int) -> Int {
  var acc = 0
  for i in 0 ..< x {
    acc = acc + f(i)
  }
  return acc
}
func main() -> Int {
  let a = evaluate({ (v: Int) in return v + 1 }, 3)
  let b = evaluate({ (v: Int) in return v * 2 }, 3)
  let c = evaluate({ (v: Int) in return v * v }, 3)
  print(a) print(b) print(c)
  return a + b + c
}
|}
  in
  (* Three call sites passing closures: three specialized clones. *)
  let specs =
    List.filter
      (fun (f : Ir.func) ->
        String.length f.name > 13 && String.sub f.name 0 13 = "evaluate_spec")
      m.Ir.funcs
  in
  Alcotest.(check int) "three specializations" 3 (List.length specs);
  let ev, eo = eval_outputs m in
  Alcotest.(check int) "sum" 17 ev;
  Alcotest.(check (list int)) "parts" [ 6; 6; 5 ] eo;
  let mv, mo = machine_outputs m in
  Alcotest.(check int) "machine sum" 17 mv;
  Alcotest.(check (list int)) "machine parts" [ 6; 6; 5 ] mo

let test_throwing () =
  check_program ~expect_exit:1
    {|
func decode(v: Int) throws -> Int {
  if v < 0 { throw }
  return v * 10
}
func main() -> Int {
  let ok = try? decode(4)
  print(ok)                  // 40
  let bad = try? decode(0 - 1)
  print(bad)                 // 0 (error cleared)
  let again = try? decode(2)
  print(again)               // 20: flag must have been cleared
  return 1
}
|}
    ~expect_output:[ 40; 0; 20 ]

let test_try_propagation () =
  check_program ~expect_exit:0
    {|
func inner(v: Int) throws -> Int {
  if v == 3 { throw }
  return v
}
func outer(v: Int) throws -> Int {
  let a = try inner(v)
  let b = try inner(v + 1)
  return a + b
}
func main() -> Int {
  print(try? outer(10))     // 21
  print(try? outer(2))      // 0: inner(3) throws inside outer
  print(try? outer(3))      // 0: first call throws
  return 0
}
|}
    ~expect_output:[ 21; 0; 0 ]

let test_throwing_init () =
  check_program
    {|
class Record {
  var id: Int
  var payload: [Int]
  var extra: [Int]
  init(a: Int, b: Int) throws {
    self.id = try check(a)
    self.payload = array(4)
    self.extra = array(8)
    let x = try check(b)
    self.id = self.id + x
  }
}
func check(v: Int) throws -> Int {
  if v < 0 { throw }
  return v
}
func main() -> Int {
  let good = try? Record(1, 2)
  if good == 0 { print(111) } else { print((good).id) }   // 3
  let bad = try? Record(0 - 1, 2)
  if bad == 0 { print(222) } else { print(1) }            // 222
  let bad2 = try? Record(1, 0 - 5)
  if bad2 == 0 { print(333) } else { print(2) }           // 333
  return 0
}
|}
    ~expect_output:[ 3; 222; 333 ]

let test_init_cleanup_blocks () =
  (* A throwing init with several reference fields must produce the
     cleanup block with one phi per reference-field assignment (Fig. 9). *)
  let m = compile_exn
    {|
class Big {
  var a: [Int]
  var b: [Int]
  var c: [Int]
  var n: Int
  init(x: Int) throws {
    self.a = array(1)
    self.n = try check(x)
    self.b = array(2)
    self.n = self.n + (try check(x + 1))
    self.c = array(3)
    self.n = self.n + (try check(x + 2))
  }
}
func check(v: Int) throws -> Int {
  if v < 0 { throw }
  return v
}
func main() -> Int {
  let r = try? Big(5)
  if r == 0 { return 0 - 1 }
  return (r).n
}
|}
  in
  let init_f =
    List.find (fun (f : Ir.func) -> f.Ir.name = "Big_init") m.Ir.funcs
  in
  let cleanup =
    List.find_opt (fun (b : Ir.block) -> b.Ir.label = "cleanup_L") init_f.Ir.blocks
  in
  (match cleanup with
  | None -> Alcotest.fail "no cleanup block generated"
  | Some b ->
    (* Three ref-typed assignments -> three Init-flag phis. *)
    Alcotest.(check int) "init flags" 3 (List.length b.Ir.phis);
    (* Each phi has one incoming per error edge (three try sites). *)
    List.iter
      (fun (p : Ir.phi) ->
        Alcotest.(check int) "edges per flag" 3 (List.length p.Ir.incoming))
      b.Ir.phis);
  check_program ~expect_exit:18
    {|
class Big {
  var a: [Int]
  var b: [Int]
  var c: [Int]
  var n: Int
  init(x: Int) throws {
    self.a = array(1)
    self.n = try check(x)
    self.b = array(2)
    self.n = self.n + (try check(x + 1))
    self.c = array(3)
    self.n = self.n + (try check(x + 2))
  }
}
func check(v: Int) throws -> Int {
  if v < 0 { throw }
  return v
}
func main() -> Int {
  let r = try? Big(5)
  if r == 0 { return 0 - 1 }
  return (r).n
}
|}

let test_refcounting_effects () =
  (* Retains/releases must actually execute: a retained object's refcount
     is visible through the runtime (checked indirectly: machine and eval
     agree on every program that exercises retain/release). *)
  check_program ~expect_exit:7
    {|
class Box {
  var v: Int
  init(v: Int) { self.v = v }
}
func pick(a: Box, b: Box, flag: Bool) -> Box {
  if flag { return a }
  return b
}
func main() -> Int {
  let x = Box(3)
  let y = Box(4)
  let z = pick(x, y, true)
  let w = pick(x, y, false)
  return z.v + w.v
}
|}

let test_multi_module () =
  let sources =
    [
      ( "util",
        {|
func helper(x: Int) -> Int { return x * 2 + 1 }
|} );
      ( "app",
        {|
func main() -> Int {
  var t = 0
  for i in 0 ..< 5 { t = t + helper(i) }
  return t
}
|} );
    ]
  in
  match Swiftlet.Compile.compile_program sources with
  | Error e -> Alcotest.fail e
  | Ok mods -> (
    match Link.link ~flag_semantics:Link.Attributes ~name:"whole" mods with
    | Error e -> Alcotest.fail (Link.error_to_string e)
    | Ok whole ->
      let ev, _ = eval_outputs whole in
      Alcotest.(check int) "cross-module call" 25 ev;
      let prog = Codegen.compile_modul whole in
      let config = { Perfsim.Interp.default_config with model_perf = false } in
      (match Perfsim.Interp.run ~config ~entry:"main" prog with
      | Ok r -> Alcotest.(check int) "machine" 25 r.exit_value
      | Error e -> Alcotest.fail (Perfsim.Interp.error_to_string e)))

let test_type_errors () =
  let expect_error src =
    match Swiftlet.Compile.compile_module ~name:"m" src with
    | Ok _ -> Alcotest.fail ("expected type error for: " ^ src)
    | Error _ -> ()
  in
  expect_error "func main() -> Int { return true }";
  expect_error "func main() -> Int { let x = y return 0 }";
  expect_error "func main() -> Int { if 3 { } return 0 }";
  expect_error "func f() throws -> Int { return 1 }\nfunc main() -> Int { return f() }";
  expect_error "func main() -> Int { throw return 0 }";
  expect_error "func main() -> Int { let a = array(3) return a[true] }";
  expect_error "func main() -> Int { print(main(1)) return 0 }"

let test_parse_errors () =
  let expect_error src =
    match Swiftlet.Parser.parse_module ~name:"m" src with
    | Ok _ -> Alcotest.fail ("expected parse error for: " ^ src)
    | Error _ -> ()
  in
  expect_error "func main( { }";
  expect_error "func main() -> { return 0 }";
  expect_error "class { }";
  expect_error "func main() -> Int { return 0 "

let test_clone_detect () =
  let src =
    {|
func a1(x: Int) -> Int { let y = x * 3 + 1 return y }
func a2(z: Int) -> Int { let w = z * 9 + 2 return w }
func b(x: Int) -> Int { return x - 1 }
func main() -> Int { return a1(1) + a2(2) + b(3) }
|}
  in
  match Swiftlet.Parser.parse_module ~name:"m" src with
  | Error e -> Alcotest.fail e
  | Ok ast ->
    let r = Swiftlet.Clone_detect.analyze ~window:8 ~min_tokens:4 ~abstract:true [ ast ] in
    Alcotest.(check int) "functions" 4 r.functions;
    (* a1/a2 are type-2 clones (identifiers and literals abstracted). *)
    Alcotest.(check int) "clone group" 1 r.clone_groups;
    Alcotest.(check int) "cloned functions" 2 r.cloned_functions

let test_sil_outline () =
  let src =
    {|
class Holder {
  var a: [Int]
  var b: [Int]
  var c: [Int]
  init() {
    self.a = array(1)
    self.b = array(1)
    self.c = array(1)
  }
}
func main() -> Int {
  let h = Holder()
  let x = array(4)
  h.a = x
  h.b = x
  h.c = x
  return len(h.c)
}
|}
  in
  let m = compile_exn src in
  let before = eval_outputs m in
  let m', stats = Swiftlet.Sil_outline.run ~min_occurrences:2 ~include_retain_store:true m in
  Alcotest.(check bool) "rewrote sites" true (stats.sites_rewritten >= 2);
  Alcotest.(check bool) "created helpers" true (stats.helpers_created >= 1);
  let after = eval_outputs m' in
  Alcotest.(check (pair int (list int))) "behaviour preserved" before after;
  let mv, mo = machine_outputs m' in
  Alcotest.(check (pair int (list int))) "machine agrees" before (mv, mo)

(* --- the front end against oracles kept here ----------------------------- *)

(* The list lexer the token-array lexer replaced, kept verbatim as its
   oracle (it raises [Failure] on an out-of-range literal, which the corpus
   below never holds). *)
module Old_lexer = struct
  open Swiftlet.Lexer

  type t = { tok : token; line : int }

  let keywords =
    [
      "class"; "var"; "let"; "func"; "init"; "throws"; "throw"; "try"; "return";
      "if"; "else"; "while"; "for"; "in"; "print"; "true"; "false"; "array";
      "len";
    ]

  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
  let is_digit c = c >= '0' && c <= '9'

  let tokenize src =
    let n = String.length src in
    let out = ref [] in
    let line = ref 1 in
    let push tok = out := { tok; line = !line } :: !out in
    let i = ref 0 in
    let peek k = if !i + k < n then Some src.[!i + k] else None in
    while !i < n do
      let c = src.[!i] in
      if c = '\n' then begin
        incr line;
        incr i
      end
      else if c = ' ' || c = '\t' || c = '\r' then incr i
      else if c = '/' && peek 1 = Some '/' then begin
        while !i < n && src.[!i] <> '\n' do
          incr i
        done
      end
      else if is_digit c then begin
        let start = !i in
        while !i < n && is_digit src.[!i] do
          incr i
        done;
        push (INT (int_of_string (String.sub src start (!i - start))))
      end
      else if is_ident_start c then begin
        let start = !i in
        while !i < n && is_ident_char src.[!i] do
          incr i
        done;
        let word = String.sub src start (!i - start) in
        if List.mem word keywords then push (KW word) else push (IDENT word)
      end
      else begin
        let two = if !i + 1 < n then String.sub src !i 2 else "" in
        let three = if !i + 2 < n then String.sub src !i 3 else "" in
        if three = "..<" then begin
          push RANGE;
          i := !i + 3
        end
        else if two = "->" then begin
          push ARROW;
          i := !i + 2
        end
        else if two = "==" || two = "!=" || two = "<=" || two = ">=" || two = "&&"
                || two = "||" || two = "<<" || two = ">>" then begin
          push (OP two);
          i := !i + 2
        end
        else begin
          (match c with
          | '{' -> push LBRACE
          | '}' -> push RBRACE
          | '(' -> push LPAREN
          | ')' -> push RPAREN
          | '[' -> push LBRACKET
          | ']' -> push RBRACKET
          | ',' -> push COMMA
          | ':' -> push COLON
          | ';' -> push SEMI
          | '.' -> push DOT
          | '=' -> push ASSIGN
          | '?' -> push QUESTION
          | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '<' | '>' | '!' ->
            push (OP (String.make 1 c))
          | c -> raise (Lex_error (!line, Printf.sprintf "unexpected character %C" c)));
          incr i
        end
      end
    done;
    push EOF;
    List.rev !out
end

(* Both lexers as (token, line) streams, or the error they raise. *)
let old_stream src =
  match Old_lexer.tokenize src with
  | toks -> Ok (List.map (fun (t : Old_lexer.t) -> (t.tok, t.line)) toks)
  | exception Swiftlet.Lexer.Lex_error (l, m) -> Error (l, m)

(* The new lexer's stream runs to its first [EOF]; every slot after that
   must be [EOF] padding on the same line. *)
let new_stream src =
  match Swiftlet.Lexer.tokenize src with
  | toks, lines ->
    if Array.length toks <> Array.length lines then
      Alcotest.fail "token and line arrays differ in length";
    let stream = List.combine (Array.to_list toks) (Array.to_list lines) in
    let rec upto_eof = function
      | [] -> Alcotest.fail "no EOF token"
      | ((Swiftlet.Lexer.EOF, _) as eof) :: padding ->
        if List.exists (fun p -> p <> eof) padding then
          Alcotest.fail "padding after EOF is not EOF on the last line";
        [ eof ]
      | t :: rest -> t :: upto_eof rest
    in
    Ok (upto_eof stream)
  | exception Swiftlet.Lexer.Lex_error (l, m) -> Error (l, m)

(* The first place two streams part, if any. *)
let stream_diff expected actual =
  let show (t, l) = Printf.sprintf "%s@%d" (Swiftlet.Lexer.token_to_string t) l in
  match expected, actual with
  | Error (l, m), Error (l', m') when l = l' && String.equal m m' -> None
  | Error (l, m), _ -> Some (Printf.sprintf "expected Lex_error (%d, %s)" l m)
  | Ok _, Error (l, m) -> Some (Printf.sprintf "unexpected Lex_error (%d, %s)" l m)
  | Ok e, Ok a ->
    let rec go i = function
      | [], [] -> None
      | x :: xs, y :: ys -> if x = y then go (i + 1) (xs, ys)
        else Some (Printf.sprintf "token %d: expected %s, got %s" i (show x) (show y))
      | _ :: _, [] -> Some (Printf.sprintf "stream ends early at token %d" i)
      | [], _ :: _ -> Some (Printf.sprintf "stream runs past token %d" i)
    in
    go 0 (e, a)

let swiftgen_sources seed =
  Fuzz.Swiftgen.to_sources
    (Fuzz.Swiftgen.generate (Random.State.make [| seed; 0 |]) ~fuel:8)

(* uber_rider, SmallApp_x3, the Swiftlet benchmarks and Swiftgen seeds
   1-40, as (module name, source) groups of one program each. *)
let front_end_corpus () =
  Workload.Appgen.generate_sources Workload.Appgen.uber_rider
  :: Workload.Appgen.generate_sources
       (Workload.Appgen.scaled ~mult:3 Workload.Appgen.small)
  :: List.map
       (fun (b : Workload.Benchmarks.t) -> [ (b.bench_name, b.source) ])
       Workload.Benchmarks.all
  @ List.init 40 (fun i -> swiftgen_sources (i + 1))

let edge_spellings =
  [
    "for i in 0..<n { }"; "a ..< b"; "..<"; "x..<"; ".."; "..."; ".<"; "a.b";
    "->"; "a->b"; "a-->b"; "a- >b"; "x !="; "x !"; "!"; "!="; "x = y //";
    "x // no newline at EOF"; "//"; "/"; "a/b//c\nd"; "a\r\n\tb"; "\t\tfunc\r\n";
    "\r"; "<<="; ">>="; "&&&"; "|||"; "=>"; "==="; "<>"; "?:;,"; "123abc";
    "007"; "4611686018427387903"; "0004611686018427387903"; "a1 _b __";
    "classy iff in init inits letx _"; ""; "\n\n\n"; "a @ b"; "let x = 1\n  #";
    "func main() -> Int {\n  return 0\n}\n$"; "x\n\n`";
    (* Denser than the lexer's size estimate, so its arrays grow. *)
    String.make 300 ','; String.concat ";\n" (List.init 100 (fun i -> "x" ^ string_of_int (i mod 7)));
  ]

let test_lexer_matches_oracle () =
  let check what src =
    match stream_diff (old_stream src) (new_stream src) with
    | None -> ()
    | Some d -> Alcotest.failf "%s: %s" what d
  in
  List.iter (fun src -> check (Printf.sprintf "%S" src) src) edge_spellings;
  List.iter (List.iter (fun (name, src) -> check name src)) (front_end_corpus ())

let test_out_of_range_literal () =
  let lex_error src =
    match Swiftlet.Lexer.tokenize src with
    | _ -> None
    | exception Swiftlet.Lexer.Lex_error (l, m) -> Some (l, m)
  in
  Alcotest.(check (option (pair int string)))
    "one above max_int" (Some (2, "integer literal out of range"))
    (lex_error "\n4611686018427387904");
  Alcotest.(check (option (pair int string)))
    "far above" (Some (1, "integer literal out of range"))
    (lex_error "return 99999999999999999999999");
  Alcotest.(check (option (pair int string))) "max_int itself" None
    (lex_error "4611686018427387903")

let test_stream_diff_catches_mutants () =
  let src = snd (List.hd (Workload.Appgen.generate_sources Workload.Appgen.small)) in
  let expected = old_stream src in
  let toks = match new_stream src with Ok t -> t | Error _ -> Alcotest.fail "lex" in
  let k = List.length toks / 2 in
  let dropped = List.filteri (fun i _ -> i <> k) toks in
  let shifted = List.mapi (fun i (t, l) -> if i = k then (t, l + 1) else (t, l)) toks in
  Alcotest.(check bool) "the real stream agrees" true (stream_diff expected (Ok toks) = None);
  Alcotest.(check bool) "a dropped token is caught" true
    (stream_diff expected (Ok dropped) <> None);
  Alcotest.(check bool) "a shifted line is caught" true
    (stream_diff expected (Ok shifted) <> None)

(* The two-pass front end, each pass parsing on its own: the reference the
   one-parse [compile_program] must equal. *)
let two_pass sources =
  let rec map_ok f = function
    | [] -> Ok []
    | x :: rest -> (
      match f x with
      | Error _ as e -> e
      | Ok y -> Result.map (fun ys -> y :: ys) (map_ok f rest))
  in
  Result.bind
    (map_ok
       (fun (name, src) ->
         Result.map (fun s -> (name, s)) (Swiftlet.Compile.signatures_of_parsed (Swiftlet.Compile.parse ~name src)))
       sources)
    (fun per_module ->
      map_ok
        (fun (name, src) ->
          let externals =
            List.concat_map
              (fun (m, s) -> if String.equal m name then [] else s)
              per_module
          in
          Swiftlet.Compile.compile_module ~externals ~name src)
        sources)

let test_one_parse_matches_two_passes () =
  List.iter
    (fun sources ->
      match Swiftlet.Compile.compile_program sources, two_pass sources with
      | Ok ms, Ok ref_ms ->
        Alcotest.(check int) "module count" (List.length ref_ms) (List.length ms);
        List.iter2
          (fun (m : Ir.modul) (r : Ir.modul) ->
            if m <> r then Alcotest.failf "module %s differs" r.Ir.m_name)
          ms ref_ms
      | Error e, Error e' -> Alcotest.(check string) "same error" e' e
      | Ok _, Error e -> Alcotest.failf "two-pass failed alone: %s" e
      | Error e, Ok _ -> Alcotest.failf "one-parse failed alone: %s" e)
    (front_end_corpus ())

let test_error_precedence () =
  let good = "func helper(x: Int) -> Int { return x + 1 }\n" in
  let parse_bad = "func a() -> Int {\n  return (1 + \n}\n" in
  let sig_bad = "func b() -> Int { return 1 }\nfunc b() -> Int { return 2 }\n" in
  let type_bad = "func c() -> Int { return true }\n" in
  let expect msg sources =
    let got = function Ok _ -> "ok" | Error e -> e in
    Alcotest.(check string) "compile_program" msg
      (got (Swiftlet.Compile.compile_program sources));
    Alcotest.(check string) "two passes" msg (got (two_pass sources))
  in
  (* Every signature (and so every parse) comes before any type check. *)
  expect "m2: parse error: line 3: expected expression, found }"
    [ ("m1", good); ("m2", parse_bad); ("m3", sig_bad) ];
  expect "m3: duplicate function b"
    [ ("m1", type_bad); ("m2", good); ("m3", sig_bad) ];
  expect "m3: parse error: line 3: expected expression, found }"
    [ ("m1", good); ("m2", type_bad); ("m3", parse_bad) ];
  expect "m1: parse error: line 1: unexpected character '@'"
    [ ("m1", "func x() -> Int { return 1 @ 2 }"); ("m2", parse_bad) ];
  expect "m2: type error: return type mismatch in c: expected Int, got Bool"
    [ ("m1", good); ("m2", type_bad); ("m3", "func z() -> Int { return helper(true) }") ]

let () =
  Alcotest.run "swiftlet"
    [
      ( "exec",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "classes" `Quick test_classes;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "bounds trap" `Quick test_bounds_trap;
          Alcotest.test_case "closures" `Quick test_closures;
          Alcotest.test_case "function values" `Quick test_function_values;
          Alcotest.test_case "refcounting" `Quick test_refcounting_effects;
        ] );
      ( "errors",
        [
          Alcotest.test_case "throwing basics" `Quick test_throwing;
          Alcotest.test_case "try propagation" `Quick test_try_propagation;
          Alcotest.test_case "throwing init" `Quick test_throwing_init;
          Alcotest.test_case "init cleanup blocks" `Quick test_init_cleanup_blocks;
        ] );
      ( "phases",
        [
          Alcotest.test_case "specialization" `Quick test_specialization_creates_clones;
          Alcotest.test_case "multi module" `Quick test_multi_module;
          Alcotest.test_case "type errors" `Quick test_type_errors;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "clone detect" `Quick test_clone_detect;
          Alcotest.test_case "sil outline" `Quick test_sil_outline;
        ] );
      ( "front end",
        [
          Alcotest.test_case "lexer matches its list oracle" `Quick
            test_lexer_matches_oracle;
          Alcotest.test_case "out-of-range literal" `Quick test_out_of_range_literal;
          Alcotest.test_case "stream check catches mutants" `Quick
            test_stream_diff_catches_mutants;
          Alcotest.test_case "one parse equals two passes" `Quick
            test_one_parse_matches_two_passes;
          Alcotest.test_case "error precedence" `Quick test_error_precedence;
        ] );
    ]
