(* Edge-case programs for the Swiftlet front end: nested closures, chained
   class fields, shadowing, evaluation-order subtleties.  Each program runs
   through the MIR evaluator, the machine interpreter, and the outlined
   machine interpreter; all three must agree with the expected values. *)

let compile_exn src =
  match Swiftlet.Compile.compile_module ~name:"m" src with
  | Ok m -> m
  | Error e -> Alcotest.fail e

let check_program ?expect_exit ?expect_output src =
  let m = compile_exn src in
  let ev, eo =
    match Eval.run ~entry:"main" m with
    | Ok r -> (r.exit_value, r.output)
    | Error e -> Alcotest.fail ("eval: " ^ Eval.error_to_string e)
  in
  let prog = Codegen.compile_modul m in
  let config = { Perfsim.Interp.default_config with model_perf = false } in
  let machine p =
    match Perfsim.Interp.run ~config ~entry:"main" p with
    | Ok r -> (r.Perfsim.Interp.exit_value, r.Perfsim.Interp.output)
    | Error e -> Alcotest.fail ("machine: " ^ Perfsim.Interp.error_to_string e)
  in
  let mv, mo = machine prog in
  let ov, oo = machine (fst (Outcore.Repeat.run ~rounds:5 prog)) in
  Alcotest.(check int) "machine exit" ev mv;
  Alcotest.(check (list int)) "machine output" eo mo;
  Alcotest.(check int) "outlined exit" ev ov;
  Alcotest.(check (list int)) "outlined output" eo oo;
  (match expect_exit with
  | Some v -> Alcotest.(check int) "exit" v ev
  | None -> ());
  match expect_output with
  | Some o -> Alcotest.(check (list int)) "output" o eo
  | None -> ()

let test_nested_closures () =
  check_program ~expect_exit:30
    {|
func twice(f: (Int) -> Int, x: Int) -> Int {
  return f(f(x))
}
func main() -> Int {
  let base = 5
  let outer = { (a: Int) in
    let inner = { (b: Int) in return b * 2 + base }
    return inner(a) + 1
  }
  return twice(outer, 3)    // outer(a) = 2a + 6; outer(outer(3)) = 30
}
|}

let test_closure_over_loop_var () =
  check_program ~expect_exit:285
    {|
func apply(f: (Int) -> Int, n: Int) -> Int {
  var acc = 0
  for i in 0 ..< n { acc = acc + f(i) }
  return acc
}
func main() -> Int {
  var total = 0
  for k in 0 ..< 10 {
    total = total + apply({ (x: Int) in return x * k }, 2)  // k per iteration
  }
  // sum over k of (0*k + 1*k) = sum k = 45... plus squares loop below
  let sq = apply({ (x: Int) in return x * x }, 10)           // 285
  print(total)
  return sq
}
|}
    ~expect_output:[ 45 ]

let test_chained_class_fields () =
  check_program ~expect_exit:30
    {|
class Inner {
  var v: Int
  init(v: Int) { self.v = v }
}
class Outer {
  var inner: Inner
  var w: Int
  init(v: Int) {
    self.inner = Inner(v)
    self.w = v * 2
  }
  func bump() {
    self.inner.v = self.inner.v + 1
  }
}
func main() -> Int {
  let o = Outer(9)
  o.bump()
  print(o.inner.v)             // 10
  o.inner = Inner(12)
  return o.inner.v + o.w       // 12 + 18
}
|}
    ~expect_output:[ 10 ]

let test_shadowing () =
  check_program ~expect_exit:9
    {|
func main() -> Int {
  let x = 1
  var acc = 0
  if x == 1 {
    let x = 2
    acc = acc + x      // 2
  }
  for x in 5 ..< 7 {
    acc = acc + x      // 5 + 6? no: 5, then 6 -> 11... recompute
  }
  // acc = 2 + 5 + 6 = 13; subtract outer x restored
  return acc - x * 4   // 13 - 4 = 9
}
|}

let test_early_return_in_loops () =
  check_program ~expect_exit:37
    {|
func find(a: [Int], needle: Int) -> Int {
  for i in 0 ..< len(a) {
    if a[i] == needle {
      return i
    }
    if a[i] > 900 {
      return 0 - 2
    }
  }
  return 0 - 1
}
func main() -> Int {
  let a = array(50)
  for i in 0 ..< 50 { a[i] = i * 3 }
  let hit = find(a, 111)       // index 37
  let miss = find(a, 112)      // -1
  print(miss)
  return hit
}
|}
    ~expect_output:[ -1 ]

let test_while_short_circuit_condition () =
  check_program ~expect_exit:10
    {|
func main() -> Int {
  let a = array(10)
  for i in 0 ..< 10 { a[i] = i }
  var i = 0
  // The right operand indexes the array and must not run once i = 10.
  while i < len(a) && a[i] >= 0 {
    i = i + 1
  }
  return i
}
|}

let test_range_evaluated_once () =
  check_program ~expect_exit:5
    {|
func main() -> Int {
  var n = 5
  var count = 0
  for i in 0 ..< n {
    n = n + 1        // must not extend the loop
    count = count + 1
  }
  print(n)           // 10
  return count
}
|}
    ~expect_output:[ 10 ]

let test_mutual_recursion () =
  check_program ~expect_exit:1
    {|
func is_even(n: Int) -> Bool {
  if n == 0 { return true }
  return is_odd(n - 1)
}
func is_odd(n: Int) -> Bool {
  if n == 0 { return false }
  return is_even(n - 1)
}
func main() -> Int {
  if is_even(40) && is_odd(17) && !is_even(9) { return 1 }
  return 0
}
|}

let test_deep_expression () =
  check_program ~expect_exit:1
    {|
func main() -> Int {
  let v = ((((1 + 2) * (3 + 4) - (5 - 2)) / 3) + ((2 << 3) >> 2)) % 13
  // (((3*7)-3)/3) + (16>>2) = (18/3) + 4 = 10; 10 % 13 = 10
  if v == 10 { return 1 }
  return 0
}
|}

let test_tryopt_in_loop () =
  check_program ~expect_exit:39534
    {|
func risky(v: Int) throws -> Int {
  if v % 3 == 0 { throw }
  return v * 2
}
func main() -> Int {
  var acc = 0
  var failures = 0
  for i in 0 ..< 100 {
    let r = try? risky(i)
    if r == 0 && i != 0 {
      failures = failures + 1
    } else {
      acc = acc + r
    }
  }
  // even though risky(0) would throw, r==0&&i!=0 guards count it as acc+0
  // acc = 2 * sum of i in 0..99 with i %% 3 != 0 = 6534; failures = 33
  return acc + failures * 1000
}
|}

let test_method_chains () =
  check_program ~expect_exit:64
    {|
class Counter {
  var n: Int
  init() { self.n = 0 }
  func incr() { self.n = self.n + 1 }
  func double() { self.n = self.n * 2 }
  func get() -> Int { return self.n }
}
func main() -> Int {
  let c = Counter()
  c.incr()
  for i in 0 ..< 6 { c.double() }
  return c.get()
}
|}

let test_array_aliasing () =
  check_program ~expect_exit:99
    {|
func scribble(a: [Int]) {
  a[0] = 99
}
func main() -> Int {
  let a = array(4)
  let b = a          // same underlying storage (reference semantics here)
  scribble(b)
  return a[0]
}
|}

let test_bool_returning_closure () =
  check_program ~expect_exit:3
    {|
func count_if(f: (Int) -> Bool, n: Int) -> Int {
  var c = 0
  for i in 0 ..< n {
    if f(i) { c = c + 1 }
  }
  return c
}
func main() -> Int {
  return count_if({ (x: Int) in return x % 3 == 0 }, 9)  // 0,3,6
}
|}


(* Random well-typed Swiftlet programs: integers only, constant loop
   bounds (termination guaranteed), fuzzing the SSA construction in the
   lowering pass against the evaluator and the machine interpreter. *)

let gen_program =
  QCheck.Gen.(
    let var_name k = Printf.sprintf "v%d" k in
    (* Expressions over currently-bound variables v0..v(n-1). *)
    let rec gen_expr nvars depth =
      if depth = 0 || nvars = 0 then
        if nvars = 0 then map (fun n -> Swiftlet.Ast.Int_lit n) (int_range 0 99)
        else
          oneof
            [
              map (fun n -> Swiftlet.Ast.Int_lit n) (int_range 0 99);
              map (fun k -> Swiftlet.Ast.Var (var_name (k mod nvars))) (int_range 0 (max 0 (nvars - 1)));
            ]
      else
        frequency
          [
            (2, map (fun n -> Swiftlet.Ast.Int_lit n) (int_range 0 99));
            (3, map (fun k -> Swiftlet.Ast.Var (var_name (k mod nvars))) (int_range 0 (nvars - 1)));
            ( 3,
              map3
                (fun op a b -> Swiftlet.Ast.Binop (op, a, b))
                (oneofl Swiftlet.Ast.[ Add; Sub; Mul; BAnd; BOr; BXor ])
                (gen_expr nvars (depth - 1))
                (gen_expr nvars (depth - 1)) );
            ( 1,
              map2
                (fun a b ->
                  (* Division with a guaranteed non-zero divisor. *)
                  Swiftlet.Ast.Binop (Swiftlet.Ast.Div, a, Swiftlet.Ast.Binop (Swiftlet.Ast.BOr, b, Swiftlet.Ast.Int_lit 1)))
                (gen_expr nvars (depth - 1))
                (gen_expr nvars (depth - 1)) );
          ]
    in
    let gen_cond nvars depth =
      map3
        (fun op a b -> Swiftlet.Ast.Binop (op, a, b))
        (oneofl Swiftlet.Ast.[ Eq; Ne; Lt; Le; Gt; Ge ])
        (gen_expr nvars depth) (gen_expr nvars depth)
    in
    (* Statements; nvars is threaded through Lets. *)
    let rec gen_stmts nvars budget =
      if budget <= 0 then return ([], nvars)
      else
        let* choice = int_range 0 9 in
        let* stmt, nvars' =
          match choice with
          | 0 | 1 | 2 ->
            let* e = gen_expr nvars 2 in
            return (Swiftlet.Ast.Let (var_name nvars, None, e), nvars + 1)
          | 3 | 4 when nvars > 0 ->
            let* k = int_range 0 (nvars - 1) in
            let* e = gen_expr nvars 2 in
            return (Swiftlet.Ast.Assign (Swiftlet.Ast.L_var (var_name k), e), nvars)
          | 5 ->
            let* c = gen_cond nvars 1 in
            let* t, _ = gen_stmts nvars (budget / 2) in
            let* f, _ = gen_stmts nvars (budget / 2) in
            return (Swiftlet.Ast.If (c, t, f), nvars)
          | 6 ->
            (* A for loop with small constant bounds.  The loop variable is
               exposed to the body through a read-only alias so generated
               assignments can never corrupt the iteration. *)
            let* hi = int_range 1 5 in
            let loop_var = Printf.sprintf "loop%d" nvars in
            let* body, _ = gen_stmts (nvars + 1) (budget / 2) in
            let body =
              Swiftlet.Ast.Let (var_name nvars, None, Swiftlet.Ast.Var loop_var) :: body
            in
            return
              (Swiftlet.Ast.For (loop_var, Swiftlet.Ast.Int_lit 0, Swiftlet.Ast.Int_lit hi, body), nvars)
          | 7 when nvars > 0 ->
            let* k = int_range 0 (nvars - 1) in
            return (Swiftlet.Ast.Print (Swiftlet.Ast.Var (var_name k)), nvars)
          | _ ->
            let* e = gen_expr nvars 2 in
            return (Swiftlet.Ast.Let (var_name nvars, None, e), nvars + 1)
        in
        let* rest, nvars'' = gen_stmts nvars' (budget - 1) in
        return (stmt :: rest, nvars'')
    in
    let* body, nvars = gen_stmts 0 12 in
    let* ret = gen_expr (max nvars 0) 2 in
    let fd =
      {
        Swiftlet.Ast.fd_name = "main";
        fd_params = [];
        fd_ret = Some Swiftlet.Ast.T_int;
        fd_throws = false;
        fd_body = body @ [ Swiftlet.Ast.Return (Some ret) ];
      }
    in
    return { Swiftlet.Ast.ma_name = "fuzz"; ma_decls = [ Swiftlet.Ast.D_func fd ] })

let arb_program =
  QCheck.make gen_program ~print:(fun (m : Swiftlet.Ast.module_ast) ->
      Printf.sprintf "<%d decls>" (List.length m.ma_decls))

let prop_fuzz_lowering =
  QCheck.Test.make ~count:400 ~name:"random Swiftlet ASTs: eval = machine = outlined"
    arb_program (fun ast ->
      match Swiftlet.Typecheck.check_module ast with
      | Error e -> QCheck.Test.fail_reportf "generated ill-typed program: %s" e
      | Ok env -> (
        let m = Swiftlet.Lower.lower_module env ast in
        match Eval.run ~entry:"main" m with
        | Error e ->
          QCheck.Test.fail_reportf "eval failed: %s" (Eval.error_to_string e)
        | Ok er -> (
          let prog = Codegen.compile_modul m in
          let config = { Perfsim.Interp.default_config with model_perf = false } in
          let run p =
            match Perfsim.Interp.run ~config ~entry:"main" p with
            | Ok r -> Ok (r.Perfsim.Interp.exit_value, r.Perfsim.Interp.output)
            | Error e -> Error (Perfsim.Interp.error_to_string e)
          in
          match run prog with
          | Error e -> QCheck.Test.fail_reportf "machine failed: %s" e
          | Ok (mv, mo) -> (
            if (er.exit_value, er.output) <> (mv, mo) then
              QCheck.Test.fail_report "eval and machine disagree"
            else
              match run (fst (Outcore.Repeat.run ~rounds:5 prog)) with
              | Error e -> QCheck.Test.fail_reportf "outlined failed: %s" e
              | Ok (ov, oo) -> (er.exit_value, er.output) = (ov, oo)))))

(* A literal above max_int is a parse error on its line, not an escaping
   [Failure "int_of_string"]. *)
let test_out_of_range_literal () =
  let src = "func main() -> Int {\n  return 99999999999999999999999\n}\n" in
  let msg = "m: parse error: line 2: integer literal out of range" in
  (match Swiftlet.Compile.compile_module ~name:"m" src with
  | Ok _ -> Alcotest.fail "out-of-range literal compiled"
  | Error e -> Alcotest.(check string) "compile_module" msg e);
  (match Swiftlet.Compile.compile_program [ ("m", src) ] with
  | Ok _ -> Alcotest.fail "out-of-range literal compiled"
  | Error e -> Alcotest.(check string) "compile_program" msg e);
  check_program ~expect_exit:4611686018427387903
    "func main() -> Int { return 4611686018427387903 }"

let tests =
  [
    ("nested closures", test_nested_closures);
    ("closure over loop var", test_closure_over_loop_var);
    ("chained class fields", test_chained_class_fields);
    ("shadowing", test_shadowing);
    ("early return in loops", test_early_return_in_loops);
    ("while short-circuit", test_while_short_circuit_condition);
    ("range evaluated once", test_range_evaluated_once);
    ("mutual recursion", test_mutual_recursion);
    ("deep expression", test_deep_expression);
    ("try? in loop", test_tryopt_in_loop);
    ("method chains", test_method_chains);
    ("array aliasing", test_array_aliasing);
    ("bool-returning closure", test_bool_returning_closure);
    ("out-of-range literal", test_out_of_range_literal);
  ]

let () =
  Alcotest.run "swiftlet-edge"
    [
      ("edge", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) tests);
      ("fuzz", [ QCheck_alcotest.to_alcotest prop_fuzz_lowering ]);
    ]
