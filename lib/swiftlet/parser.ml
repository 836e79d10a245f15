exception Parse_error of int * string

(* The lexer's parallel token and line arrays and the index of the next
   token.  Past the end (never reached: nothing advances over [EOF]) peeks
   read [EOF] on line 0. *)
type state = {
  toks : Lexer.token array;
  lines : int array;
  mutable pos : int;
}

let fail (st : state) fmt =
  let line = if st.pos < Array.length st.lines then st.lines.(st.pos) else 0 in
  Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

let peek st =
  if st.pos < Array.length st.toks then Array.unsafe_get st.toks st.pos
  else Lexer.EOF

let advance st = if st.pos < Array.length st.toks then st.pos <- st.pos + 1

let expect st tok =
  if peek st = tok then advance st
  else
    fail st "expected %s, found %s" (Lexer.token_to_string tok)
      (Lexer.token_to_string (peek st))

let expect_ident st =
  match peek st with
  | Lexer.IDENT s ->
    advance st;
    s
  | t -> fail st "expected identifier, found %s" (Lexer.token_to_string t)

(* --- Types ---------------------------------------------------------------- *)

let rec parse_ty st =
  match peek st with
  | Lexer.IDENT "Int" ->
    advance st;
    Ast.T_int
  | Lexer.IDENT "Bool" ->
    advance st;
    Ast.T_bool
  | Lexer.IDENT c ->
    advance st;
    Ast.T_class c
  | Lexer.LBRACKET ->
    advance st;
    (match peek st with
    | Lexer.IDENT "Int" -> advance st
    | t -> fail st "expected Int in array type, found %s" (Lexer.token_to_string t));
    expect st Lexer.RBRACKET;
    Ast.T_array
  | Lexer.LPAREN ->
    advance st;
    let rec params acc =
      match peek st with
      | Lexer.RPAREN ->
        advance st;
        List.rev acc
      | _ ->
        let t = parse_ty st in
        (match peek st with
        | Lexer.COMMA ->
          advance st;
          params (t :: acc)
        | Lexer.RPAREN ->
          advance st;
          List.rev (t :: acc)
        | tok -> fail st "expected , or ) in function type, found %s" (Lexer.token_to_string tok))
    in
    let ps = params [] in
    expect st Lexer.ARROW;
    let r = parse_ty st in
    Ast.T_func (ps, r)
  | t -> fail st "expected type, found %s" (Lexer.token_to_string t)

(* --- Expressions ---------------------------------------------------------- *)

let binop_of_string = function
  | "+" -> Ast.Add
  | "-" -> Ast.Sub
  | "*" -> Ast.Mul
  | "/" -> Ast.Div
  | "%" -> Ast.Mod
  | "&" -> Ast.BAnd
  | "|" -> Ast.BOr
  | "^" -> Ast.BXor
  | "<<" -> Ast.Shl
  | ">>" -> Ast.Shr
  | "==" -> Ast.Eq
  | "!=" -> Ast.Ne
  | "<" -> Ast.Lt
  | "<=" -> Ast.Le
  | ">" -> Ast.Gt
  | ">=" -> Ast.Ge
  | "&&" -> Ast.LAnd
  | "||" -> Ast.LOr
  | s -> invalid_arg ("binop_of_string: " ^ s)

(* Precedence levels, loosest first. *)
let levels =
  [
    [ "||" ];
    [ "&&" ];
    [ "=="; "!="; "<"; "<="; ">"; ">=" ];
    [ "+"; "-"; "|"; "^" ];
    [ "*"; "/"; "%"; "&"; "<<"; ">>" ];
  ]

let rec parse_expr st = parse_binary st levels

and parse_binary st = function
  | [] -> parse_unary st
  | ops :: rest ->
    let lhs = ref (parse_binary st rest) in
    let continue_ = ref true in
    while !continue_ do
      match peek st with
      | Lexer.OP o when List.mem o ops ->
        advance st;
        let rhs = parse_binary st rest in
        lhs := Ast.Binop (binop_of_string o, !lhs, rhs)
      | _ -> continue_ := false
    done;
    !lhs

and parse_unary st =
  match peek st with
  | Lexer.OP "-" ->
    advance st;
    Ast.Neg (parse_unary st)
  | Lexer.OP "!" ->
    advance st;
    Ast.Not (parse_unary st)
  | Lexer.KW "try" ->
    advance st;
    if peek st = Lexer.QUESTION then begin
      advance st;
      Ast.Try_opt (parse_unary st)
    end
    else Ast.Try (parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Lexer.DOT -> (
      advance st;
      let name = expect_ident st in
      match peek st with
      | Lexer.LPAREN ->
        advance st;
        let args = parse_args st in
        e := Ast.Method_call (!e, name, args)
      | _ -> e := Ast.Field (!e, name))
    | Lexer.LBRACKET ->
      advance st;
      let idx = parse_expr st in
      expect st Lexer.RBRACKET;
      e := Ast.Index (!e, idx)
    | Lexer.LPAREN -> (
      (* Call on an expression; plain identifiers become named calls. *)
      advance st;
      let args = parse_args st in
      match !e with
      | Ast.Var f -> e := Ast.Call (f, args)
      | other -> e := Ast.Call_expr (other, args))
    | _ -> continue_ := false
  done;
  !e

and parse_args st =
  let rec go acc =
    match peek st with
    | Lexer.RPAREN ->
      advance st;
      List.rev acc
    | _ ->
      let a = parse_expr st in
      (match peek st with
      | Lexer.COMMA ->
        advance st;
        go (a :: acc)
      | Lexer.RPAREN ->
        advance st;
        List.rev (a :: acc)
      | t -> fail st "expected , or ) in arguments, found %s" (Lexer.token_to_string t))
  in
  go []

and parse_primary st =
  match peek st with
  | Lexer.INT n ->
    advance st;
    Ast.Int_lit n
  | Lexer.KW "true" ->
    advance st;
    Ast.Bool_lit true
  | Lexer.KW "false" ->
    advance st;
    Ast.Bool_lit false
  | Lexer.KW "array" ->
    advance st;
    expect st Lexer.LPAREN;
    let n = parse_expr st in
    expect st Lexer.RPAREN;
    Ast.Array_make n
  | Lexer.KW "len" ->
    advance st;
    expect st Lexer.LPAREN;
    let a = parse_expr st in
    expect st Lexer.RPAREN;
    Ast.Array_len a
  | Lexer.IDENT name ->
    advance st;
    Ast.Var name
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.RPAREN;
    e
  | Lexer.LBRACE ->
    (* Closure literal: { (x: Int, ...) in stmts } *)
    advance st;
    expect st Lexer.LPAREN;
    let rec params acc =
      match peek st with
      | Lexer.RPAREN ->
        advance st;
        List.rev acc
      | _ ->
        let name = expect_ident st in
        expect st Lexer.COLON;
        let ty = parse_ty st in
        (match peek st with
        | Lexer.COMMA ->
          advance st;
          params ((name, ty) :: acc)
        | Lexer.RPAREN ->
          advance st;
          List.rev ((name, ty) :: acc)
        | t -> fail st "expected , or ) in closure params, found %s" (Lexer.token_to_string t))
    in
    let ps = params [] in
    expect st (Lexer.KW "in");
    let body = parse_stmts_until st Lexer.RBRACE in
    expect st Lexer.RBRACE;
    Ast.Closure (ps, body)
  | t -> fail st "expected expression, found %s" (Lexer.token_to_string t)

(* --- Statements ----------------------------------------------------------- *)

and parse_block st =
  expect st Lexer.LBRACE;
  let body = parse_stmts_until st Lexer.RBRACE in
  expect st Lexer.RBRACE;
  body

and parse_stmts_until st stop =
  let rec go acc =
    if peek st = stop then List.rev acc
    else begin
      let s = parse_stmt st in
      (if peek st = Lexer.SEMI then advance st);
      go (s :: acc)
    end
  in
  go []

and parse_stmt st =
  match peek st with
  | Lexer.KW "let" | Lexer.KW "var" ->
    advance st;
    let name = expect_ident st in
    let ty =
      if peek st = Lexer.COLON then begin
        advance st;
        Some (parse_ty st)
      end
      else None
    in
    expect st Lexer.ASSIGN;
    let e = parse_expr st in
    Ast.Let (name, ty, e)
  | Lexer.KW "if" ->
    advance st;
    let c = parse_expr st in
    let then_ = parse_block st in
    let else_ =
      if peek st = Lexer.KW "else" then begin
        advance st;
        if peek st = Lexer.KW "if" then [ parse_stmt st ] else parse_block st
      end
      else []
    in
    Ast.If (c, then_, else_)
  | Lexer.KW "while" ->
    advance st;
    let c = parse_expr st in
    let body = parse_block st in
    Ast.While (c, body)
  | Lexer.KW "for" ->
    advance st;
    let v = expect_ident st in
    expect st (Lexer.KW "in");
    let lo = parse_expr st in
    expect st Lexer.RANGE;
    let hi = parse_expr st in
    let body = parse_block st in
    Ast.For (v, lo, hi, body)
  | Lexer.KW "return" ->
    advance st;
    (match peek st with
    | Lexer.RBRACE | Lexer.SEMI -> Ast.Return None
    | _ -> Ast.Return (Some (parse_expr st)))
  | Lexer.KW "throw" ->
    advance st;
    Ast.Throw
  | Lexer.KW "print" ->
    advance st;
    expect st Lexer.LPAREN;
    let e = parse_expr st in
    expect st Lexer.RPAREN;
    Ast.Print e
  | _ ->
    (* Assignment or expression statement. *)
    let e = parse_expr st in
    if peek st = Lexer.ASSIGN then begin
      advance st;
      let rhs = parse_expr st in
      let lv =
        match e with
        | Ast.Var v -> Ast.L_var v
        | Ast.Field (b, f) -> Ast.L_field (b, f)
        | Ast.Index (b, i) -> Ast.L_index (b, i)
        | _ -> fail st "invalid assignment target"
      in
      Ast.Assign (lv, rhs)
    end
    else Ast.Expr_stmt e

(* --- Declarations --------------------------------------------------------- *)

let parse_params st =
  expect st Lexer.LPAREN;
  let rec go acc =
    match peek st with
    | Lexer.RPAREN ->
      advance st;
      List.rev acc
    | _ ->
      let name = expect_ident st in
      expect st Lexer.COLON;
      let ty = parse_ty st in
      (match peek st with
      | Lexer.COMMA ->
        advance st;
        go ((name, ty) :: acc)
      | Lexer.RPAREN ->
        advance st;
        List.rev ((name, ty) :: acc)
      | t -> fail st "expected , or ) in parameters, found %s" (Lexer.token_to_string t))
  in
  go []

let parse_func_decl st name =
  let params = parse_params st in
  let throws =
    if peek st = Lexer.KW "throws" then begin
      advance st;
      true
    end
    else false
  in
  let ret =
    if peek st = Lexer.ARROW then begin
      advance st;
      Some (parse_ty st)
    end
    else None
  in
  let body = parse_block st in
  { Ast.fd_name = name; fd_params = params; fd_ret = ret; fd_throws = throws; fd_body = body }

let parse_class st =
  let name = expect_ident st in
  expect st Lexer.LBRACE;
  let fields = ref [] and init = ref None and methods = ref [] in
  let rec go () =
    match peek st with
    | Lexer.RBRACE -> advance st
    | Lexer.KW "var" | Lexer.KW "let" ->
      advance st;
      let fname = expect_ident st in
      expect st Lexer.COLON;
      let ty = parse_ty st in
      fields := (fname, ty) :: !fields;
      (if peek st = Lexer.SEMI then advance st);
      go ()
    | Lexer.KW "init" ->
      advance st;
      let fd = parse_func_decl st "init" in
      if !init <> None then fail st "duplicate init in class %s" name;
      init := Some fd;
      go ()
    | Lexer.KW "func" ->
      advance st;
      let mname = expect_ident st in
      let fd = parse_func_decl st mname in
      methods := fd :: !methods;
      go ()
    | t -> fail st "unexpected %s in class body" (Lexer.token_to_string t)
  in
  go ();
  {
    Ast.cd_name = name;
    cd_fields = List.rev !fields;
    cd_init = !init;
    cd_methods = List.rev !methods;
  }

let parse_decls st =
  let rec go acc =
    match peek st with
    | Lexer.EOF -> List.rev acc
    | Lexer.KW "func" ->
      advance st;
      let name = expect_ident st in
      let fd = parse_func_decl st name in
      go (Ast.D_func fd :: acc)
    | Lexer.KW "class" ->
      advance st;
      let cd = parse_class st in
      go (Ast.D_class cd :: acc)
    | t -> fail st "expected declaration, found %s" (Lexer.token_to_string t)
  in
  go []

let parse_module ~name src =
  try
    let toks, lines = Lexer.tokenize src in
    let st = { toks; lines; pos = 0 } in
    Ok { Ast.ma_name = name; ma_decls = parse_decls st }
  with
  | Parse_error (line, msg) -> Error (Printf.sprintf "line %d: %s" line msg)
  | Lexer.Lex_error (line, msg) -> Error (Printf.sprintf "line %d: %s" line msg)
