type token =
  | INT of int
  | IDENT of string
  | KW of string
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | COLON
  | SEMI
  | DOT
  | ASSIGN
  | ARROW
  | RANGE
  | OP of string
  | QUESTION
  | EOF

exception Lex_error of int * string

let keywords =
  [|
    "class"; "var"; "let"; "func"; "init"; "throws"; "throw"; "try"; "return";
    "if"; "else"; "while"; "for"; "in"; "print"; "true"; "false"; "array";
    "len";
  |]

(* One shared token per keyword, so a keyword costs no allocation. *)
let keyword_toks = Array.map (fun k -> KW k) keywords

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* [src.[start + i ..]] agrees with [k.[i ..]] up to [String.length k]. *)
let rec same_from k src start i =
  i = String.length k
  || (String.unsafe_get k i = String.unsafe_get src (start + i)
     && same_from k src start (i + 1))

(* Index in [keywords], from [j] on, of the word [src.[start .. start +
   len - 1]], or -1. *)
let rec keyword_index src start len j =
  if j = Array.length keywords then -1
  else
    let k = keywords.(j) in
    if String.length k = len && same_from k src start 0 then j
    else keyword_index src start len (j + 1)

(* The operator or punctuation token at [src.[i]] ([= c]).  Constant
   tokens are static, so this allocates nothing. *)
let punct src n i line c =
  let next = if i + 1 < n then String.unsafe_get src (i + 1) else '\000' in
  match c, next with
  | '.', '.' when i + 2 < n && String.unsafe_get src (i + 2) = '<' -> RANGE
  | '-', '>' -> ARROW
  | '=', '=' -> OP "=="
  | '!', '=' -> OP "!="
  | '<', '=' -> OP "<="
  | '>', '=' -> OP ">="
  | '&', '&' -> OP "&&"
  | '|', '|' -> OP "||"
  | '<', '<' -> OP "<<"
  | '>', '>' -> OP ">>"
  | '{', _ -> LBRACE
  | '}', _ -> RBRACE
  | '(', _ -> LPAREN
  | ')', _ -> RPAREN
  | '[', _ -> LBRACKET
  | ']', _ -> RBRACKET
  | ',', _ -> COMMA
  | ':', _ -> COLON
  | ';', _ -> SEMI
  | '.', _ -> DOT
  | '=', _ -> ASSIGN
  | '?', _ -> QUESTION
  | '+', _ -> OP "+"
  | '-', _ -> OP "-"
  | '*', _ -> OP "*"
  | '/', _ -> OP "/"
  | '%', _ -> OP "%"
  | '&', _ -> OP "&"
  | '|', _ -> OP "|"
  | '^', _ -> OP "^"
  | '<', _ -> OP "<"
  | '>', _ -> OP ">"
  | '!', _ -> OP "!"
  | c, _ -> raise (Lex_error (line, Printf.sprintf "unexpected character %C" c))

(* Source characters a [punct] token spans. *)
let width = function RANGE -> 3 | ARROW -> 2 | OP s -> String.length s | _ -> 1

let tokenize src =
  let n = String.length src in
  (* Generated apps hold 0.26-0.32 tokens per source character, so a third
     is room enough and the arrays rarely grow (they double when it is
     not).  They are not trimmed: whatever follows the last token is [EOF]
     padding, which costs less than a copy. *)
  let toks = ref (Array.make ((n / 3) + 16) EOF) in
  let lines = ref (Array.make ((n / 3) + 16) 0) in
  let count = ref 0 in
  let line = ref 1 in
  let push tok =
    if !count = Array.length !toks then begin
      let grow a fill =
        let b = Array.make (2 * Array.length a) fill in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      toks := grow !toks EOF;
      lines := grow !lines 0
    end;
    Array.unsafe_set !toks !count tok;
    Array.unsafe_set !lines !count !line;
    incr count
  in
  let i = ref 0 in
  while !i < n do
    let c = String.unsafe_get src !i in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && String.unsafe_get src (!i + 1) = '/' then begin
      while !i < n && String.unsafe_get src !i <> '\n' do
        incr i
      done
    end
    else if is_digit c then begin
      (* Decimal, exactly the range [int_of_string] accepts. *)
      let v = ref 0 in
      while !i < n && is_digit (String.unsafe_get src !i) do
        let d = Char.code (String.unsafe_get src !i) - Char.code '0' in
        if !v > (max_int - d) / 10 then
          raise (Lex_error (!line, "integer literal out of range"));
        v := (!v * 10) + d;
        incr i
      done;
      push (INT !v)
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char (String.unsafe_get src !i) do
        incr i
      done;
      let len = !i - start in
      let k = keyword_index src start len 0 in
      push (if k >= 0 then keyword_toks.(k) else IDENT (String.sub src start len))
    end
    else begin
      let tok = punct src n !i !line c in
      push tok;
      i := !i + width tok
    end
  done;
  push EOF;
  Array.fill !lines !count (Array.length !lines - !count) !line;
  (!toks, !lines)

let token_to_string = function
  | INT n -> string_of_int n
  | IDENT s -> s
  | KW s -> s
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | COLON -> ":"
  | SEMI -> ";"
  | DOT -> "."
  | ASSIGN -> "="
  | ARROW -> "->"
  | RANGE -> "..<"
  | OP s -> s
  | QUESTION -> "?"
  | EOF -> "<eof>"
