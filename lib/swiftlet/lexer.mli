(** Hand-written lexer for Swiftlet.  [//] comments run to end of line. *)

type token =
  | INT of int
  | IDENT of string
  | KW of string         (** class, var, let, func, init, throws, throw, try,
                             return, if, else, while, for, in, print, true,
                             false, array, len *)
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
  | ASSIGN               (** [=] *)
  | ARROW                (** [->] *)
  | RANGE                (** [..<] *)
  | OP of string         (** binary/unary operator spellings *)
  | QUESTION
  | EOF

exception Lex_error of int * string

val tokenize : string -> token array * int array
(** The source's tokens, then [EOF], and beside them the line each starts
    on: two parallel arrays of one length, built in one pass over the
    source.  The arrays may run past the first [EOF]; every slot after it
    is [EOF] again, on the last line.  Keyword and operator tokens are shared constants, so only
    identifiers and integer literals allocate.  Raises
    [Lex_error (line, message)] on invalid input: an unexpected character,
    or a decimal literal above [max_int] ("integer literal out of
    range"). *)

val token_to_string : token -> string
