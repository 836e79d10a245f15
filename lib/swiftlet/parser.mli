(** Recursive-descent parser for Swiftlet.

    Operator precedence, loosest first:
    [||]; [&&]; comparisons; [+ - | ^]; [* / % & << >>]; unary [- !];
    postfix (call, field access, indexing). *)

val parse_module : name:string -> string -> (Ast.module_ast, string) result
(** Errors carry the line number. *)
