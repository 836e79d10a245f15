(** Front-end driver: source text to a MIR module. *)

type parsed = (Ast.module_ast, string) result Lazy.t
(** One module's source, lexed and parsed on first force and never again.
    A parse error reads ["<name>: parse error: line N: ..."]. *)

val parse : name:string -> string -> parsed
(** Nothing is lexed until the result is forced. *)

val compile_parsed :
  ?externals:(string * Sigs.fsig) list -> parsed -> (Ir.modul, string) result
(** Type-check and lower a parsed module (forcing it). *)

val signatures_of_parsed :
  parsed -> ((string * Sigs.fsig) list, string) result
(** Exported free-function signatures of a parsed module (forcing it), in
    declaration order — exactly the externals {!compile_with} feeds every
    *other* module. *)

val compile_module :
  ?externals:(string * Sigs.fsig) list ->
  name:string ->
  string ->
  (Ir.modul, string) result
(** Parse, type-check and lower one module. *)

val compile_with :
  signatures_of:
    (name:string -> parsed -> ((string * Sigs.fsig) list, string) result) ->
  compile_module:
    (externals:(string * Sigs.fsig) list ->
    name:string ->
    string ->
    parsed ->
    (Ir.modul, string) result) ->
  (string * string) list ->
  (Ir.modul list, string) result
(** The one two-pass front-end loop over (module name, source) pairs:
    gather every module's exported signatures with [signatures_of], then
    compile each module in source order with [compile_module], giving it
    every {e other} module's exports as [externals].  The first error, in
    that order, wins.

    Both hooks of one module get the same {!parsed} value, so each source
    is lexed and parsed at most once per call, and only if a hook forces
    it.  {!compile_program} forces it in the first pass; the serve daemon
    passes memoized hooks (keyed on own source, and on own source plus the
    visible externals' signatures) that force it only on a memo miss, so a
    module both memos answer is not parsed at all.  Both compile exactly
    the same way. *)

val compile_program :
  (string * string) list ->
  (Ir.modul list, string) result
(** [compile_with] over {!signatures_of_parsed} and {!compile_parsed}.
    Free functions of every module are visible to all modules (mutual
    imports); classes stay module-local. *)
