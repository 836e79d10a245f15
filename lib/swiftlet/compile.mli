(** Front-end driver: source text to a MIR module. *)

val compile_module :
  ?externals:(string * Sigs.fsig) list ->
  name:string ->
  string ->
  (Ir.modul, string) result
(** Parse, type-check and lower one module. *)

val signatures_of :
  name:string -> string -> ((string * Sigs.fsig) list, string) result
(** Exported free-function signatures of one module, in declaration order —
    exactly the externals {!compile_with} feeds every *other* module. *)

val compile_with :
  signatures_of:
    (name:string -> string -> ((string * Sigs.fsig) list, string) result) ->
  compile_module:
    (externals:(string * Sigs.fsig) list ->
    name:string ->
    string ->
    (Ir.modul, string) result) ->
  (string * string) list ->
  (Ir.modul list, string) result
(** The one two-pass front-end loop over (module name, source) pairs:
    gather every module's exported signatures with [signatures_of], then
    compile each module in source order with [compile_module], giving it
    every {e other} module's exports as [externals].  The first error, in
    that order, wins.  {!compile_program} passes the plain functions above;
    the serve daemon passes memoized ones (keyed on own source, and on own
    source plus the visible externals' signatures), so both compile
    exactly the same way. *)

val compile_program :
  (string * string) list ->
  (Ir.modul list, string) result
(** [compile_with] over {!signatures_of} and {!compile_module}.  Free
    functions of every module are visible to all modules (mutual imports);
    classes stay module-local. *)
