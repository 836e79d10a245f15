(** Seeded generator for UberRider-class synthetic apps (§II-B): many
    feature modules plus vendor libraries, written in Swiftlet and compiled
    through the real front end, so every machine-level repetition pattern
    the paper catalogues arises from actual compilation:

    - JSON-decoding classes with throwing initializers (some with very many
      fields — the Listing 10 heavy tail);
    - view-like classes with setters (retain+store), UI glue functions;
    - closures passed to shared generic helpers (specialization clones);
    - vendor modules whose utilities repeat with different constants.

    A fraction of modules is marked Objective-C: their compiled IR uses
    [objc_retain]/[objc_release] and carries the legacy packed "objc_gc"
    module flag with a different compiler identity — which makes linking
    with [Link.Legacy] semantics fail exactly as in §VI-2. *)

type profile = {
  app_name : string;
  seed : int;
  n_modules : int;
  n_vendor : int;
  features_per_module : int;
  decode_classes_per_module : int;
  big_decode_every : int;  (** every k-th decode class gets 30–60 fields *)
  objc_fraction : float;
  week : int;              (** growth: extra modules/features accrue weekly *)
}

val uber_rider : profile
val uber_driver : profile
val uber_eats : profile
val small : profile
(** A fast profile for tests. *)

val profile_of_name : string -> (profile, string) Stdlib.result
(** [rider], [driver], [eats] or [small]: the one name table behind
    [sizeopt appgen --profile], [build --app], [profile --app] and the
    serve daemon's seeded sources.  The error lists the valid names. *)

val at_week : profile -> int -> profile
(** The growth model behind Figure 1: each week adds features to existing
    modules and occasionally a whole module. *)

val scaled : ?seed:int -> mult:int -> profile -> profile
(** [scaled ~mult p] is [p] with [mult]× the module count (app name gains
    an [_x<mult>] suffix); [?seed] overrides the generator seed.  The one
    deterministic scaling knob shared by [bench thinwpo] and the fuzz
    lattice, so both exercise the same corpus shapes. *)

val generate_sources : profile -> (string * string) list
(** (module name, Swiftlet source); includes a core-helpers module and a
    main module defining [main] plus the span entry points [span1..span9]. *)

val generate_modules : profile -> (Ir.modul list, string) Stdlib.result
(** Compile all sources and post-process: Objective-C modules get their
    refcounting retargeted to the objc runtime and every module receives
    its packed "objc_gc" flag. *)

val span_entries : string list
(** ["span1"; ...; "span9"] — the core-span entry points (Figure 13). *)
