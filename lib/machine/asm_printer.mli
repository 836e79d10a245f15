(** Emit a program in the textual format {!Asm_parser} accepts, so that
    compiled or outlined code can be saved and reloaded (used by the CLI
    driver; round-tripping is property-tested). *)

val to_source : Program.t -> string
