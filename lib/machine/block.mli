(** Basic blocks: a straight-line body of instructions followed by exactly
    one terminator. *)

type terminator =
  | Ret                                   (** return via LR *)
  | B of string                           (** unconditional branch to a block label *)
  | Bcond of Cond.t * string * string     (** conditional branch: taken / fallthrough labels *)
  | Cbz of Reg.t * string * string        (** branch to first label if register is zero *)
  | Cbnz of Reg.t * string * string
  | Tail_call of string                   (** [B symbol]: jump to another function *)
  | Fallthrough of string                 (** elided branch: the target block is
                                              placed immediately after this one,
                                              so no branch bytes are emitted *)

type t = {
  label : string;
  body : Insn.t array;
  term : terminator;
}

val make : label:string -> Insn.t list -> terminator -> t

val term_size_bytes : terminator -> int
(** [Bcond]/[Cbz]/[Cbnz] lower to a conditional branch plus an unconditional
    branch when the fallthrough is not adjacent; we charge a flat 4 bytes and
    let layout elide the extra branch, as real assemblers do.  [Fallthrough]
    is the elision made explicit: 0 bytes, valid only when the target block
    is placed immediately after this one (checked by [Program.validate]). *)

val size_bytes : t -> int
(** Body plus terminator. *)

val successors : terminator -> string list
val term_uses : terminator -> Regset.t
val terminator_to_string : ?source:bool -> terminator -> string
(** The terminator's text.  By default this is the content text, which
    writes a two-way branch's else label as [(else l)]
    ([b.eq then (else other)]); {!Content}'s rendering uses it, so the
    compressed-size model reads it.  [~source:true] gives the assembly
    source line {!Asm_parser} reads back ([b.eq then, other]). *)

val pp_terminator : Format.formatter -> terminator -> unit
(** {!terminator_to_string} for diagnostics and dumps. *)

val pp : Format.formatter -> t -> unit
