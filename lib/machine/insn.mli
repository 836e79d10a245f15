(** Straight-line machine instructions.

    Every instruction occupies exactly 4 bytes, as on AArch64 (§IV of the
    paper: "fixed-instruction width architecture").  Control transfers that
    end a basic block live in {!Block.terminator}; the only control-flow
    instruction allowed inside a block body is the call [BL]/[BLR]. *)

type binop =
  | Add
  | Sub
  | Mul
  | Sdiv
  | And
  | Orr
  | Eor
  | Lsl
  | Lsr
  | Asr

type operand =
  | Rop of Reg.t
  | Imm of int

(** Addressing mode for loads/stores: plain offset, pre-indexed with
    write-back ([\[base, #off\]!]) or post-indexed ([\[base\], #off]). *)
type amode =
  | Offset
  | Pre
  | Post

type addr = { base : Reg.t; off : int; mode : amode }

type t =
  | Mov of Reg.t * operand      (** register move ([ORR dst, xzr, src]) or immediate *)
  | Binop of binop * Reg.t * Reg.t * operand
  | Cmp of Reg.t * operand      (** sets NZCV *)
  | Cset of Reg.t * Cond.t      (** reads NZCV *)
  | Csel of Reg.t * Reg.t * Reg.t * Cond.t
  | Ldr of Reg.t * addr
  | Str of Reg.t * addr
  | Ldp of Reg.t * Reg.t * addr (** load a pair of registers *)
  | Stp of Reg.t * Reg.t * addr (** store a pair of registers *)
  | Adr of Reg.t * string       (** materialize the address of a global symbol *)
  | Bl of string                (** direct call; clobbers LR and caller-saved registers *)
  | Blr of Reg.t                (** indirect call *)
  | Nop

val size_bytes : int
(** Size of any instruction: 4. *)

val uses : t -> Regset.t
(** Registers read.  Calls conservatively use all argument registers. *)

val defs : t -> Regset.t
(** Registers written.  Calls clobber caller-saved registers, LR and NZCV. *)

val is_call : t -> bool

val touches_lr : t -> bool
(** Reads or writes the link register (other than via a call's implicit
    clobber, which calls also report). *)

val touches_sp : t -> bool
(** Uses SP as a base, destination or source — relevant to outlining
    strategies that adjust SP around the inserted call. *)

val modifies_sp : t -> bool
(** Writes SP (pre/post-indexed stack ops or arithmetic on SP). *)

val equal : t -> t -> bool
val hash : t -> int
val mov_r : Reg.t -> Reg.t -> t
val mov_i : Reg.t -> int -> t
val to_string : t -> string
(** The instruction text, e.g. [ldr x0, [sp, #8]].  It is the content
    identity of an instruction (thin-WPO keys and ranking hashes, the
    linker's compression model, [serve]'s image hash) and, unchanged, its
    assembly source line. *)

val pp : Format.formatter -> t -> unit
(** {!to_string} for diagnostics and dumps. *)
