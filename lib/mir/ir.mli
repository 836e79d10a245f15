(** The mid-level SSA IR — our stand-in for LLVM IR.

    Values are virtual registers written once (SSA); [phi] nodes join
    values at block entry.  Reference-counting operations ([Retain],
    [Release], [Alloc_object]) are first-class instructions here, exactly
    because the paper observes (§IV, observation 3) that a single IR
    instruction of this kind lowers to *several* machine instructions —
    which is why IR-level deduplication cannot see the repeats that
    machine-level outlining can. *)

type value = int

type operand =
  | V of value
  | Imm of int
  | Global of string
  | Fn of string

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Ashr

type instr =
  | Assign of value * operand
  | Binop of value * binop * operand * operand
  | Icmp of value * Machine.Cond.t * operand * operand
  | Load of value * operand * int          (** dst = [base + byte offset] *)
  | Store of operand * operand * int       (** [base + byte offset] = value *)
  | Call of value option * string * operand list
  | Call_indirect of value option * operand * operand list
  | Retain of operand
  | Release of operand
  | Alloc_object of value * string * int   (** dst, metadata symbol, size bytes *)
  | Alloc_array of value * operand         (** dst, element count *)

type terminator =
  | Ret of operand
  | Br of string
  | Cond_br of operand * string * string   (** non-zero -> first label *)
  | Unreachable

type phi = {
  phi_dst : value;
  incoming : (string * operand) list;      (** predecessor label -> value *)
}

type block = {
  label : string;
  phis : phi list;
  instrs : instr list;
  term : terminator;
}

type func = {
  name : string;
  params : value list;
  blocks : block list;                     (** entry first *)
  next_value : value;                      (** first unused virtual register *)
  from_module : string;
}

type ginit =
  | Gword of int
  | Gsym of string

type global = {
  g_name : string;
  g_init : ginit list;
  g_module : string;
}

(** Module-level flags, the vehicle for the "Objective-C Garbage Collection"
    metadata conflict of §VI-2.  [Packed] is the legacy single-word encoding
    (compiler version bits and all); [Attrs] is the attribute-set encoding
    the paper's fix introduced. *)
type flag_value =
  | Packed of int
  | Attrs of (string * int) list

type modul = {
  m_name : string;
  funcs : func list;
  globals : global list;
  externs : string list;
  flags : (string * flag_value) list;
}

val def_of_instr : instr -> value option
val operands_of_instr : instr -> operand list
val successors : terminator -> string list
val instr_count : func -> int
val module_instr_count : modul -> int
val find_func : modul -> string -> func option
val fresh : func -> value * func
(** Allocate a fresh virtual register. *)

val validate : ?require_ssa:bool -> modul -> (unit, string) result
(** Structural checks: unique function names, labels resolve, every used
    value is defined (params, phis or instrs), single assignment.  Pass
    [~require_ssa:false] after out-of-SSA translation, which deliberately
    assigns phi destinations on every incoming edge. *)

val binop_name : binop -> string
val pp_func : Format.formatter -> func -> unit
val pp_modul : Format.formatter -> modul -> unit
