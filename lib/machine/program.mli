(** A machine-code compilation unit: either one module's worth of code or a
    whole merged program, depending on where it sits in the pipeline. *)

type t = {
  funcs : Mfunc.t list;
  data : Dataobj.t list;
  externs : string list;   (** runtime symbols resolved outside this image *)
}

val make : ?data:Dataobj.t list -> ?externs:string list -> Mfunc.t list -> t
val empty : t
val concat : t list -> t
(** Concatenate units; function and data names must not collide (checked). *)

val code_size_bytes : t -> int
val insn_count : t -> int
val find_func : t -> string -> Mfunc.t option
val replace_funcs : t -> Mfunc.t list -> t
val validate : t -> (unit, string) result
(** Check label/symbol integrity: unique function names, unique block labels
    per function, branch targets resolve, called symbols are defined or
    extern. *)

val pp : Format.formatter -> t -> unit
