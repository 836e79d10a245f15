(** Mapping between machine instructions and suffix-tree symbols.

    Identical legal instructions share a symbol; every illegal instruction
    receives a fresh symbol so it can never participate in a repeat (the
    standard MachineOutliner trick).  A distinguished symbol stands for a
    block-terminating [ret]. *)

type t

val create : unit -> t
val symbol_of_insn : t -> Machine.Insn.t -> int
val ret_symbol : t -> int

val seq_of_block : t -> has_ret:bool -> Machine.Insn.t array -> int array
(** The symbols of a block body in order, {!ret_symbol} last when
    [has_ret].  Interns afresh on every call: illegal instructions get new
    symbols each time. *)
