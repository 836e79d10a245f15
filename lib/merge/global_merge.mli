(** Optimistic global (cross-module) function merging — the [global-merge]
    pass.

    Where {!Merge_functions} needs byte-equal bodies and {!Fmsa} holes only
    immediates within one module, this strategy ({!Merge.global_policy})
    also holes address-constant operands and direct call targets, and
    merges across module boundaries.  The protocol borrows thin-WPO's
    summary-exchange shape: a parallel round of body-free fingerprint
    summaries, a cheap serial round that joins groups optimistically and
    confirms them by recomputing exact keys of grouped members only
    (rolling back fingerprint collisions, unprofitable and singleton
    sub-groups), and a parallel rewrite round.  Output is byte-identical
    for any [workers] value. *)

type stats = {
  groups : int;         (** confirmed merge groups *)
  funcs_merged : int;   (** members rewritten into forwarding thunks *)
  instrs_saved : int;   (** IR instructions eliminated, net of thunks and
                            the created merged functions *)
  merged_created : int; (** shared merged functions added to host modules *)
  rolled_back : int;    (** optimistically grouped members the serial
                            confirmation round rejected *)
}

val run_modules :
  ?workers:int ->
  ?min_instrs:int ->
  ?max_holes:int ->
  ?keep:(Ir.func -> bool) ->
  Ir.modul list ->
  Ir.modul list * stats
(** [min_instrs] defaults to 4, [max_holes] to 6 (the per-function budget
    of differing operands; the register-passed argument limit is enforced
    on top).  [keep] exempts functions (entry points) from merging.
    [workers <= 1] runs the parallel rounds inline. *)
