(** Backward register liveness over a machine function.

    The outliner uses this to decide whether the link register (and hence a
    plain [BL] to the outlined body) is free at a candidate site, and to
    refresh liveness after rewriting — the detail §V-B of the paper notes
    repeated outlining depends on. *)

type t

val compute : Mfunc.t -> t

val live_before : t -> label:string -> int -> Regset.t
(** [live_before t ~label i] is the set of registers live immediately before
    instruction [i] of block [label]'s body.  [i] may equal the body length,
    denoting the point just before the terminator.  Raises [Not_found] for
    an unknown label and [Invalid_argument] for an out-of-range index. *)

val live_out : t -> label:string -> Regset.t
(** Live registers at block exit (after the terminator transfers). *)

val lr_live_before : t -> label:string -> int -> bool
(** Convenience: is LR live just before instruction [i]?  Inserting a [BL]
    there clobbers LR, so this gates the no-save call strategy. *)

val points : t -> label:string -> Regset.t array
(** The whole per-point table for one block: [arr.(i)] is the set live
    before body instruction [i], [arr.(len)] the set before the terminator.
    Callers probing many points of the same block should fetch this once
    instead of paying the label lookup inside {!live_before} per probe.
    Raises [Not_found] for an unknown label. *)

type lr
(** LR liveness alone: one bit per block at the fixpoint.  Gen/kill
    liveness is separable per register, so every bit it gives equals the
    LR bit of {!compute}'s sets, at a fraction of the work: no register
    set is built, and per-point bits only for the blocks asked about. *)

val lr_compute : Mfunc.t -> lr

val lr_points : lr -> label:string -> Bytes.t
(** Block [label]'s per-point LR bits, computed on demand: byte [i] is
    ['\001'] when LR is live before body instruction [i] and ['\000']
    otherwise, byte [len] the point before the terminator — exactly
    [Regset.mem Reg.lr] of {!points}.  Raises [Not_found] for an unknown
    label. *)
