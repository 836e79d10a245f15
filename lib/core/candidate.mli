(** Outlining candidates.

    Following the paper's vocabulary (§IV): a {e pattern} is a unique
    instruction sequence; a {e candidate} (here {!site}) is one concrete
    occurrence of a pattern in the program. *)

(** How the final control transfer of the pattern is handled; determines
    both the shape of the outlined function and the per-site call cost. *)
type strategy =
  | Ends_with_ret
      (** pattern ends with the block's [ret]: each site becomes a tail
          branch to the outlined function, which keeps the [ret] *)
  | Thunk
      (** pattern ends with a direct call: the outlined function re-issues
          that call as a tail call, so no return sequence is needed *)
  | Plain_call
      (** generic case, LR free at every chosen site: sites become [BL],
          the outlined function appends a [ret] *)

(** Per-site call overhead category (relevant for [Plain_call] patterns,
    where a site with a live LR must spill it around the call). *)
type site_call =
  | Call_free          (** a single [BL]/[B]: 4 bytes *)
  | Call_save_lr       (** [str lr, \[sp, #-16\]!; bl; ldr lr, \[sp\], #16]: 12 bytes *)

type site = {
  func : string;
  block : string;
  block_id : int;
      (** index of the block in the round's sequence table; lets the
          selector use int-indexed occupancy arrays instead of hashing
          [(func, block)] tuples on every probe *)
  start : int;          (** index into the block body *)
  len : int;
      (** number of body instructions covered, {e excluding} the [ret]
          terminator; a [with_ret] site additionally occupies the
          terminator slot [start + len] *)
  with_ret : bool;      (** the pattern consumes the block's [ret] terminator *)
  call : site_call;
}

type t = {
  insns : Machine.Insn.t list;  (** pattern body (without any trailing ret) *)
  length : int;                 (** symbol count, including the ret symbol if any *)
  strategy : strategy;
  sites : site list;
  needs_lr_frame : bool;
      (** the body performs a call before its end, so the outlined function
          must spill LR around its body (adds 8 bytes); only legal for
          SP-free bodies *)
  touches_sp : bool;
      (** the body is SP-relevant (directly, or through a call to an
          outlined frame fragment): the outlined function is not an
          SP-neutral callee, which forbids LR-spilling call sites and — in
          thin-WPO — must travel in the module summary so other shards
          treat cross-shard calls to it correctly *)
}

type shape = int
(** A pattern's strategy, LR-frame bit and SP bit in one int, the only
    encoding of the outlining rule's verdict: bits 0-1 the strategy (1
    ret-ending, 2 thunk, 3 plain call), bit 2 [needs_lr_frame], bit 3
    [touches_sp].  The window scanner computes it, thin-WPO's scan entries
    and summaries carry it unchanged, and a candidate's fields are decoded
    from it. *)

val shape : strategy -> needs_lr_frame:bool -> touches_sp:bool -> shape
val shape_of : t -> shape
val shape_strategy : shape -> strategy
val shape_needs_lr_frame : shape -> bool
val shape_touches_sp : shape -> bool

val site_cost_bytes : site_call -> int
val pattern_bytes : t -> int
(** Bytes of one inline occurrence (4 per symbol). *)
