(** Live intervals for MIR values over a linearized (phi-free) function,
    feeding the linear-scan register allocator.

    Positions number every instruction and terminator in block order.
    Because the input has already gone through out-of-SSA, a value may have
    several definitions; its interval spans from the first definition or
    live-in point to the last use or live-out point.  [crosses_call] marks
    intervals that span a position at which the lowered code performs a
    call (explicit calls, retain/release, allocations) — such values must
    live in callee-saved registers or on the stack. *)

type t = {
  v : Ir.value;
  first : int;
  last : int;
  crosses_call : bool;
}

val is_call_position : Ir.instr -> bool

val compute : Ir.func -> t list
(** Sorted by [first] (ties by value id).  Parameters start at position 0;
    the first instruction of the entry block is position 1.

    Cost: value ids are dense (out-of-SSA allocates them from
    [next_value]), so the kernel works on flat arrays indexed by value id,
    block index and position.  Block liveness is the reverse-order fixpoint
    over per-block bitsets of 63-bit words, O(passes × blocks × values / 63)
    word operations; [crosses_call] is a binary search over the ascending
    call positions; the result comes out of a bucketing on [first], with no
    sort.  Apart from the result list it allocates O(blocks × values / 63
    + values + positions) words of scratch, none of it shared, so it may run
    on several domains at once.  Raises [Invalid_argument] on a negative
    value id. *)
