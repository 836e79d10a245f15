(** Hardware/OS parameter matrix used by the core-span heatmap experiment
    (Figure 13 of the paper): rows are device models, columns are OS
    versions.  Costs are in cycles. *)

type t = {
  name : string;
  icache_bytes : int;
  icache_line : int;
  icache_assoc : int;
  icache_miss_penalty : int;
  itlb_entries : int;
  itlb_miss_penalty : int;
  dtlb_entries : int;
  dtlb_miss_penalty : int;
  issue_cost : int;         (** ticks for an ordinary instruction (4 = 1 cycle) *)
  branch_cost : int;        (** ticks for a predicted branch/return (mostly hidden) *)
  call_cost : int;          (** ticks for bl/blr *)
  load_cost : int;
  store_cost : int;
  mul_cost : int;
  div_cost : int;
  data_fault_penalty : int; (** first touch of a data page (§VI-3 regression) *)
}
(** All costs are in ticks, a quarter of a cycle: the cheap-branch ratio is
    what lets a wide core hide outlined call overhead (§VII-E3). *)

type os = {
  os_name : string;
  page_bytes : int;
  penalty_scale : float;    (** OS-version multiplier on miss penalties *)
}

val devices : t list
(** The simulated device lineup (iPhone-7-class through iPhone-11-class). *)

val oses : os list
(** Simulated OS versions (12.x through 13.x). *)

val default : t
val default_os : os
val find : string -> t
