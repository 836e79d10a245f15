(** Machine-code interpreter with a cycle cost model.

    Programs execute over the linker's address layout, so control transfers
    (including branches to outlined functions and their returns) behave
    exactly as on hardware: [BL] writes the return address into LR, [RET]
    jumps to it, tail branches leave LR untouched.  This is what lets the
    test suite prove that outlining preserves semantics, and what drives
    the performance experiments (Figure 13, Tables III/IV).  Given a
    {!counts} accumulator, a run also counts function entries, call edges,
    block entries and first touches: the profile that {!Pgo.Collect}
    turns into a layout profile.

    The runtime symbols of our Swift-like language are built in:
    [swift_retain], [swift_release], [swift_allocObject], [swift_allocArray],
    [objc_retain], [objc_release], [swift_beginAccess], [swift_endAccess],
    [print_i64], [swift_bounds_fail], [memcpy8]. *)

type config = {
  device : Device.t;
  os : Device.os;
  max_steps : int;
  model_perf : bool;        (** feed caches/TLBs and accumulate cycles *)
  unknown_extern : [ `Error | `Noop ];
      (** [`Noop]: calls to unmodelled externs return 0 (useful for
          structural tests on synthetic programs) *)
  trace_ring : int;
      (** when positive, keep a ring of the most recent program counters
          and dump a symbolized trace (also returned as {!failure.trace}
          by {!run_with_backtrace}) if execution fails *)
}

val default_config : config

type counts
(** The execution profile {!run} records when given [?counts]: function
    entries (the run's entry, each resolved [BL]/[BLR] and each tail
    transfer within the image), resolved intra-image (caller, callee)
    edges, (function, label) block entries and the first-touch order.
    Names are interned into dense ids once per run, when the program is
    linked, so counting never hashes a string; interning is by name, so
    one accumulator can span runs of different programs. *)

val create_counts : unit -> counts

type count_lists = {
  first_touch : string list;
      (** functions in first-execution order across every run that shared
          the accumulator *)
  entry_counts : (string * int) list;
  edge_counts : ((string * string) * int) list;
      (** (caller, callee) -> calls, tail transfers included *)
  block_counts : ((string * string) * int) list;
      (** (function, label) -> entries; the block-granularity counts
          behind hot/cold splitting (see Blocklayout) *)
}
(** A counts accumulator by name.  Only executed keys appear; the three
    count lists are in no particular order. *)

val count_lists : counts -> count_lists

type result = {
  exit_value : int;          (** x0 at the final return *)
  output : int list;         (** values passed to [print_i64], in order *)
  steps : int;               (** instructions executed *)
  outlined_steps : int;      (** of which inside outlined functions — the
                                 paper reports ~3%% on UberRider *)
  cycles : int;
  icache_misses : int;
  icache_accesses : int;
  itlb_misses : int;
  dtlb_misses : int;
  data_pages_touched : int;
  data_fault_cycles : int;
  cold_start_pages : int;
      (** distinct text pages (16 KiB under the default OS) fetched
          before the entry frame's first completed intra-image call
          returned — the page-in trace a launch must fault in before the
          first frame.  A run that never calls is cold throughout.
          0 when [model_perf] is off. *)
  cold_start_cost : int;
      (** [cold_start_pages] priced at the device's fault penalty (and
          the OS penalty scale).  Reported beside [cycles], not added to
          it: launch page-in is paid once, not per steady-state run. *)
  branches : int;
  calls : int;
}

type error =
  | Unknown_symbol of string
  | Null_access
  | Unaligned_access of int
  | Bad_jump of int
  | Step_limit_exceeded
  | Stack_overflow
      (** an access through SP after SP left the 1 MiB stack region below
          the initial SP; clean runs stay within a few KiB of the top *)
  | Trap of string           (** e.g. array bounds failure *)
  | No_entry of string

val error_to_string : error -> string

val run :
  ?config:config ->
  ?args:int list ->
  ?order:string list ->
  ?counts:counts ->
  entry:string ->
  Machine.Program.t ->
  (result, error) Stdlib.result
(** Link the program, place [args] in x0..x7, and execute [entry] to
    completion.  [?order] is forwarded to {!Linker.link}: it changes
    function placement (and hence icache/iTLB behaviour) without
    touching a single code byte — the lever the profile-guided layout
    experiments pull.  [?counts] accumulates this run's profile counts
    on top of what earlier runs left there, also when the run fails; it
    does not perturb the cost model.

    Setup decodes every slot once, when the run links the program:
    register operands become indices into the register file, conditions
    and binops stay in the slot, call and branch targets become slot
    indices, externs resolve to their built-in routine (or to
    [unknown_extern], applied when called), and [adr] carries its address
    (an unknown symbol still fails only when the slot executes).  Each
    slot's cycle cost and the OS-scaled penalties are computed then too,
    and whether to model performance, keep the trace ring or count is
    decided once per run.  With [?counts], setup also maps every slot to
    its function's id and to the ids of the blocks starting there.  A
    step then dispatches on ints without calling into {!Machine} or
    allocating: counting a block entry is one array read, a call one
    int-keyed table bump. *)

type failure = {
  error : error;
  backtrace : string list;
      (** the simulated call stack at the failure, innermost first *)
  trace : string list;
      (** the symbolized trace-ring dump, oldest entry first: each line
          carries the virtual address, ["sym+0xoff"] resolved through the
          linker layout, and the instruction text.  Empty when
          [trace_ring] is 0. *)
}
(** A failed run's diagnostics, read from that run's own state, so runs on
    different domains never see each other's. *)

val run_with_backtrace :
  ?config:config ->
  ?args:int list ->
  ?order:string list ->
  entry:string ->
  Machine.Program.t ->
  (result, failure) Stdlib.result
(** Like {!run}, but failures carry the run's call stack and trace-ring
    dump.  This reproduces the debuggability story of §VI-4: a crash
    inside outlined code reports [OUTLINED_FUNCTION_…] as the leaf frame,
    with the responsible feature function one level below. *)
