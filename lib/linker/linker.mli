(** The system-linker stand-in: lay out text and data, resolve symbols to
    addresses, and account for binary size the way §VII-A does (binary =
    code section + data section + fixed image overhead). *)

type symbol_kind =
  | Text
  | Data
  | Extern

(** The LZ-style download-size model: a deterministic greedy
    sliding-window parse over the image's rendered content stream —
    literals at 9 bits, back-references at a flat 25 bits (flag + offset
    + 8-bit length, matches of [min_match]..[max_match] stream bytes).
    No entropy coding: the model only has to {e rank} layouts, and what
    ranks them is how much redundancy lands inside the window, which is
    what function order controls.  [window <= 0] disables matching
    entirely (the pure-literal bound, a function of content alone and
    therefore identical under every permutation). *)
module Compress : sig
  type estimate = {
    raw_bytes : int;        (** rendered content-stream length *)
    compressed_bytes : int; (** model output for that stream *)
    match_count : int;      (** back-references the parse emitted *)
  }

  val window_default : int
  (** 64 KiB *)

  val min_match : int
  val max_match : int

  val estimate_stream : ?window:int -> string -> estimate
end

type layout = {
  addresses : (string, int) Hashtbl.t;   (** symbol -> virtual address *)
  kinds : (string, symbol_kind) Hashtbl.t;
  text_base : int;   (** always [0x1_0000] *)
  text_size : int;
  hot_text_size : int;
      (** bytes of hot chains only; equals [text_size] when nothing is
          split, otherwise the __text_cold region accounts for the rest *)
  data_base : int;
  data_size : int;
  image_overhead : int;
      (** headers, load commands, linkedit stand-in: always 16,384 B *)
  compressed : Compress.estimate Lazy.t;
      (** the download-size estimate for this placement; lazy because the
          interpreter links on every run and never reads it *)
}

val cold_symbol : string -> string
(** The Text symbol a split function's cold chain is placed under
    (["f.cold"] for function [f]), so {!symbolize} and backtraces
    attribute cold-region addresses to their source function. *)

val link : ?order:string list -> Machine.Program.t -> layout
(** Functions are placed consecutively in program order, 4-byte aligned
    (they already are); data objects consecutively after text, 8-byte
    aligned.  Extern symbols receive distinct high addresses so indirect
    calls to them can be recognized.

    [?order] overrides text placement: functions named in the list are
    laid out first, in that order, and the remainder follow in program
    order.  Unknown and duplicate names are ignored, so a stale profile
    cannot break linking.  Placement is pure reordering — [text_size]
    and every function's bytes are unchanged; only addresses move.

    Split functions ({!Machine.Mfunc.cold_from}) place only their hot
    chain under the function's own symbol; the cold chains form a
    __text_cold region directly after hot text, each under its
    {!cold_symbol}.  [?order] entries naming cold symbols direct that
    region; unnamed cold chains keep their hot chain's order. *)

val binary_size : layout -> int
(** [text_size + data_size + image_overhead]. *)

val compressed_size : layout -> int
(** Forces the layout's lazy {!Compress.estimate} and returns its
    [compressed_bytes] — the estimated download size of this placement. *)

val compress_estimate :
  ?window:int -> ?order:string list -> Machine.Program.t -> Compress.estimate
(** The compression model over the program's content stream under a
    placement, without building a full layout.  [?order] as in {!link}. *)

val address_of : layout -> string -> int
(** Raises [Not_found] for undefined symbols. *)

val symbolize : layout -> int -> string option
(** ["sym+0xoff"] for an address inside the text segment: the nearest
    Text symbol at or below it.  [None] outside text.  Used by the
    interpreter's failure trace dump. *)

val duplicate_function_bodies : Machine.Program.t -> (int * int) list
(** Groups of functions with byte-identical bodies: returns
    [(group_size, bytes_per_body)] for each group with two or more members.
    Used to show how per-module outlining leaves clones behind (§V-A). *)
