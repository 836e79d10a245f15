(** Wire protocol of the [sizeopt serve] build service.

    Frames are length-prefixed: the decimal payload length, a newline, then
    exactly that many payload bytes.  Payloads are line-oriented text; the
    only binary-unsafe construct ([module <name> <len>] source sections and
    the [image <len>] reply section) carries its own byte count, so sources
    and images may contain anything, including newlines.

    Both sides of every message have a parser and a printer here; the tests
    round-trip them, and the client side is what [bench serve] and the fuzz
    differential drive. *)

(** {1 Framing} *)

val max_frame : int
(** Upper bound on a frame payload (16 MiB); larger headers are malformed.

    One length rule covers every length on the wire: a frame header and
    the [module <name> <len>] / [image <len>] section lengths are 1 to 12
    decimal digits naming at most [max_frame] bytes.  {!pop_frame},
    {!read_frame} and the request and response parsers all check it with
    the same function, so an oversized or overlong length is an ordinary
    parse error (for a section: [section length out of range]) rather than
    an integer overflow. *)

val frame : string -> string
(** [frame payload] is the on-wire encoding. *)

val pop_frame : string -> ((string * string) option, string) result
(** Pull one complete frame off a receive buffer: [Ok (Some (payload,
    rest))] when the buffer starts with a whole frame, [Ok None] when more
    bytes are needed, [Error _] when the header is malformed (the stream
    can no longer be resynchronised). *)

val read_frame : in_channel -> [ `Frame of string | `Eof | `Bad of string ]
(** Blocking read of one frame ([--stdio] transport). *)

(** {1 Requests} *)

type source =
  | Seeded of { sd_profile : string; sd_week : int; sd_mult : int }
      (** a named [Workload.Appgen] profile, aged and scaled server-side *)
  | Inline of (string * string) list
      (** (module name, Swiftlet source) pairs, in link order *)

type build_request = {
  br_id : string;       (** echoed in the reply *)
  br_app : string;      (** warm-state key; distinct apps never share caches *)
  br_mode : string;     (** ["wp"], ["pm"] or ["thin"] *)
  br_workers : int;     (** thin-WPO worker count; [<= 0] auto-detects *)
  br_passes : string option;  (** pipeline spec (PR-4 grammar); [None] = default *)
  br_want_image : bool; (** include the rendered image in the reply *)
  br_source : source;
}

type request = Build of build_request | Ping | Stats | Shutdown

val parse_request : string -> (request, string) result
val print_request : request -> string
(** Canonical form: [parse_request (print_request r) = Ok r]. *)

(** {1 Responses} *)

type sections = { sec_text : int; sec_data : int; sec_overhead : int }

type built = {
  b_id : string;
  b_cache_hit : bool;
  b_binary_size : int;
  b_code_size : int;
  b_sections : sections;
  b_image_hash : string;          (** 16 hex chars, FNV-1a 64 of the image *)
  b_phases : (string * float) list;  (** per-phase wall seconds, in order *)
  b_image : string option;
}

type counters = {
  c_hits : int;
  c_misses : int;
  c_evictions : int;
  c_entries : int;
  c_apps : int;    (** apps holding warm state *)
  c_served : int;  (** requests answered since startup *)
}

type response =
  | Built of built
  | Error_reply of { e_id : string; e_message : string }
  | Pong
  | Stats_reply of counters
  | Bye

val parse_response : string -> (response, string) result
val print_response : response -> string

val print_response_masked : response -> string
(** [print_response] with the non-deterministic parts hidden: phase seconds
    become [*] (names and order stay) and image bytes are elided down to
    their length.  This is what the golden-transcript snapshot test
    renders. *)

(** {1 Hashing} *)

val hash_hex : string -> string
(** FNV-1a 64-bit of the string, as 16 lowercase hex chars.  Used for image
    hashes and the result-cache key. *)
