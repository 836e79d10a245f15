(* Wire protocol: length-prefixed frames around line-oriented payloads.
   Everything here is a pure string transform, so the tests can round-trip
   parse/print without a socket. *)

(* --- framing ------------------------------------------------------------ *)

let max_frame = 16 * 1024 * 1024

let frame payload = string_of_int (String.length payload) ^ "\n" ^ payload

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

(* The one length rule of the wire format, shared by both frame decoders
   and by the [module]/[image] section headers: 1 to 12 decimal digits
   naming at most [max_frame] bytes.  The digit bound comes first, so
   [int_of_string] never sees a number it cannot represent. *)
let bounded_length s =
  if not (is_digits s) || String.length s > 12 then
    Error "malformed frame header"
  else
    let len = int_of_string s in
    if len > max_frame then Error "frame too large" else Ok len

let pop_frame buf =
  match String.index_opt buf '\n' with
  | None ->
    if String.length buf > 12 then Error "frame header too long"
    else if buf = "" || is_digits buf then Ok None
    else Error "malformed frame header"
  | Some nl -> (
    match bounded_length (String.sub buf 0 nl) with
    | Error e -> Error e
    | Ok len ->
      if String.length buf >= nl + 1 + len then
        Ok
          (Some
             ( String.sub buf (nl + 1) len,
               String.sub buf (nl + 1 + len)
                 (String.length buf - nl - 1 - len) ))
      else Ok None)

let read_frame ic =
  match input_line ic with
  | exception End_of_file -> `Eof
  | hdr -> (
    match bounded_length hdr with
    | Error e -> `Bad e
    | Ok len -> (
      let b = Bytes.create len in
      match really_input ic b 0 len with
      | () -> `Frame (Bytes.to_string b)
      | exception End_of_file -> `Bad "truncated frame"))

(* --- hashing ------------------------------------------------------------ *)

(* FNV-1a from lib/content — the same definition the linker's
   compression model, thin-WPO summaries and the merge layer use. *)
let hash64 = Content.hash_string

let hash_hex s = Printf.sprintf "%016Lx" (hash64 s)

(* --- requests ----------------------------------------------------------- *)

type source =
  | Seeded of { sd_profile : string; sd_week : int; sd_mult : int }
  | Inline of (string * string) list

type build_request = {
  br_id : string;
  br_app : string;
  br_mode : string;
  br_workers : int;
  br_passes : string option;
  br_want_image : bool;
  br_source : source;
}

type request = Build of build_request | Ping | Stats | Shutdown

(* Sequential payload scanner: lines, plus exact-length binary sections. *)

let line_at s i =
  match String.index_from_opt s i '\n' with
  | Some nl -> (String.sub s i (nl - i), nl + 1)
  | None -> (String.sub s i (String.length s - i), String.length s)

let split1 line =
  match String.index_opt line ' ' with
  | Some sp ->
    (String.sub line 0 sp, String.sub line (sp + 1) (String.length line - sp - 1))
  | None -> (line, "")

(* The one field scanner of request and response bodies.  Every non-blank
   line is split at its first space and handed to [field] as (key, value)
   together with the whole line; [field] calls [take len] to consume the
   [len]-byte section that follows the current line ([len] is a digit
   string, bounded by the frame rule).  The first error stops the scan. *)
let scan_fields body field =
  let i = ref 0 and err = ref None in
  let take lenstr =
    match bounded_length lenstr with
    | Error _ -> Error "section length out of range"
    | Ok n when !i + n > String.length body ->
      Error "section length out of range"
    | Ok n ->
      let bytes = String.sub body !i n in
      (* the section is followed by a cosmetic newline *)
      let j = !i + n in
      i := if j < String.length body && body.[j] = '\n' then j + 1 else j;
      Ok bytes
  in
  while !err = None && !i < String.length body do
    let line, next = line_at body !i in
    i := next;
    if line <> "" then
      match field ~take line (split1 line) with
      | Ok () -> ()
      | Error e -> err := Some e
  done;
  match !err with Some e -> Error e | None -> Ok ()

let int_field name r v =
  match int_of_string_opt v with
  | Some n -> Ok (r := n)
  | None -> Error (Printf.sprintf "bad integer for %s: %S" name v)

let parse_build_body id body =
  let app = ref "default" in
  let mode = ref "wp" in
  let workers = ref 0 in
  let passes = ref None in
  let want_image = ref false in
  let profile = ref None in
  let week = ref 0 in
  let mult = ref 1 in
  let modules = ref [] in
  let scanned =
    scan_fields body (fun ~take line -> function
      | "app:", v -> Ok (app := v)
      | "mode:", v -> Ok (mode := v)
      | "workers:", v -> int_field "workers" workers v
      | "passes:", v -> Ok (passes := Some v)
      | "want-image:", "true" -> Ok (want_image := true)
      | "want-image:", "false" -> Ok (want_image := false)
      | "want-image:", v ->
        Error (Printf.sprintf "bad boolean for want-image: %S" v)
      | "profile:", v -> Ok (profile := Some v)
      | "week:", v -> int_field "week" week v
      | "mult:", v -> int_field "mult" mult v
      | "module", rest -> (
        match split1 rest with
        | name, lenstr when name <> "" && is_digits lenstr ->
          Result.map
            (fun src -> modules := (name, src) :: !modules)
            (take lenstr)
        | _ -> Error (Printf.sprintf "bad module header: %S" line))
      | k, _ -> Error (Printf.sprintf "unknown request field: %S" k))
  in
  let source =
    match (scanned, !profile, List.rev !modules) with
    | Error e, _, _ -> Error e
    | Ok (), Some _, _ :: _ -> Error "request has both profile and inline modules"
    | Ok (), None, [] -> Error "request names neither a profile nor inline modules"
    | Ok (), Some p, [] ->
      Ok (Seeded { sd_profile = p; sd_week = !week; sd_mult = !mult })
    | Ok (), None, mods -> Ok (Inline mods)
  in
  Result.map
    (fun src ->
      Build
        {
          br_id = id;
          br_app = !app;
          br_mode = !mode;
          br_workers = !workers;
          br_passes = !passes;
          br_want_image = !want_image;
          br_source = src;
        })
    source

let parse_request payload =
  let first, rest_at = line_at payload 0 in
  let body = String.sub payload rest_at (String.length payload - rest_at) in
  match split1 first with
  | "ping", "" -> Ok Ping
  | "stats", "" -> Ok Stats
  | "shutdown", "" -> Ok Shutdown
  | "build", id when id <> "" -> parse_build_body id body
  | "build", "" -> Error "build request without an id"
  | verb, _ -> Error (Printf.sprintf "unknown request verb: %S" verb)

let print_request = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Build b ->
    let buf = Buffer.create 256 in
    Printf.bprintf buf "build %s\n" b.br_id;
    Printf.bprintf buf "app: %s\n" b.br_app;
    Printf.bprintf buf "mode: %s\n" b.br_mode;
    Printf.bprintf buf "workers: %d\n" b.br_workers;
    (match b.br_passes with
    | Some s -> Printf.bprintf buf "passes: %s\n" s
    | None -> ());
    Printf.bprintf buf "want-image: %b\n" b.br_want_image;
    (match b.br_source with
    | Seeded { sd_profile; sd_week; sd_mult } ->
      Printf.bprintf buf "profile: %s\n" sd_profile;
      Printf.bprintf buf "week: %d\n" sd_week;
      Printf.bprintf buf "mult: %d\n" sd_mult
    | Inline mods ->
      List.iter
        (fun (name, src) ->
          Printf.bprintf buf "module %s %d\n%s\n" name (String.length src) src)
        mods);
    Buffer.contents buf

(* --- responses ---------------------------------------------------------- *)

type sections = { sec_text : int; sec_data : int; sec_overhead : int }

type built = {
  b_id : string;
  b_cache_hit : bool;
  b_binary_size : int;
  b_code_size : int;
  b_sections : sections;
  b_image_hash : string;
  b_phases : (string * float) list;
  b_image : string option;
}

type counters = {
  c_hits : int;
  c_misses : int;
  c_evictions : int;
  c_entries : int;
  c_apps : int;
  c_served : int;
}

type response =
  | Built of built
  | Error_reply of { e_id : string; e_message : string }
  | Pong
  | Stats_reply of counters
  | Bye

let print_built ~mask b =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "built %s\n" b.b_id;
  Printf.bprintf buf "cache: %s\n" (if b.b_cache_hit then "hit" else "miss");
  Printf.bprintf buf "binary-size: %d\n" b.b_binary_size;
  Printf.bprintf buf "code-size: %d\n" b.b_code_size;
  Printf.bprintf buf "text: %d\n" b.b_sections.sec_text;
  Printf.bprintf buf "data: %d\n" b.b_sections.sec_data;
  Printf.bprintf buf "overhead: %d\n" b.b_sections.sec_overhead;
  Printf.bprintf buf "image-hash: %s\n" b.b_image_hash;
  List.iter
    (fun (name, secs) ->
      if mask then Printf.bprintf buf "phase %s *\n" name
      else Printf.bprintf buf "phase %s %.6f\n" name secs)
    b.b_phases;
  (match b.b_image with
  | Some img when mask ->
    Printf.bprintf buf "image [%d bytes elided]\n" (String.length img)
  | Some img -> Printf.bprintf buf "image %d\n%s\n" (String.length img) img
  | None -> ());
  Buffer.contents buf

let print_counters c =
  Printf.sprintf
    "stats\nhits: %d\nmisses: %d\nevictions: %d\nentries: %d\napps: %d\n\
     served: %d\n"
    c.c_hits c.c_misses c.c_evictions c.c_entries c.c_apps c.c_served

let print_response_gen ~mask = function
  | Pong -> "pong"
  | Bye -> "bye"
  | Stats_reply c -> print_counters c
  | Error_reply { e_id; e_message } ->
    Printf.sprintf "error %s\n%s" e_id e_message
  | Built b -> print_built ~mask b

let print_response r = print_response_gen ~mask:false r
let print_response_masked r = print_response_gen ~mask:true r

let parse_built_body id body =
  let cache_hit = ref false in
  let binary = ref 0 and code = ref 0 in
  let text = ref 0 and data = ref 0 and overhead = ref 0 in
  let hash = ref "" in
  let phases = ref [] in
  let image = ref None in
  let scanned =
    scan_fields body (fun ~take line -> function
      | "cache:", "hit" -> Ok (cache_hit := true)
      | "cache:", "miss" -> Ok (cache_hit := false)
      | "binary-size:", v -> int_field "binary-size" binary v
      | "code-size:", v -> int_field "code-size" code v
      | "text:", v -> int_field "text" text v
      | "data:", v -> int_field "data" data v
      | "overhead:", v -> int_field "overhead" overhead v
      | "image-hash:", v -> Ok (hash := v)
      | "phase", rest -> (
        (* the phase name may contain spaces; seconds are the last field *)
        match String.rindex_opt rest ' ' with
        | Some sp -> (
          let name = String.sub rest 0 sp in
          let secs = String.sub rest (sp + 1) (String.length rest - sp - 1) in
          match float_of_string_opt secs with
          | Some f -> Ok (phases := (name, f) :: !phases)
          | None -> Error (Printf.sprintf "bad phase seconds: %S" secs))
        | None -> Error (Printf.sprintf "bad phase line: %S" line))
      | "image", lenstr when is_digits lenstr ->
        Result.map (fun bytes -> image := Some bytes) (take lenstr)
      | k, _ -> Error (Printf.sprintf "unknown response field: %S" k))
  in
  Result.map
    (fun () ->
      Built
        {
          b_id = id;
          b_cache_hit = !cache_hit;
          b_binary_size = !binary;
          b_code_size = !code;
          b_sections =
            { sec_text = !text; sec_data = !data; sec_overhead = !overhead };
          b_image_hash = !hash;
          b_phases = List.rev !phases;
          b_image = !image;
        })
    scanned

let parse_counters body =
  let hits = ref None and misses = ref None and evictions = ref None in
  let entries = ref None and apps = ref None and served = ref None in
  let counter name r v =
    let n = ref 0 in
    Result.map (fun () -> r := Some !n) (int_field name n v)
  in
  let scanned =
    scan_fields body (fun ~take:_ _ -> function
      | "hits:", v -> counter "hits" hits v
      | "misses:", v -> counter "misses" misses v
      | "evictions:", v -> counter "evictions" evictions v
      | "entries:", v -> counter "entries" entries v
      | "apps:", v -> counter "apps" apps v
      | "served:", v -> counter "served" served v
      | k, _ -> Error (Printf.sprintf "unknown response field: %S" k))
  in
  match (scanned, !hits, !misses, !evictions, !entries, !apps, !served) with
  | Error e, _, _, _, _, _, _ -> Error e
  | Ok (), Some h, Some m, Some e, Some n, Some a, Some s ->
    Ok
      (Stats_reply
         {
           c_hits = h;
           c_misses = m;
           c_evictions = e;
           c_entries = n;
           c_apps = a;
           c_served = s;
         })
  | Ok (), _, _, _, _, _, _ -> Error "incomplete stats reply"

let parse_response payload =
  let first, rest_at = line_at payload 0 in
  let body = String.sub payload rest_at (String.length payload - rest_at) in
  match split1 first with
  | "pong", "" -> Ok Pong
  | "bye", "" -> Ok Bye
  | "stats", "" -> parse_counters body
  | "built", id when id <> "" -> parse_built_body id body
  | "error", id when id <> "" -> Ok (Error_reply { e_id = id; e_message = body })
  | verb, _ -> Error (Printf.sprintf "unknown response verb: %S" verb)
