open Protocol

(* Fault injection for [sizeopt fuzz --self-test]: key results on (app,
   spec) only, ignoring module content, so edits serve the previous image. *)
let fault_stale_cache_entry = ref false

(* What a result-cache entry remembers: everything needed to answer a hit
   byte-identically to the build that populated it (the image is kept even
   when the original request did not ask for it, so a later [want-image]
   hit can be served). *)
type cached = {
  cb_binary_size : int;
  cb_code_size : int;
  cb_sections : sections;
  cb_image_hash : string;
  cb_phases : (string * float) list;
  cb_image : string;
}

(* Warm per-app state.  Keyed by the request's [app] label: name-keyed
   caches (compiled modules) must never leak between apps whose modules
   share names. *)
type app_state = {
  as_warm : Outcore.Outliner.warm;
      (** content-addressed outliner state, valid for any build *)
  as_sigs : (string, string * (string * Swiftlet.Sigs.fsig) list) Hashtbl.t;
      (** module -> (source hash, exported signatures) *)
  as_mods : (string, string * Ir.modul) Hashtbl.t;
      (** module -> (source hash + externals hash, compiled MIR) *)
}

type t = {
  results : cached Cache.t;
  apps : app_state Cache.t;
  mutable served : int;
}

(* Warm state is kept for this many app labels; the least recently served
   one is evicted and its next build runs cold, with the same bytes. *)
let max_apps = 16

let create ?(cache_capacity = 64) () =
  {
    results = Cache.create ~capacity:cache_capacity;
    apps = Cache.create ~capacity:max_apps;
    served = 0;
  }

let app_state t name =
  match Cache.find t.apps name with
  | Some st -> st
  | None ->
    let st =
      {
        as_warm = Outcore.Outliner.create_warm ();
        as_sigs = Hashtbl.create 32;
        as_mods = Hashtbl.create 32;
      }
    in
    Cache.add t.apps name st;
    st

(* --- front-end cache ---------------------------------------------------- *)

(* Stable rendering of exported signatures: a module's compiled MIR depends
   on its own source and on the signatures compile_with imports from
   every other module, so that is exactly what the cache key hashes. *)
let rec ty_str = function
  | Swiftlet.Ast.T_int -> "i"
  | Swiftlet.Ast.T_bool -> "b"
  | Swiftlet.Ast.T_array -> "a"
  | Swiftlet.Ast.T_class c -> "C" ^ c ^ ";"
  | Swiftlet.Ast.T_func (ps, r) ->
    "F(" ^ String.concat "," (List.map ty_str ps) ^ ")" ^ ty_str r

let fsig_str (name, (fs : Swiftlet.Sigs.fsig)) =
  Printf.sprintf "%s(%s)%s%s%s" name
    (String.concat "," (List.map ty_str fs.fs_params))
    (ty_str fs.fs_ret)
    (if fs.fs_void then "v" else "")
    (if fs.fs_throws then "t" else "")

(* Identifier set of a source file: every maximal [A-Za-z0-9_] run not
   starting with a digit.  An external whose name is not an identifier of
   the module cannot be referenced by it (and cannot clash with one of its
   definitions), so its signature cannot affect the module's compilation.
   The body-cache key below therefore folds in only the signatures the
   module can see — a commit that appends a fresh function to one module
   leaves every other module's cached body valid. *)
let ident_set src =
  let tbl = Hashtbl.create 256 in
  let n = String.length src in
  let is_id c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_'
  in
  let i = ref 0 in
  while !i < n do
    if is_id src.[!i] then begin
      let j = ref !i in
      while !j < n && is_id src.[!j] do incr j done;
      (match src.[!i] with
      | '0' .. '9' -> ()
      | _ -> Hashtbl.replace tbl (String.sub src !i (!j - !i)) ());
      i := !j
    end
    else incr i
  done;
  tbl

(* [compute ()] memoized in [tbl] under [name], valid while [key] is. *)
let memo tbl name key compute =
  match Hashtbl.find_opt tbl name with
  | Some (k0, v) when String.equal k0 key -> Ok v
  | _ ->
    Result.map
      (fun v ->
        Hashtbl.replace tbl name (key, v);
        v)
      (compute ())

(* The shared front-end loop with both passes memoized: signatures keyed
   on own source, module bodies keyed on own source plus the signatures of
   the externals the module mentions. *)
let compile_cached st hashes sources =
  let signatures_of ~name src =
    memo st.as_sigs name (List.assoc name hashes) (fun () ->
        Swiftlet.Compile.signatures_of ~name src)
  in
  let compile_module ~externals ~name src =
    let idents = ident_set src in
    let visible = List.filter (fun (n, _) -> Hashtbl.mem idents n) externals in
    let ext_fp = hash_hex (String.concat ";" (List.map fsig_str visible)) in
    memo st.as_mods name (List.assoc name hashes ^ ":" ^ ext_fp) (fun () ->
        Swiftlet.Compile.compile_module ~externals ~name src)
  in
  Swiftlet.Compile.compile_with ~signatures_of ~compile_module sources

(* --- request resolution -------------------------------------------------- *)

let spec_fp b =
  Printf.sprintf "%s/%d/%s" b.br_mode b.br_workers
    (match b.br_passes with Some s -> s | None -> "<default>")

let config_of b =
  Result.bind (Pipeline.mode_of_string ~workers:b.br_workers b.br_mode)
    (fun mode ->
      let base = Pipeline.config_of_flags mode in
      match b.br_passes with
      | None -> Ok base
      | Some spec -> Pipeline.config_of_passes ~base spec)

let resolve_sources = function
  | Inline mods -> (
    let seen = Hashtbl.create 8 in
    let dup =
      List.find_opt
        (fun (n, _) ->
          if Hashtbl.mem seen n then true
          else begin
            Hashtbl.replace seen n ();
            false
          end)
        mods
    in
    match dup with
    | Some (n, _) -> Error ("duplicate module name: " ^ n)
    | None -> Ok mods)
  | Seeded { sd_profile; sd_week; sd_mult } -> (
    match Workload.Appgen.profile_of_name sd_profile with
    | Error e -> Error e
    | Ok p ->
      if sd_week < 0 then Error "week must be >= 0"
      else if sd_mult < 1 then Error "mult must be >= 1"
      else
        let p = Workload.Appgen.at_week p sd_week in
        let p =
          if sd_mult > 1 then Workload.Appgen.scaled ~mult:sd_mult p else p
        in
        Ok (Workload.Appgen.generate_sources p))

let result_key b sources =
  let fp = spec_fp b in
  if !fault_stale_cache_entry then "app:" ^ b.br_app ^ "|" ^ fp
  else begin
    let buf = Buffer.create 256 in
    List.iter
      (fun (n, s) ->
        Buffer.add_string buf n;
        Buffer.add_char buf '\x00';
        Buffer.add_string buf (hash_hex s);
        Buffer.add_char buf '\x01')
      sources;
    fp ^ "|" ^ hash_hex (Buffer.contents buf)
  end

(* --- building ------------------------------------------------------------ *)

(* Cache-missing build against one app's warm state. *)
let build_miss st b sources =
  match config_of b with
  | Error e -> Error e
  | Ok cfg ->
    let hashes = List.map (fun (n, s) -> (n, hash_hex s)) sources in
    let cfg = { cfg with Pipeline.warm_outline = Some st.as_warm } in
    let outcome =
      try
        match compile_cached st hashes sources with
        | Error e -> Error e
        | Ok mods -> Pipeline.build ~config:cfg mods
      with e -> Error (Printexc.to_string e)
    in
    match outcome with
    | Error e -> Error e
    | Ok res ->
      let image = Machine.Asm_printer.to_source res.Pipeline.program in
      let layout = res.Pipeline.layout in
      Ok
        {
          cb_binary_size = res.Pipeline.binary_size;
          cb_code_size = res.Pipeline.code_size;
          cb_sections =
            {
              sec_text = layout.Linker.text_size;
              sec_data = layout.Linker.data_size;
              sec_overhead = layout.Linker.image_overhead;
            };
          cb_image_hash = hash_hex image;
          cb_phases =
            List.map
              (fun (t : Passman.timing) -> (t.t_name, t.t_seconds))
              res.Pipeline.timing_tree;
          cb_image = image;
        }

let built_of b ~hit c =
  Built
    {
      b_id = b.br_id;
      b_cache_hit = hit;
      b_binary_size = c.cb_binary_size;
      b_code_size = c.cb_code_size;
      b_sections = c.cb_sections;
      b_image_hash = c.cb_image_hash;
      (* a hit ran no phases; reporting the original build's timings would
         just be noise *)
      b_phases = (if hit then [] else c.cb_phases);
      b_image = (if b.br_want_image then Some c.cb_image else None);
    }

let counters t =
  {
    c_hits = Cache.hits t.results;
    c_misses = Cache.misses t.results;
    c_evictions = Cache.evictions t.results;
    c_entries = Cache.entries t.results;
    c_apps = Cache.entries t.apps;
    c_served = t.served;
  }

(* --- serving ------------------------------------------------------------- *)

let handle t payload =
  t.served <- t.served + 1;
  let reply =
    match parse_request payload with
    | Error e -> Error_reply { e_id = "?"; e_message = e }
    | Ok Ping -> Pong
    | Ok Stats -> Stats_reply (counters t)
    | Ok Shutdown -> Bye
    | Ok (Build b) -> (
      let error e = Error_reply { e_id = b.br_id; e_message = e } in
      match resolve_sources b.br_source with
      | Error e -> error e
      | Ok sources -> (
        let key = result_key b sources in
        match Cache.find t.results key with
        | Some c -> built_of b ~hit:true c
        | None -> (
          match build_miss (app_state t b.br_app) b sources with
          | Error e -> error e
          | Ok c ->
            Cache.add t.results key c;
            built_of b ~hit:false c)))
  in
  (print_response reply, match reply with Bye -> `Stop | _ -> `Continue)

(* --- transports ---------------------------------------------------------- *)

(* The reply to an unreadable frame, after which the stream cannot be
   resynchronised and the connection is closed. *)
let framing_error msg =
  frame
    (print_response
       (Error_reply { e_id = "?"; e_message = "framing: " ^ msg }))

let serve_channels t ic oc =
  let send bytes =
    output_string oc bytes;
    flush oc
  in
  let rec loop () =
    match read_frame ic with
    | `Eof -> ()
    | `Bad msg -> send (framing_error msg)
    | `Frame payload ->
      let resp, cont = handle t payload in
      send (frame resp);
      if cont = `Continue then loop ()
  in
  loop ()

let send_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let serve_unix t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 16;
  let clients = ref [] in
  let stop = ref false in
  let chunk = Bytes.create 65536 in
  while not !stop do
    let readable, _, _ =
      Unix.select (srv :: List.map fst !clients) [] [] (-1.0)
    in
    if List.memq srv readable then begin
      let fd, _ = Unix.accept srv in
      clients := !clients @ [ (fd, Buffer.create 1024) ]
    end;
    let dead = ref [] in
    let kill fd = if not (List.memq fd !dead) then dead := fd :: !dead in
    List.iter
      (fun (fd, buf) ->
        if List.memq fd readable then
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> kill fd
          | n -> Buffer.add_subbytes buf chunk 0 n
          | exception Unix.Unix_error _ -> kill fd)
      !clients;
    (* each complete frame is answered as it is drained, in client order *)
    List.iter
      (fun (fd, buf) ->
        let send s = try send_all fd s with Unix.Unix_error _ -> kill fd in
        let rec drain data =
          if !stop || List.memq fd !dead then ""
          else
            match pop_frame data with
            | Ok (Some (payload, rest)) ->
              let resp, s = handle t payload in
              send (frame resp);
              if s = `Stop then stop := true;
              drain rest
            | Ok None -> data
            | Error msg ->
              send (framing_error msg);
              kill fd;
              ""
        in
        let rest = drain (Buffer.contents buf) in
        Buffer.clear buf;
        Buffer.add_string buf rest)
      !clients;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !dead;
    clients := List.filter (fun (fd, _) -> not (List.memq fd !dead)) !clients
  done;
  List.iter
    (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    !clients;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  try Unix.unlink path with Unix.Unix_error _ -> ()
