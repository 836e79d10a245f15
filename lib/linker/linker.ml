open Machine

type symbol_kind =
  | Text
  | Data
  | Extern

(* --- LZ-style compressed-size model ----------------------------------------- *)

(* Function-content rendering (name-erased byte streams) and FNV hashing
   live in lib/content; the estimator below only consumes the rendered
   stream. *)

(* App-store delivery is compressed, so raw bytes are not what users
   download.  This is a deterministic stand-in for the LZ family every
   store uses: a greedy sliding-window parse over the image's rendered
   content stream, literals at 9 bits, back-references at a flat 25 bits
   (flag + window offset + 8-bit length).  No entropy coding — the model
   only has to rank layouts, and what ranks them is how much redundancy
   falls inside the match window, which is exactly what function order
   controls. *)
module Compress = struct
  type estimate = {
    raw_bytes : int;        (* rendered content-stream length *)
    compressed_bytes : int; (* model output for that stream *)
    match_count : int;      (* back-references the parse emitted *)
  }

  let window_default = 64 * 1024
  let min_match = 8
  let max_match = 255 + min_match
  let literal_bits = 9
  let match_bits = 25

  let estimate_stream ?(window = window_default) s =
    let n = String.length s in
    if window <= 0 || n < min_match then
      { raw_bytes = n;
        compressed_bytes = ((n * literal_bits) + 7) / 8;
        match_count = 0 }
    else begin
      let hsize = 1 lsl 15 in
      let head = Array.make hsize (-1) in
      let prev = Array.make n (-1) in
      let hash i =
        (Char.code s.[i]
        + (131 * Char.code s.[i + 1])
        + (131 * 131 * Char.code s.[i + 2])
        + (131 * 131 * 131 * Char.code s.[i + 3]))
        land (hsize - 1)
      in
      let insert i =
        if i + 4 <= n then begin
          let h = hash i in
          prev.(i) <- head.(h);
          head.(h) <- i
        end
      in
      let bits = ref 0 and pos = ref 0 and matches = ref 0 in
      while !pos < n do
        let p = !pos in
        let best_len = ref 0 in
        if p + min_match <= n then begin
          let limit = p - window in
          let cand = ref head.(hash p) in
          let tries = ref 0 in
          (* Chains are most-recent-first, so the first position below the
             window cuts the walk; the try cap keeps the parse linear. *)
          while !cand >= 0 && !cand >= limit && !tries < 64 do
            let j = !cand in
            let len = ref 0 in
            let maxl = min (n - p) max_match in
            while !len < maxl && s.[j + !len] = s.[p + !len] do incr len done;
            if !len > !best_len then best_len := !len;
            cand := prev.(j);
            incr tries
          done
        end;
        if !best_len >= min_match then begin
          bits := !bits + match_bits;
          incr matches;
          for k = p to p + !best_len - 1 do
            insert k
          done;
          pos := p + !best_len
        end
        else begin
          bits := !bits + literal_bits;
          insert p;
          pos := p + 1
        end
      done;
      { raw_bytes = n;
        compressed_bytes = (!bits + 7) / 8;
        match_count = !matches }
    end

  (* Placement-faithful content stream: every function's hot chain in
     placement order, then the cold chains of split functions.  For a
     program with no split functions this is byte-identical to rendering
     whole functions back to back. *)
  let stream_of_chains ~hot ~cold =
    let buf = Buffer.create 65536 in
    List.iter (fun (f : Mfunc.t) -> Content.add_blocks buf (Mfunc.hot_blocks f)) hot;
    List.iter (fun (f : Mfunc.t) -> Content.add_blocks buf (Mfunc.cold_blocks f)) cold;
    Buffer.contents buf

  let stream_of_funcs funcs =
    stream_of_chains ~hot:funcs
      ~cold:(List.filter (fun f -> Mfunc.is_split f) funcs)
end

type layout = {
  addresses : (string, int) Hashtbl.t;
  kinds : (string, symbol_kind) Hashtbl.t;
  text_base : int;
  text_size : int;
  hot_text_size : int;
  data_base : int;
  data_size : int;
  image_overhead : int;
  compressed : Compress.estimate Lazy.t;
}

let text_base = 0x1_0000
let image_overhead = 16_384 (* headers + load commands stand-in *)

(* A split function's cold chain is placed under its own Text symbol in
   the __text_cold region, so symbolize/backtraces read "f.cold+0x...". *)
let cold_symbol name = name ^ ".cold"

let align n a = (n + a - 1) / a * a

(* Realize an explicit placement order: named functions first, in the
   given order; everything unnamed keeps its program order at the tail.
   Unknown and duplicate names are ignored, so any permutation source
   (profile, heuristic, hand-written order file) is safe to pass. *)
let ordered_funcs order (p : Program.t) =
  match order with
  | None -> p.funcs
  | Some names ->
    let by_name = Hashtbl.create (List.length p.funcs) in
    List.iter (fun (f : Mfunc.t) -> Hashtbl.replace by_name f.name f) p.funcs;
    let placed = Hashtbl.create (List.length names) in
    let first =
      List.filter_map
        (fun n ->
          match Hashtbl.find_opt by_name n with
          | Some f when not (Hashtbl.mem placed n) ->
            Hashtbl.replace placed n ();
            Some f
          | Some _ | None -> None)
        names
    in
    let rest =
      List.filter (fun (f : Mfunc.t) -> not (Hashtbl.mem placed f.name)) p.funcs
    in
    first @ rest

let link ?order (p : Program.t) =
  let addresses = Hashtbl.create 1024 in
  let kinds = Hashtbl.create 1024 in
  let cursor = ref text_base in
  let funcs = ordered_funcs order p in
  (* Hot text: every function's hot chain (the whole function when it is
     not split), in placement order. *)
  List.iter
    (fun (f : Mfunc.t) ->
      Hashtbl.replace addresses f.name !cursor;
      Hashtbl.replace kinds f.name Text;
      cursor := !cursor + Mfunc.hot_size_bytes f)
    funcs;
  let hot_text_size = !cursor - text_base in
  (* __text_cold: the cold chains of split functions, contiguously after
     hot text.  An explicit order may direct the region by naming cold
     symbols; the rest keep their hot chain's placement order. *)
  let split_funcs = List.filter Mfunc.is_split funcs in
  let cold_funcs =
    match order with
    | None -> split_funcs
    | Some names ->
      let by_cold = Hashtbl.create 16 in
      List.iter
        (fun (f : Mfunc.t) -> Hashtbl.replace by_cold (cold_symbol f.name) f)
        split_funcs;
      let placed = Hashtbl.create 16 in
      let first =
        List.filter_map
          (fun n ->
            match Hashtbl.find_opt by_cold n with
            | Some f when not (Hashtbl.mem placed f.Mfunc.name) ->
              Hashtbl.replace placed f.Mfunc.name ();
              Some f
            | Some _ | None -> None)
          names
      in
      first
      @ List.filter
          (fun (f : Mfunc.t) -> not (Hashtbl.mem placed f.name))
          split_funcs
  in
  List.iter
    (fun (f : Mfunc.t) ->
      Hashtbl.replace addresses (cold_symbol f.name) !cursor;
      Hashtbl.replace kinds (cold_symbol f.name) Text;
      cursor := !cursor + Mfunc.cold_size_bytes f)
    cold_funcs;
  let text_size = !cursor - text_base in
  (* Segments are page-aligned, as in Mach-O (16 KiB pages on iOS). *)
  let data_base = align !cursor 16384 in
  cursor := data_base;
  List.iter
    (fun (d : Dataobj.t) ->
      Hashtbl.replace addresses d.name !cursor;
      Hashtbl.replace kinds d.name Data;
      cursor := !cursor + align (Dataobj.size_bytes d) 8)
    p.data;
  let data_size = !cursor - data_base in
  (* Externs live far above the image; spacing keeps them distinct. *)
  let extern_base = 0x7000_0000 in
  List.iteri
    (fun i e ->
      if not (Hashtbl.mem addresses e) then begin
        Hashtbl.replace addresses e (extern_base + (i * 16));
        Hashtbl.replace kinds e Extern
      end)
    p.externs;
  {
    addresses;
    kinds;
    text_base;
    text_size;
    hot_text_size;
    data_base;
    data_size;
    image_overhead;
    (* The download-size model rides every layout, but rendering and
       parsing the content stream is far too slow for the interpreter's
       per-run links — so it is lazy, forced only by callers that report
       it (sizeopt build, bench). *)
    compressed =
      lazy
        (Compress.estimate_stream
           (Compress.stream_of_chains ~hot:funcs ~cold:cold_funcs));
  }

let binary_size l = l.text_size + l.data_size + l.image_overhead
let compressed_size l = (Lazy.force l.compressed).Compress.compressed_bytes

let compress_estimate ?window ?order (p : Program.t) =
  Compress.estimate_stream ?window
    (Compress.stream_of_funcs (ordered_funcs order p))
let address_of l s = Hashtbl.find l.addresses s

let symbolize l addr =
  if addr < l.text_base || addr >= l.text_base + l.text_size then None
  else begin
    (* Greatest Text symbol at or below [addr]. *)
    let best = ref None in
    Hashtbl.iter
      (fun sym a ->
        if a <= addr && Hashtbl.find_opt l.kinds sym = Some Text then
          match !best with
          | Some (_, ba) when ba >= a -> ()
          | _ -> best := Some (sym, a))
      l.addresses;
    match !best with
    | Some (sym, a) -> Some (Printf.sprintf "%s+0x%x" sym (addr - a))
    | None -> None
  end

let duplicate_function_bodies (p : Program.t) =
  (* Key: the rendered body, function name erased (labels are local). *)
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (f : Mfunc.t) ->
      let key = Content.render f in
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (f :: prev))
    p.funcs;
  Hashtbl.fold
    (fun _ fs acc ->
      match fs with
      | [] | [ _ ] -> acc
      | f :: _ -> (List.length fs, Mfunc.size_bytes f) :: acc)
    tbl []
