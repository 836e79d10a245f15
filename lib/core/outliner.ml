open Machine

type options = {
  scope_name : string;
  round : int;
  min_length : int;
  allow_save_lr : bool;
  allow_thunk : bool;
  allow_ret : bool;
}

let default_options =
  {
    scope_name = "";
    round = 1;
    min_length = 2;
    allow_save_lr = true;
    allow_thunk = true;
    allow_ret = true;
  }

type round_stats = {
  sequences_outlined : int;
  functions_created : int;
  outlined_bytes : int;
  bytes_saved : int;
}

let no_stats =
  {
    sequences_outlined = 0;
    functions_created = 0;
    outlined_bytes = 0;
    bytes_saved = 0;
  }

let add_stats a b =
  {
    sequences_outlined = a.sequences_outlined + b.sequences_outlined;
    functions_created = a.functions_created + b.functions_created;
    outlined_bytes = a.outlined_bytes + b.outlined_bytes;
    bytes_saved = a.bytes_saved + b.bytes_saved;
  }

(* Metadata for each sequence fed to the suffix tree. *)
type seq_meta = {
  sm_func : Mfunc.t;
  sm_block : Block.t;
  sm_has_ret : bool;
}

(* The blocks discovery sees, in program order: every block of an
   outlinable function with at least one symbol.  Sequence ids, site
   [block_id]s and window-scanner block indices all index this array. *)
let seq_metas (p : Program.t) =
  List.concat_map
    (fun (f : Mfunc.t) ->
      if f.no_outline then []
      else
        List.filter_map
          (fun (b : Block.t) ->
            let has_ret = b.term = Block.Ret in
            if Array.length b.body = 0 && not has_ret then None
            else Some { sm_func = f; sm_block = b; sm_has_ret = has_ret })
          f.blocks)
    p.funcs
  |> Array.of_list

let build_sequences imap (p : Program.t) =
  let metas = seq_metas p in
  let seq (m : seq_meta) =
    let body = m.sm_block.Block.body in
    let n = Array.length body in
    let arr = Array.make (if m.sm_has_ret then n + 1 else n) 0 in
    for i = 0 to n - 1 do
      arr.(i) <- Instr_map.symbol_of_insn imap body.(i)
    done;
    if m.sm_has_ret then arr.(n) <- Instr_map.ret_symbol imap;
    arr
  in
  (Array.to_list (Array.map seq metas), metas)

(* Walk the occurrences that survive self-overlap pruning: an occurrence
   is dropped when it overlaps an earlier-kept occurrence of the same
   pattern within the same sequence.  Occurrences arrive in increasing text
   order (the suffix-tree contract), so one stateful pass suffices; the
   fold shape lets callers count or build without materializing the pruned
   list — most repeats are rejected, and allocating a pruned copy for each
   of them dominated this phase. *)
let fold_pruned occs len f acc =
  let rec go last_seq last_end acc = function
    | [] -> acc
    | (o : Sufftree.Suffix_tree.occurrence) :: rest ->
      if o.seq = last_seq && o.pos < last_end then go last_seq last_end acc rest
      else go o.seq (o.pos + len) (f acc o) rest
  in
  go (-1) 0 acc occs

(* Outlined functions whose bodies are frame fragments (unbalanced SP
   changes, e.g. half a prologue) are legal and valuable to outline — but a
   call to one is *not* SP-neutral, unlike a call to any ABI-conforming
   function.  Strategies that spill LR around such a call would reload from
   the wrong slot.  Compute, transitively, which outlined functions a call
   must be treated as SP-modifying. *)
let sp_unsafe_callees ?(extern = fun _ -> false) (p : Program.t) =
  let unsafe : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let outlined =
    List.filter (fun (f : Mfunc.t) -> f.is_outlined) p.funcs
  in
  let body_calls (f : Mfunc.t) =
    List.concat_map
      (fun (b : Block.t) ->
        let calls =
          Array.to_list b.body
          |> List.filter_map (function Insn.Bl t -> Some t | _ -> None)
        in
        match b.term with
        | Block.Tail_call t -> t :: calls
        | _ -> calls)
      f.blocks
  in
  let touches (f : Mfunc.t) =
    List.exists
      (fun (b : Block.t) -> Array.exists Insn.touches_sp b.body)
      f.blocks
  in
  List.iter (fun (f : Mfunc.t) -> if touches f then Hashtbl.replace unsafe f.name ()) outlined;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Mfunc.t) ->
        if not (Hashtbl.mem unsafe f.name) then
          if
            List.exists
              (fun callee -> Hashtbl.mem unsafe callee || extern callee)
              (body_calls f)
          then begin
            Hashtbl.replace unsafe f.name ();
            changed := true
          end)
      outlined
  done;
  fun name -> Hashtbl.mem unsafe name || extern name

(* Per-point LR liveness, memoized per sequence id.  All occurrences of a
   sequence share one block, so the label-keyed table lookup inside
   {!Liveness.live_before} would repeat the same string hash tens of
   thousands of times per round; instead fetch each block's per-point array
   once and answer further probes with two array reads. *)
let lr_live_memo metas liveness_of =
  let cache = Array.make (Array.length metas) [||] in
  fun seq pos ->
    let arr =
      if cache.(seq) != [||] then cache.(seq)
      else begin
        let m = metas.(seq) in
        let lv = liveness_of m.sm_func in
        let arr = Liveness.points lv ~label:m.sm_block.Block.label in
        cache.(seq) <- arr;
        arr
      end
    in
    Regset.mem Reg.lr arr.(pos)

(* [lax] is thin-WPO's discovery mode: keep singleton occurrence lists and
   skip the local site-count and profitability bars.  A pattern seen once
   (or unprofitably often) in this shard may be seen in ten others — the
   global decision round applies the same two filters to the {e summed}
   counts instead. *)
let candidate_of_repeat ~lax options ~callee_sp_unsafe metas lr_live
    (r : Sufftree.Suffix_tree.repeat) : Candidate.t option =
  match r.occs with
  | [] -> None
  | [ _ ] when not lax -> None
  (* Pruning always keeps the first occurrence, so [first] is the head of
     the pruned walk too. *)
  | first :: _ ->
    let meta = metas.(first.seq) in
    let body = meta.sm_block.Block.body in
    let with_ret =
      meta.sm_has_ret && first.pos + r.length = Array.length body + 1
    in
    let insn_len = if with_ret then r.length - 1 else r.length in
    if insn_len = 0 then None
    else begin
      let strategy =
        if with_ret then
          if options.allow_ret then Some Candidate.Ends_with_ret else None
        else
          match body.(first.pos + insn_len - 1) with
          | Insn.Bl _ when options.allow_thunk -> Some Candidate.Thunk
          | _ -> Some Candidate.Plain_call
      in
      match strategy with
      | None -> None
      | Some strategy ->
        (* SP-relevant instructions: direct SP uses, plus calls to outlined
           frame fragments, which are not SP-neutral callees. *)
        let insn_touches_sp i =
          Insn.touches_sp i
          || (match i with Insn.Bl t -> callee_sp_unsafe t | _ -> false)
        in
        (* The final call of a thunk becomes a tail branch, so it is exempt
           from both the interior-call and the SP checks.  Scan the body
           array in place — building the instruction list for every repeat
           would dominate this phase (most repeats are rejected). *)
        let checked_hi =
          match strategy with
          | Candidate.Thunk -> first.pos + insn_len - 1
          | Candidate.Ends_with_ret | Candidate.Plain_call ->
            first.pos + insn_len
        in
        let exists_in_range pred =
          let rec go i = i < checked_hi && (pred body.(i) || go (i + 1)) in
          go first.pos
        in
        let touches_sp = exists_in_range insn_touches_sp in
        (* Calls before the end of the body clobber LR inside the outlined
           function, so it needs its own LR spill — impossible if the body
           is SP-relevant. *)
        let needs_lr_frame = exists_in_range Insn.is_call in
        if needs_lr_frame && touches_sp then None
        else
        let call_of (o : Sufftree.Suffix_tree.occurrence) =
          match strategy with
          | Candidate.Ends_with_ret | Candidate.Thunk -> Some Candidate.Call_free
          | Candidate.Plain_call ->
            if lr_live o.seq o.pos then
              if options.allow_save_lr && not touches_sp then
                Some Candidate.Call_save_lr
              else None
            else Some Candidate.Call_free
        in
        (* Count site kinds before allocating anything: most repeats fall to
           the profitability bar, and rejecting them from two integers is far
           cheaper than building their site records first. *)
        let n_free = ref 0 and n_save = ref 0 in
        fold_pruned r.occs r.length
          (fun () o ->
            match call_of o with
            | Some Candidate.Call_free -> incr n_free
            | Some Candidate.Call_save_lr -> incr n_save
            | None -> ())
          ();
        if !n_free + !n_save = 0 then None
        else if
          (not lax)
          && (!n_free + !n_save < 2
             || Cost_model.benefit_of_counts strategy ~needs_lr_frame
                  ~pattern_len:r.length ~n_free:!n_free ~n_save:!n_save
                < 1)
        then None
        else
          let rev_sites =
            fold_pruned r.occs r.length
              (fun acc (o : Sufftree.Suffix_tree.occurrence) ->
                match call_of o with
                | None -> acc
                | Some call ->
                  let m = metas.(o.seq) in
                  {
                    Candidate.func = m.sm_func.Mfunc.name;
                    block = m.sm_block.Block.label;
                    block_id = o.seq;
                    start = o.pos;
                    len = insn_len;
                    with_ret;
                    call;
                  }
                  :: acc)
              []
          in
          let sites = List.rev rev_sites in
          let insns = Array.to_list (Array.sub body first.pos insn_len) in
          Some
            {
              Candidate.insns;
              length = r.length;
              strategy;
              sites;
              needs_lr_frame;
              touches_sp;
            }
    end

(* Per-function liveness, memoized in [tbl]: a fresh table for one-shot
   discovery and the scratch engine, the engine's [eng_live] for the
   incremental one. *)
let liveness_memo tbl (f : Mfunc.t) =
  match Hashtbl.find_opt tbl f.name with
  | Some lv -> lv
  | None ->
    let lv = Liveness.compute f in
    Hashtbl.replace tbl f.name lv;
    lv

(* The one discovery step: every repeat goes through
   [candidate_of_repeat]; the survivors come back in input order. *)
let discover ~lax ?extern_sp_unsafe options ~liveness_of metas p repeats =
  let callee_sp_unsafe = sp_unsafe_callees ?extern:extern_sp_unsafe p in
  let lr_live = lr_live_memo metas liveness_of in
  List.filter_map
    (candidate_of_repeat ~lax options ~callee_sp_unsafe metas lr_live)
    repeats

let enumerate ?min_length ?(options = default_options) ?(all = false)
    ?extern_sp_unsafe ?pool (p : Program.t) =
  let min_length = Option.value min_length ~default:options.min_length in
  let seqs, metas = build_sequences (Instr_map.create ()) p in
  if seqs = [] then []
  else
    discover ~lax:all ?extern_sp_unsafe options
      ~liveness_of:(liveness_memo (Hashtbl.create 64))
      metas p
      (match pool with
      | None ->
        Sufftree.Suffix_tree.repeats ~min_length
          (Sufftree.Suffix_tree.build seqs)
      | Some pool ->
        Sufftree.Arena_tree.repeats ~min_length
          (Sufftree.Arena_tree.build ~pool seqs))

(* --- Keyed window scanning --------------------------------------------- *)

(* Thin-WPO keys every legal window of every block in O(1), with no
   allocation, and materializes a candidate only for the few windows whose
   key the global decision ranks.  Per block the scanner keeps a rolling
   polynomial hash (mod 2^63) over per-instruction content hashes — hashes
   of the printed instruction, so every shard computes the same key for the
   same content whatever its interner numbering — and prefix counts of
   illegal, call and SP-relevant instructions, which answer
   [candidate_of_repeat]'s range checks for any window by subtraction. *)

(* One block's scanner row: everything the scanner derives from the
   block's body and ret slot alone, so a row stays valid for as long as
   both do. *)
type row = {
  rw_body : Insn.t array;
  rw_has_ret : bool;
  rw_text : string array;      (** printed instructions *)
  rw_prefix : int array;
      (** rolling hash of symbols [0, i), the ret slot included *)
  rw_illegal : int array;      (** counts over body [0, i) *)
  rw_calls : int array;
}

type scan_memo = {
  ms_rows : (string * string, row) Hashtbl.t;  (** (function, label) *)
  ms_live : (string, Mfunc.t * Liveness.t) Hashtbl.t;
  ms_by_name : bool;
}

let create_scan_memo ?(match_by_name = false) () =
  {
    ms_rows = Hashtbl.create 1024;
    ms_live = Hashtbl.create 256;
    ms_by_name = match_by_name;
  }

(* Instruction -> printed form and content hash. *)
type printer = (Insn.t, string * int) Hashtbl.t

let create_printer () : printer = Hashtbl.create 512

type windows = {
  wn_options : options;
  wn_metas : seq_meta array;
  wn_rows : row array;
  wn_sp : int array array;  (** per block: SP-relevant counts over body [0, i) *)
  wn_pow : int array;       (** [key_base] to the power [i] *)
  wn_callee_sp_unsafe : string -> bool;
  wn_lr_live : int -> int -> bool;
  wn_reused : int;          (** rows taken from the memo *)
}

(* Odd, so its powers never vanish mod 2^63, and unrelated to the FNV
   prime: FNV hashes of strings that differ in one byte differ by a small
   multiple of that prime, which a polynomial over the same base would
   cancel. *)
let key_base = 0x2545f4914f6cdd1d

(* An instruction's content hash: FNV-1a of its printed form, through
   MurmurHash3's 64-bit finalizer so the FNV structure above is gone. *)
let content_hash s =
  let mix k m = Int64.mul (Int64.logxor k (Int64.shift_right_logical k 33)) m in
  let k = mix (Content.hash_string s) 0xff51afd7ed558ccdL in
  let k = mix k 0xc4ceb9fe1a85ec53L in
  Int64.to_int (Int64.logxor k (Int64.shift_right_logical k 33))

(* The content hash of a block's virtual [ret] slot: no instruction prints
   as "ret" (it is a terminator). *)
let ret_content = content_hash "ret"

let prefix_count pred body =
  let a = Array.make (Array.length body + 1) 0 in
  Array.iteri (fun i insn -> a.(i + 1) <- a.(i) + Bool.to_int (pred insn)) body;
  a

let scan_row (printer : printer) (m : seq_meta) =
  let print i =
    match Hashtbl.find_opt printer i with
    | Some sh -> sh
    | None ->
      let text = Insn.to_string i in
      let sh = (text, content_hash text) in
      Hashtbl.replace printer i sh;
      sh
  in
  let b = m.sm_block.Block.body in
  let n = Array.length b in
  let len = if m.sm_has_ret then n + 1 else n in
  let h = Array.make (len + 1) 0 in
  for i = 0 to len - 1 do
    h.(i + 1) <-
      (h.(i) * key_base) + if i = n then ret_content else snd (print b.(i))
  done;
  {
    rw_body = b;
    rw_has_ret = m.sm_has_ret;
    rw_text = Array.map (fun i -> fst (print i)) b;
    rw_prefix = h;
    rw_illegal =
      prefix_count (fun i -> Legality.classify i = Legality.Illegal) b;
    rw_calls = prefix_count Insn.is_call b;
  }

let windows ?(options = default_options) ?extern_sp_unsafe
    ?(memo = create_scan_memo ()) ?(printer = create_printer ())
    (p : Program.t) =
  let metas = seq_metas p in
  let callee_sp_unsafe = sp_unsafe_callees ?extern:extern_sp_unsafe p in
  let reused = ref 0 in
  let row (m : seq_meta) =
    let key = (m.sm_func.Mfunc.name, m.sm_block.Block.label) in
    match Hashtbl.find_opt memo.ms_rows key with
    | Some r
      when memo.ms_by_name
           || (r.rw_body == m.sm_block.Block.body
              && r.rw_has_ret = m.sm_has_ret) ->
      incr reused;
      r
    | _ ->
      let r = scan_row printer m in
      Hashtbl.replace memo.ms_rows key r;
      r
  in
  let rows = Array.map row metas in
  let sp_relevant i =
    Insn.touches_sp i
    || match i with Insn.Bl t -> callee_sp_unsafe t | _ -> false
  in
  let longest =
    Array.fold_left (fun acc r -> max acc (Array.length r.rw_prefix)) 0 rows
  in
  let pow = Array.make (longest + 1) 1 in
  for i = 1 to longest do
    pow.(i) <- pow.(i - 1) * key_base
  done;
  let liveness_of (f : Mfunc.t) =
    match Hashtbl.find_opt memo.ms_live f.name with
    | Some (f', lv) when f' == f -> lv
    | _ ->
      let lv = Liveness.compute f in
      Hashtbl.replace memo.ms_live f.name (f, lv);
      lv
  in
  {
    wn_options = options;
    wn_metas = metas;
    wn_rows = rows;
    wn_sp =
      Array.map (fun m -> prefix_count sp_relevant m.sm_block.Block.body) metas;
    wn_pow = pow;
    wn_callee_sp_unsafe = callee_sp_unsafe;
    wn_lr_live = lr_live_memo metas liveness_of;
    wn_reused = !reused;
  }

let reuse w = (w.wn_reused, Array.length w.wn_metas)

(* A window's shape packed in one int, or [-1] when [candidate_of_repeat]
   would reject it for any site: bits 0-1 the strategy tag (1 ret-ending,
   2 thunk, 3 plain call), bit 2 the LR-frame bit, bit 3 SP relevance.
   The checks are [candidate_of_repeat]'s, answered from prefix counts. *)
let window_shape w s pos len =
  let m = w.wn_metas.(s) in
  let body = m.sm_block.Block.body in
  let n = Array.length body in
  let bad = w.wn_rows.(s).rw_illegal in
  (* The virtual ret slot at [n] is always legal. *)
  if bad.(min (pos + len) n) - bad.(pos) <> 0 then -1
  else
    let with_ret = m.sm_has_ret && pos + len = n + 1 in
    let insn_len = if with_ret then len - 1 else len in
    let tag =
      if insn_len = 0 then 0
      else if with_ret then if w.wn_options.allow_ret then 1 else 0
      else
        match body.(pos + insn_len - 1) with
        | Insn.Bl _ when w.wn_options.allow_thunk -> 2
        | _ -> 3
    in
    if tag = 0 then -1
    else
      (* A thunk's final call becomes the tail branch: exempt from both
         range checks. *)
      let hi = if tag = 2 then pos + insn_len - 1 else pos + insn_len in
      let calls = w.wn_rows.(s).rw_calls in
      let lr = calls.(hi) - calls.(pos) > 0 in
      let sp = w.wn_sp.(s).(hi) - w.wn_sp.(s).(pos) > 0 in
      if lr && sp then -1
      else tag lor (if lr then 4 else 0) lor if sp then 8 else 0

(* Content, then length, then strategy and LR-frame bit, as further
   polynomial terms. *)
let key_of_shape w s pos len shape =
  let h = w.wn_rows.(s).rw_prefix in
  let content = h.(pos + len) - (h.(pos) * w.wn_pow.(len)) in
  (((content * key_base) + len) * key_base) + (shape land 7)

let window_key w ~block ~pos ~len =
  key_of_shape w block pos len (window_shape w block pos len)

(* A plain-call window spills LR around its call when LR is live there;
   an SP-relevant body cannot, so the site is dropped. *)
let window_call w s pos shape =
  if shape land 3 <> 3 || not (w.wn_lr_live s pos) then
    Some Candidate.Call_free
  else if w.wn_options.allow_save_lr && shape land 8 = 0 then
    Some Candidate.Call_save_lr
  else None

let iter_windows w ~lengths f =
  let lengths =
    List.sort_uniq Int.compare (List.filter (fun l -> l >= 2) lengths)
  in
  Array.iteri
    (fun s (m : seq_meta) ->
      let seq_len =
        Array.length m.sm_block.Block.body + Bool.to_int m.sm_has_ret
      in
      List.iter
        (fun len ->
          for pos = 0 to seq_len - len do
            let shape = window_shape w s pos len in
            if shape >= 0 then begin
              let strategy =
                match shape land 3 with
                | 1 -> Candidate.Ends_with_ret
                | 2 -> Candidate.Thunk
                | _ -> Candidate.Plain_call
              in
              match window_call w s pos shape with
              | None -> ()
              | Some call ->
                f ~block:s ~pos ~len ~key:(key_of_shape w s pos len shape) ~call
                  ~strategy ~needs_lr_frame:(shape land 4 <> 0)
                  ~touches_sp:(shape land 8 <> 0)
            end
          done)
        lengths)
    w.wn_metas

let window_bound w ~lengths =
  Array.fold_left
    (fun acc (m : seq_meta) ->
      let n = Array.length m.sm_block.Block.body + Bool.to_int m.sm_has_ret in
      List.fold_left
        (fun acc len -> if len >= 2 && len <= n then acc + n - len + 1 else acc)
        acc lengths)
    0 w.wn_metas

let window_text w ~block ~pos ~len =
  let text = w.wn_rows.(block).rw_text in
  List.init (min len (Array.length text - pos)) (fun i -> text.(pos + i))

let window_candidate w ~block ~pos ~len =
  if window_shape w block pos len < 0 then None
  else
    candidate_of_repeat ~lax:true w.wn_options
      ~callee_sp_unsafe:w.wn_callee_sp_unsafe w.wn_metas w.wn_lr_live
      {
        Sufftree.Suffix_tree.length = len;
        occs = [ { Sufftree.Suffix_tree.seq = block; pos } ];
      }

(* The site record [candidate_of_repeat] builds for one occurrence. *)
let window_site w ~block ~pos ~len call =
  let m = w.wn_metas.(block) in
  let body = m.sm_block.Block.body in
  let with_ret = m.sm_has_ret && pos + len = Array.length body + 1 in
  {
    Candidate.func = m.sm_func.Mfunc.name;
    block = m.sm_block.Block.label;
    block_id = block;
    start = pos;
    len = (if with_ret then len - 1 else len);
    with_ret;
    call;
  }

(* --- Greedy selection order ------------------------------------------- *)

(* Candidates must be picked in an order independent of suffix-tree
   internals and interner symbol numbering, so that the from-scratch and
   incremental engines (and permuted-module builds of the same content)
   make identical greedy decisions.  Benefit descending, then the smallest
   site by (func, block, start), then pattern length.  A (site, length)
   pair pins down the pattern content, so two distinct candidates can
   never tie. *)
let min_site_key (c : Candidate.t) =
  List.fold_left
    (fun acc (s : Candidate.site) ->
      let k = (s.func, s.block, s.start) in
      match acc with Some k0 when k0 <= k -> acc | _ -> Some k)
    None c.sites

(* Sort keys are computed once per candidate (decorate/sort/undecorate):
   recomputing [min_site_key] inside the comparator would fold over every
   site list O(n log n) times. *)
type scored = {
  sc_benefit : int;
  sc_min_site : (string * string * int) option;
  sc_cand : Candidate.t;
}

let compare_scored s1 s2 =
  match Int.compare s2.sc_benefit s1.sc_benefit with
  | 0 -> (
    match compare s1.sc_min_site s2.sc_min_site with
    | 0 -> Int.compare s1.sc_cand.Candidate.length s2.sc_cand.Candidate.length
    | c -> c)
  | c -> c

let score_candidates cands =
  let scored =
    List.filter_map
      (fun c ->
        let b = Cost_model.benefit c in
        if b >= 1 then
          Some { sc_benefit = b; sc_min_site = min_site_key c; sc_cand = c }
        else None)
      cands
  in
  List.sort compare_scored scored

(* --- Rewriting --------------------------------------------------------- *)

type plan_entry = {
  pe_site : Candidate.site;
  pe_name : string;  (** outlined function to call *)
}

let save_lr_pre = Insn.Str (Reg.lr, { Insn.base = Reg.SP; off = -16; mode = Insn.Pre })
let restore_lr_post = Insn.Ldr (Reg.lr, { Insn.base = Reg.SP; off = 16; mode = Insn.Post })

let rewrite_block entries (b : Block.t) =
  (* entries: disjoint, any order. *)
  let mine =
    List.sort
      (fun a b -> Int.compare a.pe_site.Candidate.start b.pe_site.Candidate.start)
      entries
  in
  let body = b.body in
  let out = ref [] in
  let term = ref b.term in
  let pos = ref 0 in
  List.iter
    (fun e ->
      let s = e.pe_site in
      for i = !pos to s.Candidate.start - 1 do
        out := body.(i) :: !out
      done;
      if s.with_ret then begin
        (* Consumes the ret terminator: branch to the outlined function. *)
        term := Block.Tail_call e.pe_name;
        pos := Array.length body
      end
      else begin
        (match s.call with
        | Candidate.Call_free -> out := Insn.Bl e.pe_name :: !out
        | Candidate.Call_save_lr ->
          out := restore_lr_post :: Insn.Bl e.pe_name :: save_lr_pre :: !out);
        pos := s.start + s.len
      end)
    mine;
  for i = !pos to Array.length body - 1 do
    out := body.(i) :: !out
  done;
  { b with body = Array.of_list (List.rev !out); term = !term }

let make_outlined_function ~name ~from_module (c : Candidate.t) =
  (* When the body performs interior calls, the outlined function must
     preserve the caller's return address across them. *)
  let frame body =
    if c.needs_lr_frame then (save_lr_pre :: body) @ [ restore_lr_post ]
    else body
  in
  let blocks =
    match c.strategy with
    | Candidate.Ends_with_ret ->
      [ Block.make ~label:"entry" (frame c.insns) Block.Ret ]
    | Candidate.Thunk -> (
      match List.rev c.insns with
      | Insn.Bl target :: rev_prefix ->
        [
          Block.make ~label:"entry"
            (frame (List.rev rev_prefix))
            (Block.Tail_call target);
        ]
      | _ -> assert false)
    | Candidate.Plain_call ->
      [ Block.make ~label:"entry" (frame c.insns) Block.Ret ]
  in
  Mfunc.make ~from_module ~is_outlined:true ~name blocks

(* --- Site occupancy and the rewrite tail ------------------------------- *)

(* Greedy overlap resolution: a site is free when none of its slots was
   taken by a higher-priority site.  One lazily allocated slot array per
   sequence-table block, found by the site's [block_id]: one slot per
   instruction plus slot [n] (one past the body) for the terminator, which
   ret-ending patterns occupy. *)
let occupancy (metas : seq_meta array) =
  let consumed = Array.make (Array.length metas) [||] in
  let slots (s : Candidate.site) =
    let id = s.block_id in
    if Array.length consumed.(id) = 0 then
      consumed.(id) <-
        Array.make (Array.length metas.(id).sm_block.Block.body + 1) false;
    consumed.(id)
  in
  let hi (s : Candidate.site) =
    if s.with_ret then s.start + s.len else s.start + s.len - 1
  in
  let free s =
    let a = slots s and free = ref true in
    for i = s.Candidate.start to hi s do
      if a.(i) then free := false
    done;
    !free
  in
  let take s =
    Array.fill (slots s) s.Candidate.start (hi s - s.start + 1) true
  in
  (free, take)

let make_occupancy p = occupancy (seq_metas p)

(* Rewrite every block [func_plans] (func -> (label, entries)) names and
   append [new_funcs]; functions without plans are returned physically
   unchanged. *)
let rewrite_program (p : Program.t) func_plans new_funcs =
  let rewrite_func (f : Mfunc.t) =
    match Hashtbl.find_opt func_plans f.name with
    | None -> f
    | Some blocks ->
      Mfunc.map_blocks
        (fun b ->
          match List.assoc_opt b.Block.label blocks with
          | None -> b
          | Some entries -> rewrite_block entries b)
        f
  in
  Program.replace_funcs p (List.map rewrite_func p.funcs @ new_funcs)

(* Greedy site selection, then the program rewrite.  Shared by both
   engines; also returns the (func, block) pairs it rewrote, which the
   incremental engine invalidates. *)
let select_and_rewrite options (metas : seq_meta array) sorted (p : Program.t) =
  let nseq = Array.length metas in
  let free, take = occupancy metas in
  let plans : plan_entry list array = Array.make nseq [] in
  let new_funcs = ref [] in
  let idx = ref 0 in
  let stats = ref no_stats in
  List.iter
    (fun { sc_cand = c; _ } ->
      let sites = List.filter free c.sites in
      let c' = { c with sites } in
      if Cost_model.profitable c' then begin
        let name =
          let scope = if options.scope_name = "" then "" else options.scope_name ^ "_" in
          Printf.sprintf "OUTLINED_FUNCTION_%s%d_%d" scope options.round !idx
        in
        incr idx;
        List.iter take sites;
        List.iter
          (fun (s : Candidate.site) ->
            plans.(s.block_id) <- { pe_site = s; pe_name = name } :: plans.(s.block_id))
          sites;
        let from_module =
          if options.scope_name = "" then "outlined" else options.scope_name
        in
        let f = make_outlined_function ~name ~from_module c' in
        new_funcs := f :: !new_funcs;
        stats :=
          add_stats !stats
            {
              sequences_outlined = List.length sites;
              functions_created = 1;
              outlined_bytes = Mfunc.size_bytes f;
              bytes_saved = Cost_model.benefit c';
            }
      end)
    sorted;
  (* Group per-block plans by function so the rewrite does one hash probe
     per function. *)
  let func_plans : (string, (string * plan_entry list) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let dirty_blocks = ref [] in
  for id = 0 to nseq - 1 do
    match plans.(id) with
    | [] -> ()
    | entries ->
      let m = metas.(id) in
      let fname = m.sm_func.Mfunc.name in
      let blabel = m.sm_block.Block.label in
      dirty_blocks := (fname, blabel) :: !dirty_blocks;
      let prev = Option.value ~default:[] (Hashtbl.find_opt func_plans fname) in
      Hashtbl.replace func_plans fname ((blabel, entries) :: prev)
  done;
  (rewrite_program p func_plans (List.rev !new_funcs), !stats, !dirty_blocks)

(* --- Decision-table application (thin-WPO phase 3) ---------------------- *)

(* Thin-WPO decides globally but rewrites per shard: the serial decision
   round hands every shard the same ranked assignment list, and each shard
   applies the assignments that name candidates it discovered locally.  The
   greedy overlap resolution is the same as [select_and_rewrite]'s, but the
   priority order and the outlined-symbol names are fixed by the caller
   (they come from the decision table, so they are identical whatever the
   worker count), and profitability is *not* re-checked against the
   locally surviving sites: the global decision is optimistic — other
   shards have already been rewritten against it, and the host must emit
   the body even if every local site was lost to overlap. *)

type assignment = {
  asg_cand : Candidate.t;
  asg_name : string;        (** decision-table symbol, stable across workers *)
  asg_rank : int;           (** global priority order of the decision *)
  asg_host : string option; (** [Some m]: this shard emits the body, with
                                [from_module = m] *)
}

let apply_assignments (p : Program.t) (assignments : assignment list) =
  let free, take = make_occupancy p in
  let func_plans : (string, (string * plan_entry list) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let add_plan (s : Candidate.site) name =
    let blocks =
      Option.value ~default:[] (Hashtbl.find_opt func_plans s.Candidate.func)
    in
    let entries =
      Option.value ~default:[] (List.assoc_opt s.Candidate.block blocks)
    in
    Hashtbl.replace func_plans s.Candidate.func
      ((s.Candidate.block, { pe_site = s; pe_name = name } :: entries)
      :: List.remove_assoc s.Candidate.block blocks)
  in
  let hosted = ref [] in
  let stats = ref no_stats in
  List.iter
    (fun a ->
      let c = a.asg_cand in
      let sites = List.filter free c.Candidate.sites in
      List.iter take sites;
      List.iter (fun s -> add_plan s a.asg_name) sites;
      let site_gain =
        List.fold_left
          (fun acc (s : Candidate.site) ->
            acc + Candidate.pattern_bytes c - Candidate.site_cost_bytes s.call)
          0 sites
      in
      let hosted_bytes =
        match a.asg_host with
        | None -> 0
        | Some from_module ->
          let f = make_outlined_function ~name:a.asg_name ~from_module c in
          hosted := (a.asg_rank, f) :: !hosted;
          Mfunc.size_bytes f
      in
      stats :=
        add_stats !stats
          {
            sequences_outlined = List.length sites;
            functions_created = (if a.asg_host = None then 0 else 1);
            outlined_bytes = hosted_bytes;
            bytes_saved = site_gain - hosted_bytes;
          })
    assignments;
  (rewrite_program p func_plans [], List.rev !hosted, !stats)

(* --- Per-phase timing hooks -------------------------------------------- *)

let timed rp set f =
  match rp with
  | None -> f ()
  | Some rp ->
    let t0 = Unix.gettimeofday () in
    let r = f () in
    set rp (Unix.gettimeofday () -. t0);
    r

let set_seq rp d = rp.Profile.rp_seq_build <- rp.Profile.rp_seq_build +. d
let set_tree rp d = rp.Profile.rp_tree_build <- rp.Profile.rp_tree_build +. d
let set_enum rp d = rp.Profile.rp_enumerate <- rp.Profile.rp_enumerate +. d
let set_score rp d = rp.Profile.rp_score <- rp.Profile.rp_score +. d
let set_rewrite rp d = rp.Profile.rp_rewrite <- rp.Profile.rp_rewrite +. d

(* --- The round, shared by both engines --------------------------------- *)

(* Everything after the sequence table: [build_tree] and [repeats] are the
   engine's suffix tree (repeats of at least [options.min_length]),
   [liveness_of] its liveness memo.  Returns the rewritten program, the
   stats and the rewritten (func, block) pairs. *)
let outline_round rp options p (seqs, metas) ~liveness_of build_tree repeats =
  if seqs = [] then (p, no_stats, [])
  else begin
    let tree = timed rp set_tree (fun () -> build_tree seqs) in
    let cands =
      timed rp set_enum (fun () ->
          discover ~lax:false options ~liveness_of metas p (repeats tree))
    in
    let sorted = timed rp set_score (fun () -> score_candidates cands) in
    timed rp set_rewrite (fun () -> select_and_rewrite options metas sorted p)
  end

(* --- From-scratch engine ----------------------------------------------- *)

let run_round ?profile options (p : Program.t) =
  let rp = Option.map (fun pr -> Profile.new_round pr options.round) profile in
  let table =
    timed rp set_seq (fun () -> build_sequences (Instr_map.create ()) p)
  in
  let p', stats, _ =
    outline_round rp options p table
      ~liveness_of:(liveness_memo (Hashtbl.create 64))
      Sufftree.Suffix_tree.build
      (Sufftree.Suffix_tree.repeats ~min_length:options.min_length)
  in
  (p', stats)

(* --- Incremental engine ------------------------------------------------ *)

(* Content-addressed state that may outlive a build: the interner memoizes
   on instruction and block content and the pool is scratch storage, so
   neither can bind a name to stale content. *)
type warm = {
  w_imap : Instr_map.t;
  w_pool : Sufftree.Arena_tree.pool;
      (** backing store recycled across rounds; each round's tree dies when
          the next round builds *)
}

let create_warm () =
  { w_imap = Instr_map.create (); w_pool = Sufftree.Arena_tree.create_pool () }

type engine = {
  eng_warm : warm;
  eng_seqs : (string, (string, int array) Hashtbl.t) Hashtbl.t;
      (** func -> block label -> interned symbol array, invalidated by the
          dirty set each round.  Two-level so the per-round walk hashes each
          function name once instead of allocating and hashing a
          (func, label) pair per block. *)
  eng_live : (string, Liveness.t) Hashtbl.t;
}

let create_engine ?(warm = create_warm ()) () =
  {
    eng_warm = warm;
    eng_seqs = Hashtbl.create 1024;
    eng_live = Hashtbl.create 256;
  }

(* Fault injection for the fuzz harness: when set, dirty blocks keep their
   stale cached sequences across rounds, so the incremental engine works on
   a corrupted view of the program.  The incremental-vs-scratch differential
   must catch the resulting divergence (see lib/fuzz). *)
let fault_skip_invalidation = ref false

let run_round_incremental ?profile engine options (p : Program.t) =
  let rp = Option.map (fun pr -> Profile.new_round pr options.round) profile in
  let table =
    timed rp set_seq (fun () ->
        let seqs = ref [] and metas = ref [] in
        List.iter
          (fun (f : Mfunc.t) ->
            if not f.no_outline then begin
              let cache =
                match Hashtbl.find_opt engine.eng_seqs f.Mfunc.name with
                | Some tbl -> tbl
                | None ->
                  let tbl = Hashtbl.create 16 in
                  Hashtbl.replace engine.eng_seqs f.Mfunc.name tbl;
                  tbl
              in
              List.iter
                (fun (b : Block.t) ->
                  let has_ret = b.term = Block.Ret in
                  let n = Array.length b.body in
                  let len = if has_ret then n + 1 else n in
                  if len >= 1 then begin
                    let arr =
                      match Hashtbl.find_opt cache b.Block.label with
                      | Some arr -> arr
                      | None ->
                        let arr =
                          Instr_map.seq_of_block engine.eng_warm.w_imap
                            ~has_ret b.body
                        in
                        Hashtbl.replace cache b.Block.label arr;
                        arr
                    in
                    seqs := arr :: !seqs;
                    metas :=
                      { sm_func = f; sm_block = b; sm_has_ret = has_ret }
                      :: !metas
                  end)
                f.blocks
            end)
          p.funcs;
        (List.rev !seqs, Array.of_list (List.rev !metas)))
  in
  let p', stats, dirty_blocks =
    outline_round rp options p table
      ~liveness_of:(liveness_memo engine.eng_live)
      (Sufftree.Arena_tree.build ~pool:engine.eng_warm.w_pool)
      (Sufftree.Arena_tree.repeats ~min_length:options.min_length)
  in
  if not !fault_skip_invalidation then
    List.iter
      (fun (fname, blabel) ->
        (match Hashtbl.find_opt engine.eng_seqs fname with
        | Some tbl -> Hashtbl.remove tbl blabel
        | None -> ());
        Hashtbl.remove engine.eng_live fname)
      dirty_blocks;
  (p', stats)
