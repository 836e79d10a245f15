open Outcore

type pattern = {
  ps_hash : int64;
  ps_length : int;
  ps_strategy : Candidate.strategy;
  ps_needs_lr_frame : bool;
  ps_touches_sp : bool;
  ps_n_free : int;
  ps_n_save : int;
}

type t = {
  sm_module : string;
  sm_patterns : pattern list;
}

let fault_truncate_hash = ref false

(* --- stable content hashing -------------------------------------------- *)

(* One FNV-1a definition (lib/content) serves the whole repo: the
   linker's compression model, the bp-compress layout objective and the
   merge layer hash the same way summaries do, so "same content" means
   the same thing everywhere. *)
let fnv_offset = Content.fnv_offset
let fnv_byte = Content.fnv_byte
let fnv_string = Content.fnv_string

let strategy_tag = function
  | Candidate.Ends_with_ret -> 1
  | Candidate.Thunk -> 2
  | Candidate.Plain_call -> 3

let hash_with render (c : Candidate.t) =
  let h = fnv_offset in
  let h = fnv_byte h (strategy_tag c.strategy) in
  let h = fnv_byte h (if c.needs_lr_frame then 1 else 0) in
  let h = fnv_byte h c.length in
  let h = fnv_byte h (c.length lsr 8) in
  let h =
    List.fold_left (fun h i -> fnv_byte (fnv_string h (render i)) 0) h c.insns
  in
  if !fault_truncate_hash then Int64.logand h 0x3fL else h

let hash_candidate (c : Candidate.t) = hash_with Machine.Insn.to_string c

let hasher () =
  let cache : (Machine.Insn.t, string) Hashtbl.t = Hashtbl.create 512 in
  let render i =
    match Hashtbl.find_opt cache i with
    | Some s -> s
    | None ->
      let s = Machine.Insn.to_string i in
      Hashtbl.replace cache i s;
      s
  in
  fun c -> hash_with render c

(* --- shard-side grouping ------------------------------------------------ *)

let count_sites (c : Candidate.t) =
  List.fold_left
    (fun (free, save) (s : Candidate.site) ->
      match s.call with
      | Candidate.Call_free -> (free + 1, save)
      | Candidate.Call_save_lr -> (free, save + 1))
    (0, 0) c.sites

let of_candidates ~modul pairs =
  let tbl : (int64, pattern ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (h, (c : Candidate.t)) ->
      let n_free, n_save = count_sites c in
      match Hashtbl.find_opt tbl h with
      | Some p ->
        p :=
          {
            !p with
            ps_n_free = !p.ps_n_free + n_free;
            ps_n_save = !p.ps_n_save + n_save;
          }
      | None ->
        let p =
          ref
            {
              ps_hash = h;
              ps_length = c.length;
              ps_strategy = c.strategy;
              ps_needs_lr_frame = c.needs_lr_frame;
              ps_touches_sp = c.touches_sp;
              ps_n_free = n_free;
              ps_n_save = n_save;
            }
        in
        Hashtbl.replace tbl h p;
        order := p :: !order)
    pairs;
  { sm_module = modul; sm_patterns = List.rev_map (fun p -> !p) !order }

(* --- the global decision round ------------------------------------------ *)

type decision = {
  dc_hash : int64;
  dc_name : string;
  dc_host : string;
  dc_benefit : int;
  dc_rank : int;
  dc_sp_unsafe : bool;
}

type merged = {
  mutable mg_meta : pattern;  (** first contributor's entry, in shard order *)
  mutable mg_host : string;   (** least contributing module name *)
  mutable mg_free : int;
  mutable mg_save : int;
}

let decide ~round summaries =
  let tbl : (int64, merged) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          match Hashtbl.find_opt tbl p.ps_hash with
          | Some m ->
            m.mg_free <- m.mg_free + p.ps_n_free;
            m.mg_save <- m.mg_save + p.ps_n_save;
            if s.sm_module < m.mg_host then m.mg_host <- s.sm_module
          | None ->
            let m =
              {
                mg_meta = p;
                mg_host = s.sm_module;
                mg_free = p.ps_n_free;
                mg_save = p.ps_n_save;
              }
            in
            Hashtbl.replace tbl p.ps_hash m;
            order := m :: !order)
        s.sm_patterns)
    summaries;
  let profitable =
    List.filter_map
      (fun m ->
        let p = m.mg_meta in
        if m.mg_free + m.mg_save < 2 then None
        else
          let benefit =
            Cost_model.benefit_of_counts p.ps_strategy
              ~needs_lr_frame:p.ps_needs_lr_frame ~pattern_len:p.ps_length
              ~n_free:m.mg_free ~n_save:m.mg_save
          in
          if benefit < 1 then None else Some (benefit, m))
      (List.rev !order)
  in
  let ranked =
    List.sort
      (fun (b1, m1) (b2, m2) ->
        match Int.compare b2 b1 with
        | 0 -> Int64.unsigned_compare m1.mg_meta.ps_hash m2.mg_meta.ps_hash
        | c -> c)
      profitable
  in
  List.mapi
    (fun rank (benefit, m) ->
      let p = m.mg_meta in
      {
        dc_hash = p.ps_hash;
        dc_name = Printf.sprintf "OUTLINED_THIN_%d_%d" round rank;
        dc_host = m.mg_host;
        dc_benefit = benefit;
        dc_rank = rank;
        dc_sp_unsafe = p.ps_touches_sp || p.ps_needs_lr_frame;
      })
    ranked
