open Outcore

type pattern = {
  ps_key : int;
  ps_hash : int64 Lazy.t;
  ps_rep : int * int;
  ps_length : int;
  ps_shape : Candidate.shape;
  ps_n_free : int;
  ps_n_save : int;
}

type t = {
  sm_module : string;
  sm_keys : int array;
  sm_free : int array;
  sm_save : int array;
  sm_buckets : int array;
  sm_pattern : int -> pattern;
}

let fault_truncate_hash = ref false
let join_key k = if !fault_truncate_hash then k land 0x3f else k

(* Open addressing over one flat array: slot [i] holds [key; d] at [2i]
   and [2i + 1], [d = -1] when empty.  Sized at creation to stay at most
   three quarters full. *)
module Index = struct
  type t = { slots : int array; mutable size : int; room : int }

  let create room =
    let cap = ref 16 in
    while 3 * !cap < 4 * room do
      cap := 2 * !cap
    done;
    { slots = Array.make (2 * !cap) (-1); size = 0; room }

  let slot slots key =
    let mask = Array.length slots - 1 in
    let i = ref (2 * (key lxor (key lsr 32)) land mask) in
    while slots.(!i + 1) >= 0 && slots.(!i) <> key do
      i := (!i + 2) land mask
    done;
    !i

  let find t key = t.slots.(slot t.slots key + 1)
  let size t = t.size

  let clear t =
    Array.fill t.slots 0 (Array.length t.slots) (-1);
    t.size <- 0

  let add t key =
    let i = slot t.slots key in
    if t.slots.(i + 1) < 0 then begin
      if t.size = t.room then invalid_arg "Summary.Index.add: no room";
      t.slots.(i) <- key;
      t.slots.(i + 1) <- t.size;
      t.size <- t.size + 1
    end;
    t.slots.(i + 1)
end

(* --- the ranking hash ---------------------------------------------------- *)

(* One FNV-1a definition (lib/content) serves the whole repo: the
   linker's compression model, the bp-compress layout objective and the
   merge layer hash the same way, so "same content" means the same thing
   everywhere. *)
let fnv_byte = Content.fnv_byte

let strategy_tag = function
  | Candidate.Ends_with_ret -> 1
  | Candidate.Thunk -> 2
  | Candidate.Plain_call -> 3

let hash_rendered strategy ~needs_lr_frame ~length texts =
  let h = Content.fnv_offset in
  let h = fnv_byte h (strategy_tag strategy) in
  let h = fnv_byte h (if needs_lr_frame then 1 else 0) in
  let h = fnv_byte h length in
  let h = fnv_byte h (length lsr 8) in
  List.fold_left (fun h s -> fnv_byte (Content.fnv_string h s) 0) h texts

let hash_candidate (c : Candidate.t) =
  hash_rendered c.strategy ~needs_lr_frame:c.needs_lr_frame ~length:c.length
    (List.map Machine.Insn.to_string c.insns)

(* --- building summaries -------------------------------------------------- *)

let buckets = 256
let bucket key = (key lsr 55) land (buckets - 1)

(* A counting sort of the first [count] entries by bucket; [row] is
   reached through the permutation. *)
let of_columns ~modul ~count ~keys ~free ~save row =
  let start = Array.make (buckets + 1) 0 in
  for i = 0 to count - 1 do
    let b = bucket keys.(i) + 1 in
    start.(b) <- start.(b) + 1
  done;
  for b = 1 to buckets do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let next = Array.sub start 0 buckets and order = Array.make count 0 in
  for i = 0 to count - 1 do
    let b = bucket keys.(i) in
    order.(next.(b)) <- i;
    next.(b) <- next.(b) + 1
  done;
  let column c = Array.map (fun i -> c.(i)) order in
  {
    sm_module = modul;
    sm_keys = column keys;
    sm_free = column free;
    sm_save = column save;
    sm_buckets = start;
    sm_pattern = (fun j -> row order.(j));
  }

let of_patterns ~modul patterns =
  let rows = Array.of_list patterns in
  let column f = Array.map f rows in
  of_columns ~modul ~count:(Array.length rows)
    ~keys:(column (fun p -> p.ps_key))
    ~free:(column (fun p -> p.ps_n_free))
    ~save:(column (fun p -> p.ps_n_save))
    (Array.get rows)

let of_candidates ~modul triples =
  of_patterns ~modul
    (List.map
       (fun (key, hash, (c : Candidate.t)) ->
         let count call =
           List.length
             (List.filter (fun (s : Candidate.site) -> s.call = call) c.sites)
         in
         {
           ps_key = key;
           ps_hash = Lazy.from_val hash;
           ps_rep =
             (match c.sites with
             | s :: _ -> (s.block_id, s.start)
             | [] -> (0, 0));
           ps_length = c.length;
           ps_shape = Candidate.shape_of c;
           ps_n_free = count Candidate.Call_free;
           ps_n_save = count Candidate.Call_save_lr;
         })
       triples)

(* --- the global decision round ------------------------------------------ *)

type decision = {
  dc_key : int;
  dc_hash : int64;
  dc_name : string;
  dc_host : string;
  dc_benefit : int;
  dc_rank : int;
  dc_sp_unsafe : bool;
}

type survivor = {
  sv_shard : int;
  sv_pattern : pattern;
  sv_benefit : int;
  sv_host : string;
}

(* The join runs over every pattern of every shard, nearly all of them
   seen once, so it reads the key and count columns only, one bucket at a
   time so that its tables stay in cache: [index] numbers the bucket's
   keys [d] in first-appearance order, [counts.(d)] packs the summed free
   and save-LR site counts, and [where.(d)] the first contributor (its
   shard index and row; shards arrive in order) and the host (the
   contributing shard whose module name is least).  A row is
   materialized only for a key with at least two global sites. *)
let join summaries =
  let sums = Array.of_list summaries in
  let by_name = Array.init (Array.length sums) Fun.id in
  Array.stable_sort
    (fun a b -> String.compare sums.(a).sm_module sums.(b).sm_module)
    by_name;
  let name_rank = Array.make (Array.length sums) 0 in
  Array.iteri (fun r si -> name_rank.(si) <- r) by_name;
  let width b =
    Array.fold_left
      (fun a s -> a + s.sm_buckets.(b + 1) - s.sm_buckets.(b))
      0 sums
  in
  let widest = List.fold_left max 0 (List.init buckets width) in
  let index = Index.create widest in
  let counts = Array.make widest 0 and where = Array.make widest 0 in
  let first d = where.(d) lsr 47 and row d = where.(d) land 0xffffffff in
  let host d = (where.(d) lsr 32) land 0x7fff in
  let survivors = ref [] in
  for b = 0 to buckets - 1 do
    Index.clear index;
    Array.iteri
      (fun si s ->
        for i = s.sm_buckets.(b) to s.sm_buckets.(b + 1) - 1 do
          let fresh = Index.size index in
          let d = Index.add index s.sm_keys.(i) in
          let count = (s.sm_free.(i) lsl 31) + s.sm_save.(i) in
          if d = fresh then begin
            where.(d) <- (si lsl 47) lor (si lsl 32) lor i;
            counts.(d) <- count
          end
          else begin
            if name_rank.(si) < name_rank.(host d) then
              where.(d) <- (first d lsl 47) lor (si lsl 32) lor row d;
            counts.(d) <- counts.(d) + count
          end
        done)
      sums;
    for d = Index.size index - 1 downto 0 do
      let free = counts.(d) lsr 31 and save = counts.(d) land 0x7fffffff in
      if free + save >= 2 then begin
        let p = sums.(first d).sm_pattern (row d) in
        let benefit =
          Cost_model.benefit_of_counts
            (Candidate.shape_strategy p.ps_shape)
            ~needs_lr_frame:(Candidate.shape_needs_lr_frame p.ps_shape)
            ~pattern_len:p.ps_length
            ~n_free:free ~n_save:save
        in
        if benefit >= 1 then
          survivors :=
            {
              sv_shard = first d;
              sv_pattern = p;
              sv_benefit = benefit;
              sv_host = sums.(host d).sm_module;
            }
            :: !survivors
      end
    done
  done;
  !survivors

let order survivors =
  let ranked =
    Array.of_list
      (List.map (fun sv -> (Lazy.force sv.sv_pattern.ps_hash, sv)) survivors)
  in
  Array.stable_sort
    (fun (h1, sv1) (h2, sv2) ->
      match Int.compare sv2.sv_benefit sv1.sv_benefit with
      | 0 -> Int64.unsigned_compare h1 h2
      | c -> c)
    ranked;
  ranked

let decide ~round summaries =
  let prefix = "OUTLINED_THIN_" ^ string_of_int round ^ "_" in
  Array.to_list
    (Array.mapi
       (fun rank (hash, sv) ->
         let p = sv.sv_pattern in
         {
           dc_key = p.ps_key;
           dc_hash = hash;
           dc_name = prefix ^ string_of_int rank;
           dc_host = sv.sv_host;
           dc_benefit = sv.sv_benefit;
           dc_rank = rank;
           dc_sp_unsafe =
             Candidate.shape_touches_sp p.ps_shape
             || Candidate.shape_needs_lr_frame p.ps_shape;
         })
       (order (join summaries)))
