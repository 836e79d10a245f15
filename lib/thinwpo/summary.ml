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
let strategy_tag = function
  | Candidate.Ends_with_ret -> 1
  | Candidate.Thunk -> 2
  | Candidate.Plain_call -> 3

(* FNV-1a over four header bytes, then each printed instruction and a 0
   byte, with no call between bytes: the running hash stays unboxed. *)
let hash_rendered shape ~length texts ~pos ~len =
  let prime = Content.fnv_prime and h = ref Content.fnv_offset in
  let header =
    strategy_tag (Candidate.shape_strategy shape)
    lor (Bool.to_int (Candidate.shape_needs_lr_frame shape) lsl 8)
    lor ((length land 0xffff) lsl 16)
  in
  for k = 0 to 3 do
    let b = (header lsr (8 * k)) land 0xff in
    h := Int64.mul (Int64.logxor !h (Int64.of_int b)) prime
  done;
  for i = pos to pos + len - 1 do
    let s = texts.(i) in
    for j = 0 to String.length s - 1 do
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[j]))) prime
    done;
    h := Int64.mul !h prime
  done;
  !h

let hash_candidate (c : Candidate.t) =
  let texts = Array.of_list (List.map Machine.Insn.to_string c.insns) in
  hash_rendered (Candidate.shape_of c) ~length:c.length texts ~pos:0
    ~len:(Array.length texts)

(* --- building summaries -------------------------------------------------- *)

let buckets = 256
let bucket key = (key lsr 55) land (buckets - 1)

(* Rows in bucket order, stably; the columns read off them. *)
let of_patterns ~modul patterns =
  let rows = Array.of_list patterns in
  Array.stable_sort
    (fun p q -> Int.compare (bucket p.ps_key) (bucket q.ps_key))
    rows;
  let start = Array.make (buckets + 1) 0 in
  Array.iter
    (fun p ->
      let b = bucket p.ps_key + 1 in
      start.(b) <- start.(b) + 1)
    rows;
  for b = 1 to buckets do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let column f = Array.map f rows in
  {
    sm_module = modul;
    sm_keys = column (fun p -> p.ps_key);
    sm_free = column (fun p -> p.ps_n_free);
    sm_save = column (fun p -> p.ps_n_save);
    sm_buckets = start;
    sm_pattern = Array.get rows;
  }

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
