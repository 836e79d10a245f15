open Machine

type strategy = [ `Order_file | `C3 | `Balanced | `Bp_compress of float ]

let strategy_name = function
  | `Order_file -> "order-file"
  | `C3 -> "c3"
  | `Balanced -> "balanced"
  | `Bp_compress w -> Printf.sprintf "bp-compress(w=%g)" w

let name_of (f : Mfunc.t) = f.Mfunc.name

(* Hot = first-touched during the profiled runs (a function can only start
   executing at its entry, so touched and executed coincide).  Cold
   functions go to the image tail in program order — the hot/cold split
   every strategy shares. *)
let split_hot_cold (profile : Profile.t) (p : Program.t) =
  let hot_set = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace hot_set f ()) profile.Profile.first_touch;
  List.partition (fun (f : Mfunc.t) -> Hashtbl.mem hot_set f.name) p.funcs

let touch_rank (profile : Profile.t) =
  let rank = Hashtbl.create 256 in
  List.iteri
    (fun i f -> if not (Hashtbl.mem rank f) then Hashtbl.replace rank f i)
    profile.Profile.first_touch;
  rank

(* --- startup order file ---------------------------------------------------- *)

let order_file (profile : Profile.t) (p : Program.t) =
  let by_name = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace by_name (name_of f) ()) p.funcs;
  let placed = Hashtbl.create 256 in
  let startup =
    List.filter
      (fun f ->
        if Hashtbl.mem by_name f && not (Hashtbl.mem placed f) then begin
          Hashtbl.replace placed f ();
          true
        end
        else false)
      profile.Profile.first_touch
  in
  let rest =
    List.filter_map
      (fun f -> if Hashtbl.mem placed (name_of f) then None else Some (name_of f))
      p.funcs
  in
  startup @ rest

(* --- C3-style call-chain clustering ---------------------------------------- *)

(* Coalesce the dynamic call graph into page-bounded chains: process edges
   by decreasing weight, appending the callee's cluster after the caller's
   when both fit in one cluster AND the edge carries at least half of the
   callee's incoming dynamic weight; then emit clusters in startup order
   (the minimum first-touch rank of any member).  The dominance condition
   is what saves shared outlined helpers from the caller-affinity fate:
   a helper every span calls has no dominant caller, stays unmerged, and
   is placed densely by first-touch rank instead of being dragged into
   one arbitrary caller's chain far from the others. *)
(* One 16 KiB page. *)
let max_cluster_bytes = 16 * 1024

let c3 (profile : Profile.t) (p : Program.t) =
  let hot, cold = split_hot_cold profile p in
  let hot = Array.of_list hot in
  let n = Array.length hot in
  let idx_of = Hashtbl.create n in
  Array.iteri (fun i f -> Hashtbl.replace idx_of (name_of f) i) hot;
  let cluster_of = Array.init n (fun i -> i) in
  let members = Array.init n (fun i -> [ i ]) in
  let csize = Array.init n (fun i -> Mfunc.size_bytes hot.(i)) in
  let edges =
    List.filter_map
      (fun (((u, v) as key), w) ->
        match (Hashtbl.find_opt idx_of u, Hashtbl.find_opt idx_of v) with
        | Some ui, Some vi when ui <> vi -> Some (key, w, ui, vi)
        | _ -> None)
      profile.Profile.edges
    |> List.sort (fun ((u1, v1), w1, _, _) ((u2, v2), w2, _, _) ->
           match Int.compare w2 w1 with
           | 0 -> (
             match String.compare u1 u2 with
             | 0 -> String.compare v1 v2
             | c -> c)
           | c -> c)
  in
  let in_weight = Hashtbl.create n in
  List.iter
    (fun ((_, v), w) ->
      Hashtbl.replace in_weight v
        (w + Option.value ~default:0 (Hashtbl.find_opt in_weight v)))
    profile.Profile.edges;
  List.iter
    (fun ((_, v), w, ui, vi) ->
      let cu = cluster_of.(ui) and cv = cluster_of.(vi) in
      let total_in = Option.value ~default:0 (Hashtbl.find_opt in_weight v) in
      if
        cu <> cv
        && 2 * w >= total_in
        && csize.(cu) + csize.(cv) <= max_cluster_bytes
      then begin
        members.(cu) <- members.(cu) @ members.(cv);
        List.iter (fun m -> cluster_of.(m) <- cu) members.(cv);
        csize.(cu) <- csize.(cu) + csize.(cv);
        members.(cv) <- []
      end)
    edges;
  let rank = touch_rank profile in
  let rank_of i =
    Option.value ~default:max_int (Hashtbl.find_opt rank (name_of hot.(i)))
  in
  let clusters =
    Array.to_list members
    |> List.filter (fun ms -> ms <> [])
    |> List.map (fun ms -> (List.fold_left (fun a m -> min a (rank_of m)) max_int ms, ms))
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.concat_map (fun (_, ms) -> List.map (fun i -> name_of hot.(i)) ms) clusters
  @ List.map name_of cold

(* --- recursive-bisection balanced partitioning ----------------------------- *)

(* Local-search passes per bisection, and the leaf size explained below. *)
let passes = 10
let leaf_bytes = 4096

(* The BP algorithm over utility sets: each hot function is a "document"
   whose utilities are its dynamic call-graph neighbours; recursively
   bisect the current order, locally swapping equal-sized batches between
   the halves to minimize the log-gap cost, so functions sharing utilities
   (e.g. the same callers) converge to the same half — and finally the
   same page.  Recursion stops once a half fits in [leaf_bytes] (4 KiB, a
   quarter of an iOS page): below a few KiB the fully-associative iTLB no
   longer distinguishes orders, so BP's objective is pure noise
   there, while keeping the initial first-touch order inside each leaf is
   exactly what the icache wants (sequential startup streaming). *)
(* The shared core, parameterized on the compression weight [w] of the
   bp-compress objective.  Each hot function is a document whose weighted
   utilities are its dynamic call-graph neighbours (weight 1-w) plus, when
   w > 0, its content shingles (weight w, FNV k-grams from
   lib/content): the BP paper's extension, where co-locating functions
   that share instruction subsequences puts their redundancy inside the
   compressor's window.  At w = 0 the shingle utilities are not built at
   all and every locality weight is exactly 1.0, so the arithmetic — and
   therefore the order — is bit-identical to the original balanced
   partitioner; the w=0 degeneration test holds this. *)
let balanced_core ~content_weight (profile : Profile.t) (p : Program.t) =
  let hot, cold = split_hot_cold profile p in
  let hot_bytes =
    List.fold_left (fun a f -> a + Mfunc.size_bytes f) 0 hot
  in
  let max_depth =
    let rec depth_for bytes acc =
      if bytes <= leaf_bytes then acc else depth_for (bytes / 2) (acc + 1)
    in
    depth_for hot_bytes 0
  in
  let rank = touch_rank profile in
  let hot =
    List.sort
      (fun a b ->
        Int.compare
          (Option.value ~default:max_int (Hashtbl.find_opt rank (name_of a)))
          (Option.value ~default:max_int (Hashtbl.find_opt rank (name_of b))))
      hot
  in
  let ord = Array.of_list (List.map name_of hot) in
  let n = Array.length ord in
  (* Utility ids: undirected neighbours in the dynamic call graph, plus
     the function itself so isolated functions still carry a signature. *)
  let uid_tbl = Hashtbl.create 256 in
  let next_uid = ref 0 in
  let uid s =
    match Hashtbl.find_opt uid_tbl s with
    | Some i -> i
    | None ->
      let i = !next_uid in
      incr next_uid;
      Hashtbl.replace uid_tbl s i;
      i
  in
  let neighbours = Hashtbl.create 256 in
  let add_n a b =
    let prev = Option.value ~default:[] (Hashtbl.find_opt neighbours a) in
    if not (List.mem b prev) then Hashtbl.replace neighbours a (b :: prev)
  in
  List.iter
    (fun ((u, v), _) ->
      add_n u v;
      add_n v u)
    profile.Profile.edges;
  let locality_weight = 1.0 -. content_weight in
  let shingle_uids =
    if content_weight <= 0.0 then fun _ -> []
    else begin
      let by_name = Hashtbl.create n in
      List.iter (fun f -> Hashtbl.replace by_name (name_of f) f) hot;
      let tbl = Hashtbl.create n in
      Array.iter
        (fun name ->
          match Hashtbl.find_opt by_name name with
          | None -> ()
          | Some f ->
            Hashtbl.replace tbl name
              (List.map
                 (fun h -> uid (Printf.sprintf "#%Lx" h))
                 (Content.shingles f)))
        ord;
      fun name -> Option.value ~default:[] (Hashtbl.find_opt tbl name)
    end
  in
  let utils_of = Hashtbl.create n in
  Array.iter
    (fun f ->
      let ns = Option.value ~default:[] (Hashtbl.find_opt neighbours f) in
      let locality =
        if locality_weight <= 0.0 then []
        else
          List.map
            (fun u -> (u, locality_weight))
            (List.sort_uniq Int.compare (uid f :: List.map uid ns))
      in
      let content =
        List.map (fun u -> (u, content_weight)) (shingle_uids f)
      in
      Hashtbl.replace utils_of f (locality @ content))
    ord;
  let utils f = Option.value ~default:[] (Hashtbl.find_opt utils_of f) in
  let log2 x = log x /. log 2. in
  let bits x half = float_of_int x *. log2 (float_of_int (half + 1) /. (float_of_int x +. 1.)) in
  let rec bisect lo hi depth =
    let len = hi - lo in
    if len > 2 && depth > 0 then begin
      let mid = lo + (len / 2) in
      let n_l = mid - lo and n_r = hi - mid in
      let continue_ = ref true in
      let pass = ref 0 in
      while !continue_ && !pass < passes do
        incr pass;
        let deg_l = Hashtbl.create 64 and deg_r = Hashtbl.create 64 in
        let bump tbl (u, _w) =
          Hashtbl.replace tbl u (1 + Option.value ~default:0 (Hashtbl.find_opt tbl u))
        in
        for i = lo to mid - 1 do
          List.iter (bump deg_l) (utils ord.(i))
        done;
        for i = mid to hi - 1 do
          List.iter (bump deg_r) (utils ord.(i))
        done;
        let deg tbl u = Option.value ~default:0 (Hashtbl.find_opt tbl u) in
        let move_gain ~from_left f =
          List.fold_left
            (fun acc (u, w) ->
              let l = deg deg_l u and r = deg deg_r u in
              let before = bits l n_l +. bits r n_r in
              let after =
                if from_left then bits (l - 1) n_l +. bits (r + 1) n_r
                else bits (l + 1) n_l +. bits (r - 1) n_r
              in
              acc +. (w *. (before -. after)))
            0. (utils f)
        in
        let by_gain idxs from_left =
          List.map (fun i -> (move_gain ~from_left ord.(i), i)) idxs
          |> List.sort (fun (ga, ia) (gb, ib) ->
                 match Float.compare gb ga with
                 | 0 -> String.compare ord.(ia) ord.(ib)
                 | c -> c)
        in
        let left = by_gain (List.init n_l (fun i -> lo + i)) true in
        let right = by_gain (List.init n_r (fun i -> mid + i)) false in
        let rec swap_pairs ls rs swapped =
          match (ls, rs) with
          | (gl, il) :: ls', (gr, ir) :: rs' when gl +. gr > 1e-9 ->
            let tmp = ord.(il) in
            ord.(il) <- ord.(ir);
            ord.(ir) <- tmp;
            swap_pairs ls' rs' true
          | _ -> swapped
        in
        continue_ := swap_pairs left right false
      done;
      bisect lo mid (depth - 1);
      bisect mid hi (depth - 1)
    end
  in
  bisect 0 n max_depth;
  Array.to_list ord @ List.map name_of cold

let balanced profile p = balanced_core ~content_weight:0.0 profile p

let default_w = 0.5

let bp_compress ?(w = default_w) profile p =
  let w = Float.max 0.0 (Float.min 1.0 w) in
  balanced_core ~content_weight:w profile p

let compute (s : strategy) profile p =
  match s with
  | `Order_file -> order_file profile p
  | `C3 -> c3 profile p
  | `Balanced -> balanced profile p
  | `Bp_compress w -> bp_compress ~w profile p
