open Machine
open Outcore

module Report = struct
  type shard = {
    rs_module : string;
    rs_funcs : int;
    rs_blocks : int;
    rs_reused : int;
    rs_discover : float;
    rs_refine : float;
    rs_rewrite : float;
  }

  type round = {
    rr_round : int;
    rr_shards : shard list;
    rr_decide : float;
    rr_selected : int;
  }

  type t = { mutable rev_rounds : round list }

  let create () = { rev_rounds = [] }
  let rounds t = List.rev t.rev_rounds
  let add t r = t.rev_rounds <- r :: t.rev_rounds
end

(* Shards in first-appearance order of [from_module], functions in program
   order within each shard — a pure function of the program, so every
   worker count sees the same shard array. *)
let shard_by_module (p : Program.t) =
  let tbl : (string, Mfunc.t list ref) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (f : Mfunc.t) ->
      match Hashtbl.find_opt tbl f.from_module with
      | Some cell -> cell := f :: !cell
      | None ->
        let cell = ref [ f ] in
        Hashtbl.replace tbl f.from_module cell;
        order := (f.from_module, cell) :: !order)
    p.funcs;
  List.rev !order
  |> List.map (fun (m, cell) -> (m, List.rev !cell))
  |> Array.of_list

(* Window keying is exhaustive up to this pattern length (symbols,
   counting a trailing [ret]); longer patterns rely on per-shard suffix
   trees plus the post-ranking probe. *)
let window_scan_max = 32

(* One shard's keyed windows, grouped by pattern, kept for the refine
   pass.  Phase 1 appends every entry — a keyed window, or one site of a
   long candidate — in scan order, moves them into key buckets with a
   stable counting sort, and numbers the patterns bucket by bucket in
   first-sight order: each bucket's table stays in cache, and the columns
   come out in the summary's order.  Per pattern [d]: [keys], [meta]
   (length, strategy, LR-frame and SP bits), [rep] (its first entry),
   site counts, and [head], its newest window, linked by [next] to the
   previous one ([-1] ends).  Flat int arrays: a shard holds hundreds of
   thousands of patterns, most seen once, and per-pattern records would
   dominate the build in GC work.  A slot is written before it is read,
   so the next round's scan of the same module reuses the arrays. *)
type scan = {
  sc_windows : Outliner.windows;
  sc_buckets : int array;  (** pattern bucket starts, as [Summary.t]'s *)
  sc_keys : int array;
  sc_meta : int array;
  sc_rep : int array;
  sc_free : int array;
  sc_save : int array;
  sc_head : int array;
  sc_key : int array;  (** entry keys and entries, in scan order ... *)
  sc_entry : int array;
  sc_bkey : int array;  (** ... and in bucket order *)
  sc_bentry : int array;
  sc_next : int array;
  sc_long : (int, Candidate.t list) Hashtbl.t;  (** newest first *)
}

type shard_state = {
  ss_memo : Outliner.scan_row Outliner.memo;
  mutable ss_scan : scan option;  (** the last round's *)
}

type state = {
  facts : (string, unit) Hashtbl.t;
  shards : (string, shard_state) Hashtbl.t;  (** by module *)
  mutable workers : (Sufftree.Arena_tree.pool * Outliner.printer) array;
      (** one per discovery worker; content-addressed, so which worker
          scans which shard never matters *)
}

let create_state () =
  { facts = Hashtbl.create 16; shards = Hashtbl.create 16; workers = [||] }

let fact_sp_unsafe state name = Hashtbl.mem state.facts name

let fresh_scans state =
  { state with shards = Hashtbl.create 16; workers = [||] }

let fault_stale_shard_state = ref false

(* The module's entry.  Taken serially, before a parallel phase hands each
   shard its own. *)
let shard_state state modul =
  match Hashtbl.find_opt state.shards modul with
  | Some ss -> ss
  | None ->
    let ss =
      {
        ss_memo =
          Outliner.create_memo ~match_by_name:!fault_stale_shard_state ();
        ss_scan = None;
      }
    in
    Hashtbl.replace state.shards modul ss;
    ss

(* An entry: a long-site flag (bit 61), block (21 bits), pos (20), len
   (15), then the pattern's strategy, LR-frame and SP bits (4) and the
   site's call kind (1) — bits 1-19 are the pattern's [meta].  A long
   candidate's site carries the candidate's first site as its block and
   pos. *)
let pack ?(long = false) ~block ~pos ~len ~shape (call : Candidate.site_call)
    =
  assert (block < 0x200000 && pos < 0x100000 && len < 0x8000);
  (Bool.to_int long lsl 61) lor (block lsl 40) lor (pos lsl 20) lor (len lsl 5)
  lor (shape lsl 1)
  lor match call with Call_free -> 0 | Call_save_lr -> 1

let unpack e =
  ( (e lsr 40) land 0x1fffff,
    (e lsr 20) land 0xfffff,
    (e lsr 5) land 0x7fff,
    if e land 1 = 0 then Candidate.Call_free else Candidate.Call_save_lr )

let strategies =
  [| Candidate.Ends_with_ret; Candidate.Thunk; Candidate.Plain_call |]

let shape_bits (strategy : Candidate.strategy) ~needs_lr_frame ~touches_sp =
  let tag =
    match strategy with Ends_with_ret -> 0 | Thunk -> 1 | Plain_call -> 2
  in
  (tag lsl 2) lor (Bool.to_int needs_lr_frame lsl 1) lor Bool.to_int touches_sp

(* Phase 1 for one shard: key every window up to [window_scan_max], then
   add the suffix tree's longer repeats, each site counted under the key
   of the candidate's first site.  Every window is keyed once, into the
   last round's arrays when they are large enough for the scanner's
   bound. *)
let discover ?pool ?printer ?reuse ~state ~memo ~(options : Outliner.options)
    shard_p =
  let extern_sp_unsafe = fact_sp_unsafe state in
  let w = Outliner.windows ~options ~extern_sp_unsafe ~memo ?printer shard_p in
  let lengths =
    List.init
      (max 0 (window_scan_max - options.min_length + 1))
      (fun i -> options.min_length + i)
  in
  let long =
    Outliner.enumerate
      ~min_length:(max options.min_length (window_scan_max + 1))
      ~options ~all:true ~extern_sp_unsafe ?pool shard_p
  in
  let room =
    List.fold_left
      (fun n (c : Candidate.t) -> n + List.length c.sites)
      (Outliner.window_bound w ~lengths)
      long
  in
  let sc =
    match reuse with
    | Some prev when Array.length prev.sc_key >= room ->
      { prev with sc_windows = w; sc_long = Hashtbl.create 16 }
    | _ ->
      let col () = Array.make room 0 in
      {
        sc_windows = w;
        sc_buckets = Array.make (Summary.buckets + 1) 0;
        sc_keys = col ();
        sc_meta = col ();
        sc_rep = col ();
        sc_free = col ();
        sc_save = col ();
        sc_head = col ();
        sc_key = col ();
        sc_entry = col ();
        sc_bkey = col ();
        sc_bentry = col ();
        sc_next = col ();
        sc_long = Hashtbl.create 16;
      }
  in
  (* Append the entries, counting them per bucket. *)
  let count = Array.make (Summary.buckets + 1) 0 and n = ref 0 in
  let push key entry =
    sc.sc_key.(!n) <- key;
    sc.sc_entry.(!n) <- entry;
    incr n;
    let b = Summary.bucket key + 1 in
    count.(b) <- count.(b) + 1
  in
  Outliner.iter_windows w ~lengths
    (fun ~block ~pos ~len ~key ~call ~strategy ~needs_lr_frame ~touches_sp ->
      push (Summary.join_key key)
        (pack ~block ~pos ~len
           ~shape:(shape_bits strategy ~needs_lr_frame ~touches_sp)
           call));
  List.iter
    (fun (c : Candidate.t) ->
      let s = List.hd c.sites in
      let key =
        Summary.join_key
          (Outliner.window_key w ~block:s.block_id ~pos:s.start ~len:c.length)
      in
      let shape =
        shape_bits c.strategy ~needs_lr_frame:c.needs_lr_frame
          ~touches_sp:c.touches_sp
      in
      List.iter
        (fun (site : Candidate.site) ->
          push key
            (pack ~long:true ~block:s.block_id ~pos:s.start ~len:c.length
               ~shape site.call))
        c.sites;
      Hashtbl.replace sc.sc_long key
        (c :: Option.value ~default:[] (Hashtbl.find_opt sc.sc_long key)))
    long;
  (* The stable counting sort into buckets. *)
  let widest = ref 0 in
  for b = 1 to Summary.buckets do
    widest := max !widest count.(b);
    count.(b) <- count.(b) + count.(b - 1)
  done;
  let start = Array.copy count in
  for j = 0 to !n - 1 do
    let b = Summary.bucket sc.sc_key.(j) in
    let i = count.(b) in
    sc.sc_bkey.(i) <- sc.sc_key.(j);
    sc.sc_bentry.(i) <- sc.sc_entry.(j);
    count.(b) <- i + 1
  done;
  (* Number the patterns bucket by bucket. *)
  let index = Summary.Index.create !widest and np = ref 0 in
  for b = 0 to Summary.buckets - 1 do
    sc.sc_buckets.(b) <- !np;
    let base = !np in
    if start.(b + 1) > start.(b) then Summary.Index.clear index;
    for i = start.(b) to start.(b + 1) - 1 do
      let e = sc.sc_bentry.(i) in
      let d = base + Summary.Index.add index sc.sc_bkey.(i) in
      if d = !np then begin
        incr np;
        sc.sc_keys.(d) <- sc.sc_bkey.(i);
        sc.sc_meta.(d) <- (e lsr 1) land 0x7ffff;
        sc.sc_rep.(d) <- e;
        sc.sc_free.(d) <- 0;
        sc.sc_save.(d) <- 0;
        sc.sc_head.(d) <- -1
      end;
      if e land 1 = 1 then sc.sc_save.(d) <- sc.sc_save.(d) + 1
      else sc.sc_free.(d) <- sc.sc_free.(d) + 1;
      if e lsr 61 = 0 then begin
        sc.sc_next.(i) <- sc.sc_head.(d);
        sc.sc_head.(d) <- i
      end
    done
  done;
  sc.sc_buckets.(Summary.buckets) <- !np;
  sc

let patterns sc = sc.sc_buckets.(Summary.buckets)

(* The summary a scan sends: its key and count columns, and each row on
   demand, with the ranking hash of the row's representative. *)
let summary ~modul sc =
  let n = patterns sc in
  let row d =
    let meta = sc.sc_meta.(d) in
    let block, pos, _, _ = unpack sc.sc_rep.(d) in
    let length = meta lsr 4 and strategy = strategies.((meta lsr 2) land 3) in
    let needs_lr_frame = meta land 2 <> 0 in
    {
      Summary.ps_key = sc.sc_keys.(d);
      ps_hash =
        lazy
          (Summary.hash_rendered strategy ~needs_lr_frame ~length
             (Outliner.window_text sc.sc_windows ~block ~pos ~len:length));
      ps_rep = (block, pos);
      ps_length = length;
      ps_strategy = strategy;
      ps_needs_lr_frame = needs_lr_frame;
      ps_touches_sp = meta land 1 <> 0;
      ps_n_free = sc.sc_free.(d);
      ps_n_save = sc.sc_save.(d);
    }
  in
  {
    Summary.sm_module = modul;
    sm_keys = Array.sub sc.sc_keys 0 n;
    sm_free = Array.sub sc.sc_free 0 n;
    sm_save = Array.sub sc.sc_save 0 n;
    sm_buckets = Array.copy sc.sc_buckets;
    sm_pattern = row;
  }

let summarize ~state ~options ~modul p =
  summary ~modul
    (discover ~state ~memo:(shard_state state modul).ss_memo ~options p)

(* Phase 2's parallel step for one shard: walk the local patterns the
   provisional decision ranked, plus windows of ranked long patterns this
   shard holds only once, in global rank order, and claim sites greedily —
   each window's site on its own, in block and position order, then each
   long candidate's sites together.  A pattern keeps the candidate of its
   first surviving window or long candidate, carrying every surviving
   site; it is built only then.  [per_window] instead builds every
   window's single-site candidate and claims its site, the reference the
   packed claim must match. *)
let refine ?(per_window = false)
    ~prov:(ranks, (prov : (int64 * Summary.survivor) array), long) ~modul
    shard_p sc =
  let w = sc.sc_windows in
  let local key =
    let b = Summary.bucket key in
    let rec scan d = d < sc.sc_buckets.(b + 1) && (sc.sc_keys.(d) = key || scan (d + 1)) in
    scan sc.sc_buckets.(b)
  in
  let missing_lengths =
    List.filter_map
      (fun (key, len) -> if local key then None else Some len)
      long
  in
  let ranked key = Summary.Index.find ranks key in
  let probed = Hashtbl.create 16 in
  if missing_lengths <> [] then
    Outliner.iter_windows w ~lengths:missing_lengths
      (fun ~block ~pos ~len ~key ~call ~strategy:_ ~needs_lr_frame:_
           ~touches_sp:_ ->
        let key = Summary.join_key key in
        if ranked key >= 0 && not (local key) then
          Hashtbl.replace probed key
            (pack ~block ~pos ~len ~shape:0 call
            :: Option.value ~default:[] (Hashtbl.find_opt probed key)));
  (* (rank, key, packed windows oldest first) *)
  let entries =
    ref
      (Hashtbl.fold
         (fun key wins acc -> (ranked key, key, List.rev wins) :: acc)
         probed [])
  in
  for d = patterns sc - 1 downto 0 do
    let key = sc.sc_keys.(d) in
    if ranked key >= 0 then begin
      let rec oldest_first i acc =
        if i < 0 then acc
        else oldest_first sc.sc_next.(i) (sc.sc_bentry.(i) :: acc)
      in
      entries := (ranked key, key, oldest_first sc.sc_head.(d) []) :: !entries
    end
  done;
  let site_free, site_take = Outliner.make_occupancy shard_p in
  let claim s = site_free s && (site_take s; true) in
  let window_site packed =
    let block, pos, len, call = unpack packed in
    if per_window then
      match Outliner.window_candidate w ~block ~pos ~len with
      | Some { sites = [ s ]; _ } -> s
      | _ -> invalid_arg "Engine.refine: a keyed window is no candidate"
    else Outliner.window_site w ~block ~pos ~len call
  in
  let retained =
    List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !entries
    |> List.filter_map (fun (rank, key, wins) ->
           let sites =
             List.filter_map
               (fun packed ->
                 let s = window_site packed in
                 if claim s then Some s else None)
               wins
           in
           let longs =
             List.filter_map
               (fun (c : Candidate.t) ->
                 match List.filter site_free c.sites with
                 | [] -> None
                 | sites ->
                   List.iter site_take sites;
                   Some { c with sites })
               (List.rev
                  (Option.value ~default:[] (Hashtbl.find_opt sc.sc_long key)))
           in
           let first =
             match (sites, longs) with
             | (s : Candidate.site) :: _, _ ->
               Outliner.window_candidate w ~block:s.block_id ~pos:s.start
                 ~len:(s.len + Bool.to_int s.with_ret)
             | [], c :: _ -> Some c
             | [], [] -> None
           in
           Option.map
             (fun (c : Candidate.t) ->
               let sites =
                 sites @ List.concat_map (fun (c : Candidate.t) -> c.sites) longs
               in
               (key, fst prov.(rank), { c with sites }))
             first)
  in
  let table : (int, Candidate.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (key, _, c) -> Hashtbl.replace table key c) retained;
  (Summary.of_candidates ~modul retained, table)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Phases 1 and 2 up to the ranked site assignment, and their timings. *)
type exchange = {
  ex_shards : (string * Mfunc.t list) array;
  ex_discovered : ((scan * Summary.t) * float) array;
  ex_hash_s : float array;
  ex_refined : ((Summary.t * (int, Candidate.t) Hashtbl.t) * float) array;
  ex_decide_s : float;  (** the join and the ranking sort *)
}

let exchange ?per_window ~workers ~state ~(options : Outliner.options)
    (p : Program.t) =
  let shards = shard_by_module p in
  let states = Array.map (fun (modul, _) -> shard_state state modul) shards in
  (* Phase 1: parallel discovery.  Each worker takes one arena pool and
     instruction printer from the state, reused across every shard it
     claims in every round; the window lists and the scanner stay in the
     per-shard result slot and only the summary crosses into the decision
     round.

     Discovery is window-complete up to [window_scan_max]: every legal
     instruction window of those lengths is keyed, so a pattern a shard
     contains only {e once} still reaches the decision round and can join
     counts with the other shards (the class a per-shard suffix tree is
     structurally blind to).  Beyond the cap the suffix tree takes over,
     so long patterns are still caught whenever they repeat within at
     least one shard — the one remaining optimistic loss. *)
  if Array.length state.workers < max 1 workers then
    state.workers <-
      Array.init (max 1 workers) (fun _ ->
          (Sufftree.Arena_tree.create_pool (), Outliner.create_printer ()));
  let next_worker = Atomic.make 0 in
  let discovered =
    Pool.map_init ~workers
      ~init:(fun () -> state.workers.(Atomic.fetch_and_add next_worker 1))
      ~f:(fun (pool, printer) i ->
        let modul, funcs = shards.(i) in
        timed (fun () ->
            let sc =
              discover ~pool ~printer ?reuse:states.(i).ss_scan ~state
                ~memo:states.(i).ss_memo ~options
                (Program.replace_funcs p funcs)
            in
            states.(i).ss_scan <- Some sc;
            (sc, summary ~modul sc)))
      (Array.init (Array.length shards) Fun.id)
  in
  (* Phase 2 is the summary exchange: serial decision work (the joins and
     the ranking sort) interleaved with two parallel steps (the ranking
     hashes and the ranked site assignment).  Raw per-shard counts
     double-count
     nested repeats (a length-10 repeat carries length-9, length-8, ...
     windows over the same instructions), exactly like the site lists the
     serial selector scores before its greedy occupancy pass — so the
     first decision over summed raw counts reproduces the serial ranking,
     and a second, ranked local site-assignment pass makes every reported
     count disjoint.  The final decision over those disjoint counts is
     then exactly realizable: phase 3 never loses a selected site to
     overlap (in honest runs — fault-injected key collisions can, which
     the occupancy guard in [apply_assignments] tolerates and the fuzz
     differentials catch). *)
  let survivors, join_s =
    timed (fun () ->
        Summary.join
          (Array.to_list
             (Array.map (fun ((_, summary), _) -> summary) discovered)))
  in
  (* Only the shard that contributed a survivor first holds its body: it
     computes the survivor's ranking hash, in parallel with the others. *)
  let requests = Array.make (Array.length shards) [] in
  List.iter
    (fun (sv : Summary.survivor) ->
      requests.(sv.sv_shard) <- sv.sv_pattern :: requests.(sv.sv_shard))
    survivors;
  let hash_s =
    Pool.map ~workers
      (fun ps ->
        snd
          (timed (fun () ->
               List.iter
                 (fun (p : Summary.pattern) -> ignore (Lazy.force p.ps_hash))
                 ps)))
      requests
  in
  let provisional, rank_s =
    timed (fun () ->
        let ranked = Summary.order survivors in
        (* Survivors have distinct keys, so a key's id in [ranks] is its
           rank. *)
        let ranks = Summary.Index.create (Array.length ranked) in
        Array.iter
          (fun (_, (sv : Summary.survivor)) ->
            ignore (Summary.Index.add ranks sv.sv_pattern.ps_key))
          ranked;
        (* Windows up to the scan cap were keyed exhaustively in phase 1,
           so a shard can miss a ranked key of such a length only if it
           really lacks it: just the longer patterns are worth probing
           for. *)
        let long =
          Array.fold_left
            (fun acc (_, (sv : Summary.survivor)) ->
              let p = sv.sv_pattern in
              if p.ps_length > window_scan_max then
                (p.ps_key, p.ps_length) :: acc
              else acc)
            [] ranked
        in
        (ranks, ranked, long))
  in
  (* Ranked local site assignment: each shard walks the provisional table
     in global rank order and greedily claims disjoint sites; windows the
     provisional round rejected claim nothing (the serial selector's
     profitability filter).  [provisional] is read-only here, so sharing
     it across domains is safe. *)
  let refined =
    Pool.map ~workers
      (fun i ->
        let modul, funcs = shards.(i) in
        timed (fun () ->
            refine ?per_window ~prov:provisional ~modul
              (Program.replace_funcs p funcs)
              (fst (fst discovered.(i)))))
      (Array.init (Array.length shards) Fun.id)
  in
  {
    ex_shards = shards;
    ex_discovered = discovered;
    ex_hash_s = hash_s;
    ex_refined = refined;
    ex_decide_s = join_s +. rank_s;
  }

let retained ?per_window ~workers ~options p =
  Array.map
    (fun ((_, table), _) -> table)
    (exchange ?per_window ~workers ~state:(create_state ()) ~options p)
      .ex_refined

let run_round ?report ~workers ~state ~(options : Outliner.options)
    (p : Program.t) =
  let { ex_shards = shards; ex_discovered = discovered; ex_hash_s = hash_s;
        ex_refined = refined; ex_decide_s } =
    exchange ~workers ~state ~options p
  in
  (* The final, exact decision over disjoint counts. *)
  let decisions, final_s =
    timed (fun () ->
        Summary.decide ~round:options.round
          (Array.to_list (Array.map (fun ((s, _), _) -> s) refined)))
  in
  List.iter
    (fun (d : Summary.decision) ->
      if d.dc_sp_unsafe then Hashtbl.replace state.facts d.dc_name ())
    decisions;
  (* Phase 3: parallel rewrite against the decision table. *)
  let jobs =
    Array.mapi
      (fun i (modul, funcs) ->
        let (_, retained), _ = refined.(i) in
        (modul, funcs, retained))
      shards
  in
  let rewritten =
    if decisions = [] then
      Array.map
        (fun (_, funcs, _) ->
          ((funcs, ([] : (int * Mfunc.t) list), Outliner.no_stats), 0.))
        jobs
    else
      Pool.map ~workers
        (fun (modul, funcs, retained) ->
          timed (fun () ->
              let asgs =
                List.filter_map
                  (fun (d : Summary.decision) ->
                    match Hashtbl.find_opt retained d.dc_key with
                    | None -> None
                    | Some c ->
                      Some
                        {
                          Outliner.asg_cand = c;
                          asg_name = d.dc_name;
                          asg_rank = d.dc_rank;
                          asg_host =
                            (if d.dc_host = modul then Some modul else None);
                        })
                  decisions
              in
              if asgs = [] then (funcs, [], Outliner.no_stats)
              else begin
                let shard_p', hosted, stats =
                  Outliner.apply_assignments
                    (Program.replace_funcs p funcs)
                    asgs
                in
                (shard_p'.Program.funcs, hosted, stats)
              end))
        jobs
  in
  (match report with
  | None -> ()
  | Some rep ->
    let shard_reports =
      Array.to_list
        (Array.mapi
           (fun i (modul, funcs) ->
             let discover_s = snd discovered.(i) +. hash_s.(i) in
             let refine_s = snd refined.(i) in
             let reused, blocks =
               Outliner.reuse (fst (fst discovered.(i))).sc_windows
             in
             {
               Report.rs_module = modul;
               rs_funcs = List.length funcs;
               rs_blocks = blocks;
               rs_reused = reused;
               rs_discover = discover_s +. refine_s;
               rs_refine = refine_s;
               rs_rewrite = snd rewritten.(i);
             })
           shards)
    in
    Report.add rep
      {
        Report.rr_round = options.round;
        rr_shards = shard_reports;
        rr_decide = ex_decide_s +. final_s;
        rr_selected = List.length decisions;
      });
  let stats =
    Array.fold_left
      (fun acc ((_, _, s), _) -> Outliner.add_stats acc s)
      Outliner.no_stats rewritten
  in
  if stats.Outliner.sequences_outlined = 0 then (p, stats)
  else begin
    let funcs' =
      List.concat_map
        (fun ((funcs, _, _), _) -> funcs)
        (Array.to_list rewritten)
    in
    let hosted =
      List.concat_map (fun ((_, hosted, _), _) -> hosted)
        (Array.to_list rewritten)
      |> List.sort (fun (r1, _) (r2, _) -> Int.compare r1 r2)
      |> List.map snd
    in
    (Program.replace_funcs p (funcs' @ hosted), stats)
  end
