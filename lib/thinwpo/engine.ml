open Machine
open Outcore

type facts = (string, unit) Hashtbl.t

let create_facts () : facts = Hashtbl.create 16
let fact_sp_unsafe (facts : facts) name = Hashtbl.mem facts name

module Report = struct
  type shard = {
    rs_module : string;
    rs_funcs : int;
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

(* One shard's keyed windows, grouped by key, kept for the refine pass.
   Patterns get dense ids [d] in first-sight order; per pattern,
   [meta.(d)] packs the length, strategy, LR-frame and SP bits, [rep.(d)]
   the (block, pos) of its first window or long site, and [head.(d)] its
   newest window.  Windows are packed (block, pos, len) in [wins], each
   linked by [next] to the previous window of its pattern.  Flat int
   arrays: a shard holds hundreds of thousands of patterns, most seen
   once, and per-pattern records would dominate the build in GC work. *)
type scan = {
  sc_windows : Outliner.windows;
  sc_index : Summary.Index.t;
  sc_keys : int array;
  sc_meta : int array;
  sc_rep : int array;
  sc_free : int array;
  sc_save : int array;
  sc_head : int array;
  sc_wins : int array;
  sc_next : int array;
  mutable sc_nwins : int;
  sc_long : (int, Candidate.t list) Hashtbl.t;  (** newest first *)
}

(* Phase 1 windows are at most [window_scan_max] long. *)
let pack ~block ~pos ~len = (block lsl 32) lor (pos lsl 8) lor len
let unpack w = (w lsr 32, (w lsr 8) land 0xffffff, w land 0xff)

let strategies =
  [| Candidate.Ends_with_ret; Candidate.Thunk; Candidate.Plain_call |]

let add sc key ~block ~pos ~len ~(strategy : Candidate.strategy)
    ~needs_lr_frame ~touches_sp (call : Candidate.site_call) =
  let fresh = Summary.Index.size sc.sc_index in
  let d = Summary.Index.add sc.sc_index key in
  if d = fresh then begin
    let tag =
      match strategy with Ends_with_ret -> 0 | Thunk -> 1 | Plain_call -> 2
    in
    sc.sc_keys.(d) <- key;
    sc.sc_meta.(d) <-
      (len lsl 4) lor (tag lsl 2)
      lor (Bool.to_int needs_lr_frame lsl 1)
      lor Bool.to_int touches_sp;
    sc.sc_rep.(d) <- (block lsl 32) lor pos;
    sc.sc_head.(d) <- -1
  end;
  (match call with
  | Call_free -> sc.sc_free.(d) <- sc.sc_free.(d) + 1
  | Call_save_lr -> sc.sc_save.(d) <- sc.sc_save.(d) + 1);
  d

(* Phase 1 for one shard: key every window up to [window_scan_max], then
   fold in the suffix tree's longer repeats, each counted under the key of
   its first site.  A counting pass sizes the columns. *)
let discover ?pool ~facts ~(options : Outliner.options) shard_p =
  let extern_sp_unsafe = fact_sp_unsafe facts in
  let w = Outliner.windows ~options ~extern_sp_unsafe shard_p in
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
  let n = ref (List.length long) in
  Outliner.iter_windows w ~lengths
    (fun ~block:_ ~pos:_ ~len:_ ~key:_ ~call:_ ~strategy:_ ~needs_lr_frame:_
         ~touches_sp:_ -> incr n);
  let col () = Array.make !n 0 in
  let sc =
    {
      sc_windows = w;
      sc_index = Summary.Index.create !n;
      sc_keys = col ();
      sc_meta = col ();
      sc_rep = col ();
      sc_free = col ();
      sc_save = col ();
      sc_head = col ();
      sc_wins = col ();
      sc_next = col ();
      sc_nwins = 0;
      sc_long = Hashtbl.create 16;
    }
  in
  Outliner.iter_windows w ~lengths
    (fun ~block ~pos ~len ~key ~call ~strategy ~needs_lr_frame ~touches_sp ->
      let d =
        add sc (Summary.join_key key) ~block ~pos ~len ~strategy
          ~needs_lr_frame ~touches_sp call
      in
      let j = sc.sc_nwins in
      sc.sc_wins.(j) <- pack ~block ~pos ~len;
      sc.sc_next.(j) <- sc.sc_head.(d);
      sc.sc_head.(d) <- j;
      sc.sc_nwins <- j + 1);
  List.iter
    (fun (c : Candidate.t) ->
      let s = List.hd c.sites in
      let key =
        Summary.join_key
          (Outliner.window_key w ~block:s.block_id ~pos:s.start ~len:c.length)
      in
      let count (site : Candidate.site) =
        add sc key ~block:s.block_id ~pos:s.start ~len:c.length
          ~strategy:c.strategy ~needs_lr_frame:c.needs_lr_frame
          ~touches_sp:c.touches_sp site.call
      in
      let d = count s in
      List.iter (fun site -> ignore (count site)) (List.tl c.sites);
      Hashtbl.replace sc.sc_long d
        (c :: Option.value ~default:[] (Hashtbl.find_opt sc.sc_long d)))
    long;
  sc

(* The summary a scan sends: its key and count columns, and each row on
   demand, with the ranking hash of the row's representative. *)
let summary ~modul sc =
  let n = Summary.Index.size sc.sc_index in
  let row d =
    let meta = sc.sc_meta.(d) and rep = sc.sc_rep.(d) in
    let block = rep lsr 32 and pos = rep land 0xffffffff in
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
  Summary.of_columns ~modul ~count:n ~keys:sc.sc_keys ~free:sc.sc_free
    ~save:sc.sc_save row

let summarize ~facts ~options ~modul p =
  summary ~modul (discover ~facts ~options p)

(* Phase 2's parallel step for one shard: walk the local patterns the
   provisional decision ranked, plus windows of ranked long patterns this
   shard holds only once, in global rank order, and claim sites greedily —
   each window's single-site candidate on its own, in block and position
   order, then each long candidate's sites together.  A pattern keeps the
   first surviving candidate, carrying every surviving site. *)
let refine ~prov:(ranks, (prov : (int64 * Summary.survivor) array)) ~modul
    shard_p sc =
  let w = sc.sc_windows in
  let local key = Summary.Index.find sc.sc_index key >= 0 in
  (* Windows up to the scan cap were keyed exhaustively in phase 1, so a
     locally missing key of such a length really is absent — only longer
     patterns are worth probing for. *)
  let missing_lengths =
    Array.fold_left
      (fun acc (_, (sv : Summary.survivor)) ->
        let p = sv.sv_pattern in
        if p.ps_length <= window_scan_max || local p.ps_key then acc
        else p.ps_length :: acc)
      [] prov
  in
  let ranked key = Summary.Index.find ranks key in
  let probed = Hashtbl.create 16 in
  if missing_lengths <> [] then
    Outliner.iter_windows w ~lengths:missing_lengths
      (fun ~block ~pos ~len ~key ~call:_ ~strategy:_ ~needs_lr_frame:_
           ~touches_sp:_ ->
        let key = Summary.join_key key in
        if ranked key >= 0 && not (local key) then
          Hashtbl.replace probed key
            ((block, pos, len)
            :: Option.value ~default:[] (Hashtbl.find_opt probed key)));
  (* (rank, key, windows oldest first, long candidates oldest first) *)
  let entries =
    ref
      (Hashtbl.fold
         (fun key wins acc -> (ranked key, key, List.rev wins, []) :: acc)
         probed [])
  in
  for d = Summary.Index.size sc.sc_index - 1 downto 0 do
    let key = sc.sc_keys.(d) in
    if ranked key >= 0 then begin
      let rec oldest_first j acc =
        if j < 0 then acc
        else oldest_first sc.sc_next.(j) (unpack sc.sc_wins.(j) :: acc)
      in
      entries :=
        ( ranked key,
          key,
          oldest_first sc.sc_head.(d) [],
          List.rev (Option.value ~default:[] (Hashtbl.find_opt sc.sc_long d)) )
        :: !entries
    end
  done;
  let site_free, site_take = Outliner.make_occupancy shard_p in
  let claim s = site_free s && (site_take s; true) in
  let retained =
    List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b) !entries
    |> List.filter_map (fun (rank, key, wins, longs) ->
           let windows =
             List.filter_map
               (fun (block, pos, len) ->
                 match Outliner.window_candidate w ~block ~pos ~len with
                 | Some c when List.for_all claim c.sites -> Some c
                 | _ -> None)
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
               longs
           in
           match windows @ longs with
           | [] -> None
           | c :: _ as survivors ->
             let sites =
               List.concat_map (fun (c : Candidate.t) -> c.sites) survivors
             in
             Some (key, fst prov.(rank), { c with sites }))
  in
  let table : (int, Candidate.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (key, _, c) -> Hashtbl.replace table key c) retained;
  (Summary.of_candidates ~modul retained, table)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_round ?report ~workers ~facts ~(options : Outliner.options)
    (p : Program.t) =
  let shards = shard_by_module p in
  (* Phase 1: parallel discovery.  Each worker owns one arena pool, reused
     across every shard it claims; the window lists and the scanner stay in
     the per-shard result slot and only the summary crosses into the
     decision round.

     Discovery is window-complete up to [window_scan_max]: every legal
     instruction window of those lengths is keyed, so a pattern a shard
     contains only {e once} still reaches the decision round and can join
     counts with the other shards (the class a per-shard suffix tree is
     structurally blind to).  Beyond the cap the suffix tree takes over,
     so long patterns are still caught whenever they repeat within at
     least one shard — the one remaining optimistic loss. *)
  let discovered =
    Pool.map_init ~workers ~init:Sufftree.Arena_tree.create_pool
      ~f:(fun pool (modul, funcs) ->
        timed (fun () ->
            let sc =
              discover ~pool ~facts ~options (Program.replace_funcs p funcs)
            in
            (sc, summary ~modul sc)))
      shards
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
        (ranks, ranked))
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
            refine ~prov:provisional ~modul
              (Program.replace_funcs p funcs)
              (fst (fst discovered.(i)))))
      (Array.init (Array.length shards) Fun.id)
  in
  (* The final, exact decision over disjoint counts. *)
  let decisions, final_s =
    timed (fun () ->
        Summary.decide ~round:options.round
          (Array.to_list (Array.map (fun ((s, _), _) -> s) refined)))
  in
  List.iter
    (fun (d : Summary.decision) ->
      if d.dc_sp_unsafe then Hashtbl.replace facts d.dc_name ())
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
             {
               Report.rs_module = modul;
               rs_funcs = List.length funcs;
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
        rr_decide = join_s +. rank_s +. final_s;
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
