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

(* Window fingerprinting is exhaustive up to this pattern length (symbols,
   counting a trailing [ret]); longer patterns rely on per-shard suffix
   trees plus the post-ranking probe. *)
let window_scan_max = 32

let run_round ?report ~workers ~facts ~(options : Outliner.options)
    (p : Program.t) =
  let shards = shard_by_module p in
  let extern_sp_unsafe name = fact_sp_unsafe facts name in
  (* Phase 1: parallel discovery.  Each worker owns one arena pool, reused
     across every shard it claims; candidates stay in the per-shard result
     slot and only the raw-count summary crosses into the decision round.

     Discovery is window-complete up to [window_scan_max]: every legal
     instruction window of those lengths is fingerprinted, so a pattern a
     shard contains only {e once} still reaches the decision round and can
     join counts with the other shards (the class a per-shard suffix tree
     is structurally blind to).  Beyond the cap the suffix tree takes
     over, so long patterns are still caught whenever they repeat within
     at least one shard — the one remaining optimistic loss. *)
  let win_lengths =
    if options.min_length > window_scan_max then []
    else
      List.init
        (window_scan_max - options.min_length + 1)
        (fun i -> options.min_length + i)
  in
  let tree_min = max options.min_length (window_scan_max + 1) in
  let discovered =
    Pool.map_init ~workers
      ~init:(fun () -> (Sufftree.Arena_tree.create_pool (), Summary.hasher ()))
      ~f:(fun (pool, hash) (modul, funcs) ->
        let t0 = Unix.gettimeofday () in
        let shard_p = Program.replace_funcs p funcs in
        let long_cands =
          Outliner.enumerate ~min_length:tree_min ~options ~all:true
            ~extern_sp_unsafe ~pool shard_p
        in
        let win_cands =
          Outliner.probe_windows ~options ~extern_sp_unsafe
            ~lengths:win_lengths shard_p
        in
        let pairs = List.map (fun c -> (hash c, c)) (win_cands @ long_cands) in
        let raw = Summary.of_candidates ~modul pairs in
        (shard_p, pairs, raw, Unix.gettimeofday () -. t0))
      shards
  in
  (* Phase 2 is the summary exchange, serial decision work interleaved
     with one cheap parallel step.  Raw per-shard counts double-count
     nested repeats (a length-10 repeat carries length-9, length-8, ...
     candidates over the same instructions), exactly like the site lists
     the serial selector scores before its greedy occupancy pass — so the
     first decision over summed raw counts reproduces the serial ranking,
     and a second, ranked local site-assignment pass makes every reported
     count disjoint.  The final decision over those disjoint counts is
     then exactly realizable: phase 3 never loses a selected site to
     overlap (in honest runs — fault-injected hash collisions can, which
     the occupancy guard in [apply_assignments] tolerates and the fuzz
     differentials catch). *)
  let t0 = Unix.gettimeofday () in
  let provisional =
    Summary.decide ~round:options.round
      (Array.to_list (Array.map (fun (_, _, raw, _) -> raw) discovered))
  in
  let prov_rank : (int64, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (d : Summary.decision) ->
      if not (Hashtbl.mem prov_rank d.dc_hash) then
        Hashtbl.replace prov_rank d.dc_hash d.dc_rank)
    provisional;
  (* The advertised pattern lengths, for window probing: a shard holding a
     provisionally ranked pattern only {e once} has no local repeat for
     the suffix tree to find, but it can hash its own windows of the
     advertised lengths and match foreign discoveries by content. *)
  let prov_len : (int64, int) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun (_, _, (raw : Summary.t), _) ->
      List.iter
        (fun (pt : Summary.pattern) ->
          if
            Hashtbl.mem prov_rank pt.ps_hash
            && not (Hashtbl.mem prov_len pt.ps_hash)
          then Hashtbl.replace prov_len pt.ps_hash pt.ps_length)
        raw.Summary.sm_patterns)
    discovered;
  let prov_s = Unix.gettimeofday () -. t0 in
  (* Ranked local site assignment: each shard walks the provisional table
     in global rank order and greedily claims disjoint sites; candidates
     the provisional round rejected claim nothing (the serial selector's
     profitability filter).  [prov_rank] is read-only here, so sharing it
     across domains is safe. *)
  let refined =
    Pool.map ~workers
      (fun i ->
        let modul, _ = shards.(i) in
        let shard_p, pairs, _, _ = discovered.(i) in
        let t0 = Unix.gettimeofday () in
        let local : (int64, unit) Hashtbl.t =
          Hashtbl.create (List.length pairs)
        in
        List.iter (fun (h, _) -> Hashtbl.replace local h ()) pairs;
        let missing_lengths =
          (* Windows up to the scan cap were fingerprinted exhaustively in
             phase 1, so a locally missing hash of such a length really is
             absent — only longer patterns are worth probing for. *)
          Hashtbl.fold
            (fun h len acc ->
              if len <= window_scan_max || Hashtbl.mem local h then acc
              else len :: acc)
            prov_len []
        in
        let probed =
          if missing_lengths = [] then []
          else begin
            let hash = Summary.hasher () in
            Outliner.probe_windows ~options ~extern_sp_unsafe
              ~lengths:missing_lengths shard_p
            |> List.filter_map (fun c ->
                   let h = hash c in
                   if Hashtbl.mem prov_rank h && not (Hashtbl.mem local h)
                   then Some (h, c)
                   else None)
          end
        in
        let ranked =
          List.filter_map
            (fun (h, c) ->
              Option.map (fun r -> (r, h, c)) (Hashtbl.find_opt prov_rank h))
            (pairs @ probed)
          |> List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
        in
        let site_free, site_take = Outliner.make_occupancy shard_p in
        let survivors =
          List.filter_map
            (fun (_, h, c) ->
              let sites = List.filter site_free c.Candidate.sites in
              if sites = [] then None
              else begin
                List.iter site_take sites;
                Some (h, { c with Candidate.sites })
              end)
            ranked
        in
        let retained : (int64, Candidate.t) Hashtbl.t = Hashtbl.create 64 in
        List.iter
          (fun (h, c) ->
            match Hashtbl.find_opt retained h with
            | None -> Hashtbl.replace retained h c
            | Some c0 ->
              (* Several windows of one content (or, under fault-injected
                 hash truncation, unrelated patterns): occupancy already
                 made the site lists disjoint, so concatenate them under
                 the first candidate's metadata. *)
              Hashtbl.replace retained h
                {
                  c0 with
                  Candidate.sites = c0.Candidate.sites @ c.Candidate.sites;
                })
          survivors;
        ( Summary.of_candidates ~modul survivors,
          retained,
          Unix.gettimeofday () -. t0 ))
      (Array.init (Array.length shards) Fun.id)
  in
  (* The final, exact decision over disjoint counts. *)
  let t0 = Unix.gettimeofday () in
  let decisions =
    Summary.decide ~round:options.round
      (Array.to_list (Array.map (fun (s, _, _) -> s) refined))
  in
  List.iter
    (fun (d : Summary.decision) ->
      if d.dc_sp_unsafe then Hashtbl.replace facts d.dc_name ())
    decisions;
  let decide_s = prov_s +. (Unix.gettimeofday () -. t0) in
  (* Phase 3: parallel rewrite against the decision table. *)
  let jobs =
    Array.mapi (fun i (modul, funcs) ->
        let _, retained, _ = refined.(i) in
        (modul, funcs, retained))
      shards
  in
  let rewritten =
    if decisions = [] then
      Array.map
        (fun (_, funcs, _) ->
          ( funcs,
            ([] : (int * Mfunc.t) list),
            Outliner.no_stats,
            0. ))
        jobs
    else
      Pool.map ~workers
        (fun (modul, funcs, retained) ->
          let t0 = Unix.gettimeofday () in
          let asgs =
            List.filter_map
              (fun (d : Summary.decision) ->
                match Hashtbl.find_opt retained d.dc_hash with
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
          if asgs = [] then
            ( funcs,
              [],
              Outliner.no_stats,
              Unix.gettimeofday () -. t0 )
          else begin
            let shard_p = Program.replace_funcs p funcs in
            let shard_p', hosted, stats =
              Outliner.apply_assignments shard_p asgs
            in
            (shard_p'.Program.funcs, hosted, stats, Unix.gettimeofday () -. t0)
          end)
        jobs
  in
  (match report with
  | None -> ()
  | Some rep ->
    let shard_reports =
      Array.to_list
        (Array.mapi
           (fun i (modul, funcs) ->
             let _, _, _, enum_s = discovered.(i) in
             let _, _, refine_s = refined.(i) in
             let _, _, _, rewrite_s = rewritten.(i) in
             {
               Report.rs_module = modul;
               rs_funcs = List.length funcs;
               rs_discover = enum_s +. refine_s;
               rs_rewrite = rewrite_s;
             })
           shards)
    in
    Report.add rep
      {
        Report.rr_round = options.round;
        rr_shards = shard_reports;
        rr_decide = decide_s;
        rr_selected = List.length decisions;
      });
  let stats =
    Array.fold_left
      (fun acc (_, _, s, _) -> Outliner.add_stats acc s)
      Outliner.no_stats rewritten
  in
  if stats.Outliner.sequences_outlined = 0 then (p, stats)
  else begin
    let funcs' =
      List.concat_map
        (fun (funcs, _, _, _) -> funcs)
        (Array.to_list rewritten)
    in
    let hosted =
      List.concat_map (fun (_, hosted, _, _) -> hosted)
        (Array.to_list rewritten)
      |> List.sort (fun (r1, _) (r2, _) -> Int.compare r1 r2)
      |> List.map snd
    in
    (Program.replace_funcs p (funcs' @ hosted), stats)
  end
