(* Optimistic cross-module function merging in thin-WPO's summary-exchange
   shape (DESIGN.md "Optimistic global merging"):

   Round 1 (parallel): each module is summarized independently — for every
   eligible function, a body-free entry carrying only the 64-bit FNV
   fingerprint of its global-policy merge key, its name and its size.  No
   bodies or keys cross the shard boundary, which is what keeps the round
   cheap; the price is that a fingerprint group is only {e optimistically}
   mergeable.

   Round 2 (serial): fingerprint groups are joined in first-appearance
   order (module index, then within-module order — byte-deterministic for
   any worker count).  Each group of two or more is confirmed by
   recomputing the exact keys of just the grouped members; members whose
   keys disagree with their group are split off, and sub-groups that end up
   alone, unprofitable, or name-colliding are rolled back.

   Round 3 (parallel): each module rewrites its decided members into
   forwarding thunks; the host module (the first member's home) gains the
   shared merged function, and every other member module gains an extern
   for it.  The decision tables are frozen before the round starts, so the
   workers only read shared state. *)

type summary = {
  se_fp : int64;
  se_module : int;
  se_name : string;
  se_instrs : int;
}

type stats = {
  groups : int;
  funcs_merged : int;
  instrs_saved : int;
  merged_created : int;
  rolled_back : int;
}

let policy = Merge.global_policy

let fingerprint_of_key key =
  let fp = Content.hash_string key in
  if !Merge.fault_drop_rollback then Int64.logand fp 0x3fL else fp

(* Round 1: body-free summaries for one module. *)
let summarize ~min_instrs ~max_holes ~keep idx (m : Ir.modul) =
  List.filter_map
    (fun (f : Ir.func) ->
      if Ir.instr_count f < min_instrs || keep f then None
      else
        let key, holes = Merge.key ~policy f in
        if
          List.length holes <= max_holes
          && List.length f.Ir.params + List.length holes
             <= Machine.Reg.max_args
        then
          Some
            {
              se_fp = fingerprint_of_key key;
              se_module = idx;
              se_name = f.Ir.name;
              se_instrs = Ir.instr_count f;
            }
        else None)
    m.funcs

let run_modules ?(workers = 1) ?(min_instrs = 4) ?(max_holes = 6)
    ?(keep = fun _ -> false) (ms : Ir.modul list) =
  let mods = Array.of_list ms in
  (* Round 1 — parallel summaries, results in module-index order. *)
  let summaries =
    Thinwpo.Pool.map ~workers
      (fun idx -> summarize ~min_instrs ~max_holes ~keep idx mods.(idx))
      (Array.init (Array.length mods) Fun.id)
  in
  let all = List.concat (Array.to_list summaries) in
  (* Round 2 — serial join in first-appearance order, then confirm. *)
  let byfp : (int64, summary list) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun s ->
      match Hashtbl.find_opt byfp s.se_fp with
      | None ->
        Hashtbl.replace byfp s.se_fp [ s ];
        order := s.se_fp :: !order
      | Some prev -> Hashtbl.replace byfp s.se_fp (s :: prev))
    all;
  let taken = Hashtbl.create 1024 in
  Array.iter
    (fun (m : Ir.modul) ->
      List.iter (fun (f : Ir.func) -> Hashtbl.replace taken f.Ir.name ()) m.funcs;
      List.iter (fun (g : Ir.global) -> Hashtbl.replace taken g.Ir.g_name ()) m.globals)
    mods;
  let repl : (string, string * Ir.operand list) Hashtbl.t array =
    Array.init (Array.length mods) (fun _ -> Hashtbl.create 16)
  in
  let adds = Array.make (Array.length mods) [] in
  let extern_adds = Array.make (Array.length mods) [] in
  let ngroups = ref 0 and merged = ref 0 and saved = ref 0 in
  let created = ref 0 and rolled = ref 0 in
  List.iter
    (fun fp ->
      match List.rev (Hashtbl.find byfp fp) with
      | [] | [ _ ] -> ()
      | members ->
        let optimistic = List.length members in
        let annotated =
          List.map
            (fun s ->
              let f =
                Option.get (Ir.find_func mods.(s.se_module) s.se_name)
              in
              let key, holes = Merge.key ~policy f in
              (s, f, key, holes))
            members
        in
        (* Confirmation: split the optimistic group by exact key.  The
           injected fault skips this — collided members stay together. *)
        let subgroups =
          if !Merge.fault_drop_rollback then [ annotated ]
          else begin
            let bykey : (string, (summary * Ir.func * string * Merge.hole list) list) Hashtbl.t =
              Hashtbl.create 8
            in
            let korder = ref [] in
            List.iter
              (fun ((_, _, key, _) as entry) ->
                match Hashtbl.find_opt bykey key with
                | None ->
                  Hashtbl.replace bykey key [ entry ];
                  korder := key :: !korder
                | Some prev -> Hashtbl.replace bykey key (entry :: prev))
              annotated;
            List.map (fun k -> List.rev (Hashtbl.find bykey k)) (List.rev !korder)
          end
        in
        let committed = ref 0 in
        List.iteri
          (fun k members ->
            match members with
            | [] | [ _ ] -> ()
            | members ->
              let base_s, base_f, _, _ = List.hd members in
              let merged_name =
                if k = 0 then Printf.sprintf "gm_%016Lx" fp
                else Printf.sprintf "gm_%016Lx_%d" fp k
              in
              if not (Hashtbl.mem taken merged_name) then begin
                let merged_func =
                  Merge.parameterize ~policy base_f ~merged_name
                in
                let benefit =
                  List.fold_left
                    (fun acc ((s : summary), _, _, _) -> acc + s.se_instrs - 1)
                    0 members
                  - Ir.instr_count merged_func
                in
                if benefit >= 1 then begin
                  Hashtbl.replace taken merged_name ();
                  incr ngroups;
                  incr created;
                  let host = base_s.se_module in
                  adds.(host) <- merged_func :: adds.(host);
                  saved := !saved + benefit;
                  List.iter
                    (fun ((s : summary), _, _, holes) ->
                      incr merged;
                      incr committed;
                      Hashtbl.replace repl.(s.se_module) s.se_name
                        (merged_name, Merge.extras_of_holes holes);
                      if
                        s.se_module <> host
                        && not (List.mem merged_name extern_adds.(s.se_module))
                      then
                        extern_adds.(s.se_module) <-
                          merged_name :: extern_adds.(s.se_module))
                    members
                end
              end)
          subgroups;
        rolled := !rolled + optimistic - !committed)
    (List.rev !order);
  (* Round 3 — parallel rewrite; decision tables are read-only from here. *)
  let out =
    Thinwpo.Pool.map ~workers
      (fun idx ->
        let m = mods.(idx) in
        let funcs =
          List.map
            (fun (f : Ir.func) ->
              match Hashtbl.find_opt repl.(idx) f.Ir.name with
              | Some (target, extras) -> Merge.make_thunk f ~target extras
              | None -> f)
            m.funcs
          @ List.rev adds.(idx)
        in
        let externs =
          m.externs
          @ List.filter
              (fun e -> not (List.mem e m.externs))
              (List.rev extern_adds.(idx))
        in
        { m with Ir.funcs; externs })
      (Array.init (Array.length mods) Fun.id)
  in
  ( Array.to_list out,
    {
      groups = !ngroups;
      funcs_merged = !merged;
      instrs_saved = !saved;
      merged_created = !created;
      rolled_back = !rolled;
    } )
