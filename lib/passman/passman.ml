(* The unified pass manager: pipeline-spec grammar, the shared pass
   context (bisect gating, per-pass timings and size deltas, verify-each,
   print-after), the generic runner, and the concrete MIR/machine pass
   registries.  See passman.mli for the overview. *)

(* --- pipeline specs -------------------------------------------------------- *)

type spec = {
  sp_name : string;
  sp_params : (string * string) list;
}

let is_name_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

let is_value_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_' || c = '.' || c = ':'

let valid_name s = s <> "" && String.for_all is_name_char s
let valid_value s = s <> "" && String.for_all is_value_char s

(* Split on commas that sit outside parentheses. *)
let split_top s =
  let segs = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '(' ->
        incr depth;
        Buffer.add_char buf c
      | ')' ->
        decr depth;
        Buffer.add_char buf c
      | ',' when !depth = 0 ->
        segs := Buffer.contents buf :: !segs;
        Buffer.clear buf
      | c -> Buffer.add_char buf c)
    s;
  segs := Buffer.contents buf :: !segs;
  if !depth <> 0 then Error "unbalanced parentheses"
  else Ok (List.rev_map String.trim !segs)

let parse_param seg =
  match String.index_opt seg '=' with
  | None -> Error (Printf.sprintf "parameter %S is not key=value" seg)
  | Some i ->
    let key = String.trim (String.sub seg 0 i) in
    let value = String.trim (String.sub seg (i + 1) (String.length seg - i - 1)) in
    if not (valid_name key) then Error (Printf.sprintf "bad parameter key %S" key)
    else if not (valid_value value) then
      Error (Printf.sprintf "bad parameter value %S for key %S" value key)
    else Ok (key, value)

let parse_pass seg =
  match String.index_opt seg '(' with
  | None ->
    if valid_name seg then Ok { sp_name = seg; sp_params = [] }
    else Error (Printf.sprintf "bad pass name %S" seg)
  | Some i ->
    let name = String.trim (String.sub seg 0 i) in
    if not (valid_name name) then Error (Printf.sprintf "bad pass name %S" name)
    else if seg.[String.length seg - 1] <> ')' then
      Error (Printf.sprintf "missing ) in %S" seg)
    else begin
      let inside = String.sub seg (i + 1) (String.length seg - i - 2) in
      let rec params = function
        | [] -> Ok []
        | seg :: rest -> (
          match parse_param (String.trim seg) with
          | Error _ as e -> e
          | Ok p -> (
            match params rest with Error _ as e -> e | Ok ps -> Ok (p :: ps)))
      in
      if String.trim inside = "" then
        Error (Printf.sprintf "empty parameter list in %S" seg)
      else
        match params (String.split_on_char ',' inside) with
        | Error _ as e -> e
        | Ok ps -> Ok { sp_name = name; sp_params = ps }
    end

let parse s =
  match split_top s with
  | Error _ as e -> e
  | Ok segs -> (
    if List.for_all (fun s -> s = "") segs then Error "empty pipeline spec"
    else if List.exists (fun s -> s = "") segs then
      Error "empty pass name in pipeline spec"
    else
      let rec go = function
        | [] -> Ok []
        | seg :: rest -> (
          match parse_pass seg with
          | Error _ as e -> e
          | Ok sp -> (
            match go rest with Error _ as e -> e | Ok sps -> Ok (sp :: sps)))
      in
      go segs)

let print_spec sp =
  if sp.sp_params = [] then sp.sp_name
  else
    sp.sp_name ^ "("
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) sp.sp_params)
    ^ ")"

let print specs = String.concat "," (List.map print_spec specs)

let not_an_integer sp key v =
  Printf.sprintf "pass %s: parameter %s=%s is not an integer" sp.sp_name key v

let int_param sp key ~default =
  match List.assoc_opt key sp.sp_params with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None -> failwith (not_an_integer sp key v))

let rounds sp = int_param sp "rounds" ~default:5

(* --- the pass table -------------------------------------------------------- *)

type place = Mir | Across | Machine | Linked

type info = {
  pi_name : string;
  pi_params : (string * [ `Int | `Text ]) list;
  pi_place : place;
  pi_rounds : bool;
  pi_marker : bool;
}

(* Every pass, declared once.  The spec checks, the bisect reservation,
   the registries' records and [Pipeline]'s spec split read these facts
   here and nowhere else. *)
let pass_table =
  let pass ?(params = []) ?(rounds = false) ?(marker = false) place name =
    {
      pi_name = name;
      pi_params = params;
      pi_place = place;
      pi_rounds = rounds;
      pi_marker = marker;
    }
  in
  [
    pass Mir "dce";
    pass Mir "sil-outline" ~params:[ ("min", `Int) ];
    pass Mir "merge-functions";
    pass Mir "fmsa";
    pass Across "global-merge" ~params:[ ("min", `Int); ("max-holes", `Int) ];
    pass Machine "canonicalize";
    pass Machine "outline" ~params:[ ("rounds", `Int) ] ~rounds:true;
    pass Linked "thin-outline"
      ~params:[ ("workers", `Int); ("rounds", `Int) ]
      ~rounds:true;
    pass Linked "caller-affinity-layout" ~marker:true;
    pass Linked "pgo-layout"
      ~params:[ ("strategy", `Text); ("w", `Text) ]
      ~marker:true;
    pass Linked "stitch" ~marker:true;
  ]

let pass_info name = List.find_opt (fun i -> i.pi_name = name) pass_table
let registered_names = List.map (fun i -> i.pi_name) pass_table

(* --- timing tree ----------------------------------------------------------- *)

type timing = {
  t_name : string;
  t_seconds : float;
  t_note : string;
  t_children : timing list;
}

let leaf ?(note = "") name seconds =
  { t_name = name; t_seconds = seconds; t_note = note; t_children = [] }

let render_tree ts =
  let buf = Buffer.create 1024 in
  let rec go depth t =
    let name = String.make (2 * depth) ' ' ^ t.t_name in
    Buffer.add_string buf
      (Printf.sprintf "%-34s %9.4fs%s\n" name t.t_seconds
         (if t.t_note = "" then "" else "  " ^ t.t_note));
    List.iter (go (depth + 1)) t.t_children
  in
  List.iter (go 0) ts;
  Buffer.contents buf

(* --- the pass context ------------------------------------------------------ *)

type print_after = [ `Never | `All | `Passes of string list ]

type step = {
  st_pass : string;
  st_detail : string;
  st_unit : string;
  st_gate : int;
  st_applied : bool;
  st_seconds : float;
  st_before : int;
  st_after : int;
}

type ctx = {
  cx_verify_each : bool;
  cx_print_after : print_after;
  cx_bisect_limit : int option;
  cx_dump : string -> string -> unit;
  mutable cx_counter : int;          (* bisect steps counted so far *)
  mutable cx_rev_steps : step list;
  mutable cx_rev_nodes : timing list;
      (* finished timing nodes under the open span, newest first *)
  cx_forked : (string * string) list ref option;
      (* a forked shard context buffers its print-after dumps here so the
         parent can replay them in shard order at [join] *)
}

let default_dump label text =
  Printf.eprintf "*** IR Dump After %s ***\n%s%s" label text
    (if String.length text > 0 && text.[String.length text - 1] = '\n' then ""
     else "\n")

let create_ctx ?(verify_each = false) ?(print_after = `Never) ?bisect_limit
    ?(dump = default_dump) () =
  {
    cx_verify_each = verify_each;
    cx_print_after = print_after;
    cx_bisect_limit = bisect_limit;
    cx_dump = dump;
    cx_counter = 0;
    cx_rev_steps = [];
    cx_rev_nodes = [];
    cx_forked = None;
  }

(* --- sharded contexts (the per-unit phase of the per-module modes) ---------- *)

(* Bisect-step numbering must be a function of the pipeline alone, not of
   domain scheduling, so a parallel phase cannot share the parent's mutable
   counter.  Instead each shard forks a context whose counter starts at a
   precomputed offset ([reserved_steps] per preceding shard); the parent
   then joins the shards in deterministic order, appending their step logs
   and timing nodes and replaying their buffered dumps, and advances its
   own counter by the whole reservation — whether or not the shards used
   every reserved step
   (a self-gated pass that stops early leaves its remaining step numbers
   unused, exactly like a skipped round under a bisect limit). *)

let reserved_steps specs =
  List.fold_left
    (fun acc sp ->
      acc
      +
      match pass_info sp.sp_name with
      | Some { pi_rounds = true; _ } -> max 0 (rounds sp)
      | _ -> 1)
    0 specs

let fork ctx ~offset =
  let buf = ref [] in
  {
    ctx with
    cx_dump = (fun label text -> buf := (label, text) :: !buf);
    cx_counter = ctx.cx_counter + offset;
    cx_rev_steps = [];
    cx_rev_nodes = [];
    cx_forked = Some buf;
  }

let join ctx ~advance children =
  List.iter
    (fun child ->
      (match child.cx_forked with
      | Some buf -> List.iter (fun (l, t) -> ctx.cx_dump l t) (List.rev !buf)
      | None -> ());
      ctx.cx_rev_steps <- child.cx_rev_steps @ ctx.cx_rev_steps;
      ctx.cx_rev_nodes <- child.cx_rev_nodes @ ctx.cx_rev_nodes)
    children;
  ctx.cx_counter <- ctx.cx_counter + advance

let steps ctx = List.rev ctx.cx_rev_steps
let timing_tree ctx = List.rev ctx.cx_rev_nodes

(* Run [f] with an empty open span; return its result, its wall time and
   the nodes it recorded, leaving the enclosing span as it was. *)
let measure ctx f =
  let outer = ctx.cx_rev_nodes in
  ctx.cx_rev_nodes <- [];
  let t0 = Unix.gettimeofday () in
  match f () with
  | r ->
    let seconds = Unix.gettimeofday () -. t0 in
    let children = List.rev ctx.cx_rev_nodes in
    ctx.cx_rev_nodes <- outer;
    (r, seconds, children)
  | exception e ->
    ctx.cx_rev_nodes <- outer;
    raise e

let add_node ctx t = ctx.cx_rev_nodes <- t :: ctx.cx_rev_nodes

let span ctx name f =
  let r, seconds, children = measure ctx f in
  add_node ctx
    { t_name = name; t_seconds = seconds; t_note = ""; t_children = children };
  r

let should_print_after ctx name =
  match ctx.cx_print_after with
  | `Never -> false
  | `All -> true
  | `Passes names -> List.mem name names

let unit_label unit_name name =
  if unit_name = "" then name else unit_name ^ "/" ^ name

(* One bisect step: take the next step number and, within the limit, time
   [run ()] and log its size delta; beyond it, log a skip and return
   [None] so the caller keeps its input.  Either way the step adds one
   timing node to the open span — ["<unit>/<pass>"], or its [detail] for
   a sub-step — holding whatever nodes [run] recorded. *)
let bisect_step ctx ~pass ?(detail = "") ~unit_name ~size ir run =
  ctx.cx_counter <- ctx.cx_counter + 1;
  let gate = ctx.cx_counter and before = size ir in
  let log ~applied ~seconds ~after children =
    add_node ctx
      {
        t_name = (if detail = "" then unit_label unit_name pass else detail);
        t_seconds = seconds;
        t_note =
          (if not applied then "skipped (opt-bisect)"
           else if before = after then string_of_int after
           else Printf.sprintf "%d -> %d" before after);
        t_children = children;
      };
    ctx.cx_rev_steps <-
      {
        st_pass = pass;
        st_detail = detail;
        st_unit = unit_name;
        st_gate = gate;
        st_applied = applied;
        st_seconds = seconds;
        st_before = before;
        st_after = after;
      }
      :: ctx.cx_rev_steps
  in
  match ctx.cx_bisect_limit with
  | Some limit when gate > limit ->
    log ~applied:false ~seconds:0. ~after:before [];
    None
  | _ ->
    let ((ir', _) as out), seconds, children = measure ctx run in
    log ~applied:true ~seconds ~after:(size ir') children;
    Some out

(* --- stages and passes ----------------------------------------------------- *)

type 'ir stage = {
  stage_name : string;
  stage_verify : 'ir -> (unit, string) result;
  stage_print : 'ir -> string;
  stage_size : 'ir -> int;
}

type 'ir pass = {
  p_name : string;
  p_params : string list;
  p_self_gated : bool;
  p_linked : bool;
  p_run : ctx -> spec -> 'ir -> 'ir;
  p_across : (workers:int -> spec -> 'ir list -> 'ir list) option;
}

let find_pass passes name = List.find_opt (fun p -> p.p_name = name) passes

(* Pipelines no build can honour: a repeated outliner names its functions
   by round alone, so running one twice defines every outlined symbol
   twice; the layout markers each pick the final image's placement, so at
   most one of them can hold; and a build runs its MIR and cross-unit
   passes, then its per-unit machine passes, then its linked passes, so a
   spec listing them in another order cannot run as written. *)
let check_pipeline specs =
  let infos = List.filter_map (fun sp -> pass_info sp.sp_name) specs in
  let count i =
    List.length (List.filter (fun j -> j.pi_name = i.pi_name) infos)
  in
  let rank i =
    match i.pi_place with Mir | Across -> 0 | Machine -> 1 | Linked -> 2
  in
  let rec in_order = function
    | a :: (b :: _ as rest) ->
      if rank b < rank a then
        Error (Printf.sprintf "pass %s cannot run after %s" b.pi_name a.pi_name)
      else in_order rest
    | _ -> Ok ()
  in
  match List.find_opt (fun i -> i.pi_rounds && count i > 1) pass_table with
  | Some i ->
    Error
      (Printf.sprintf "pass %s appears twice (its outlined symbols would clash)"
         i.pi_name)
  | None -> (
    match List.filter (fun i -> i.pi_marker) infos with
    | _ :: _ :: _ as ms ->
      Error
        (Printf.sprintf "more than one layout marker (%s); keep one"
           (String.concat ", " (List.map (fun i -> i.pi_name) ms)))
    | _ -> in_order infos)

let validate_specs specs =
  let check sp =
    match pass_info sp.sp_name with
    | None -> Error (Printf.sprintf "unknown pass %S" sp.sp_name)
    | Some { pi_params; _ } -> (
      let keys = List.map fst pi_params in
      match
        List.find_opt (fun (k, _) -> not (List.mem k keys)) sp.sp_params
      with
      | Some (k, _) ->
        Error
          (Printf.sprintf "pass %s: unknown parameter %S (accepts: %s)"
             sp.sp_name k
             (if keys = [] then "none" else String.concat ", " keys))
      | None -> (
        match
          List.find_opt
            (fun (k, v) ->
              List.assoc k pi_params = `Int && int_of_string_opt v = None)
            sp.sp_params
        with
        | Some (k, v) -> Error (not_an_integer sp k v)
        | None -> Ok ()))
  in
  let rec go = function
    | [] -> check_pipeline specs
    | sp :: rest -> Result.bind (check sp) (fun () -> go rest)
  in
  go specs

let resolve stage passes sp =
  match find_pass passes sp.sp_name with
  | None ->
    failwith
      (Printf.sprintf "%s pipeline: unknown pass %S" stage.stage_name sp.sp_name)
  | Some pass ->
    List.iter
      (fun (k, _) ->
        if not (List.mem k pass.p_params) then
          failwith
            (Printf.sprintf "pass %s: unknown parameter %S" pass.p_name k))
      sp.sp_params;
    pass

let verify_step ctx stage label ir =
  if ctx.cx_verify_each then
    match stage.stage_verify ir with
    | Error e -> failwith (Printf.sprintf "verify-each after %s: %s" label e)
    | Ok () -> ()

let print_step ctx stage pass label ir =
  if should_print_after ctx pass.p_name then
    ctx.cx_dump label (stage.stage_print ir)

let run_passes ctx stage passes ?(unit_name = "") specs ir =
  List.fold_left
    (fun ir sp ->
      let pass = resolve stage passes sp in
      let label = unit_label unit_name pass.p_name in
      if pass.p_self_gated then begin
        let ir' = pass.p_run ctx sp ir in
        print_step ctx stage pass label ir';
        ir'
      end
      else
        match
          bisect_step ctx ~pass:pass.p_name ~unit_name ~size:stage.stage_size ir
            (fun () -> (pass.p_run ctx sp ir, ()))
        with
        | None -> ir
        | Some (ir', ()) ->
          verify_step ctx stage label ir';
          print_step ctx stage pass label ir';
          ir')
    ir specs

let run_across ctx stage passes ~workers sp units =
  let pass = resolve stage passes sp in
  match pass.p_across with
  | None ->
    failwith (Printf.sprintf "pass %s does not run across units" pass.p_name)
  | Some across -> (
    let size us = List.fold_left (fun a (_, u) -> a + stage.stage_size u) 0 us in
    let names, irs = List.split units in
    let run () = (List.combine names (across ~workers sp irs), ()) in
    match bisect_step ctx ~pass:pass.p_name ~unit_name:"" ~size units run with
    | None -> units
    | Some (out, ()) ->
      let label name = unit_label name pass.p_name in
      List.iter (fun (name, u) -> verify_step ctx stage (label name) u) out;
      List.iter (fun (name, u) -> print_step ctx stage pass (label name) u) out;
      out)

(* --- opt-bisect ------------------------------------------------------------ *)

let bisect ~hi ~fails =
  if hi < 1 || not (fails hi) then None
  else
    (* invariant: fails hi; the answer lies in [lo..hi] *)
    let rec go lo hi =
      if lo >= hi then Some hi
      else
        let mid = (lo + hi) / 2 in
        if fails mid then go lo mid else go (mid + 1) hi
    in
    go 1 hi

(* --- the concrete registries ----------------------------------------------- *)

let mir_stage =
  {
    stage_name = "mir";
    stage_verify = (fun m -> Ir.validate m);
    stage_print = (fun m -> Format.asprintf "%a" Ir.pp_modul m);
    stage_size = Ir.module_instr_count;
  }

let machine_stage =
  {
    stage_name = "machine";
    stage_verify = Machine.Program.validate;
    stage_print = Machine.Asm_printer.to_source;
    stage_size = Machine.Program.code_size_bytes;
  }

(* A registry pass: its parameters, linkedness and self-gating are its
   table entry's. *)
let registered ?across name run =
  let info = List.find (fun i -> i.pi_name = name) pass_table in
  {
    p_name = name;
    p_params = List.map fst info.pi_params;
    p_self_gated = info.pi_rounds;
    p_linked = info.pi_place = Linked;
    p_run = run;
    p_across = across;
  }

let mir_passes ~keep =
  (* global-merge's decision spans compilation units: the per-unit modes
     run it once across every unit ([run_across]); whole-program mode
     runs it on the one linked module. *)
  let global_merge ~workers sp ms =
    fst
      (Global_merge.run_modules ~workers
         ~min_instrs:(int_param sp "min" ~default:4)
         ~max_holes:(int_param sp "max-holes" ~default:6)
         ~keep ms)
  in
  [
    registered "dce" (fun _ _ m -> fst (Dce.run m));
    registered "sil-outline" (fun _ sp m ->
        let min_occurrences = int_param sp "min" ~default:8 in
        fst (Swiftlet.Sil_outline.run ~min_occurrences m));
    registered "merge-functions" (fun _ _ m ->
        fst (Merge_functions.run ~keep m));
    registered "fmsa" (fun _ _ m -> fst (Fmsa.run ~keep m));
    registered "global-merge" ~across:global_merge
      (fun _ sp m -> List.hd (global_merge ~workers:1 sp [ m ]));
  ]

type machine_env = {
  me_engine : [ `Incremental | `Scratch ];
  me_scope : string;
  me_profile : Outcore.Profile.t;
  me_on_stats : Outcore.Outliner.round_stats list -> unit;
  me_thin_workers : int;
  me_thin_report : Thinwpo.Engine.Report.t;
  me_warm : Outcore.Outliner.warm option;
}

(* The repeated outliners' self-gated loop: every round is one bisect step
   recorded as ["round K"], verified on its own under --verify-each, and a
   round that outlines nothing ends the repetition with the pre-round
   program (Outcore.Repeat.run's contract, which the byte-identity checks
   depend on).  [round_fn k p] runs round [k], recording its own timing
   split under the round's node; the rounds group under one
   ["<unit>/<pass>"] node. *)
let run_rounds ctx ~pass ~unit_name ~rounds ~on_stats round_fn p =
  let stats_acc = ref [] in
  let rec go round p =
    if round > rounds then p
    else begin
      let detail = Printf.sprintf "round %d" round in
      let run () =
        let p', stats = round_fn round p in
        if stats.Outcore.Outliner.sequences_outlined = 0 then (p, None)
        else (p', Some stats)
      in
      match
        bisect_step ctx ~pass ~detail ~unit_name
          ~size:Machine.Program.code_size_bytes p run
      with
      | None -> p
      | Some (p', stats) -> (
        verify_step ctx machine_stage
          (unit_label unit_name (pass ^ " " ^ detail))
          p';
        match stats with
        | None -> p
        | Some stats ->
          stats_acc := stats :: !stats_acc;
          go (round + 1) p')
    end
  in
  let final, seconds, rounds_run = measure ctx (fun () -> go 1 p) in
  if rounds_run <> [] then
    add_node ctx
      {
        t_name = unit_label unit_name pass;
        t_seconds = seconds;
        t_note = "";
        t_children = rounds_run;
      };
  on_stats (List.rev !stats_acc);
  final

(* The newest record of a round sink: the round that just ran. *)
let latest rounds = List.nth rounds (List.length rounds - 1)

(* The repeated outliner as a self-gated pass: every round is one bisect
   step, so --opt-bisect-limit can cut the repetition mid-way and
   localization lands on a single round. *)
let outline_pass env unit_name =
  registered "outline" (fun ctx sp p ->
      let round =
        Outcore.Repeat.round
          ~options:
            { Outcore.Outliner.default_options with scope_name = env.me_scope }
          ~profile:env.me_profile ~engine:env.me_engine ?warm:env.me_warm ()
      in
      run_rounds ctx ~pass:"outline" ~unit_name ~rounds:(rounds sp)
        ~on_stats:env.me_on_stats
        (fun k p ->
          let out = round k p in
          let rp : Outcore.Profile.round_profile =
            latest (Outcore.Profile.rounds env.me_profile)
          in
          List.iter (add_node ctx)
            [
              leaf "seq-build" rp.rp_seq_build;
              leaf "tree-build" rp.rp_tree_build;
              leaf "enumerate" rp.rp_enumerate;
              leaf "score" rp.rp_score;
              leaf "rewrite" rp.rp_rewrite;
            ];
          out)
        p)

(* Thin-WPO as a self-gated linked pass: it wants the system-linker-merged
   program (it re-shards it by originating module itself), and every
   three-phase round is one bisect step — the serial global decision is the
   natural gating unit, since cutting inside a round would leave shards
   rewritten against half a decision table. *)
let thin_outline_pass env =
  registered "thin-outline" (fun ctx sp p ->
      let workers =
        Thinwpo.Pool.resolve_workers
          (int_param sp "workers" ~default:env.me_thin_workers)
      in
      let state = Thinwpo.Engine.create_state () in
      run_rounds ctx ~pass:"thin-outline" ~unit_name:"" ~rounds:(rounds sp)
        ~on_stats:env.me_on_stats
        (fun round p ->
          let options = { Outcore.Outliner.default_options with round } in
          let out =
            Thinwpo.Engine.run_round ~report:env.me_thin_report ~workers
              ~state ~options p
          in
          let rr = latest (Thinwpo.Engine.Report.rounds env.me_thin_report) in
          List.iter
            (fun (sh : Thinwpo.Engine.Report.shard) ->
              add_node ctx
                {
                  (leaf
                     ~note:
                       (Printf.sprintf "%d funcs, %d/%d blocks reused"
                          sh.rs_funcs sh.rs_reused sh.rs_blocks)
                     ("shard " ^ sh.rs_module)
                     (sh.rs_discover +. sh.rs_rewrite))
                  with
                  t_children =
                    [
                      leaf "discover" (sh.rs_discover -. sh.rs_refine);
                      leaf "refine" sh.rs_refine;
                      leaf "rewrite" sh.rs_rewrite;
                    ];
                })
            rr.rr_shards;
          add_node ctx
            (leaf
               ~note:(Printf.sprintf "%d selected" rr.rr_selected)
               "global-decision" rr.rr_decide);
          out)
        p)

let machine_passes env =
  [
    registered "canonicalize" (fun _ _ p -> fst (Outcore.Canonicalize.run p));
    outline_pass env env.me_scope;
    thin_outline_pass env;
    registered "caller-affinity-layout" (fun _ _ p ->
        Outcore.Layout.optimize p);
    (* Marker passes: profile-guided placement is pure reordering realized
       at link time ([Linker.link ~order]) and block-granularity placement
       ([Blocklayout]) runs in the pipeline's layout phase, both on the
       final linked program, so the pass bodies are the identity.
       Registering them makes the strategy — order-file, c3, balanced,
       bp-compress(w), stitch — a validated, parameterized member of the
       pipeline spec, which the pipeline's layout phase reads
       ([Pipeline.layout_of_specs]). *)
    registered "pgo-layout" (fun _ _ p -> p);
    registered "stitch" (fun _ _ p -> p);
  ]
