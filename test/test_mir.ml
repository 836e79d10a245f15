(* Tests for the MIR layer: validation, evaluation, out-of-SSA lowering,
   llvm-link behaviours (metadata conflicts, data ordering), the
   MergeFunction/FMSA baselines, DCE — and the codegen differential: every
   MIR program must behave identically after lowering to machine code. *)

let empty_module name = { Ir.m_name = name; funcs = []; globals = []; externs = []; flags = [] }

(* sum(n) = 1 + ... + n, via a phi loop. *)
let sum_func () =
  let b = Builder.create ~name:"sum" ~nparams:1 () in
  let n = List.hd (Builder.params b) in
  let acc0 = Builder.assign b (Ir.Imm 0) in
  let i0 = Builder.assign b (Ir.Imm 1) in
  let acc_phi = Builder.fresh b in
  let i_phi = Builder.fresh b in
  Builder.terminate b (Ir.Br "loop");
  Builder.start_block b "loop";
  Builder.add_phi b acc_phi [ ("entry", Ir.V acc0); ("body", Ir.V acc_phi) ];
  Builder.add_phi b i_phi [ ("entry", Ir.V i0); ("body", Ir.V i_phi) ];
  (* Recompute in body; phi incoming from body refers to updated values. *)
  let cond = Builder.icmp b Machine.Cond.Le (Ir.V i_phi) (Ir.V n) in
  Builder.terminate b (Ir.Cond_br (Ir.V cond, "body", "done"));
  Builder.start_block b "body";
  let acc' = Builder.binop b Ir.Add (Ir.V acc_phi) (Ir.V i_phi) in
  let i' = Builder.binop b Ir.Add (Ir.V i_phi) (Ir.Imm 1) in
  Builder.terminate b (Ir.Br "loop");
  Builder.start_block b "done";
  Builder.terminate b (Ir.Ret (Ir.V acc_phi));
  let f = Builder.finish b in
  (* Patch the phi incoming from body to the updated values (the builder
     API records operands eagerly, so rewrite them here). *)
  let patch (blk : Ir.block) =
    if blk.label <> "loop" then blk
    else
      let phis =
        List.map
          (fun (p : Ir.phi) ->
            let incoming =
              List.map
                (fun (l, o) ->
                  if l <> "body" then (l, o)
                  else if p.phi_dst = acc_phi then (l, Ir.V acc')
                  else (l, Ir.V i'))
                p.incoming
            in
            { p with incoming })
          blk.phis
      in
      { blk with phis }
  in
  { f with Ir.blocks = List.map patch f.Ir.blocks }

let sum_module () = { (empty_module "m_sum") with Ir.funcs = [ sum_func () ] }

let eval_exn ?args m ~entry =
  match Eval.run ?args ~entry m with
  | Ok r -> r
  | Error e -> Alcotest.fail ("eval error: " ^ Eval.error_to_string e)

let test_validate () =
  let m = sum_module () in
  (match Ir.validate m with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("expected valid: " ^ e));
  (* Branch to a bogus label must be rejected. *)
  let bogus =
    {
      (empty_module "bad") with
      Ir.funcs =
        [
          {
            Ir.name = "f";
            params = [];
            blocks = [ { Ir.label = "entry"; phis = []; instrs = []; term = Ir.Br "nope" } ];
            next_value = 0;
            from_module = "bad";
          };
        ];
    }
  in
  match Ir.validate bogus with
  | Ok () -> Alcotest.fail "expected validation failure"
  | Error _ -> ()

let test_eval_sum () =
  let m = sum_module () in
  Alcotest.(check int) "sum 10" 55 (eval_exn m ~entry:"sum" ~args:[ 10 ]).exit_value;
  Alcotest.(check int) "sum 0" 0 (eval_exn m ~entry:"sum" ~args:[ 0 ]).exit_value

let test_eval_objects () =
  let b = Builder.create ~name:"main" ~nparams:0 () in
  let obj = Builder.alloc_object b "Meta" 32 in
  Builder.retain b (Ir.V obj);
  Builder.retain b (Ir.V obj);
  let rc = Builder.load b (Ir.V obj) 0 in
  Builder.call_void b "print_i64" [ Ir.V rc ];
  Builder.release b (Ir.V obj);
  Builder.store b (Ir.Imm 99) (Ir.V obj) 16;
  let v = Builder.load b (Ir.V obj) 16 in
  Builder.terminate b (Ir.Ret (Ir.V v));
  let m =
    {
      (empty_module "m") with
      Ir.funcs = [ Builder.finish b ];
      globals = [ { Ir.g_name = "Meta"; g_init = [ Ir.Gword 7 ]; g_module = "m" } ];
    }
  in
  let r = eval_exn m ~entry:"main" in
  Alcotest.(check int) "field" 99 r.exit_value;
  Alcotest.(check (list int)) "refcount printed" [ 3 ] r.output

(* Out-of-SSA: behaviour must be preserved and phis must vanish. *)
let test_out_of_ssa () =
  let m = sum_module () in
  let m' = Out_of_ssa.run m in
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          Alcotest.(check int) "no phis left" 0 (List.length b.phis))
        f.blocks)
    m'.funcs;
  (match Ir.validate ~require_ssa:false m' with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("out-of-ssa produced invalid module: " ^ e));
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "sum %d preserved" n)
        (eval_exn m ~entry:"sum" ~args:[ n ]).exit_value
        (eval_exn m' ~entry:"sum" ~args:[ n ]).exit_value)
    [ 0; 1; 7; 23 ]

let test_out_of_ssa_swap () =
  (* The classic swap problem: two phis exchanging values each iteration.
     Computes (a, b) swapped n times; returns a. *)
  let b = Builder.create ~name:"swap" ~nparams:1 () in
  let n = List.hd (Builder.params b) in
  let a0 = Builder.assign b (Ir.Imm 3) in
  let b0 = Builder.assign b (Ir.Imm 11) in
  let i0 = Builder.assign b (Ir.Imm 0) in
  let pa = Builder.fresh b in
  let pb = Builder.fresh b in
  let pi = Builder.fresh b in
  Builder.terminate b (Ir.Br "loop");
  Builder.start_block b "loop";
  Builder.add_phi b pa [ ("entry", Ir.V a0); ("body", Ir.V pb) ];
  Builder.add_phi b pb [ ("entry", Ir.V b0); ("body", Ir.V pa) ];
  Builder.add_phi b pi [ ("entry", Ir.V i0); ("body", Ir.V pi) ];
  let c = Builder.icmp b Machine.Cond.Lt (Ir.V pi) (Ir.V n) in
  Builder.terminate b (Ir.Cond_br (Ir.V c, "body", "out"));
  Builder.start_block b "body";
  let i' = Builder.binop b Ir.Add (Ir.V pi) (Ir.Imm 1) in
  Builder.terminate b (Ir.Br "loop");
  Builder.start_block b "out";
  Builder.terminate b (Ir.Ret (Ir.V pa));
  let f = Builder.finish b in
  let patch (blk : Ir.block) =
    if blk.label <> "loop" then blk
    else
      {
        blk with
        phis =
          List.map
            (fun (p : Ir.phi) ->
              {
                p with
                incoming =
                  List.map
                    (fun (l, o) ->
                      if l = "body" && p.phi_dst = pi then (l, Ir.V i') else (l, o))
                    p.incoming;
              })
            blk.phis;
      }
  in
  let m = { (empty_module "m") with Ir.funcs = [ { f with blocks = List.map patch f.blocks } ] } in
  let m' = Out_of_ssa.run m in
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "swap %d" n)
        (eval_exn m ~entry:"swap" ~args:[ n ]).exit_value
        (eval_exn m' ~entry:"swap" ~args:[ n ]).exit_value)
    [ 0; 1; 2; 5 ]

(* llvm-link behaviours. *)
let test_link_flag_conflict () =
  let swift_mod =
    {
      (empty_module "swift_m") with
      Ir.flags = [ ("objc_gc", Ir.Packed (Link.pack_objc_gc ~gc_mode:0 ~compiler_id:1 ~version:502)) ];
    }
  in
  let clang_mod =
    {
      (empty_module "clang_m") with
      Ir.flags = [ ("objc_gc", Ir.Packed (Link.pack_objc_gc ~gc_mode:0 ~compiler_id:2 ~version:900)) ];
    }
  in
  (* Legacy semantics: spurious conflict from compiler identity bits. *)
  (match Link.link ~flag_semantics:Link.Legacy ~name:"app" [ swift_mod; clang_mod ] with
  | Error (Link.Flag_conflict _) -> ()
  | Ok _ -> Alcotest.fail "legacy link should conflict"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Link.error_to_string e));
  (* Attribute semantics (the paper's fix): links fine. *)
  (match Link.link ~flag_semantics:Link.Attributes ~name:"app" [ swift_mod; clang_mod ] with
  | Ok m -> Alcotest.(check string) "linked" "app" m.Ir.m_name
  | Error e -> Alcotest.fail ("attribute link failed: " ^ Link.error_to_string e));
  (* A genuine gc-mode difference must still conflict. *)
  let bad = { (empty_module "bad") with Ir.flags = [ ("objc_gc", Ir.Packed (Link.pack_objc_gc ~gc_mode:1 ~compiler_id:1 ~version:502)) ] } in
  match Link.link ~flag_semantics:Link.Attributes ~name:"app" [ swift_mod; bad ] with
  | Error (Link.Flag_conflict _) -> ()
  | Ok _ -> Alcotest.fail "genuine conflict must be detected"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Link.error_to_string e)

let module_with_globals name globals =
  {
    (empty_module name) with
    Ir.globals =
      List.map (fun g -> { Ir.g_name = g; g_init = [ Ir.Gword 0 ]; g_module = name }) globals;
  }

let test_link_data_order () =
  let m1 = module_with_globals "m1" [ "m1_a"; "m1_b"; "m1_c" ] in
  let m2 = module_with_globals "m2" [ "m2_a"; "m2_b"; "m2_c" ] in
  let preserved =
    match Link.link ~data_order:Link.Module_preserving ~name:"app" [ m1; m2 ] with
    | Ok m -> List.map (fun (g : Ir.global) -> g.g_module) m.globals
    | Error e -> Alcotest.fail (Link.error_to_string e)
  in
  Alcotest.(check (list string)) "module affinity preserved"
    [ "m1"; "m1"; "m1"; "m2"; "m2"; "m2" ] preserved;
  let interleaved =
    match Link.link ~data_order:Link.Interleaved ~name:"app" [ m1; m2 ] with
    | Ok m -> List.map (fun (g : Ir.global) -> g.g_module) m.globals
    | Error e -> Alcotest.fail (Link.error_to_string e)
  in
  (* Same multiset of globals, but affinity destroyed (with high
     probability under the hash shuffle; this fixed instance interleaves). *)
  Alcotest.(check int) "same count" 6 (List.length interleaved);
  Alcotest.(check bool) "order differs" true (interleaved <> preserved)

(* Regression for the §VI-3 data-layout fix: under [Module_preserving] the
   merged global list is *exactly* the concatenation of the input modules'
   lists — object order within each module untouched, names included — no
   matter how hash-scatter-prone the names are.  (The original llvm-link
   behaviour, modelled by [Interleaved], reorders by name hash.) *)
let test_link_data_order_preserves_object_order () =
  let st = Random.State.make [| 0xda7a |] in
  let mk_module mi =
    let name = Printf.sprintf "mod%d" mi in
    let n = 3 + Random.State.int st 5 in
    module_with_globals name
      (List.init n (fun gi ->
           Printf.sprintf "%s_g%d_%d" name gi (Random.State.int st 10000)))
  in
  let modules = List.init 4 mk_module in
  let before =
    List.concat_map
      (fun (m : Ir.modul) ->
        List.map (fun (g : Ir.global) -> g.g_name) m.globals)
      modules
  in
  match Link.link ~data_order:Link.Module_preserving ~name:"app" modules with
  | Error e -> Alcotest.fail (Link.error_to_string e)
  | Ok merged ->
    let after = List.map (fun (g : Ir.global) -> g.g_name) merged.globals in
    Alcotest.(check (list string))
      "object order identical before/after merge" before after

let test_link_duplicate_symbol () =
  let m1 = module_with_globals "m1" [ "shared" ] in
  let m2 = module_with_globals "m2" [ "shared" ] in
  match Link.link ~name:"app" [ m1; m2 ] with
  | Error (Link.Duplicate_symbol "shared") -> ()
  | Ok _ -> Alcotest.fail "expected duplicate symbol error"
  | Error e -> Alcotest.fail ("unexpected: " ^ Link.error_to_string e)

(* MergeFunctions / FMSA --------------------------------------------------- *)

let const_func name k =
  let b = Builder.create ~name ~nparams:1 () in
  let p = List.hd (Builder.params b) in
  let x = Builder.binop b Ir.Add (Ir.V p) (Ir.Imm k) in
  let y = Builder.binop b Ir.Mul (Ir.V x) (Ir.V x) in
  let z = Builder.binop b Ir.Sub (Ir.V y) (Ir.V p) in
  Builder.terminate b (Ir.Ret (Ir.V z));
  Builder.finish b

let test_merge_functions () =
  let m =
    {
      (empty_module "m") with
      Ir.funcs = [ const_func "f1" 5; const_func "f2" 5; const_func "f3" 9 ];
    }
  in
  let m', stats = Merge_functions.run ~min_instrs:1 m in
  Alcotest.(check int) "one group" 1 stats.Merge_functions.groups;
  Alcotest.(check int) "one merged" 1 stats.Merge_functions.funcs_merged;
  (* f2 became a thunk but must still compute the same thing. *)
  List.iter
    (fun n ->
      Alcotest.(check int) "f2 behaviour" (eval_exn m ~entry:"f2" ~args:[ n ]).exit_value
        (eval_exn m' ~entry:"f2" ~args:[ n ]).exit_value;
      Alcotest.(check int) "f3 untouched" (eval_exn m ~entry:"f3" ~args:[ n ]).exit_value
        (eval_exn m' ~entry:"f3" ~args:[ n ]).exit_value)
    [ 0; 3; 10 ]

let test_fmsa () =
  let m =
    {
      (empty_module "m") with
      Ir.funcs = [ const_func "g1" 5; const_func "g2" 9; const_func "g3" 123 ];
    }
  in
  let m', stats = Fmsa.run m in
  Alcotest.(check int) "one group" 1 stats.Fmsa.groups;
  Alcotest.(check int) "three thunked" 3 stats.Fmsa.funcs_merged;
  Alcotest.(check int) "one merged created" 1 stats.Fmsa.merged_created;
  (match Ir.validate m' with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("fmsa output invalid: " ^ e));
  List.iter
    (fun (f, n) ->
      Alcotest.(check int)
        (Printf.sprintf "%s(%d)" f n)
        (eval_exn m ~entry:f ~args:[ n ]).exit_value
        (eval_exn m' ~entry:f ~args:[ n ]).exit_value)
    [ ("g1", 4); ("g2", 7); ("g3", 2) ]

let test_dce () =
  let b = Builder.create ~name:"f" ~nparams:1 () in
  let p = List.hd (Builder.params b) in
  let _dead = Builder.binop b Ir.Mul (Ir.V p) (Ir.Imm 100) in
  let live = Builder.binop b Ir.Add (Ir.V p) (Ir.Imm 1) in
  Builder.terminate b (Ir.Ret (Ir.V live));
  Builder.start_block b "orphan";
  let _dead2 = Builder.assign b (Ir.Imm 1) in
  Builder.terminate b (Ir.Ret (Ir.Imm 0));
  let m = { (empty_module "m") with Ir.funcs = [ Builder.finish b ] } in
  let m', stats = Dce.run m in
  Alcotest.(check int) "block removed" 1 stats.Dce.blocks_removed;
  Alcotest.(check bool) "instrs removed" true (stats.Dce.instrs_removed >= 1);
  Alcotest.(check int) "behaviour preserved" (eval_exn m ~entry:"f" ~args:[ 4 ]).exit_value
    (eval_exn m' ~entry:"f" ~args:[ 4 ]).exit_value


(* Codegen internals: live intervals ---------------------------------------- *)

let test_intervals () =
  (* %1 = const; call; use %1  -> %1 crosses the call. *)
  let b = Builder.create ~name:"f" ~nparams:1 () in
  let p = List.hd (Builder.params b) in
  let x = Builder.assign b (Ir.Imm 5) in
  let r = Builder.call b "g" [ Ir.V p ] in
  let s = Builder.binop b Ir.Add (Ir.V x) (Ir.V r) in
  Builder.terminate b (Ir.Ret (Ir.V s));
  let f = Builder.finish b in
  let ivs = Intervals.compute f in
  let find v = List.find (fun (iv : Intervals.t) -> iv.v = v) ivs in
  Alcotest.(check bool) "x crosses the call" true (find x).Intervals.crosses_call;
  Alcotest.(check bool) "call result does not cross its own call" false
    (find r).Intervals.crosses_call;
  Alcotest.(check bool) "param starts at 0" true ((find p).Intervals.first = 0);
  (* Intervals are sorted by start. *)
  let sorted = ref true in
  let rec chk = function
    | (a : Intervals.t) :: (b' : Intervals.t) :: rest ->
      if a.first > b'.first then sorted := false;
      chk (b' :: rest)
    | _ -> ()
  in
  chk ivs;
  Alcotest.(check bool) "sorted by start" true !sorted

let test_intervals_loop_extension () =
  (* A value defined before a loop and used inside it must stay live across
     the whole loop (the back edge extends its interval). *)
  let m = sum_module () in
  let f = Out_of_ssa.run_func (List.hd m.Ir.funcs) in
  let ivs = Intervals.compute f in
  (* The parameter n (value 0) is used in the loop condition on every
     iteration; its interval must cover the loop body's positions. *)
  let n_iv = List.find (fun (iv : Intervals.t) -> iv.v = 0) ivs in
  let max_last = List.fold_left (fun a (iv : Intervals.t) -> max a iv.last) 0 ivs in
  Alcotest.(check bool) "n lives into the loop region" true
    (n_iv.Intervals.last > max_last / 2)

(* The naive interval oracle: Set-based block liveness, a table cell per
   value, a linear scan of the calls and a final sort.  [Intervals.compute]
   must return exactly what this does. *)
let naive_intervals (f : Ir.func) =
  let block_start = Hashtbl.create 16 in
  let block_end = Hashtbl.create 16 in
  let pos = ref 1 in
  List.iter
    (fun (b : Ir.block) ->
      Hashtbl.replace block_start b.label !pos;
      pos := !pos + List.length b.instrs;
      Hashtbl.replace block_end b.label !pos;
      incr pos)
    f.blocks;
  let values_of_operand = function
    | Ir.V v -> [ v ]
    | Ir.Imm _ | Ir.Global _ | Ir.Fn _ -> []
  in
  let term_values = function
    | Ir.Ret o | Ir.Cond_br (o, _, _) -> values_of_operand o
    | Ir.Br _ | Ir.Unreachable -> []
  in
  let module S = Set.Make (Int) in
  let use_set = Hashtbl.create 16 and def_set = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      let uses = ref S.empty and defs = ref S.empty in
      let use v = if not (S.mem v !defs) then uses := S.add v !uses in
      List.iter
        (fun i ->
          List.iter
            (fun o -> List.iter use (values_of_operand o))
            (Ir.operands_of_instr i);
          match Ir.def_of_instr i with
          | Some d -> defs := S.add d !defs
          | None -> ())
        b.instrs;
      List.iter use (term_values b.term);
      Hashtbl.replace use_set b.label !uses;
      Hashtbl.replace def_set b.label !defs)
    f.blocks;
  let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      Hashtbl.replace live_in b.label S.empty;
      Hashtbl.replace live_out b.label S.empty)
    f.blocks;
  let changed = ref true in
  let rev_blocks = List.rev f.blocks in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Ir.block) ->
        let out =
          List.fold_left
            (fun acc l -> S.union acc (Hashtbl.find live_in l))
            S.empty (Ir.successors b.term)
        in
        let inn =
          S.union (Hashtbl.find use_set b.label)
            (S.diff out (Hashtbl.find def_set b.label))
        in
        if not (S.equal inn (Hashtbl.find live_in b.label)) then begin
          Hashtbl.replace live_in b.label inn;
          changed := true
        end;
        Hashtbl.replace live_out b.label out)
      rev_blocks
  done;
  let first = Hashtbl.create 64 and last = Hashtbl.create 64 in
  let touch v p =
    (match Hashtbl.find_opt first v with
    | Some q when q <= p -> ()
    | Some _ | None -> Hashtbl.replace first v p);
    match Hashtbl.find_opt last v with
    | Some q when q >= p -> ()
    | Some _ | None -> Hashtbl.replace last v p
  in
  List.iter (fun p -> touch p 0) f.params;
  let call_positions = ref [] in
  List.iter
    (fun (b : Ir.block) ->
      let bstart = Hashtbl.find block_start b.label in
      let bend = Hashtbl.find block_end b.label in
      S.iter (fun v -> touch v bstart) (Hashtbl.find live_in b.label);
      S.iter (fun v -> touch v bend) (Hashtbl.find live_out b.label);
      List.iteri
        (fun i instr ->
          let p = bstart + i in
          if Intervals.is_call_position instr then
            call_positions := p :: !call_positions;
          List.iter
            (fun o -> List.iter (fun v -> touch v p) (values_of_operand o))
            (Ir.operands_of_instr instr);
          match Ir.def_of_instr instr with
          | Some d -> touch d p
          | None -> ())
        b.instrs;
      List.iter (fun v -> touch v bend) (term_values b.term))
    f.blocks;
  let calls = List.sort Int.compare !call_positions in
  let crosses a b = List.exists (fun p -> p > a && p < b) calls in
  let out = ref [] in
  Hashtbl.iter
    (fun v p1 ->
      let p2 = Hashtbl.find last v in
      out :=
        { Intervals.v; first = p1; last = p2; crosses_call = crosses p1 p2 }
        :: !out)
    first;
  List.sort
    (fun (a : Intervals.t) (b : Intervals.t) ->
      match Int.compare a.first b.first with 0 -> Int.compare a.v b.v | c -> c)
    !out

let modules_exn = function Ok ms -> ms | Error e -> Alcotest.fail e

let rider_modules () =
  modules_exn (Workload.Appgen.generate_modules Workload.Appgen.uber_rider)

(* uber_rider, SmallApp_x3 and the 26 Swiftlet benchmarks. *)
let corpus_modules () =
  rider_modules ()
  @ modules_exn
      (Workload.Appgen.generate_modules
         (Workload.Appgen.scaled ~mult:3 Workload.Appgen.small))
  @ List.map
      (fun (b : Workload.Benchmarks.t) ->
        match Swiftlet.Compile.compile_module ~name:b.bench_name b.source with
        | Ok m -> m
        | Error e -> Alcotest.fail (b.bench_name ^ ": " ^ e))
      Workload.Benchmarks.all

(* DCE against its old self ----------------------------------------------- *)

(* [Dce.run_func] as it was before the all-live check, kept verbatim as
   its oracle: it rebuilds every function, dead code or not. *)
module Old_dce = struct
  let is_pure = function
    | Ir.Assign _ | Ir.Binop _ | Ir.Icmp _ | Ir.Load _ | Ir.Alloc_object _
    | Ir.Alloc_array _ ->
      true
    | Ir.Store _ | Ir.Call _ | Ir.Call_indirect _ | Ir.Retain _
    | Ir.Release _ ->
      false

  let reachable_labels (f : Ir.func) =
    let seen = Hashtbl.create 16 in
    let by_label = Hashtbl.create 16 in
    List.iter (fun (b : Ir.block) -> Hashtbl.replace by_label b.label b) f.blocks;
    let rec visit l =
      if not (Hashtbl.mem seen l) then begin
        Hashtbl.replace seen l ();
        match Hashtbl.find_opt by_label l with
        | Some b -> List.iter visit (Ir.successors b.term)
        | None -> ()
      end
    in
    (match f.blocks with b :: _ -> visit b.label | [] -> ());
    seen

  let run_func (f : Ir.func) =
    let reach = reachable_labels f in
    let blocks =
      List.filter (fun (b : Ir.block) -> Hashtbl.mem reach b.label) f.blocks
    in
    let blocks_removed = List.length f.blocks - List.length blocks in
    let blocks =
      List.map
        (fun (b : Ir.block) ->
          let phis =
            List.map
              (fun (p : Ir.phi) ->
                { p with Ir.incoming = List.filter (fun (l, _) -> Hashtbl.mem reach l) p.incoming })
              b.phis
          in
          { b with phis })
        blocks
    in
    let instrs_removed = ref 0 in
    let rec sweep blocks =
      let used = Hashtbl.create 64 in
      let mark = function
        | Ir.V v -> Hashtbl.replace used v ()
        | Ir.Imm _ | Ir.Global _ | Ir.Fn _ -> ()
      in
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (p : Ir.phi) -> List.iter (fun (_, o) -> mark o) p.incoming)
            b.phis;
          List.iter (fun i -> List.iter mark (Ir.operands_of_instr i)) b.instrs;
          match b.term with
          | Ir.Ret o -> mark o
          | Ir.Cond_br (o, _, _) -> mark o
          | Ir.Br _ | Ir.Unreachable -> ())
        blocks;
      let changed = ref false in
      let blocks =
        List.map
          (fun (b : Ir.block) ->
            let instrs =
              List.filter
                (fun i ->
                  match Ir.def_of_instr i with
                  | Some d when is_pure i && not (Hashtbl.mem used d) ->
                    incr instrs_removed;
                    changed := true;
                    false
                  | Some _ | None -> true)
                b.instrs
            in
            { b with instrs })
          blocks
      in
      if !changed then sweep blocks else blocks
    in
    let blocks = sweep blocks in
    ({ f with blocks }, { Dce.blocks_removed; instrs_removed = !instrs_removed })
end

(* [Dce.run_func f] equals the oracle, and returns [f] itself when the
   oracle removes nothing.  Returns whether anything was removed. *)
let check_dce_oracle (f : Ir.func) =
  let got, s = Dce.run_func f in
  let want, t = Old_dce.run_func f in
  if got <> want then Alcotest.failf "dce of %s differs from the oracle" f.Ir.name;
  if s <> t then
    Alcotest.failf "dce stats of %s: %d/%d blocks/instrs, oracle %d/%d" f.Ir.name
      s.Dce.blocks_removed s.Dce.instrs_removed t.Dce.blocks_removed
      t.Dce.instrs_removed;
  let removed = t.Dce.blocks_removed + t.Dce.instrs_removed > 0 in
  if (not removed) && got != f then
    Alcotest.failf "dce copied %s although nothing in it is dead" f.Ir.name;
  removed

(* Unreachable blocks, one of them a cycle. *)
let dce_unreachable () =
  let b = Builder.create ~name:"unreachable" ~nparams:1 () in
  let p = List.hd (Builder.params b) in
  Builder.terminate b (Ir.Ret (Ir.V p));
  Builder.start_block b "orphan";
  let x = Builder.assign b (Ir.Imm 1) in
  Builder.terminate b (Ir.Cond_br (Ir.V x, "orphan2", "orphan"));
  Builder.start_block b "orphan2";
  Builder.terminate b (Ir.Br "orphan");
  Builder.finish b

(* A chain of dead pure instructions: each sweep frees the next. *)
let dce_dead_chain () =
  let b = Builder.create ~name:"chain" ~nparams:1 () in
  let p = List.hd (Builder.params b) in
  let a = Builder.binop b Ir.Add (Ir.V p) (Ir.Imm 1) in
  let c = Builder.binop b Ir.Mul (Ir.V a) (Ir.Imm 2) in
  let d = Builder.load b (Ir.V c) 8 in
  let _ = Builder.icmp b Machine.Cond.Lt (Ir.V d) (Ir.V p) in
  Builder.call_void b "g" [ Ir.V p ];
  Builder.terminate b (Ir.Ret (Ir.V p));
  Builder.finish b

(* A phi fed from a block that is removed, along with its value. *)
let dce_phi_from_removed () =
  let b = Builder.create ~name:"phi_removed" ~nparams:1 () in
  let p = List.hd (Builder.params b) in
  let phi = Builder.fresh b in
  Builder.terminate b (Ir.Cond_br (Ir.V p, "left", "join"));
  Builder.start_block b "left";
  Builder.terminate b (Ir.Br "join");
  Builder.start_block b "dead";
  let x = Builder.assign b (Ir.Imm 7) in
  Builder.terminate b (Ir.Br "join");
  Builder.start_block b "join";
  Builder.add_phi b phi
    [ ("entry", Ir.Imm 1); ("left", Ir.Imm 2); ("dead", Ir.V x) ];
  Builder.terminate b (Ir.Ret (Ir.V phi));
  Builder.finish b

(* Nothing dead: one value is used only by a phi, one only by a branch and
   one only by a return. *)
let dce_phi_and_terminator_uses () =
  let b = Builder.create ~name:"all_live" ~nparams:1 () in
  let p = List.hd (Builder.params b) in
  let by_phi = Builder.binop b Ir.Add (Ir.V p) (Ir.Imm 1) in
  let by_branch = Builder.icmp b Machine.Cond.Lt (Ir.V p) (Ir.Imm 3) in
  let phi = Builder.fresh b in
  Builder.terminate b (Ir.Cond_br (Ir.V by_branch, "a", "join"));
  Builder.start_block b "a";
  Builder.terminate b (Ir.Br "join");
  Builder.start_block b "join";
  Builder.add_phi b phi [ ("entry", Ir.Imm 0); ("a", Ir.V by_phi) ];
  let by_ret = Builder.binop b Ir.Sub (Ir.V phi) (Ir.Imm 1) in
  Builder.terminate b (Ir.Ret (Ir.V by_ret));
  Builder.finish b

let test_dce_oracle_hand_built () =
  List.iter
    (fun (f, expect_removed) ->
      Alcotest.(check bool) f.Ir.name expect_removed (check_dce_oracle f))
    [
      (dce_unreachable (), true);
      (dce_dead_chain (), true);
      (dce_phi_from_removed (), true);
      (dce_phi_and_terminator_uses (), false);
    ];
  let _, s = Dce.run_func (dce_dead_chain ()) in
  Alcotest.(check int) "the whole chain goes" 4 s.Dce.instrs_removed

let test_dce_oracle_programs () =
  let removed = ref 0 and kept = ref 0 in
  let check_module (m : Ir.modul) =
    List.iter
      (fun f -> if check_dce_oracle f then incr removed else incr kept)
      m.Ir.funcs;
    let m', s = Dce.run m in
    let want_funcs, want_blocks, want_instrs =
      List.fold_right
        (fun f (fs, bl, ins) ->
          let f', t = Old_dce.run_func f in
          (f' :: fs, bl + t.Dce.blocks_removed, ins + t.Dce.instrs_removed))
        m.Ir.funcs ([], 0, 0)
    in
    if m'.Ir.funcs <> want_funcs then
      Alcotest.failf "dce of module %s differs from the oracle" m.Ir.m_name;
    Alcotest.(check (pair int int)) "module stats" (want_blocks, want_instrs)
      (s.Dce.blocks_removed, s.Dce.instrs_removed)
  in
  for seed = 1 to 40 do
    let p = Fuzz.Swiftgen.generate (Random.State.make [| seed; 0 |]) ~fuel:8 in
    List.iter check_module
      (modules_exn (Swiftlet.Compile.compile_program (Fuzz.Swiftgen.to_sources p)))
  done;
  List.iter check_module (rider_modules ());
  (* Both paths must be exercised. *)
  Alcotest.(check bool) "some functions lose code" true (!removed > 0);
  Alcotest.(check bool) "some functions keep it all" true (!kept > 0)

let test_intervals_match_oracle () =
  let n = ref 0 in
  List.iter
    (fun (m : Ir.modul) ->
      List.iter
        (fun f ->
          let f = Out_of_ssa.run_func f in
          incr n;
          if Intervals.compute f <> naive_intervals f then
            Alcotest.failf "intervals of %s in %s differ from the oracle"
              f.Ir.name m.Ir.m_name)
        m.Ir.funcs)
    (corpus_modules ());
  (* uber_rider alone has 1,732 functions. *)
  Alcotest.(check bool) "functions compared" true (!n > 1732)

(* uber_rider's compiled modules, printed, are pinned with the default
   register pools and with shuffled ones. *)
let test_codegen_pinned () =
  let ms = rider_modules () in
  let md5 ?regalloc_seed () =
    List.map
      (fun m ->
        Machine.Asm_printer.to_source (Codegen.compile_modul ?regalloc_seed m))
      ms
    |> String.concat "" |> Digest.string |> Digest.to_hex
  in
  Alcotest.(check string) "default pools" "e800879d00c59ff26801511a5bd99a60"
    (md5 ());
  Alcotest.(check string) "regalloc_seed 1234"
    "d6c9e252273cc95fd560a1848f1be700"
    (md5 ~regalloc_seed:1234 ())

(* Codegen differential ----------------------------------------------------- *)

let machine_result m ~entry ~args =
  let prog = Codegen.compile_modul m in
  (match Machine.Program.validate prog with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("compiled program invalid: " ^ e));
  let config = { Perfsim.Interp.default_config with model_perf = false } in
  match Perfsim.Interp.run ~config ~args ~entry prog with
  | Ok r -> (r.exit_value, r.output)
  | Error e -> Alcotest.fail ("machine exec error: " ^ Perfsim.Interp.error_to_string e)

let check_diff ?(args = []) m ~entry =
  let er = eval_exn m ~entry ~args in
  let mv, mo = machine_result m ~entry ~args in
  Alcotest.(check int) (entry ^ " exit value") er.exit_value mv;
  Alcotest.(check (list int)) (entry ^ " output") er.output mo

let test_codegen_sum () =
  let m = sum_module () in
  List.iter (fun n -> check_diff m ~entry:"sum" ~args:[ n ]) [ 0; 1; 10; 100 ]

let test_codegen_objects () =
  let b = Builder.create ~name:"main" ~nparams:0 () in
  let obj = Builder.alloc_object b "Meta" 40 in
  Builder.retain b (Ir.V obj);
  Builder.store b (Ir.Imm 5) (Ir.V obj) 16;
  Builder.store b (Ir.Imm 6) (Ir.V obj) 24;
  let a = Builder.load b (Ir.V obj) 16 in
  let c = Builder.load b (Ir.V obj) 24 in
  let s = Builder.binop b Ir.Add (Ir.V a) (Ir.V c) in
  Builder.call_void b "print_i64" [ Ir.V s ];
  let rc = Builder.load b (Ir.V obj) 0 in
  Builder.call_void b "print_i64" [ Ir.V rc ];
  Builder.release b (Ir.V obj);
  Builder.terminate b (Ir.Ret (Ir.V s));
  let m =
    {
      (empty_module "m") with
      Ir.funcs = [ Builder.finish b ];
      globals = [ { Ir.g_name = "Meta"; g_init = [ Ir.Gword 1 ]; g_module = "m" } ];
    }
  in
  check_diff m ~entry:"main"

let test_codegen_spills () =
  (* More simultaneously-live values than there are registers: forces
     spilling; all values are summed at the end across a call. *)
  let b = Builder.create ~name:"main" ~nparams:0 () in
  let vals = List.init 24 (fun i -> Builder.assign b (Ir.Imm (i * 3))) in
  Builder.call_void b "print_i64" [ Ir.Imm 1 ];
  let total =
    List.fold_left
      (fun acc v -> Builder.binop b Ir.Add (Ir.V acc) (Ir.V v))
      (List.hd vals) (List.tl vals)
  in
  Builder.terminate b (Ir.Ret (Ir.V total));
  let m = { (empty_module "m") with Ir.funcs = [ Builder.finish b ] } in
  check_diff m ~entry:"main"

let test_codegen_calls_across () =
  (* Values live across calls must survive in callee-saved registers. *)
  let callee =
    let b = Builder.create ~name:"triple" ~nparams:1 () in
    let p = List.hd (Builder.params b) in
    let r = Builder.binop b Ir.Mul (Ir.V p) (Ir.Imm 3) in
    Builder.terminate b (Ir.Ret (Ir.V r));
    Builder.finish b
  in
  let b = Builder.create ~name:"main" ~nparams:0 () in
  let a = Builder.assign b (Ir.Imm 7) in
  let r1 = Builder.call b "triple" [ Ir.V a ] in
  let r2 = Builder.call b "triple" [ Ir.V r1 ] in
  let s = Builder.binop b Ir.Add (Ir.V a) (Ir.V r1) in
  let s2 = Builder.binop b Ir.Add (Ir.V s) (Ir.V r2) in
  Builder.terminate b (Ir.Ret (Ir.V s2));
  let m = { (empty_module "m") with Ir.funcs = [ Builder.finish b; callee ] } in
  check_diff m ~entry:"main"

let test_codegen_frame_shape () =
  (* A function with calls must save fp/lr with stp and restore with ldp —
     the paper's Listing 7/8 shape. *)
  let b = Builder.create ~name:"main" ~nparams:0 () in
  let x = Builder.assign b (Ir.Imm 1) in
  Builder.call_void b "print_i64" [ Ir.V x ];
  let y = Builder.binop b Ir.Add (Ir.V x) (Ir.Imm 1) in
  Builder.call_void b "print_i64" [ Ir.V y ];
  Builder.terminate b (Ir.Ret (Ir.Imm 0));
  let m = { (empty_module "m") with Ir.funcs = [ Builder.finish b ] } in
  let prog = Codegen.compile_modul m in
  let f = Option.get (Machine.Program.find_func prog "main") in
  let entry = Machine.Mfunc.entry f in
  (match entry.Machine.Block.body.(0) with
  | Machine.Insn.Stp (a, l, { base = Machine.Reg.SP; mode = Machine.Insn.Pre; _ })
    when Machine.Reg.equal a Machine.Reg.fp && Machine.Reg.equal l Machine.Reg.lr ->
    ()
  | i -> Alcotest.fail ("expected fp/lr save, got " ^ Machine.Insn.to_string i));
  (* The instruction before ret must restore fp/lr. *)
  let last = entry.Machine.Block.body.(Array.length entry.Machine.Block.body - 1) in
  match last with
  | Machine.Insn.Ldp (a, l, { base = Machine.Reg.SP; mode = Machine.Insn.Post; _ })
    when Machine.Reg.equal a Machine.Reg.fp && Machine.Reg.equal l Machine.Reg.lr ->
    ()
  | i -> Alcotest.fail ("expected fp/lr restore, got " ^ Machine.Insn.to_string i)

(* Random differential: generated MIR modules behave identically compiled. *)
let gen_module =
  QCheck.Gen.(
    let gen_func fidx callable =
      (* ops reference only already-defined values; calls only target
         already-generated functions, so the call graph is acyclic. *)
      let* n_ops = int_range 1 14 in
      let name = Printf.sprintf "fn%d" fidx in
      let b = Builder.create ~name ~nparams:1 () in
      let rec build nvals i =
        if i >= n_ops then return nvals
        else
          let pick_val = map (fun k -> Ir.V (k mod nvals)) (int_range 0 (nvals - 1)) in
          let call_cases =
            if callable = [] then []
            else [ (2, map2 (fun f a -> `Call (f, a)) (oneofl callable) pick_val) ]
          in
          let* op =
            frequency
              ([
                 (3, map (fun n -> `Const n) (int_range 0 20));
                 ( 4,
                   map3
                     (fun o a b' -> `Bin (o, a, b'))
                     (oneofl [ Ir.Add; Ir.Sub; Ir.Mul; Ir.And; Ir.Or; Ir.Xor ])
                     pick_val pick_val );
                 ( 2,
                   map2
                     (fun c a -> `Cmp (c, a))
                     (oneofl Machine.Cond.[ Eq; Ne; Lt; Ge ])
                     pick_val );
                 (1, map (fun a -> `Print a) pick_val);
               ]
              @ call_cases)
          in
          match op with
          | `Const n ->
            ignore (Builder.assign b (Ir.Imm n));
            build (nvals + 1) (i + 1)
          | `Bin (o, a, b') ->
            ignore (Builder.binop b o a b');
            build (nvals + 1) (i + 1)
          | `Cmp (c, a) ->
            ignore (Builder.icmp b c a (Ir.Imm 5));
            build (nvals + 1) (i + 1)
          | `Call (f, a) ->
            ignore (Builder.call b f [ a ]);
            build (nvals + 1) (i + 1)
          | `Print a ->
            Builder.call_void b "print_i64" [ a ];
            build nvals (i + 1)
      in
      let* nvals = build 1 0 in
      (* Return the last defined value via a diamond to exercise branches. *)
      let c = Builder.icmp b Machine.Cond.Ge (Ir.V (nvals - 1)) (Ir.Imm 10) in
      Builder.terminate b (Ir.Cond_br (Ir.V c, "big", "small"));
      Builder.start_block b "big";
      let r1 = Builder.binop b Ir.Add (Ir.V (nvals - 1)) (Ir.Imm 1) in
      Builder.terminate b (Ir.Ret (Ir.V r1));
      Builder.start_block b "small";
      let r2 = Builder.binop b Ir.Sub (Ir.V (nvals - 1)) (Ir.Imm 1) in
      Builder.terminate b (Ir.Ret (Ir.V r2));
      return (Builder.finish b)
    in
    let* nfuncs = int_range 1 5 in
    let rec go i acc callable =
      if i >= nfuncs then return (List.rev acc)
      else
        let* f = gen_func i callable in
        go (i + 1) (f :: acc) (f.Ir.name :: callable)
    in
    let* funcs = go 0 [] [] in
    (* main calls every function and folds the results. *)
    let b = Builder.create ~name:"main" ~nparams:0 () in
    let acc0 = Builder.assign b (Ir.Imm 1) in
    let acc =
      List.fold_left
        (fun acc (f : Ir.func) ->
          let r = Builder.call b f.Ir.name [ Ir.V acc ] in
          Builder.binop b Ir.Xor (Ir.V acc) (Ir.V r))
        acc0 funcs
    in
    Builder.call_void b "print_i64" [ Ir.V acc ];
    Builder.terminate b (Ir.Ret (Ir.V acc));
    return { (empty_module "rand") with Ir.funcs = Builder.finish b :: funcs })

let arb_module =
  QCheck.make gen_module ~print:(fun m -> Format.asprintf "%a" Ir.pp_modul m)

let prop_codegen_matches_eval =
  QCheck.Test.make ~count:250 ~name:"codegen matches MIR evaluation" arb_module
    (fun m ->
      match Eval.run ~entry:"main" m with
      | Error e -> QCheck.Test.fail_reportf "eval failed: %s" (Eval.error_to_string e)
      | Ok er -> (
        let prog = Codegen.compile_modul m in
        (match Machine.Program.validate prog with
        | Ok () -> ()
        | Error e -> QCheck.Test.fail_reportf "invalid program: %s" e);
        let config = { Perfsim.Interp.default_config with model_perf = false } in
        match Perfsim.Interp.run ~config ~entry:"main" prog with
        | Error e ->
          QCheck.Test.fail_reportf "machine failed: %s"
            (Perfsim.Interp.error_to_string e)
        | Ok mr ->
          er.exit_value = mr.exit_value && er.output = mr.output))

let prop_codegen_seed_matches_eval =
  QCheck.Test.make ~count:100
    ~name:"randomized register pools preserve behaviour (future work 2)" arb_module
    (fun m ->
      match Eval.run ~entry:"main" m with
      | Error e -> QCheck.Test.fail_reportf "eval failed: %s" (Eval.error_to_string e)
      | Ok er -> (
        let prog = Codegen.compile_modul ~regalloc_seed:1234 m in
        (match Machine.Program.validate prog with
        | Ok () -> ()
        | Error e -> QCheck.Test.fail_reportf "invalid program: %s" e);
        let config = { Perfsim.Interp.default_config with model_perf = false } in
        match Perfsim.Interp.run ~config ~entry:"main" prog with
        | Error e ->
          QCheck.Test.fail_reportf "machine failed: %s"
            (Perfsim.Interp.error_to_string e)
        | Ok mr ->
          er.exit_value = mr.exit_value && er.output = mr.output))

let prop_codegen_then_outline_matches_eval =
  QCheck.Test.make ~count:150
    ~name:"codegen + whole-program outlining matches MIR evaluation" arb_module
    (fun m ->
      match Eval.run ~entry:"main" m with
      | Error e -> QCheck.Test.fail_reportf "eval failed: %s" (Eval.error_to_string e)
      | Ok er -> (
        let prog = Codegen.compile_modul m in
        let prog, _ = Outcore.Repeat.run ~rounds:5 prog in
        let config = { Perfsim.Interp.default_config with model_perf = false } in
        match Perfsim.Interp.run ~config ~entry:"main" prog with
        | Error e ->
          QCheck.Test.fail_reportf "outlined machine failed: %s"
            (Perfsim.Interp.error_to_string e)
        | Ok mr ->
          er.exit_value = mr.exit_value && er.output = mr.output))

let () =
  Alcotest.run "mir"
    [
      ( "ir",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "eval sum" `Quick test_eval_sum;
          Alcotest.test_case "eval objects" `Quick test_eval_objects;
        ] );
      ( "out_of_ssa",
        [
          Alcotest.test_case "lowering" `Quick test_out_of_ssa;
          Alcotest.test_case "swap problem" `Quick test_out_of_ssa_swap;
        ] );
      ( "link",
        [
          Alcotest.test_case "flag conflict" `Quick test_link_flag_conflict;
          Alcotest.test_case "data order" `Quick test_link_data_order;
          Alcotest.test_case "data order: object order preserved" `Quick
            test_link_data_order_preserves_object_order;
          Alcotest.test_case "duplicate symbol" `Quick test_link_duplicate_symbol;
        ] );
      ( "merging",
        [
          Alcotest.test_case "merge functions" `Quick test_merge_functions;
          Alcotest.test_case "fmsa" `Quick test_fmsa;
          Alcotest.test_case "dce" `Quick test_dce;
          Alcotest.test_case "dce matches its oracle: hand-built" `Quick
            test_dce_oracle_hand_built;
          Alcotest.test_case "dce matches its oracle: programs" `Quick
            test_dce_oracle_programs;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "intervals" `Quick test_intervals;
          Alcotest.test_case "intervals loop extension" `Quick
            test_intervals_loop_extension;
          Alcotest.test_case "intervals match the oracle" `Quick
            test_intervals_match_oracle;
          Alcotest.test_case "compiled uber_rider is pinned" `Quick
            test_codegen_pinned;
          Alcotest.test_case "sum loop" `Quick test_codegen_sum;
          Alcotest.test_case "objects" `Quick test_codegen_objects;
          Alcotest.test_case "spills" `Quick test_codegen_spills;
          Alcotest.test_case "values across calls" `Quick test_codegen_calls_across;
          Alcotest.test_case "frame shape" `Quick test_codegen_frame_shape;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_codegen_matches_eval;
            prop_codegen_seed_matches_eval;
            prop_codegen_then_outline_matches_eval;
          ] );
    ]
