let error_global = "swift_error"

(* Module-level lowering state. *)
type lctx = {
  env : Sigs.t;
  module_name : string;
  decls : (string, Ast.func_decl) Hashtbl.t;
  defined : (string, unit) Hashtbl.t;        (* symbols defined in this module *)
  called : (string, unit) Hashtbl.t;         (* symbols referenced *)
  mutable extra_funcs : Ir.func list;        (* lifted closures, specializations *)
  mutable clos_counter : int;
  mutable spec_counter : int;
  fn_thunks : (string, string) Hashtbl.t;    (* function-as-value wrappers *)
}

type binding = {
  op : Ir.operand;
  ty : Ast.ty;
  owned : bool;
}

type venv = (string * binding) list

(* Per-function lowering state. *)
type fctx = {
  l : lctx;
  b : Builder.t;
  fn_name : string;
  throws : bool;
  init_info : (Sigs.class_info * Ir.operand) option;  (* class, self *)
  mutable err_edges : (string * int) list;   (* init: pred label, #ref assigns done *)
  mutable ref_assign_offsets : int list;     (* init: offsets in assignment order, reversed *)
  mutable rethrow_label : string option;     (* plain throwing functions *)
  mutable fail_label : string option;        (* shared bounds-failure block *)
  mutable phi_patches : (string * Ir.value * (string * Ir.operand)) list;
  spec_depth : int;
}

let meta_symbol lctx cls = lctx.module_name ^ "_meta_" ^ cls

let note_call fctx name = Hashtbl.replace fctx.l.called name ()

let lookup_binding venv name = List.assoc_opt name venv

let set_binding venv name b =
  (name, b) :: List.remove_assoc name venv

(* --- bounds-failure and rethrow blocks ----------------------------------- *)

let bounds_fail_label fctx =
  match fctx.fail_label with
  | Some l -> l
  | None ->
    let l = Builder.fresh_label fctx.b "bounds_fail" in
    fctx.fail_label <- Some l;
    l

let rethrow_target fctx ~n_ref_assigns_so_far =
  match fctx.init_info with
  | Some _ ->
    (* Error edges in initializers go to the cleanup block L; the caller
       records the edge itself (it needs the pred label). *)
    ignore n_ref_assigns_so_far;
    "cleanup_L"
  | None -> (
    match fctx.rethrow_label with
    | Some l -> l
    | None ->
      let l = Builder.fresh_label fctx.b "rethrow" in
      fctx.rethrow_label <- Some l;
      l)

(* --- expressions ---------------------------------------------------------- *)

let binop_map : (Ast.binop * Ir.binop) list =
  [
    (Ast.Add, Ir.Add); (Ast.Sub, Ir.Sub); (Ast.Mul, Ir.Mul); (Ast.Div, Ir.Div);
    (Ast.BAnd, Ir.And); (Ast.BOr, Ir.Or); (Ast.BXor, Ir.Xor);
    (Ast.Shl, Ir.Shl); (Ast.Shr, Ir.Ashr);
  ]

let cmp_map : (Ast.binop * Machine.Cond.t) list =
  [
    (Ast.Eq, Machine.Cond.Eq); (Ast.Ne, Machine.Cond.Ne);
    (Ast.Lt, Machine.Cond.Lt); (Ast.Le, Machine.Cond.Le);
    (Ast.Gt, Machine.Cond.Gt); (Ast.Ge, Machine.Cond.Ge);
  ]

let class_of_ty env = function
  | Ast.T_class c -> (
    match Sigs.lookup_class env c with
    | Some ci -> ci
    | None -> invalid_arg ("Lower: unknown class " ^ c))
  | t -> invalid_arg (Format.asprintf "Lower: expected class, got %a" Ast.pp_ty t)

(* Syntactically assigned variables, for loop phi placement. *)
let rec assigned_in_stmts acc stmts = List.fold_left assigned_in_stmt acc stmts

and assigned_in_stmt acc = function
  | Ast.Assign (Ast.L_var v, _) -> if List.mem v acc then acc else v :: acc
  | Ast.Assign ((Ast.L_field _ | Ast.L_index _), _) -> acc
  | Ast.If (_, a, b) -> assigned_in_stmts (assigned_in_stmts acc a) b
  | Ast.While (_, b) -> assigned_in_stmts acc b
  | Ast.For (_, _, _, b) -> assigned_in_stmts acc b
  | Ast.Let _ | Ast.Return _ | Ast.Throw | Ast.Print _ | Ast.Expr_stmt _ -> acc

(* Free variables of an expression/stmt list (for closure capture). *)
let rec free_expr bound acc = function
  | Ast.Int_lit _ | Ast.Bool_lit _ -> acc
  | Ast.Var v -> if List.mem v bound || List.mem v acc then acc else v :: acc
  | Ast.Binop (_, a, b) -> free_expr bound (free_expr bound acc a) b
  | Ast.Neg a | Ast.Not a | Ast.Try a | Ast.Try_opt a | Ast.Array_make a
  | Ast.Array_len a ->
    free_expr bound acc a
  | Ast.Call (_, args) -> List.fold_left (free_expr bound) acc args
  | Ast.Call_expr (f, args) -> List.fold_left (free_expr bound) (free_expr bound acc f) args
  | Ast.Method_call (r, _, args) -> List.fold_left (free_expr bound) (free_expr bound acc r) args
  | Ast.Field (r, _) -> free_expr bound acc r
  | Ast.Index (a, i) -> free_expr bound (free_expr bound acc a) i
  | Ast.Closure (ps, body) ->
    let bound' = List.map fst ps @ bound in
    free_stmts bound' acc body

and free_stmts bound acc stmts =
  let bound = ref bound and acc = ref acc in
  List.iter
    (fun s ->
      match s with
      | Ast.Let (v, _, e) ->
        acc := free_expr !bound !acc e;
        bound := v :: !bound
      | Ast.Assign (lv, e) ->
        (match lv with
        | Ast.L_var v -> if not (List.mem v !bound) && not (List.mem v !acc) then acc := v :: !acc
        | Ast.L_field (r, _) -> acc := free_expr !bound !acc r
        | Ast.L_index (a, i) -> acc := free_expr !bound (free_expr !bound !acc a) i);
        acc := free_expr !bound !acc e
      | Ast.If (c, a, b) ->
        acc := free_expr !bound !acc c;
        acc := free_stmts !bound !acc a;
        acc := free_stmts !bound !acc b
      | Ast.While (c, b) ->
        acc := free_expr !bound !acc c;
        acc := free_stmts !bound !acc b
      | Ast.For (v, lo, hi, b) ->
        acc := free_expr !bound (free_expr !bound !acc lo) hi;
        acc := free_stmts (v :: !bound) !acc b
      | Ast.Return (Some e) | Ast.Print e | Ast.Expr_stmt e ->
        acc := free_expr !bound !acc e
      | Ast.Return None | Ast.Throw -> ())
    stmts;
  !acc

let rec lower_expr (f : fctx) (venv : venv) (e : Ast.expr) : Ir.operand * Ast.ty =
  match e with
  | Ast.Int_lit n -> (Ir.Imm n, Ast.T_int)
  | Ast.Bool_lit b -> (Ir.Imm (if b then 1 else 0), Ast.T_bool)
  | Ast.Var name -> (
    match lookup_binding venv name with
    | Some b -> (b.op, b.ty)
    | None -> (
      (* A function used as a value: wrap in a closure object so that all
         indirect calls share one convention. *)
      match Sigs.lookup_func f.l.env name with
      | Some fs ->
        let thunk = fn_value_thunk f name fs in
        let c = Builder.alloc_array f.b (Ir.Imm 1) in
        Builder.store f.b (Ir.Fn thunk) (Ir.V c) 16;
        (Ir.V c, Ast.T_func (fs.fs_params, fs.fs_ret))
      | None -> invalid_arg ("Lower: unknown variable " ^ name)))
  | Ast.Binop (op, a, bb) -> lower_binop f venv op a bb
  | Ast.Neg a ->
    let va, _ = lower_expr f venv a in
    (Ir.V (Builder.binop f.b Ir.Sub (Ir.Imm 0) va), Ast.T_int)
  | Ast.Not a ->
    let va, _ = lower_expr f venv a in
    (Ir.V (Builder.binop f.b Ir.Xor va (Ir.Imm 1)), Ast.T_bool)
  | Ast.Call (name, args) -> lower_call f venv name args ~try_kind:`No
  | Ast.Call_expr (fn, args) -> (
    let fop, fty = lower_expr f venv fn in
    let rty =
      match fty with
      | Ast.T_func (_, r) -> r
      | _ -> invalid_arg "Lower: calling a non-function value"
    in
    let argvals = List.map (fun a -> fst (lower_expr f venv a)) args in
    match fop with
    | Ir.V _ | Ir.Global _ ->
      let fnptr = Builder.load f.b fop 16 in
      let r = Builder.fresh f.b in
      Builder.instr f.b (Ir.Call_indirect (Some r, Ir.V fnptr, fop :: argvals));
      (Ir.V r, rty)
    | Ir.Fn _ | Ir.Imm _ -> invalid_arg "Lower: bad function value")
  | Ast.Method_call (recv, m, args) ->
    let rv, rty = lower_expr f venv recv in
    let ci = class_of_ty f.l.env rty in
    let mangled = Sigs.mangle_method ci.ci_name m in
    note_call f mangled;
    let argvals = List.map (fun a -> fst (lower_expr f venv a)) args in
    let fs =
      match Sigs.lookup_func f.l.env mangled with
      | Some fs -> fs
      | None -> invalid_arg ("Lower: unknown method " ^ mangled)
    in
    let r = Builder.call f.b mangled (rv :: argvals) in
    (Ir.V r, fs.fs_ret)
  | Ast.Field (recv, field) ->
    let rv, rty = lower_expr f venv recv in
    let ci = class_of_ty f.l.env rty in
    let off =
      match Sigs.field_offset ci field with
      | Some o -> o
      | None -> invalid_arg ("Lower: unknown field " ^ field)
    in
    let fty = Option.get (Sigs.field_type ci field) in
    (Ir.V (Builder.load f.b rv off), fty)
  | Ast.Index (a, i) ->
    let av, _ = lower_expr f venv a in
    let iv, _ = lower_expr f venv i in
    let addr = checked_element_address f av iv in
    (Ir.V (Builder.load f.b (Ir.V addr) 0), Ast.T_int)
  | Ast.Array_make n ->
    let nv, _ = lower_expr f venv n in
    note_call f "swift_allocArray";
    (Ir.V (Builder.alloc_array f.b nv), Ast.T_array)
  | Ast.Array_len a ->
    let av, _ = lower_expr f venv a in
    (Ir.V (Builder.load f.b av 8), Ast.T_int)
  | Ast.Try inner -> (
    match inner with
    | Ast.Call (name, args) -> lower_call f venv name args ~try_kind:`Propagate
    | _ -> invalid_arg "Lower: try must wrap a call")
  | Ast.Try_opt inner -> (
    match inner with
    | Ast.Call (name, args) -> lower_call f venv name args ~try_kind:`Optional
    | _ -> invalid_arg "Lower: try? must wrap a call")
  | Ast.Closure (params, body) -> lower_closure f venv params body

and lower_binop f venv op a bb =
  match List.assoc_opt op binop_map with
  | Some irop ->
    let va, _ = lower_expr f venv a in
    let vb, _ = lower_expr f venv bb in
    (Ir.V (Builder.binop f.b irop va vb), Ast.T_int)
  | None -> (
    match List.assoc_opt op cmp_map with
    | Some cond ->
      let va, _ = lower_expr f venv a in
      let vb, _ = lower_expr f venv bb in
      (Ir.V (Builder.icmp f.b cond va vb), Ast.T_bool)
    | None -> (
      match op with
      | Ast.Mod ->
        let va, _ = lower_expr f venv a in
        let vb, _ = lower_expr f venv bb in
        let q = Builder.binop f.b Ir.Div va vb in
        let p = Builder.binop f.b Ir.Mul (Ir.V q) vb in
        (Ir.V (Builder.binop f.b Ir.Sub va (Ir.V p)), Ast.T_int)
      | Ast.LAnd | Ast.LOr ->
        (* Short circuit: a && b  ==  if a then b else false. *)
        let va, _ = lower_expr f venv a in
        let l_from = Builder.current_label f.b in
        let rhs_l = Builder.fresh_label f.b "sc_rhs" in
        let join_l = Builder.fresh_label f.b "sc_join" in
        let short_circuit_value = if op = Ast.LAnd then 0 else 1 in
        (if op = Ast.LAnd then
           Builder.terminate f.b (Ir.Cond_br (va, rhs_l, join_l))
         else Builder.terminate f.b (Ir.Cond_br (va, join_l, rhs_l)));
        Builder.start_block f.b rhs_l;
        let vb, _ = lower_expr f venv bb in
        let rhs_end = Builder.current_label f.b in
        Builder.terminate f.b (Ir.Br join_l);
        Builder.start_block f.b join_l;
        let dst = Builder.fresh f.b in
        Builder.add_phi f.b dst
          [ (l_from, Ir.Imm short_circuit_value); (rhs_end, vb) ];
        (Ir.V dst, Ast.T_bool)
      | _ -> invalid_arg "Lower: unhandled binop"))

(* Bounds-checked address of a[i]; shares the function's failure block. *)
and checked_element_address f av iv =
  note_call f "swift_bounds_fail";
  let len = Builder.load f.b av 8 in
  let ok1 = Builder.icmp f.b Machine.Cond.Ge iv (Ir.Imm 0) in
  let fail_l = bounds_fail_label f in
  let mid_l = Builder.fresh_label f.b "idx_ok1_" in
  Builder.terminate f.b (Ir.Cond_br (Ir.V ok1, mid_l, fail_l));
  Builder.start_block f.b mid_l;
  let ok2 = Builder.icmp f.b Machine.Cond.Lt iv (Ir.V len) in
  let cont_l = Builder.fresh_label f.b "idx_ok2_" in
  Builder.terminate f.b (Ir.Cond_br (Ir.V ok2, cont_l, fail_l));
  Builder.start_block f.b cont_l;
  let scaled = Builder.binop f.b Ir.Shl iv (Ir.Imm 3) in
  let off = Builder.binop f.b Ir.Add (Ir.V scaled) (Ir.Imm 16) in
  (* av + off *)
  let addr_base =
    match av with
    | Ir.V v -> Ir.V v
    | other -> Ir.V (Builder.assign f.b other)
  in
  Builder.binop f.b Ir.Add addr_base (Ir.V off)

and fn_value_thunk f name (fs : Sigs.fsig) =
  match Hashtbl.find_opt f.l.fn_thunks name with
  | Some t -> t
  | None ->
    (* Thunks are emitted per referencing module; qualify the symbol so two
       modules taking the same function's value don't collide at link time
       (found by the differential fuzzer). *)
    let thunk_name = name ^ "_fnthunk_" ^ f.l.module_name in
    Hashtbl.replace f.l.fn_thunks name thunk_name;
    Hashtbl.replace f.l.defined thunk_name ();
    note_call f name;
    let nparams = 1 + List.length fs.fs_params in
    let b = Builder.create ~name:thunk_name ~from_module:f.l.module_name ~nparams () in
    let params = Builder.params b in
    let args = List.map (fun p -> Ir.V p) (List.tl params) in
    let r = Builder.call b name args in
    Builder.terminate b (Ir.Ret (Ir.V r));
    f.l.extra_funcs <- Builder.finish b :: f.l.extra_funcs;
    thunk_name

(* Calls, including throwing calls and constructor calls. *)
and lower_call f venv name args ~try_kind =
  let fs =
    match Sigs.lookup_func f.l.env name with
    | Some fs -> Some fs
    | None -> None
  in
  match fs with
  | None -> (
    (* Calling a local function-typed variable. *)
    match lookup_binding venv name with
    | Some { op; ty = Ast.T_func (_, r); _ } ->
      let argvals = List.map (fun a -> fst (lower_expr f venv a)) args in
      let fnptr = Builder.load f.b op 16 in
      let res = Builder.fresh f.b in
      Builder.instr f.b (Ir.Call_indirect (Some res, Ir.V fnptr, op :: argvals));
      (Ir.V res, r)
    | Some _ | None -> invalid_arg ("Lower: unknown function " ^ name))
  | Some fs -> (
    (* Specialization: calls passing closure literals to module-local
       functions get their own clone of the callee (Listing 9's blow-up). *)
    let name =
      if
        f.spec_depth < 2
        && Hashtbl.mem f.l.decls name
        && List.exists (function Ast.Closure _ -> true | _ -> false) args
      then specialize_callee f name
      else name
    in
    let is_ctor = Sigs.lookup_class f.l.env name <> None in
    let argvals = List.map (fun a -> fst (lower_expr f venv a)) args in
    let target = if is_ctor then name ^ "_ctor" else name in
    note_call f target;
    let r = Builder.call f.b target argvals in
    let result = Ir.V r in
    match try_kind with
    | `No -> (result, fs.fs_ret)
    | `Propagate ->
      (* err -> init cleanup / rethrow block. *)
      let err = Builder.load f.b (Ir.Global error_global) 0 in
      (match f.init_info with
      | Some _ ->
        let err_l = Builder.fresh_label f.b "try_err" in
        let cont_l = Builder.fresh_label f.b "try_ok" in
        Builder.terminate f.b (Ir.Cond_br (Ir.V err, err_l, cont_l));
        Builder.start_block f.b err_l;
        f.err_edges <- (err_l, List.length f.ref_assign_offsets) :: f.err_edges;
        Builder.terminate f.b (Ir.Br "cleanup_L");
        Builder.start_block f.b cont_l
      | None ->
        let rt = rethrow_target f ~n_ref_assigns_so_far:0 in
        let cont_l = Builder.fresh_label f.b "try_ok" in
        Builder.terminate f.b (Ir.Cond_br (Ir.V err, rt, cont_l));
        Builder.start_block f.b cont_l);
      (result, fs.fs_ret)
    | `Optional ->
      let err = Builder.load f.b (Ir.Global error_global) 0 in
      let eb = Builder.fresh_label f.b "tryq_err" in
      let okb = Builder.fresh_label f.b "tryq_ok" in
      let join = Builder.fresh_label f.b "tryq_join" in
      Builder.terminate f.b (Ir.Cond_br (Ir.V err, eb, okb));
      Builder.start_block f.b eb;
      Builder.store f.b (Ir.Imm 0) (Ir.Global error_global) 0;
      Builder.terminate f.b (Ir.Br join);
      Builder.start_block f.b okb;
      Builder.terminate f.b (Ir.Br join);
      Builder.start_block f.b join;
      let dst = Builder.fresh f.b in
      Builder.add_phi f.b dst [ (eb, Ir.Imm 0); (okb, result) ];
      (Ir.V dst, fs.fs_ret))

and specialize_callee f name =
  let fd = Hashtbl.find f.l.decls name in
  f.l.spec_counter <- f.l.spec_counter + 1;
  let spec_name = name ^ "_spec" ^ string_of_int f.l.spec_counter in
  Hashtbl.replace f.l.defined spec_name ();
  (* Register the callee signature under the clone's name. *)
  (match Sigs.lookup_func f.l.env name with
  | Some fs -> Hashtbl.replace f.l.env.Sigs.funcs spec_name fs
  | None -> ());
  let clone = { fd with Ast.fd_name = spec_name } in
  let lowered = lower_free_func f.l ~spec_depth:(f.spec_depth + 1) clone in
  f.l.extra_funcs <- lowered @ f.l.extra_funcs;
  spec_name

and lower_closure f venv params body =
  let bound = List.map fst params in
  let frees = free_stmts bound [] body in
  (* Capture only names bound in the current venv (globals/functions are
     resolved by name inside the lifted body). *)
  let captures =
    List.filter_map
      (fun v -> match lookup_binding venv v with Some b -> Some (v, b) | None -> None)
      frees
  in
  f.l.clos_counter <- f.l.clos_counter + 1;
  let lifted_name = f.fn_name ^ "_clos" ^ string_of_int f.l.clos_counter in
  Hashtbl.replace f.l.defined lifted_name ();
  (* Lift: params are (env, closure params...). *)
  let nparams = 1 + List.length params in
  let lb = Builder.create ~name:lifted_name ~from_module:f.l.module_name ~nparams () in
  let lf =
    {
      l = f.l;
      b = lb;
      fn_name = lifted_name;
      throws = false;
      init_info = None;
      err_edges = [];
      ref_assign_offsets = [];
      rethrow_label = None;
      fail_label = None;
      phi_patches = [];
      spec_depth = f.spec_depth;
    }
  in
  let env_param, rest_params =
    match Builder.params lb with
    | e :: rest -> (e, rest)
    | [] -> assert false
  in
  let venv0 =
    List.map2
      (fun (pname, pty) pval -> (pname, { op = Ir.V pval; ty = pty; owned = false }))
      params rest_params
  in
  (* Load captures from the environment object. *)
  let venv1, _ =
    List.fold_left
      (fun (acc, i) (cname, (cb : binding)) ->
        let v = Builder.load lb (Ir.V env_param) (24 + (8 * i)) in
        ((cname, { op = Ir.V v; ty = cb.ty; owned = false }) :: acc, i + 1))
      (venv0, 0) captures
  in
  (match lower_stmts lf venv1 body with
  | Some _ -> finish_function lf venv1 None
  | None -> ());
  f.l.extra_funcs <- finalize_func lf :: f.l.extra_funcs;
  (* Create the closure object: [rc; len; fnptr; captures...]. *)
  note_call f "swift_allocArray";
  let c = Builder.alloc_array f.b (Ir.Imm (1 + List.length captures)) in
  Builder.store f.b (Ir.Fn lifted_name) (Ir.V c) 16;
  List.iteri
    (fun i (_, (cb : binding)) ->
      if Ast.is_ref_type cb.ty then Builder.retain f.b cb.op;
      Builder.store f.b cb.op (Ir.V c) (24 + (8 * i)))
    captures;
  let ptys = List.map snd params in
  (* Closure results are machine words regardless of their surface type, so
     Int is an adequate return type at this level. *)
  (Ir.V c, Ast.T_func (ptys, Ast.T_int))

(* --- statements ------------------------------------------------------------ *)

(* Returns the venv after the statement, or None if control flow left. *)
and lower_stmt (f : fctx) (venv : venv) (s : Ast.stmt) : venv option =
  match s with
  | Ast.Let (name, _, e) ->
    let op, ty = lower_expr f venv e in
    let owned, op =
      if Ast.is_ref_type ty then begin
        match e with
        | Ast.Var _ | Ast.Field _ ->
          (* Copying an existing reference: retain (Listing 1's source). *)
          Builder.retain f.b op;
          (true, op)
        | _ -> (true, op) (* fresh reference: already +1 *)
      end
      else (false, op)
    in
    (* Bind immediates through a value so later phis have a def. *)
    let op = match op with Ir.Imm _ -> Ir.V (Builder.assign f.b op) | o -> o in
    Some (set_binding venv name { op; ty; owned })
  | Ast.Assign (Ast.L_var name, e) ->
    let op, ty = lower_expr f venv e in
    (if Ast.is_ref_type ty then
       match e with
       | Ast.Var _ | Ast.Field _ -> Builder.retain f.b op
       | _ -> ());
    let op = match op with Ir.Imm _ -> Ir.V (Builder.assign f.b op) | o -> o in
    let owned = Ast.is_ref_type ty in
    Some (set_binding venv name { op; ty; owned })
  | Ast.Assign (Ast.L_field (recv, field), e) ->
    let rv, rty = lower_expr f venv recv in
    let ci = class_of_ty f.l.env rty in
    let off = Option.get (Sigs.field_offset ci field) in
    let fty = Option.get (Sigs.field_type ci field) in
    let ev, _ = lower_expr f venv e in
    if Ast.is_ref_type fty then begin
      Builder.retain f.b ev;
      (* In initializers, record the assignment order of reference fields
         for the cleanup cascade (Figure 9). *)
      match f.init_info with
      | Some (_, self_op) when self_op = rv ->
        f.ref_assign_offsets <- off :: f.ref_assign_offsets
      | Some _ | None -> ()
    end;
    Builder.store f.b ev rv off;
    Some venv
  | Ast.Assign (Ast.L_index (a, i), e) ->
    let av, _ = lower_expr f venv a in
    let iv, _ = lower_expr f venv i in
    let ev, _ = lower_expr f venv e in
    let addr = checked_element_address f av iv in
    Builder.store f.b ev (Ir.V addr) 0;
    Some venv
  | Ast.Print e ->
    let v, _ = lower_expr f venv e in
    note_call f "print_i64";
    Builder.call_void f.b "print_i64" [ v ];
    Some venv
  | Ast.Expr_stmt e ->
    let _ = lower_expr f venv e in
    Some venv
  | Ast.Return eopt ->
    let rv =
      match eopt with
      | Some e -> fst (lower_expr f venv e)
      | None -> Ir.Imm 0
    in
    let keep = match eopt with Some (Ast.Var v) -> Some v | _ -> None in
    finish_function f ?keep venv (Some rv);
    None
  | Ast.Throw ->
    Builder.store f.b (Ir.Imm 1) (Ir.Global error_global) 0;
    (match f.init_info with
    | Some _ ->
      let l = Builder.current_label f.b in
      f.err_edges <- (l, List.length f.ref_assign_offsets) :: f.err_edges;
      Builder.terminate f.b (Ir.Br "cleanup_L")
    | None ->
      let rt = rethrow_target f ~n_ref_assigns_so_far:0 in
      Builder.terminate f.b (Ir.Br rt));
    None
  | Ast.If (c, then_s, else_s) -> lower_if f venv c then_s else_s
  | Ast.While (c, body) ->
    let assigned =
      List.filter (fun v -> lookup_binding venv v <> None) (assigned_in_stmts [] body)
    in
    lower_loop f venv ~assigned
      ~cond:(fun f venv -> fst (lower_expr f venv c))
      ~body:(fun f venv -> lower_scoped_stmts f venv body)
  | Ast.For (v, lo, hi, body) ->
    let lov, _ = lower_expr f venv lo in
    let hiv, _ = lower_expr f venv hi in
    let hiv = match hiv with Ir.Imm _ -> Ir.V (Builder.assign f.b hiv) | o -> o in
    let iv = Builder.assign f.b lov in
    let shadowed_loop_var = lookup_binding venv v in
    let venv = set_binding venv v { op = Ir.V iv; ty = Ast.T_int; owned = false } in
    let assigned =
      v
      :: List.filter (fun x -> lookup_binding venv x <> None) (assigned_in_stmts [] body)
    in
    let result =
      lower_loop f venv ~assigned
        ~cond:(fun f venv ->
          let cur = (Option.get (lookup_binding venv v)).op in
          Ir.V (Builder.icmp f.b Machine.Cond.Lt cur hiv))
        ~body:(fun f venv ->
          match lower_scoped_stmts f venv body with
          | None -> None
          | Some venv' ->
            let cur = (Option.get (lookup_binding venv' v)).op in
            let nxt = Builder.binop f.b Ir.Add cur (Ir.Imm 1) in
            Some (set_binding venv' v { op = Ir.V nxt; ty = Ast.T_int; owned = false }))
    in
    (* The loop variable goes out of scope; a shadowed outer binding
       reappears. *)
    Option.map
      (fun ve ->
        match shadowed_loop_var with
        | Some b -> set_binding ve v b
        | None -> List.remove_assoc v ve)
      result

and lower_stmts f venv stmts =
  List.fold_left
    (fun acc s -> match acc with None -> None | Some venv -> lower_stmt f venv s)
    (Some venv) stmts

(* A nested block scope: names introduced by top-level [let]s inside it
   revert to their previous binding (or vanish) on exit, while mutations of
   pre-existing names persist. *)
and lower_scoped_stmts f venv stmts =
  let let_names =
    List.filter_map (function Ast.Let (n, _, _) -> Some n | _ -> None) stmts
    |> List.sort_uniq String.compare
  in
  let saved = List.map (fun n -> (n, lookup_binding venv n)) let_names in
  match lower_stmts f venv stmts with
  | None -> None
  | Some venv' ->
    Some
      (List.fold_left
         (fun acc (n, prev) ->
           match prev with
           | Some b -> set_binding acc n b
           | None -> List.remove_assoc n acc)
         venv' saved)

and lower_if f venv c then_s else_s =
  let cv, _ = lower_expr f venv c in
  let then_l = Builder.fresh_label f.b "if_then" in
  let else_l = Builder.fresh_label f.b "if_else" in
  let join_l = Builder.fresh_label f.b "if_join" in
  Builder.terminate f.b (Ir.Cond_br (cv, then_l, else_l));
  Builder.start_block f.b then_l;
  let then_res = lower_scoped_stmts f venv then_s in
  let then_end =
    match then_res with
    | Some _ ->
      let l = Builder.current_label f.b in
      Builder.terminate f.b (Ir.Br join_l);
      Some l
    | None -> None
  in
  Builder.start_block f.b else_l;
  let else_res = lower_scoped_stmts f venv else_s in
  let else_end =
    match else_res with
    | Some _ ->
      let l = Builder.current_label f.b in
      Builder.terminate f.b (Ir.Br join_l);
      Some l
    | None -> None
  in
  (* Only names from the pre-branch scope survive the join; branch-local
     lets must not leak (their definitions do not dominate the join). *)
  let restrict ve =
    List.filter_map
      (fun (name, _) -> Option.map (fun b -> (name, b)) (List.assoc_opt name ve))
      venv
  in
  match (then_res, then_end, else_res, else_end) with
  | None, _, None, _ -> None
  | Some ve, Some _, None, _ ->
    Builder.start_block f.b join_l;
    Some (restrict ve)
  | None, _, Some ve, Some _ ->
    Builder.start_block f.b join_l;
    Some (restrict ve)
  | Some ve_t, Some end_t, Some ve_e, Some end_e ->
    Builder.start_block f.b join_l;
    (* Merge bindings that differ with phis. *)
    let merged =
      List.map
        (fun (name, (bt : binding)) ->
          match List.assoc_opt name ve_e with
          | Some (be : binding) when be.op <> bt.op ->
            let dst = Builder.fresh f.b in
            Builder.add_phi f.b dst [ (end_t, bt.op); (end_e, be.op) ];
            (name, { bt with op = Ir.V dst })
          | Some _ | None -> (name, bt))
        (restrict ve_t)
    in
    Some merged
  | Some _, None, _, _ | _, _, Some _, None -> assert false

(* Generic loop skeleton with header phis for assigned variables. *)
and lower_loop f venv ~assigned ~cond ~body =
  let pre_l = Builder.current_label f.b in
  let header_l = Builder.fresh_label f.b "loop_head" in
  let body_l = Builder.fresh_label f.b "loop_body" in
  let exit_l = Builder.fresh_label f.b "loop_exit" in
  Builder.terminate f.b (Ir.Br header_l);
  Builder.start_block f.b header_l;
  (* One phi per assigned variable. *)
  let phis =
    List.map
      (fun name ->
        let b0 = Option.get (lookup_binding venv name) in
        let dst = Builder.fresh f.b in
        Builder.add_phi f.b dst [ (pre_l, b0.op) ];
        (name, b0, dst))
      assigned
  in
  let venv_h =
    List.fold_left
      (fun acc (name, (b0 : binding), dst) ->
        set_binding acc name { b0 with op = Ir.V dst })
      venv phis
  in
  let cv = cond f venv_h in
  Builder.terminate f.b (Ir.Cond_br (cv, body_l, exit_l));
  Builder.start_block f.b body_l;
  (match body f venv_h with
  | Some venv_b ->
    let back_l = Builder.current_label f.b in
    Builder.terminate f.b (Ir.Br header_l);
    (* Patch the header phis with the back edge values. *)
    List.iter
      (fun (name, _, dst) ->
        let bb = Option.get (lookup_binding venv_b name) in
        f.phi_patches <- (header_l, dst, (back_l, bb.op)) :: f.phi_patches)
      phis
  | None -> ());
  Builder.start_block f.b exit_l;
  Some venv_h

(* Emit releases of owned locals, the error-flag convention, and the return. *)
and finish_function f ?keep venv ret =
  List.iter
    (fun (name, (b : binding)) ->
      if b.owned && Ast.is_ref_type b.ty && Some name <> keep then
        Builder.release f.b b.op)
    venv;
  if f.throws then Builder.store f.b (Ir.Imm 0) (Ir.Global error_global) 0;
  let rv = match ret with Some v -> v | None -> Ir.Imm 0 in
  Builder.terminate f.b (Ir.Ret rv)

(* Apply recorded phi patches and emit deferred blocks, then finish. *)
and finalize_func (f : fctx) =
  (* Bounds-failure block. *)
  (match f.fail_label with
  | Some l ->
    Builder.start_block f.b l;
    Builder.call_void f.b "swift_bounds_fail" [];
    Builder.terminate f.b Ir.Unreachable
  | None -> ());
  (* Rethrow block for plain throwing functions. *)
  (match f.rethrow_label with
  | Some l ->
    Builder.start_block f.b l;
    Builder.terminate f.b (Ir.Ret (Ir.Imm 0))
  | None -> ());
  (* Initializer cleanup block L with the per-property Init-flag phis. *)
  (match f.init_info with
  | Some (_, self_op) when f.err_edges <> [] ->
    let offsets = List.rev f.ref_assign_offsets in
    let n = List.length offsets in
    Builder.start_block f.b "cleanup_L";
    let flags =
      List.mapi
        (fun k _off ->
          let dst = Builder.fresh f.b in
          Builder.add_phi f.b dst
            (List.rev_map
               (fun (pred, count) -> (pred, Ir.Imm (if k < count then 1 else 0)))
               f.err_edges);
          dst)
        offsets
    in
    (* Conditional release cascade, one check per flag (Figure 9, lower
       half). *)
    List.iteri
      (fun k off ->
        let rel_l = Builder.fresh_label f.b "cleanup_rel" in
        let next_l =
          if k = n - 1 then "cleanup_done" else "cleanup_chk" ^ string_of_int (k + 1)
        in
        Builder.terminate f.b (Ir.Cond_br (Ir.V (List.nth flags k), rel_l, next_l));
        Builder.start_block f.b rel_l;
        let fv = Builder.load f.b self_op off in
        Builder.release f.b (Ir.V fv);
        Builder.terminate f.b (Ir.Br next_l);
        Builder.start_block f.b next_l)
      offsets;
    if n = 0 then ();
    Builder.terminate f.b (Ir.Ret (Ir.Imm 0))
  | Some _ | None -> ());
  let fn = Builder.finish f.b in
  (* Apply loop phi back-edge patches. *)
  if f.phi_patches = [] then fn
  else
    let blocks =
      List.map
        (fun (blk : Ir.block) ->
          let extra =
            List.filter (fun (l, _, _) -> l = blk.label) f.phi_patches
          in
          if extra = [] then blk
          else
            {
              blk with
              Ir.phis =
                List.map
                  (fun (p : Ir.phi) ->
                    let additions =
                      List.filter_map
                        (fun (_, dst, edge) -> if dst = p.phi_dst then Some edge else None)
                        extra
                    in
                    { p with incoming = p.incoming @ additions })
                  blk.phis;
            })
        fn.Ir.blocks
    in
    { fn with blocks }

(* --- functions and modules -------------------------------------------------- *)

and make_fctx lctx b ~fn_name ~throws ~init_info ~spec_depth =
  {
    l = lctx;
    b;
    fn_name;
    throws;
    init_info;
    err_edges = [];
    ref_assign_offsets = [];
    rethrow_label = None;
    fail_label = None;
    phi_patches = [];
    spec_depth;
  }

and lower_free_func lctx ?(spec_depth = 0) (fd : Ast.func_decl) : Ir.func list =
  let nparams = List.length fd.fd_params in
  let b = Builder.create ~name:fd.fd_name ~from_module:lctx.module_name ~nparams () in
  let f = make_fctx lctx b ~fn_name:fd.fd_name ~throws:fd.fd_throws ~init_info:None ~spec_depth in
  let venv =
    List.map2
      (fun (pname, pty) pv -> (pname, { op = Ir.V pv; ty = pty; owned = false }))
      fd.fd_params (Builder.params b)
  in
  (match lower_stmts f venv fd.fd_body with
  | Some venv' -> finish_function f venv' None
  | None -> ());
  [ finalize_func f ]

and lower_method lctx ci (fd : Ast.func_decl) : Ir.func list =
  let mangled = Sigs.mangle_method ci.Sigs.ci_name fd.fd_name in
  let nparams = 1 + List.length fd.fd_params in
  let b = Builder.create ~name:mangled ~from_module:lctx.module_name ~nparams () in
  let f = make_fctx lctx b ~fn_name:mangled ~throws:false ~init_info:None ~spec_depth:0 in
  let self_v, param_vs =
    match Builder.params b with
    | s :: rest -> (s, rest)
    | [] -> assert false
  in
  let venv =
    ("self", { op = Ir.V self_v; ty = Ast.T_class ci.Sigs.ci_name; owned = false })
    :: List.map2
         (fun (pname, pty) pv -> (pname, { op = Ir.V pv; ty = pty; owned = false }))
         fd.fd_params param_vs
  in
  (match lower_stmts f venv fd.fd_body with
  | Some venv' -> finish_function f venv' None
  | None -> ());
  [ finalize_func f ]

and lower_init lctx ci (init : Ast.func_decl) : Ir.func list =
  let init_name = Sigs.mangle_init ci.Sigs.ci_name in
  let nparams = 1 + List.length init.fd_params in
  let b = Builder.create ~name:init_name ~from_module:lctx.module_name ~nparams () in
  let self_v, param_vs =
    match Builder.params b with
    | s :: rest -> (s, rest)
    | [] -> assert false
  in
  let f =
    make_fctx lctx b ~fn_name:init_name ~throws:init.fd_throws
      ~init_info:(Some (ci, Ir.V self_v)) ~spec_depth:0
  in
  let venv =
    ("self", { op = Ir.V self_v; ty = Ast.T_class ci.Sigs.ci_name; owned = false })
    :: List.map2
         (fun (pname, pty) pv -> (pname, { op = Ir.V pv; ty = pty; owned = false }))
         init.fd_params param_vs
  in
  (match lower_stmts f venv init.fd_body with
  | Some venv' -> finish_function f venv' None
  | None -> ());
  [ finalize_func f ]

(* The constructor: allocate, run init, handle a throwing init's error. *)
and lower_ctor lctx ci throws nparams : Ir.func =
  let ctor_name = ci.Sigs.ci_name ^ "_ctor" in
  let b = Builder.create ~name:ctor_name ~from_module:lctx.module_name ~nparams () in
  let params = Builder.params b in
  let self = Builder.alloc_object b (meta_symbol lctx ci.Sigs.ci_name) (Sigs.object_size ci) in
  (match ci.Sigs.ci_init with
  | Some _ ->
    Builder.call_void b (Sigs.mangle_init ci.Sigs.ci_name)
      (Ir.V self :: List.map (fun p -> Ir.V p) params);
    if throws then begin
      let err = Builder.load b (Ir.Global error_global) 0 in
      let errb = Builder.fresh_label b "ctor_err" in
      let okb = Builder.fresh_label b "ctor_ok" in
      Builder.terminate b (Ir.Cond_br (Ir.V err, errb, okb));
      Builder.start_block b errb;
      Builder.release b (Ir.V self);
      Builder.terminate b (Ir.Ret (Ir.Imm 0));
      Builder.start_block b okb;
      Builder.terminate b (Ir.Ret (Ir.V self))
    end
    else Builder.terminate b (Ir.Ret (Ir.V self))
  | None -> Builder.terminate b (Ir.Ret (Ir.V self)));
  Builder.finish b

let lower_module env (m : Ast.module_ast) : Ir.modul =
  let decls = Hashtbl.create 64 in
  let defined = Hashtbl.create 64 in
  List.iter
    (fun d ->
      match d with
      | Ast.D_func fd ->
        Hashtbl.replace decls fd.fd_name fd;
        Hashtbl.replace defined fd.fd_name ()
      | Ast.D_class cd ->
        Hashtbl.replace defined (cd.cd_name ^ "_ctor") ();
        Hashtbl.replace defined (Sigs.mangle_init cd.cd_name) ();
        List.iter
          (fun (md : Ast.func_decl) ->
            Hashtbl.replace defined (Sigs.mangle_method cd.cd_name md.fd_name) ())
          cd.cd_methods)
    m.ma_decls;
  let lctx =
    {
      env;
      module_name = m.ma_name;
      decls;
      defined;
      called = Hashtbl.create 64;
      extra_funcs = [];
      clos_counter = 0;
      spec_counter = 0;
      fn_thunks = Hashtbl.create 8;
    }
  in
  let funcs = ref [] in
  let globals = ref [] in
  List.iter
    (fun d ->
      match d with
      | Ast.D_func fd -> funcs := lower_free_func lctx fd @ !funcs
      | Ast.D_class cd -> (
        let ci = Option.get (Sigs.lookup_class env cd.cd_name) in
        globals :=
          {
            Ir.g_name = meta_symbol lctx cd.cd_name;
            g_init = [ Ir.Gword (Sigs.object_size ci) ];
            g_module = m.ma_name;
          }
          :: !globals;
        let ctor_throws =
          match cd.cd_init with Some i -> i.fd_throws | None -> false
        in
        let nparams =
          match cd.cd_init with Some i -> List.length i.fd_params | None -> 0
        in
        funcs := lower_ctor lctx ci ctor_throws nparams :: !funcs;
        (match cd.cd_init with
        | Some init -> funcs := lower_init lctx ci init @ !funcs
        | None -> ());
        List.iter (fun md -> funcs := lower_method lctx ci md @ !funcs) cd.cd_methods))
    m.ma_decls;
  let all_funcs = List.rev !funcs @ List.rev lctx.extra_funcs in
  let all_defined = Hashtbl.copy defined in
  List.iter (fun (fn : Ir.func) -> Hashtbl.replace all_defined fn.name ()) all_funcs;
  let externs =
    Hashtbl.fold
      (fun name () acc ->
        if Hashtbl.mem all_defined name then acc else name :: acc)
      lctx.called []
    |> List.cons error_global
    |> List.sort_uniq String.compare
  in
  {
    Ir.m_name = m.ma_name;
    funcs = all_funcs;
    globals = List.rev !globals;
    externs;
    flags = [];
  }
