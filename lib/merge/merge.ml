(* The strategy-agnostic core of function merging: one alpha-normalizing
   key builder parameterized on a hole policy, one thunk constructor, and
   one body parameterizer.  The three merge strategies — exact
   [Merge_functions], immediate-holing [Fmsa], and the optimistic
   [Global_merge] — are thin instances over these.

   Byte-compatibility contract: under {!exact_policy} the key is
   byte-identical to the pre-refactor [Merge_functions.normalize_key], and
   under {!fmsa_policy} the key/hole pair and {!parameterize} reproduce
   the pre-refactor [Fmsa] exactly (the fuzz lattice enforces this against
   the frozen copies in [Merge_reference]).  Their hole order came from
   OCaml's right-to-left evaluation of [Printf] arguments; [key] states it:
   a two-operand site resolves its right operand first, and [cbr] its else
   label, then its then label, then its operand.  Values, labels and
   [parameterize]'s holes all follow that order. *)

type hole =
  | H_imm of int       (* differing immediate: thunk passes [Imm n] *)
  | H_op of Ir.operand (* differing Global/Fn operand: thunk passes it *)
  | H_target of string (* differing direct-call target: thunk passes [Fn g],
                          the merged body calls through the parameter *)

(* Operand sites, named so a policy can decide hole-ability per position.
   Phis, load/store bases, calli callees, retain/release, alloc lengths
   and terminators never hole — holes there would need more plumbing than
   the strategies warrant (same judgement as the original FMSA pass). *)
type site =
  | S_phi
  | S_assign
  | S_binop
  | S_icmp
  | S_load_base
  | S_store_val
  | S_store_base
  | S_calli_fn
  | S_call_arg
  | S_calli_arg
  | S_retain
  | S_release
  | S_alloc_len
  | S_term

type policy = {
  imm_hole : site -> bool;   (* hole an [Imm] at this site? *)
  sym_hole : site -> bool;   (* hole a [Global]/[Fn] operand at this site? *)
  target_hole : bool;        (* hole direct-call targets? *)
}

let exact_policy =
  { imm_hole = (fun _ -> false); sym_hole = (fun _ -> false);
    target_hole = false }

let value_sites = function
  | S_assign | S_binop | S_icmp | S_store_val | S_call_arg | S_calli_arg ->
    true
  | S_phi | S_load_base | S_store_base | S_calli_fn | S_retain | S_release
  | S_alloc_len | S_term ->
    false

let fmsa_policy =
  { imm_hole = value_sites; sym_hole = (fun _ -> false); target_hole = false }

let global_policy =
  { imm_hole = value_sites; sym_hole = value_sites; target_hole = true }

(* Numbers in order of first appearance, from 0. *)
let numbering size =
  let tbl = Hashtbl.create size in
  fun x ->
    match Hashtbl.find_opt tbl x with
    | Some i -> i
    | None ->
      let i = Hashtbl.length tbl in
      Hashtbl.replace tbl x i;
      i

(* The text of small numbers, built once: keys are hot. *)
let small_ints = Array.init 256 string_of_int
let int_text n = if n >= 0 && n < 256 then small_ints.(n) else string_of_int n

(* Alpha-normalize: rename values in order of first appearance (params
   first), labels likewise, then print; operands the policy holes print
   ["?"] and are recorded in traversal order.  Equal keys = mergeable
   under the policy. *)
let key ~policy (f : Ir.func) =
  let v = numbering 64 and l = numbering 16 in
  List.iter (fun p -> ignore (v p)) f.Ir.params;
  List.iter (fun (b : Ir.block) -> ignore (l b.label)) f.Ir.blocks;
  let holes = ref [] in
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  let num prefix n =
    add prefix;
    add (int_text n)
  in
  (* [op] numbers a value or records a hole, returning the value's number,
     [-1] for a hole, 0 otherwise; [put] prints that and has no effect. *)
  let hole h =
    holes := h :: !holes;
    -1
  in
  let op site o =
    match o with
    | Ir.V x -> v x
    | Ir.Imm n when policy.imm_hole site -> hole (H_imm n)
    | (Ir.Global _ | Ir.Fn _) when policy.sym_hole site -> hole (H_op o)
    | Ir.Imm _ | Ir.Global _ | Ir.Fn _ -> 0
  in
  let put o r =
    match o with
    | _ when r < 0 -> add "?"
    | Ir.V _ -> num "v" r
    | Ir.Imm n -> num "#" n
    | Ir.Global g -> add ("@" ^ g)
    | Ir.Fn g -> add ("&" ^ g)
  in
  let unary tag site o =
    add tag;
    put o (op site o)
  in
  let binary tag sa a sb b =
    let rb = op sb b in
    let ra = op sa a in
    add tag;
    put a ra;
    add " ";
    put b rb
  in
  num "params:" (List.length f.Ir.params);
  add ";";
  List.iter
    (fun (b : Ir.block) ->
      num "L" (l b.label);
      add ":";
      List.iter
        (fun (p : Ir.phi) ->
          num "phi v" (v p.phi_dst);
          add "=";
          List.iter
            (fun (lbl, o) ->
              let r = op S_phi o in
              num "[L" (l lbl);
              add " ";
              put o r;
              add "]")
            p.incoming)
        b.phis;
      List.iter
        (fun i ->
          (match Ir.def_of_instr i with
          | Some d ->
            num "v" (v d);
            add "="
          | None -> ());
          (match i with
          | Ir.Assign (_, o) -> unary "asn " S_assign o
          | Ir.Binop (_, o2, a, b2) ->
            binary ("bin." ^ Ir.binop_name o2 ^ " ") S_binop a S_binop b2
          | Ir.Icmp (_, c, a, b2) ->
            binary ("icmp " ^ Machine.Cond.to_string c ^ " ") S_icmp a S_icmp b2
          | Ir.Load (_, base, off) ->
            unary "ld " S_load_base base;
            num " " off
          | Ir.Store (x, base, off) ->
            binary "st " S_store_val x S_store_base base;
            num " " off
          | Ir.Call (_, fn, args) ->
            add "call ";
            if policy.target_hole then ignore (hole (H_target fn));
            add (if policy.target_hole then "?" else fn);
            List.iter (unary " " S_call_arg) args
          | Ir.Call_indirect (_, fn, args) ->
            unary "calli " S_calli_fn fn;
            List.iter (unary " " S_calli_arg) args
          | Ir.Retain o -> unary "retain " S_retain o
          | Ir.Release o -> unary "release " S_release o
          | Ir.Alloc_object (_, meta, size) ->
            add "alloco ";
            add meta;
            num " " size
          | Ir.Alloc_array (_, n) -> unary "alloca " S_alloc_len n);
          add ";")
        b.instrs;
      (match b.term with
      | Ir.Ret o -> unary "ret " S_term o
      | Ir.Br lbl -> num "br L" (l lbl)
      | Ir.Cond_br (o, a, b2) ->
        (* The else label, then the then label, then the operand. *)
        let lb = l b2 in
        let la = l a in
        unary "cbr " S_term o;
        num " L" la;
        num " L" lb
      | Ir.Unreachable -> add "unreachable");
      add "|")
    f.Ir.blocks;
  (Buffer.contents buf, List.rev !holes)

let fingerprint ~policy f = Content.hash_string (fst (key ~policy f))

(* Rebuild a function body with its holes replaced by fresh parameters,
   in [key]'s hole order.  A holed direct call becomes an indirect call
   through its target parameter. *)
let parameterize ~policy (f : Ir.func) ~merged_name =
  let next = ref f.Ir.next_value in
  let new_params = ref [] in
  let fresh () =
    let p = !next in
    incr next;
    new_params := p :: !new_params;
    Ir.V p
  in
  let sub site o =
    match o with
    | Ir.Imm _ -> if policy.imm_hole site then fresh () else o
    | Ir.Global _ | Ir.Fn _ -> if policy.sym_hole site then fresh () else o
    | Ir.V _ -> o
  in
  let instr i =
    match i with
    | Ir.Assign (d, o) -> Ir.Assign (d, sub S_assign o)
    | Ir.Binop (d, op, a, b) ->
      let b = sub S_binop b in
      Ir.Binop (d, op, sub S_binop a, b)
    | Ir.Icmp (d, c, a, b) ->
      let b = sub S_icmp b in
      Ir.Icmp (d, c, sub S_icmp a, b)
    | Ir.Load (_, _, _) -> i
    | Ir.Store (x, base, off) -> Ir.Store (sub S_store_val x, base, off)
    | Ir.Call (d, fn, args) ->
      if policy.target_hole then begin
        let target = fresh () in
        Ir.Call_indirect (d, target, List.map (sub S_call_arg) args)
      end
      else Ir.Call (d, fn, List.map (sub S_call_arg) args)
    | Ir.Call_indirect (d, fn, args) ->
      Ir.Call_indirect (d, fn, List.map (sub S_calli_arg) args)
    | Ir.Retain _ | Ir.Release _ | Ir.Alloc_object _ | Ir.Alloc_array _ -> i
  in
  let blocks =
    List.map
      (fun (b : Ir.block) -> { b with Ir.instrs = List.map instr b.instrs })
      f.Ir.blocks
  in
  {
    f with
    Ir.name = merged_name;
    params = f.Ir.params @ List.rev !new_params;
    blocks;
    next_value = !next;
  }

(* The operand a thunk passes for each of its holes, in hole order. *)
let extras_of_holes holes =
  List.map
    (function
      | H_imm n -> Ir.Imm n
      | H_op o -> o
      | H_target g -> Ir.Fn g)
    holes

(* One entry block: forward the original parameters (plus the hole
   operands) to [target] and return its result. *)
let make_thunk (f : Ir.func) ~target extras =
  let ret = f.Ir.next_value in
  let args = List.map (fun p -> Ir.V p) f.Ir.params @ extras in
  {
    f with
    Ir.blocks =
      [
        {
          Ir.label = "entry";
          phis = [];
          instrs = [ Ir.Call (Some ret, target, args) ];
          term = Ir.Ret (Ir.V ret);
        };
      ];
    next_value = ret + 1;
  }

(* Fault injection for [sizeopt fuzz --self-test]: the global merger's
   serial decision round exists to reject optimistic fingerprint groups
   whose members do not actually share a key.  Honest 64-bit FNV
   fingerprints essentially never collide, so the fault both truncates
   fingerprints to 6 bits (manufacturing the collisions the rollback is
   there to absorb) and drops the rollback itself — an optimistic merge
   that survives global rejection.  The merge lattice points must catch
   the corruption. *)
let fault_drop_rollback = ref false
