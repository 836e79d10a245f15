type profile = {
  app_name : string;
  seed : int;
  n_modules : int;
  n_vendor : int;
  features_per_module : int;
  decode_classes_per_module : int;
  big_decode_every : int;
  objc_fraction : float;
  week : int;
}

let uber_rider =
  {
    app_name = "UberRider";
    seed = 20200101;
    n_modules = 24;
    n_vendor = 5;
    features_per_module = 6;
    decode_classes_per_module = 3;
    big_decode_every = 7;
    objc_fraction = 0.17;
    week = 0;
  }

let uber_driver =
  {
    uber_rider with
    app_name = "UberDriver";
    seed = 20200202;
    n_modules = 26;
    n_vendor = 4;
    objc_fraction = 0.23;
    features_per_module = 5;
  }

let uber_eats =
  {
    uber_rider with
    app_name = "UberEats";
    seed = 20200303;
    n_modules = 22;
    n_vendor = 6;
    objc_fraction = 0.34;
    decode_classes_per_module = 4;
  }

let small =
  {
    app_name = "SmallApp";
    seed = 7;
    n_modules = 4;
    n_vendor = 2;
    features_per_module = 3;
    decode_classes_per_module = 2;
    big_decode_every = 3;
    objc_fraction = 0.25;
    week = 0;
  }

(* The one table of CLI/serve profile names. *)
let profile_of_name = function
  | "rider" -> Ok uber_rider
  | "driver" -> Ok uber_driver
  | "eats" -> Ok uber_eats
  | "small" -> Ok small
  | p ->
    Error (Printf.sprintf "unknown profile: %S (want small|rider|driver|eats)" p)

let at_week p week =
  { p with week; n_modules = p.n_modules + (week / 4) }

let scaled ?seed ~mult p =
  if mult < 1 then invalid_arg "Appgen.scaled: mult must be >= 1";
  {
    p with
    app_name = Printf.sprintf "%s_x%d" p.app_name mult;
    seed = (match seed with Some s -> s | None -> p.seed);
    n_modules = p.n_modules * mult;
  }

let span_entries = List.init 9 (fun i -> Printf.sprintf "span%d" (i + 1))

(* --- helpers -------------------------------------------------------------- *)

let irange st lo hi = lo + Random.State.int st (hi - lo + 1)
let add = Buffer.add_string

(* --- the shared core module ---------------------------------------------- *)

let core_source =
  {|
// Core helpers shared by every feature module.
func core_decode_i64(json: [Int], k: Int) throws -> Int {
  if k >= len(json) { throw }
  let v = json[k]
  if v < 0 { throw }
  return v
}
func core_decode_arr(json: [Int], k: Int) throws -> [Int] {
  let n = try core_decode_i64(json, k)
  let a = array(n % 8 + 1)
  for i in 0 ..< len(a) { a[i] = n + i }
  return a
}
func core_apply(f: (Int) -> Int, n: Int) -> Int {
  var acc = 0
  for i in 0 ..< n { acc = acc + f(i) }
  return acc
}
func core_fold(f: (Int) -> Int, n: Int, z: Int) -> Int {
  var acc = z
  for i in 0 ..< n { acc = f(acc + i) }
  return acc
}
func core_hash(v: Int) -> Int {
  var h = v
  h = (h ^ (h >> 16)) * 2246822519
  h = (h ^ (h >> 13)) * 3266489917
  return (h ^ (h >> 16)) & 1073741823
}
func core_clamp(v: Int, lo: Int, hi: Int) -> Int {
  if v < lo { return lo }
  if v > hi { return hi }
  return v
}
|}

(* --- the system-framework module ------------------------------------------ *)

(* Stand-in for UIKit/CoreAnimation-style framework work: loop-heavy code
   that dominates a span's cycles but ships outside the app binary (the
   pipeline marks this module no_outline).  This is what makes the dynamic
   share of outlined instructions small (~3% in the paper) even though the
   static share is large. *)
let system_source =
  {|
// System frameworks: rendering, blending, layout, animation.
func sys_render(w: Int, h: Int) -> Int {
  var acc = 0
  for y in 0 ..< h {
    var rowacc = y * 131 + 7
    for x in 0 ..< w {
      rowacc = (rowacc * 29 + x) & 1048575
      acc = acc + (rowacc >> 7)
    }
  }
  return acc & 65535
}
func sys_blend(a: Int, b: Int, n: Int) -> Int {
  var acc = a
  for i in 0 ..< n {
    acc = (acc * 7 + b * 3 + i) & 16777215
    acc = acc ^ (acc >> 9)
  }
  return acc
}
func sys_layout_pass(n: Int) -> Int {
  var total = 0
  var width = 375
  for i in 0 ..< n {
    let item = (i * 97 + 13) % 211
    width = width - item % 17
    if width < 40 { width = 375 }
    total = total + width * item % 1021
  }
  return total
}
func sys_anim_tick(t: Int, n: Int) -> Int {
  var v = t
  for i in 0 ..< n {
    v = v + (n - i) * 3
    v = v - (v >> 4)
  }
  return v
}
func sys_frame(ctx: Int) -> Int {
  var acc = ctx
  acc = acc + sys_render(40, 22)
  acc = acc + sys_blend(acc, ctx, 380)
  acc = acc + sys_layout_pass(290)
  acc = acc + sys_anim_tick(acc % 997, 430)
  return acc & 1048575
}
|}

(* --- vendor modules -------------------------------------------------------- *)

let vendor_source st j =
  let buf = Buffer.create 1024 in
  let c1 = irange st 3 97 and c2 = irange st 3 97 and c3 = irange st 11 9973 in
  add buf (Printf.sprintf "// Vendor library %d.\n" j);
  add buf
    (Printf.sprintf
       {|
func vendor%d_mix(a: Int, b: Int) -> Int {
  return (a * %d + b * %d) %% %d
}
func vendor%d_clamp(v: Int, lo: Int, hi: Int) -> Int {
  if v < lo { return lo }
  if v > hi { return hi }
  return v
}
func vendor%d_hash(v: Int) -> Int {
  var h = v + %d
  h = (h ^ (h >> %d)) * %d
  return h & 1073741823
}
func vendor%d_scan(a: [Int]) -> Int {
  var acc = %d
  for i in 0 ..< len(a) {
    acc = acc + a[i] * %d
  }
  return acc
}
func vendor%d_lerp(a: Int, b: Int, t: Int) -> Int {
  return a + (b - a) * t / %d
}
|}
       j c1 c2 c3 j j (irange st 1 999)
       (irange st 7 19)
       (irange st 1000 999999)
       j (irange st 0 9) (irange st 2 9) j (irange st 16 256));
  (* A few vendors ship near-duplicate utility families (FMSA fodder). *)
  for k = 0 to irange st 1 3 do
    add buf
      (Printf.sprintf
         {|
func vendor%d_step%d(v: Int) -> Int {
  let t = v * %d + %d
  let u = t ^ (t >> 5)
  return u %% %d
}
|}
         j k (irange st 3 31) (irange st 1 99) (irange st 101 997))
  done;
  Buffer.contents buf

(* --- feature modules ------------------------------------------------------- *)

let decode_class_source st ~mname ~idx ~nfields =
  let buf = Buffer.create 1024 in
  let cname = Printf.sprintf "%s_Rec%d" (String.capitalize_ascii mname) idx in
  (* Roughly a quarter of the fields are reference-typed arrays; the exact
     pattern is per-class, so decode classes are near- but not exact clones
     (matching the paper's PMD observation of little whole-function
     replication despite massive machine-level repetition). *)
  let pattern = Array.init nfields (fun k -> k > 0 && irange st 0 3 = 3) in
  let field_ty k = if pattern.(k) then `Arr else `Int in
  (* Per-class field names: real decode classes name their fields after
     their payloads, so textual whole-function clones are rare.  Field 0
     keeps the stable name the feature templates rely on. *)
  let tag = irange st 0 99999 in
  let fname k = if k = 0 then "f0" else Printf.sprintf "f%d_%d" k tag in
  add buf (Printf.sprintf "class %s {\n" cname);
  for k = 0 to nfields - 1 do
    match field_ty k with
    | `Int -> add buf (Printf.sprintf "  var %s: Int\n" (fname k))
    | `Arr -> add buf (Printf.sprintf "  var %s: [Int]\n" (fname k))
  done;
  add buf "  init(json: [Int]) throws {\n";
  for k = 0 to nfields - 1 do
    match field_ty k with
    | `Int ->
      add buf (Printf.sprintf "    self.%s = try core_decode_i64(json, %d)\n" (fname k) k)
    | `Arr ->
      add buf (Printf.sprintf "    self.%s = try core_decode_arr(json, %d)\n" (fname k) k)
  done;
  add buf "  }\n";
  (* Swift synthesizes accessors per property; they are tiny leaf functions
     whose bodies end in ret — the paper's dominant candidate family. *)
  for k = 0 to min (nfields - 1) 5 do
    match field_ty k with
    | `Int ->
      add buf
        (Printf.sprintf "  func get_%s() -> Int { return self.%s }\n" (fname k) (fname k));
      add buf
        (Printf.sprintf "  func set_%s(v: Int) { self.%s = v }\n" (fname k) (fname k))
    | `Arr ->
      add buf
        (Printf.sprintf "  func count_%s() -> Int { return len(self.%s) }\n" (fname k) (fname k))
  done;
  add buf "  func total() -> Int {\n    var acc = 0\n";
  for k = 0 to nfields - 1 do
    match field_ty k with
    | `Int -> add buf (Printf.sprintf "    acc = acc + self.%s\n" (fname k))
    | `Arr -> add buf (Printf.sprintf "    acc = acc + len(self.%s)\n" (fname k))
  done;
  add buf "    return acc\n  }\n}\n";
  (cname, nfields, Buffer.contents buf)

let view_class_source st ~mname ~idx =
  let cname = Printf.sprintf "%s_View%d" (String.capitalize_ascii mname) idx in
  let c1 = irange st 1 40 and c2 = irange st 1 40 in
  ( cname,
    Printf.sprintf
      {|
class %s {
  var x: Int
  var y: Int
  var w: Int
  var h: Int
  init(x: Int, y: Int) {
    self.x = x
    self.y = y
    self.w = x + %d
    self.h = y + %d
  }
  func layout(pad: Int) {
    self.w = self.w + pad * 2
    self.h = self.h + pad * 2
    self.x = self.x - pad
    self.y = self.y - pad
  }
  func measure() -> Int {
    return self.w * self.h + self.x - self.y
  }
  func get_x() -> Int { return self.x }
  func get_y() -> Int { return self.y }
  func get_w() -> Int { return self.w }
  func get_h() -> Int { return self.h }
  func set_x(v: Int) { self.x = v }
  func set_y(v: Int) { self.y = v }
}
|}
      cname c1 c2 )

(* A random arithmetic expression chain: essentially unique code per
   feature, keeping the app's repetition fraction realistic. *)
let unique_math_block st ~idx =
  let buf = Buffer.create 256 in
  let v = Printf.sprintf "t%d" idx in
  add buf (Printf.sprintf "  var %s = acc + %d\n" v (irange st 1 99999));
  let n_ops = irange st 4 12 in
  for _ = 1 to n_ops do
    let c = irange st 2 99999 in
    (match irange st 0 6 with
    | 0 -> add buf (Printf.sprintf "  %s = %s * %d + acc\n" v v (irange st 2 17))
    | 1 -> add buf (Printf.sprintf "  %s = (%s ^ %d) & %d\n" v v c (irange st 255 1048575))
    | 2 -> add buf (Printf.sprintf "  %s = %s + (%s >> %d)\n" v v v (irange st 1 13))
    | 3 -> add buf (Printf.sprintf "  %s = %s - acc %% %d\n" v v (irange st 3 997))
    | 4 -> add buf (Printf.sprintf "  %s = %s | (acc << %d)\n" v v (irange st 1 7))
    | 5 -> add buf (Printf.sprintf "  if %s > %d { %s = %s - %d }\n" v c v v (irange st 1 c))
    | _ -> add buf (Printf.sprintf "  %s = %s %% %d + %d\n" v v (irange st 11 9973) (irange st 0 999)));
  done;
  add buf (Printf.sprintf "  acc = acc + %s %% %d\n" v (irange st 101 99991));
  Buffer.contents buf

(* One feature function body: a few randomly chosen idiom blocks.
   Growth features (added in later weeks) are idiom-dominated: new product
   code reuses existing decode/view/vendor abstractions, so its machine
   code is far more outlinable than the original hand-rolled logic — this
   is what bends Figure 1's optimized growth line. *)
let feature_source st ~mname ~idx ~is_growth ~decode_classes ~view_classes ~vendors =
  let buf = Buffer.create 1024 in
  add buf (Printf.sprintf "func %s_feature%d(ctx: Int) -> Int {\n" mname idx);
  add buf "  var acc = ctx\n";
  (* Original features carry two unique-math blocks; growth features get at
     most a small one, rarely. *)
  if not is_growth then begin
    add buf (unique_math_block st ~idx:(100 + idx));
    add buf (unique_math_block st ~idx:(150 + idx))
  end
  else if irange st 0 7 = 0 then add buf (unique_math_block st ~idx:(100 + idx));
  let n_blocks = if is_growth then irange st 4 8 else irange st 2 4 in
  for blk = 1 to n_blocks do
    if (not is_growth) && irange st 0 1 = 0 then
      add buf (unique_math_block st ~idx:(200 + (10 * idx) + blk));
    match irange st 0 5 with
    | 0 ->
      (* array math; growth code reuses a handful of blessed constants
         (common strides, page sizes, flag masks) where original code had
         bespoke ones. *)
      let pick l = List.nth l (irange st 0 (List.length l - 1)) in
      let n = if is_growth then pick [ 8; 16 ] else irange st 8 24 in
      let c1 = if is_growth then pick [ 3; 5; 17 ] else irange st 3 31 in
      let c2 = if is_growth then pick [ 64; 101 ] else irange st 7 101 in
      add buf
        (Printf.sprintf
           "  let data%d = array(%d)\n\
           \  for i in 0 ..< %d { data%d[i] = (i * %d + acc) %% %d }\n\
           \  for i in 0 ..< %d { acc = acc + data%d[i] }\n"
           idx n n idx c1 c2 n idx)
    | 1 when decode_classes <> [] ->
      (* decode a record with try? *)
      let cname, nfields = List.nth decode_classes (Random.State.int st (List.length decode_classes)) in
      let jn = nfields + 2 in
      add buf
        (Printf.sprintf
           "  let json%d = array(%d)\n\
           \  for i in 0 ..< %d { json%d[i] = i + acc %% 17 }\n\
           \  let rec%d = try? %s(json%d)\n\
           \  if rec%d == 0 { acc = acc + 1 } else { acc = acc + (rec%d).total() + (rec%d).get_f0() }\n"
           idx jn jn idx idx cname idx idx idx idx)
    | 2 ->
      (* closure passed to a shared generic helper: specialization bait *)
      let c1 = irange st 2 19 and c2 = irange st 1 9 and n = irange st 4 12 in
      add buf
        (Printf.sprintf
           "  acc = acc + core_apply({ (x: Int) in return x * %d + %d }, %d)\n"
           c1 c2 n)
    | 3 when view_classes <> [] ->
      let cname = List.nth view_classes (Random.State.int st (List.length view_classes)) in
      add buf
        (Printf.sprintf
           "  let v%d = %s(acc %% 101, %d)\n\
           \  v%d.layout(%d)\n\
           \  v%d.set_x(v%d.get_x() + %d)\n\
           \  v%d.set_y(v%d.get_y() + v%d.get_w() %% 37)\n\
           \  acc = acc + v%d.measure() %% 1009\n"
           idx cname (irange st 1 60) idx (irange st 1 8) idx idx (irange st 1 30)
           idx idx idx idx)
    | 4 when vendors > 0 ->
      let j = Random.State.int st vendors in
      add buf
        (Printf.sprintf
           "  acc = vendor%d_mix(acc, %d) + vendor%d_hash(acc) %% %d\n" j
           (irange st 1 99) j (irange st 17 997))
    | _ ->
      let pick l = List.nth l (irange st 0 (List.length l - 1)) in
      let c1 = if is_growth then pick [ 2; 3 ] else irange st 2 9 in
      let c2 = if is_growth then pick [ 7; 16 ] else irange st 1 99 in
      let c3 = if is_growth then pick [ 50; 100 ] else irange st 3 200 in
      add buf
        (Printf.sprintf
           "  if acc %% 2 == 0 { acc = acc * %d + 1 } else { acc = acc - %d }\n\
           \  while acc > %d { acc = acc / 2 }\n\
           \  acc = core_clamp(acc, 0, 1000000)\n"
           c1 c2 c3)
  done;
  add buf "  return core_hash(acc) % 65536\n}\n";
  Buffer.contents buf

let module_source st profile ~mname ~mindex =
  let buf = Buffer.create 8192 in
  add buf (Printf.sprintf "// Feature module %s (auto-generated).\n" mname);
  (* Decode classes, with an occasional very wide one (Listing 10). *)
  let decode_classes = ref [] in
  for k = 0 to profile.decode_classes_per_module - 1 do
    let big =
      profile.big_decode_every > 0
      && (mindex * profile.decode_classes_per_module + k) mod profile.big_decode_every = 0
    in
    let nfields = if big then irange st 30 60 else irange st 4 12 in
    let cname, nf, src = decode_class_source st ~mname ~idx:k ~nfields in
    decode_classes := (cname, nf) :: !decode_classes;
    add buf src
  done;
  (* View classes. *)
  let view_classes = ref [] in
  for k = 0 to 1 do
    let cname, src = view_class_source st ~mname ~idx:k in
    view_classes := cname :: !view_classes;
    add buf src
  done;
  (* Features; the week parameter appends extra, idiom-heavy ones
     (Figure 1 growth). *)
  let base_features = profile.features_per_module in
  let nfeatures = base_features + (profile.week * 2 / 3) in
  for k = 0 to nfeatures - 1 do
    add buf
      (feature_source st ~mname ~idx:k ~is_growth:(k >= base_features)
         ~decode_classes:!decode_classes ~view_classes:!view_classes
         ~vendors:profile.n_vendor)
  done;
  (* Module entry: run every feature. *)
  add buf (Printf.sprintf "func %s_entry(x: Int) -> Int {\n  var acc = x\n" mname);
  for k = 0 to nfeatures - 1 do
    add buf (Printf.sprintf "  acc = acc + %s_feature%d(acc %% 251)\n" mname k)
  done;
  add buf "  return acc % 1000003\n}\n";
  Buffer.contents buf

(* --- spans and main --------------------------------------------------------- *)

(* Each span exercises a distinct slice of the app.  UI-intensive spans are
   broad and mostly cold — "a large fraction of the code is run only once
   in a typical usage scenario" (§VII-B) — while span 7 is the narrow, hot
   exception where outlining overhead can show (the paper's short span). *)
let span_profile k n_modules =
  let mods = List.init n_modules (fun i -> i) in
  match k with
  | 1 -> (mods, 1)                                                  (* app start: everything once *)
  | 2 -> (List.filter (fun i -> i mod 3 <> 0) mods, 2)
  | 3 -> (List.filter (fun i -> i mod 3 <> 1) mods, 2)
  | 4 -> (List.filter (fun i -> i mod 3 <> 2) mods, 3)
  | 5 -> (List.filter (fun i -> i mod 2 = 0) mods, 3)
  | 6 -> (List.filter (fun i -> i mod 5 < 2) mods, 5)               (* warm *)
  | 7 -> ([ 0 ], 40)                                                (* narrow + hot *)
  | 8 -> (mods, 3)
  | _ -> (List.filter (fun i -> i mod 2 = 1) mods, 2)

let main_source profile =
  let buf = Buffer.create 2048 in
  for k = 1 to 9 do
    let mods, iters = span_profile k profile.n_modules in
    add buf (Printf.sprintf "func span%d(n: Int) -> Int {\n  var acc = n\n" k);
    add buf (Printf.sprintf "  for it in 0 ..< n * %d {\n" iters);
    List.iter
      (fun i ->
        add buf (Printf.sprintf "    acc = acc + m%d_entry((acc + it) %% 509)\n" i);
        add buf "    acc = acc + sys_frame(acc)\n")
      mods;
    add buf "  }\n  return acc % 1000003\n}\n"
  done;
  add buf "func main() -> Int {\n  var acc = 0\n";
  for k = 1 to 9 do
    add buf (Printf.sprintf "  acc = acc + span%d(1)\n" k)
  done;
  add buf "  return acc % 1000003\n}\n";
  Buffer.contents buf

let generate_sources profile =
  let st = Random.State.make [| profile.seed; profile.week * 7919 |] in
  let vendor_modules =
    List.init profile.n_vendor (fun j ->
        (Printf.sprintf "vendorlib%d" j, vendor_source st j))
  in
  let feature_modules =
    List.init profile.n_modules (fun i ->
        let mname = Printf.sprintf "m%d" i in
        (mname, module_source st profile ~mname ~mindex:i))
  in
  (("core", core_source) :: ("system", system_source) :: vendor_modules)
  @ feature_modules
  @ [ ("appmain", main_source profile) ]

(* --- per-module configuration data ------------------------------------------ *)

(* Each feature module ships a configuration table its entry function reads
   (feature flags, localized layout constants, ...).  Developers "put all the
   data needed by a feature in its relevant module" (§VI-3); whether the
   linker preserves that affinity is exactly the data-layout experiment.
   The loads are folded into the entry's return value through [x ^ x = 0],
   so behaviour is independent of where the linker places the tables — only
   page-touch counts differ. *)
let config_tables = 64   (* small globals per module *)
let config_table_words = 64  (* 512 B each: 32 KiB of data per module *)

let add_module_data (m : Ir.modul) =
  if not (String.length m.Ir.m_name >= 2 && m.Ir.m_name.[0] = 'm'
          && m.Ir.m_name.[1] >= '0' && m.Ir.m_name.[1] <= '9')
  then m
  else begin
    let table_name k = Printf.sprintf "%s_cfg%d" m.Ir.m_name k in
    let globals =
      List.init config_tables (fun k ->
          {
            Ir.g_name = table_name k;
            g_init =
              List.init config_table_words (fun i ->
                  Ir.Gword (((i + (k * 131)) * 2654435761) land 0xffff));
            g_module = m.Ir.m_name;
          })
    in
    let entry_name = m.Ir.m_name ^ "_entry" in
    let touched = [ 0; 5; 11; 17; 23; 29; 35; 41; 47; 53; 59; 63 ] in
    let funcs =
      List.map
        (fun (f : Ir.func) ->
          if not (String.equal f.Ir.name entry_name) then f
          else begin
            let next = ref f.Ir.next_value in
            let fresh () =
              let v = !next in
              incr next;
              v
            in
            let loads =
              List.map
                (fun k ->
                  let gv = fresh () in
                  let lv = fresh () in
                  (k, gv, lv))
                touched
            in
            let mix0 = fresh () in
            let zero = fresh () in
            let lv_of i = (fun (_, _, lv) -> lv) (List.nth loads i) in
            let prefix =
              List.concat_map
                (fun (k, gv, lv) ->
                  [
                    Ir.Assign (gv, Ir.Global (table_name k));
                    Ir.Load (lv, Ir.V gv, 8 * (k mod config_table_words));
                  ])
                loads
              @ [
                  Ir.Binop (mix0, Ir.Add, Ir.V (lv_of 0), Ir.V (lv_of 3));
                  Ir.Binop (zero, Ir.Xor, Ir.V mix0, Ir.V mix0);
                ]
            in
            let blocks =
              List.mapi
                (fun i (b : Ir.block) ->
                  let b =
                    if i = 0 then { b with Ir.instrs = prefix @ b.Ir.instrs } else b
                  in
                  match b.Ir.term with
                  | Ir.Ret o ->
                    let r = fresh () in
                    {
                      b with
                      Ir.instrs = b.Ir.instrs @ [ Ir.Binop (r, Ir.Add, o, Ir.V zero) ];
                      term = Ir.Ret (Ir.V r);
                    }
                  | Ir.Br _ | Ir.Cond_br _ | Ir.Unreachable -> b)
                f.Ir.blocks
            in
            { f with Ir.blocks; next_value = !next }
          end)
        m.Ir.funcs
    in
    { m with Ir.funcs; globals = globals @ m.Ir.globals }
  end

(* --- Objective-C module post-processing ------------------------------------- *)

let retarget_objc (m : Ir.modul) =
  let rewrite_instr = function
    | Ir.Retain o -> Ir.Call (None, "objc_retain", [ o ])
    | Ir.Release o -> Ir.Call (None, "objc_release", [ o ])
    | i -> i
  in
  let funcs =
    List.map
      (fun (f : Ir.func) ->
        {
          f with
          Ir.blocks =
            List.map
              (fun (b : Ir.block) ->
                { b with Ir.instrs = List.map rewrite_instr b.instrs })
              f.blocks;
        })
      m.Ir.funcs
  in
  let externs =
    List.sort_uniq String.compare ("objc_retain" :: "objc_release" :: m.Ir.externs)
  in
  { m with Ir.funcs; externs }

let generate_modules profile =
  let sources = generate_sources profile in
  match Swiftlet.Compile.compile_program sources with
  | Error e -> Error e
  | Ok mods ->
    let st = Random.State.make [| profile.seed + 17 |] in
    let tagged =
      List.map
        (fun (m : Ir.modul) ->
          let is_objc =
            (match m.Ir.m_name with
            | "core" | "appmain" | "system" -> false
            | _ -> Random.State.float st 1.0 < profile.objc_fraction)
          in
          let flag =
            if is_objc then
              Link.pack_objc_gc ~gc_mode:0 ~compiler_id:2 ~version:900
            else Link.pack_objc_gc ~gc_mode:0 ~compiler_id:1 ~version:502
          in
          let m = if is_objc then retarget_objc m else m in
          let m = add_module_data m in
          { m with Ir.flags = [ ("objc_gc", Ir.Packed flag) ] })
        mods
    in
    Ok tagged
