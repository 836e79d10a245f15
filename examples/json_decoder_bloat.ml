(* The paper's Listing 10 story, end to end: a Swift-style class whose
   throwing initializer decodes many properties.  Each `try` spawns an
   error edge into a cleanup block with one Init-flag phi per reference
   property; out-of-SSA expands those phis into the copy bursts of
   Listing 11, and machine outlining claws the bytes back.

     dune exec examples/json_decoder_bloat.exe *)

let class_source n_fields =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    {|
func fetch(json: [Int], k: Int) throws -> [Int] {
  if k >= len(json) { throw }
  if json[k] < 0 { throw }
  let a = array(json[k] % 6 + 1)
  a[0] = json[k]
  return a
}
class Payload {
|};
  for k = 0 to n_fields - 1 do
    Buffer.add_string buf (Printf.sprintf "  var p%d: [Int]\n" k)
  done;
  Buffer.add_string buf "  init(json: [Int]) throws {\n";
  for k = 0 to n_fields - 1 do
    Buffer.add_string buf (Printf.sprintf "    self.p%d = try fetch(json, %d)\n" k k)
  done;
  Buffer.add_string buf "  }\n}\n";
  Buffer.add_string buf
    {|
func main() -> Int {
  let json = array(200)
  for i in 0 ..< 200 { json[i] = i }
  let ok = try? Payload(json)
  let bad = try? Payload(array(3))
  if ok == 0 { return 0 - 1 }
  if bad == 0 { return 1 } else { return 0 - 2 }
}
|};
  Buffer.contents buf

let measure n_fields =
  let src = class_source n_fields in
  let m =
    match Swiftlet.Compile.compile_module ~name:"decoder" src with
    | Ok m -> m
    | Error e -> failwith e
  in
  let prog = Codegen.compile_modul m in
  let outlined, _ = Outcore.Repeat.run ~rounds:5 prog in
  let init = Option.get (Ir.find_func m "Payload_init") in
  let instrs (f : Ir.func) =
    List.fold_left
      (fun n (b : Ir.block) -> n + List.length b.Ir.instrs)
      0 f.Ir.blocks
  in
  (* Lowering the phis adds only copies. *)
  let cleanup_copies = instrs (Out_of_ssa.run_func init) - instrs init in
  ( Machine.Program.code_size_bytes prog,
    Machine.Program.code_size_bytes outlined,
    cleanup_copies )

let () =
  Printf.printf
    "fields | code bytes | outlined | saving | out-of-SSA copies in init\n\
     -------+------------+----------+--------+--------------------------\n";
  List.iter
    (fun n ->
      let before, after, copies = measure n in
      Printf.printf "%6d | %10d | %8d | %5.1f%% | %d\n" n before after
        (100. *. float_of_int (before - after) /. float_of_int before)
        copies)
    [ 4; 8; 16; 32; 64; 118 ];
  (* Run the 118-field decoder for real, before and after outlining. *)
  let src = class_source 118 in
  let m =
    match Swiftlet.Compile.compile_module ~name:"decoder" src with
    | Ok m -> m
    | Error e -> failwith e
  in
  let prog = Codegen.compile_modul m in
  let outlined, _ = Outcore.Repeat.run ~rounds:5 prog in
  let config = { Perfsim.Interp.default_config with model_perf = false } in
  (match
     ( Perfsim.Interp.run ~config ~entry:"main" prog,
       Perfsim.Interp.run ~config ~entry:"main" outlined )
   with
  | Ok a, Ok b ->
    Printf.printf
      "\n118-field decoder runs: exit %d before, %d after outlining %s\n"
      a.exit_value b.exit_value
      (if a.exit_value = b.exit_value then "(identical, as it must be)" else "(MISMATCH!)")
  | Error e, _ | _, Error e -> failwith (Perfsim.Interp.error_to_string e));
  print_endline
    "\nThe number of out-of-SSA copies grows quadratically with the number of\n\
     try-initialized properties (the paper's Figure 9 / Listing 11).  The\n\
     outliner recovers many of those bytes; for very wide classes the copy\n\
     bursts spill to unique stack slots and the recoverable share tapers,\n\
     which is why the paper treats this pattern as a source-level smell too."
