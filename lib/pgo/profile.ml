let current_version = 2

(* Hash indexes over the list fields, built once by [make]. *)
type index = {
  count_of : (string, int) Hashtbl.t;
  edge_of : (string * string, int) Hashtbl.t;
  block_of : (string * string, int) Hashtbl.t;
  touched : (string, unit) Hashtbl.t;
}

type t = {
  workload : string;
  entries : string list;
  first_touch : string list;
  counts : (string * int) list;
  edges : ((string * string) * int) list;
  blocks : ((string * string) * int) list;
  index : index;
}

let compare_edge ((c1, e1), _) ((c2, e2), _) =
  match String.compare c1 c2 with 0 -> String.compare e1 e2 | n -> n

(* The first binding of a key wins, as [List.assoc_opt] would pick it. *)
let index_of l =
  let tbl = Hashtbl.create (List.length l) in
  List.iter (fun (k, v) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v) l;
  tbl

let make ?(blocks = []) ~workload ~entries ~first_touch ~counts ~edges () =
  let counts = List.sort (fun (a, _) (b, _) -> String.compare a b) counts in
  let edges = List.sort compare_edge edges in
  let blocks = List.sort compare_edge blocks in
  {
    workload;
    entries;
    first_touch;
    counts;
    edges;
    blocks;
    index =
      {
        count_of = index_of counts;
        edge_of = index_of edges;
        block_of = index_of blocks;
        touched = index_of (List.map (fun f -> (f, ())) first_touch);
      };
  }

let empty ~workload =
  make ~workload ~entries:[] ~first_touch:[] ~counts:[] ~edges:[] ()

let find tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)
let count p f = find p.index.count_of f
let edge_weight p ~caller ~callee = find p.index.edge_of (caller, callee)
let block_count p ~func ~label = find p.index.block_of (func, label)

let has_block_counts p = p.blocks <> []

let executed p f = Hashtbl.mem p.index.touched f

let total_edge_weight p = List.fold_left (fun a (_, w) -> a + w) 0 p.edges

let equal a b =
  a.workload = b.workload && a.entries = b.entries
  && a.first_touch = b.first_touch && a.counts = b.counts && a.edges = b.edges
  && a.blocks = b.blocks

(* --- serialization --------------------------------------------------------

   A line-oriented versioned text format so profiles can be recorded once
   (`sizeopt profile`) and replayed (`sizeopt build --profile-in`):

     pgo-profile v2
     workload <name>
     entry <symbol>             # traced entry points, in run order
     touch <func>               # first-touch order, oldest first
     count <func> <n>           # function entry counts, sorted by name
     edge <caller> <callee> <n> # dynamic call edges, sorted
     block <func> <label> <n>   # basic-block execution counts, sorted

   v1 profiles (no block lines) still parse; they simply carry no
   block-granularity data, so consumers fall back to function-level
   heuristics.  Serialization is canonical (sorted counts/edges/blocks),
   so equal profiles render byte-identically — the determinism property
   the tests pin. *)

let to_string p =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "pgo-profile v%d\n" current_version);
  Buffer.add_string buf (Printf.sprintf "workload %s\n" p.workload);
  List.iter (fun e -> Buffer.add_string buf (Printf.sprintf "entry %s\n" e)) p.entries;
  List.iter (fun f -> Buffer.add_string buf (Printf.sprintf "touch %s\n" f)) p.first_touch;
  List.iter
    (fun (f, n) -> Buffer.add_string buf (Printf.sprintf "count %s %d\n" f n))
    p.counts;
  List.iter
    (fun ((c, e), n) ->
      Buffer.add_string buf (Printf.sprintf "edge %s %s %d\n" c e n))
    p.edges;
  List.iter
    (fun ((f, l), n) ->
      Buffer.add_string buf (Printf.sprintf "block %s %s %d\n" f l n))
    p.blocks;
  Buffer.contents buf

let of_string text =
  let lines =
    List.filter (fun (_, l) -> String.trim l <> "")
      (List.mapi (fun i l -> (i + 1, l)) (String.split_on_char '\n' text))
  in
  match lines with
  | [] -> Error "empty profile"
  | (_, header) :: rest ->
    let version =
      if header = "pgo-profile v1" then Some 1
      else if header = "pgo-profile v2" then Some 2
      else None
    in
    (match version with
    | None ->
      Error
        (Printf.sprintf
           "unsupported profile header %S (expected \"pgo-profile v%d\")" header
           current_version)
    | Some version ->
      let workload = ref "" in
      let entries = ref [] and touches = ref [] in
      let counts = ref [] and edges = ref [] and blocks = ref [] in
      let err = ref None in
      (* Directive and key of every touch, count, edge and block line: a
         repeat would leave lookups to pick one of two values. *)
      let seen = Hashtbl.create 1024 in
      List.iter
        (fun (lineno, line) ->
          if !err = None then
            let fail msg =
              err := Some (Printf.sprintf "line %d: %s: %S" lineno msg line)
            in
            let record key x acc =
              if Hashtbl.mem seen key then
                fail ("duplicate " ^ List.hd key ^ " key")
              else begin
                Hashtbl.add seen key ();
                acc := x :: !acc
              end
            in
            match String.split_on_char ' ' line with
            | "workload" :: rest when rest <> [] ->
              workload := String.concat " " rest
            | [ "entry"; e ] -> entries := e :: !entries
            | [ "touch"; f ] -> record [ "touch"; f ] f touches
            | [ "count"; f; n ] -> (
              match int_of_string_opt n with
              | Some n -> record [ "count"; f ] (f, n) counts
              | None -> fail "bad count")
            | [ "edge"; c; e; n ] -> (
              match int_of_string_opt n with
              | Some n -> record [ "edge"; c; e ] ((c, e), n) edges
              | None -> fail "bad edge weight")
            | [ "block"; f; l; n ] when version >= 2 -> (
              match int_of_string_opt n with
              | Some n -> record [ "block"; f; l ] ((f, l), n) blocks
              | None -> fail "bad block count")
            | _ -> fail "unknown directive")
        rest;
      match !err with
      | Some e -> Error e
      | None ->
        Ok
          (make ~workload:!workload ~entries:(List.rev !entries)
             ~first_touch:(List.rev !touches) ~counts:!counts ~edges:!edges
             ~blocks:!blocks ()))

let save path p =
  let oc = open_out path in
  output_string oc (to_string p);
  close_out oc

let load path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_string s
  with Sys_error e -> Error e
