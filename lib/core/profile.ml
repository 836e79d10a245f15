type round_profile = {
  rp_round : int;
  mutable rp_seq_build : float;
  mutable rp_tree_build : float;
  mutable rp_enumerate : float;
  mutable rp_score : float;
  mutable rp_rewrite : float;
}

type t = { mutable rev_rounds : round_profile list }

let create () = { rev_rounds = [] }

let new_round t round =
  let rp =
    {
      rp_round = round;
      rp_seq_build = 0.;
      rp_tree_build = 0.;
      rp_enumerate = 0.;
      rp_score = 0.;
      rp_rewrite = 0.;
    }
  in
  t.rev_rounds <- rp :: t.rev_rounds;
  rp

let rounds t = List.rev t.rev_rounds

let round_total rp =
  rp.rp_seq_build +. rp.rp_tree_build +. rp.rp_enumerate +. rp.rp_score
  +. rp.rp_rewrite

let total t = List.fold_left (fun acc rp -> acc +. round_total rp) 0. t.rev_rounds

let render t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "round  seq-build  tree-build  enumerate  score   rewrite  total\n";
  List.iter
    (fun rp ->
      Buffer.add_string buf
        (Printf.sprintf "%-6d %9.4f  %10.4f  %9.4f  %6.4f  %7.4f  %6.4f\n"
           rp.rp_round rp.rp_seq_build rp.rp_tree_build rp.rp_enumerate
           rp.rp_score rp.rp_rewrite (round_total rp)))
    (rounds t);
  Buffer.add_string buf (Printf.sprintf "outliner total: %.4fs\n" (total t));
  Buffer.contents buf

let json_of_round rp =
  Printf.sprintf
    "{\"round\":%d,\"seq_build_s\":%.6f,\"tree_build_s\":%.6f,\"enumerate_s\":%.6f,\"score_s\":%.6f,\"rewrite_s\":%.6f,\"total_s\":%.6f}"
    rp.rp_round rp.rp_seq_build rp.rp_tree_build rp.rp_enumerate rp.rp_score
    rp.rp_rewrite (round_total rp)

let to_json t =
  "[" ^ String.concat "," (List.map json_of_round (rounds t)) ^ "]"
