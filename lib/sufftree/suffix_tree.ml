type node = {
  mutable start : int;          (* start of the edge label leading here *)
  mutable stop : int;           (* exclusive end; [max_int] while a leaf grows *)
  children : (int, node) Hashtbl.t;
  mutable slink : node option;
  mutable suffix_index : int;   (* for leaves: start of the suffix; -1 otherwise *)
}

type t = {
  text : int array;             (* concatenation with unique negative sentinels *)
  root : node;
  seq_of_pos : int array;       (* global position -> sequence index *)
  seq_start : int array;        (* sequence index -> global start position *)
  seq_lens : int array;
}

type occurrence = { seq : int; pos : int }
type repeat = { length : int; occs : occurrence list }

let new_node ~start ~stop =
  { start; stop; children = Hashtbl.create 4; slink = None; suffix_index = -1 }

let edge_length n ~pos =
  (* Current length of the edge into [n], while position [pos] has been read. *)
  min n.stop (pos + 1) - n.start

(* Ukkonen's online construction over the full concatenated text. *)
let ukkonen text =
  let n = Array.length text in
  let root = new_node ~start:(-1) ~stop:(-1) in
  let active_node = ref root in
  let active_edge = ref 0 in
  let active_length = ref 0 in
  let remainder = ref 0 in
  for i = 0 to n - 1 do
    let last_new : node option ref = ref None in
    remainder := !remainder + 1;
    let continue = ref true in
    while !continue && !remainder > 0 do
      if !active_length = 0 then active_edge := i;
      match Hashtbl.find_opt !active_node.children text.(!active_edge) with
      | None ->
        let leaf = new_node ~start:i ~stop:max_int in
        Hashtbl.replace !active_node.children text.(!active_edge) leaf;
        (match !last_new with
        | Some nd ->
          nd.slink <- Some !active_node;
          last_new := None
        | None -> ());
        decr remainder;
        if !active_node == root && !active_length > 0 then begin
          decr active_length;
          active_edge := i - !remainder + 1
        end
        else if not (!active_node == root) then
          active_node := (match !active_node.slink with Some s -> s | None -> root)
      | Some next ->
        let el = edge_length next ~pos:i in
        if !active_length >= el then begin
          (* Walk down. *)
          active_node := next;
          active_edge := !active_edge + el;
          active_length := !active_length - el
        end
        else if text.(next.start + !active_length) = text.(i) then begin
          (* Symbol already present: rule 3, stop this phase. *)
          (match !last_new with
          | Some nd ->
            nd.slink <- Some !active_node;
            last_new := None
          | None -> ());
          incr active_length;
          continue := false
        end
        else begin
          (* Split the edge. *)
          let split = new_node ~start:next.start ~stop:(next.start + !active_length) in
          Hashtbl.replace !active_node.children text.(!active_edge) split;
          let leaf = new_node ~start:i ~stop:max_int in
          Hashtbl.replace split.children text.(i) leaf;
          next.start <- next.start + !active_length;
          Hashtbl.replace split.children text.(next.start) next;
          (match !last_new with
          | Some nd -> nd.slink <- Some split
          | None -> ());
          last_new := Some split;
          decr remainder;
          if !active_node == root && !active_length > 0 then begin
            decr active_length;
            active_edge := i - !remainder + 1
          end
          else if not (!active_node == root) then
            active_node := (match !active_node.slink with Some s -> s | None -> root)
        end
    done
  done;
  (* Close leaves and assign suffix indices via an explicit-stack DFS. *)
  let stack = ref [ (root, 0) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (nd, depth) :: rest ->
      stack := rest;
      if nd != root && nd.stop = max_int then begin
        nd.stop <- n;
        nd.suffix_index <- n - (depth + (n - nd.start))
      end
      else
        Hashtbl.iter
          (fun _ child ->
            let d = if nd == root then 0 else depth + (nd.stop - nd.start) in
            stack := (child, d) :: !stack)
          nd.children;
      (* For internal nodes we still must push children computed with their
         own depth; handled above in the else branch. *)
      ()
  done;
  root

let build seqs =
  List.iter
    (fun s -> Array.iter (fun x -> if x < 0 then invalid_arg "Suffix_tree.build: negative symbol") s)
    seqs;
  let total = List.fold_left (fun acc s -> acc + Array.length s + 1) 0 seqs in
  let text = Array.make total 0 in
  let seq_of_pos = Array.make total (-1) in
  let nseq = List.length seqs in
  let seq_start = Array.make (max nseq 1) 0 in
  let seq_lens = Array.make (max nseq 1) 0 in
  let off = ref 0 in
  List.iteri
    (fun si s ->
      seq_start.(si) <- !off;
      seq_lens.(si) <- Array.length s;
      Array.iteri
        (fun j x ->
          text.(!off + j) <- x;
          seq_of_pos.(!off + j) <- si)
        s;
      off := !off + Array.length s;
      (* Unique sentinel: encode as [-(si + 1)]. *)
      text.(!off) <- -(si + 1);
      seq_of_pos.(!off) <- si;
      incr off)
    seqs;
  let root = ukkonen text in
  { text; root; seq_of_pos; seq_start; seq_lens }

let is_leaf nd = Hashtbl.length nd.children = 0

(* Iterative DFS that visits every node with its string depth (path length
   from the root to the *top* of the node's incoming edge plus edge length). *)
let iter_nodes t f =
  let stack = ref [ (t.root, 0) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (nd, path_len) :: rest ->
      stack := rest;
      let depth =
        if nd == t.root then 0 else path_len + (nd.stop - nd.start)
      in
      f nd depth;
      Hashtbl.iter (fun _ c -> stack := (c, depth) :: !stack) nd.children
  done

(* Leaf suffix starts below a node, via DFS. *)
let leaf_starts nd =
  let acc = ref [] in
  let stack = ref [ nd ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | x :: rest ->
      stack := rest;
      if is_leaf x then acc := x.suffix_index :: !acc
      else Hashtbl.iter (fun _ c -> stack := c :: !stack) x.children
  done;
  !acc

let to_occurrence t gpos =
  let seq = t.seq_of_pos.(gpos) in
  { seq; pos = gpos - t.seq_start.(seq) }

let repeats ?(min_length = 2) t =
  let out = ref [] in
  iter_nodes t (fun nd depth ->
      if nd != t.root && (not (is_leaf nd)) && depth >= min_length then begin
        let starts = List.sort Int.compare (leaf_starts nd) in
        (* A path of depth >= 1 containing a sentinel cannot repeat (each
           sentinel is unique), so every reported occurrence lies within a
           single input sequence. *)
        let occs = List.map (to_occurrence t) starts in
        match occs with
        | _ :: _ :: _ -> out := { length = depth; occs } :: !out
        | [ _ ] | [] -> ()
      end);
  !out

type visit = length:int -> occs:int array -> count:int -> unit

let occ ~seq ~pos = (seq lsl 32) lor pos
let occ_seq o = o lsr 32
let occ_pos o = o land 0xffff_ffff

let iter_repeats ?min_length t (f : visit) =
  let buf = Array.make (Array.length t.text) 0 in
  List.iter
    (fun r ->
      let count =
        List.fold_left
          (fun i o ->
            buf.(i) <- occ ~seq:o.seq ~pos:o.pos;
            i + 1)
          0 r.occs
      in
      f ~length:r.length ~occs:buf ~count)
    (repeats ?min_length t)

let contains t needle =
  let m = Array.length needle in
  if m = 0 then true
  else begin
    let nd = ref t.root in
    let i = ref 0 in
    let ok = ref true in
    (try
       while !i < m do
         match Hashtbl.find_opt !nd.children needle.(!i) with
         | None ->
           ok := false;
           raise Exit
         | Some child ->
           let el = child.stop - child.start in
           let j = ref 0 in
           while !j < el && !i < m do
             if t.text.(child.start + !j) <> needle.(!i) then begin
               ok := false;
               raise Exit
             end;
             incr j;
             incr i
           done;
           nd := child
       done
     with Exit -> ());
    !ok
  end

let count_leaves t =
  let n = ref 0 in
  iter_nodes t (fun nd _ -> if nd != t.root && is_leaf nd then incr n);
  !n

let substring_at t occ len =
  let g = t.seq_start.(occ.seq) + occ.pos in
  if occ.pos + len > t.seq_lens.(occ.seq) then
    invalid_arg "Suffix_tree.substring_at: out of range";
  Array.sub t.text g len
