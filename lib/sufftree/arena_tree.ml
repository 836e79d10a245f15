(* Arena-allocated generalized suffix tree.  Same algorithm and reported
   repeats as {!Suffix_tree} (Ukkonen over the concatenation with unique
   negative sentinels), but engineered for the whole-program hot path:

   - nodes live in parallel int arrays (struct-of-arrays), preallocated to
     the 2n+2 Ukkonen bound — no per-node records, options, or hashtables;
   - all children edges share one open-addressing table with packed int
     keys [node * span + (symbol + nseq)] — no tuple/box allocation per
     probe and no per-node table headers;
   - one Euler-tour DFS collects leaves in visit order, so every internal
     node's occurrence set is a contiguous slice [lo, hi) of one shared
     array, and {!iter_repeats} reports each node from a reused buffer:
     no repeat or occurrence is ever a record;
   - arrays dead after construction are recycled in place, so a pool
     holds ten: the suffix links become the adjacency cursor, then the
     tour's child cursor and each node's [hi]; edge starts and stops become
     [lo] and string depths as the tour leaves each edge behind; the text
     becomes [leaf_order]; the children table's keys the tour's path stack
     and its values the report buffer.

   The construction allocates O(n) words total and nothing per probe, which
   is what cuts GC pressure on the uber_rider whole-program build. *)

type t = {
  n_nodes : int;
  sd : int array;               (* string depth including the incoming edge *)
  lo : int array;               (* node's leaves = leaf_order.[lo, hi) *)
  hi : int array;
  leaf_order : int array;       (* packed occurrences in DFS visit order *)
  buf : int array;              (* one node's occurrences, sorted *)
}

let next_pow2 x =
  let r = ref 16 in
  while !r < x do
    r := !r * 2
  done;
  !r

(* Reusable backing store.  A whole-program build touches ~10 arrays of
   O(n) ints; allocating them fresh every round puts megabytes on the major
   heap per round and the collector's slices show up as noise across every
   phase.  A pool hands out the previous round's arrays when they are big
   enough — callers must treat the returned tree as dead once the pool is
   used for another build. *)
type pool = { mutable slots : int array array }

let create_pool () = { slots = Array.make 10 [||] }

(* A pooled array may be longer than requested; every consumer indexes
   through explicit bounds ([n], [cap], [n_nodes]) so the slack is inert.
   Slots with a read-before-write pattern are re-filled by the caller. *)
let pool_get pool i size =
  let a = pool.slots.(i) in
  if Array.length a >= size then a
  else begin
    let a = Array.make size 0 in
    pool.slots.(i) <- a;
    a
  end

let build ?pool seqs =
  (* Without a pool every array is freshly allocated, so distinct trees
     never alias; with one, the newest build owns the backing store. *)
  let alloc i size =
    match pool with
    | Some p -> pool_get p i size
    | None -> Array.make size 0
  in
  Array.iter
    (fun s ->
      Array.iter
        (fun x -> if x < 0 then invalid_arg "Arena_tree.build: negative symbol")
        s)
    seqs;
  let total = Array.fold_left (fun acc s -> acc + Array.length s + 1) 0 seqs in
  let n = total in
  let text = alloc 0 (max n 1) in
  let seq_of_pos = alloc 1 (max n 1) in
  let nseq = Array.length seqs in
  let seq_start = alloc 2 (max nseq 1) in
  let max_sym = ref 0 in
  let off = ref 0 in
  Array.iteri
    (fun si s ->
      seq_start.(si) <- !off;
      Array.iteri
        (fun j x ->
          if x > !max_sym then max_sym := x;
          text.(!off + j) <- x;
          seq_of_pos.(!off + j) <- si)
        s;
      off := !off + Array.length s;
      text.(!off) <- -(si + 1);
      seq_of_pos.(!off) <- si;
      incr off)
    seqs;
  (* Node arena.  Ukkonen creates at most 2n+2 nodes including the root. *)
  let cap_nodes = (2 * n) + 3 in
  let starts = alloc 3 cap_nodes in
  let stops = alloc 4 cap_nodes in
  let slink = alloc 5 cap_nodes in
  Array.fill slink 0 cap_nodes 0;
  let n_nodes = ref 1 in
  starts.(0) <- -1;
  stops.(0) <- -1;
  let new_node ~start ~stop =
    let id = !n_nodes in
    incr n_nodes;
    starts.(id) <- start;
    stops.(id) <- stop;
    id
  in
  (* Shared children table.  Packed key: [node * span + (sym + nseq)] where
     symbols range over [-(nseq) .. max_sym]; every key is >= 0, so -1
     marks an empty slot.  Machine code yields ~1.2n edges in practice
     (2n+1 is the theoretical cap), so capacity 2.5n keeps the load factor
     under ~0.5 with no resizing while halving the table's cache footprint
     versus the conservative 4n. *)
  let span = !max_sym + nseq + 1 in
  let cap = next_pow2 ((5 * n / 2) + 16) in
  let mask = cap - 1 in
  let keys = alloc 6 cap in
  Array.fill keys 0 cap (-1);
  let vals = alloc 7 cap in
  let slot k =
    let h = k * 0x2545F4914F6CDD1D in
    let i = ref ((h lxor (h lsr 29)) land mask) in
    while keys.(!i) <> -1 && keys.(!i) <> k do
      i := (!i + 1) land mask
    done;
    !i
  in
  let find node sym =
    let i = slot ((node * span) + sym + nseq) in
    if keys.(i) = -1 then -1 else vals.(i)
  in
  let set node sym child =
    let k = (node * span) + sym + nseq in
    let i = slot k in
    keys.(i) <- k;
    vals.(i) <- child
  in
  (* Ukkonen's online construction (identical control flow to
     Suffix_tree.ukkonen; node 0 is the root, slink defaults to the root). *)
  let active_node = ref 0 in
  let active_edge = ref 0 in
  let active_length = ref 0 in
  let remainder = ref 0 in
  for i = 0 to n - 1 do
    let last_new = ref (-1) in
    incr remainder;
    let continue = ref true in
    while !continue && !remainder > 0 do
      if !active_length = 0 then active_edge := i;
      let nxt = find !active_node text.(!active_edge) in
      if nxt = -1 then begin
        let leaf = new_node ~start:i ~stop:max_int in
        set !active_node text.(!active_edge) leaf;
        if !last_new >= 0 then begin
          slink.(!last_new) <- !active_node;
          last_new := -1
        end;
        decr remainder;
        if !active_node = 0 && !active_length > 0 then begin
          decr active_length;
          active_edge := i - !remainder + 1
        end
        else if !active_node <> 0 then active_node := slink.(!active_node)
      end
      else begin
        let el = min stops.(nxt) (i + 1) - starts.(nxt) in
        if !active_length >= el then begin
          active_node := nxt;
          active_edge := !active_edge + el;
          active_length := !active_length - el
        end
        else if text.(starts.(nxt) + !active_length) = text.(i) then begin
          if !last_new >= 0 then begin
            slink.(!last_new) <- !active_node;
            last_new := -1
          end;
          incr active_length;
          continue := false
        end
        else begin
          let split =
            new_node ~start:starts.(nxt) ~stop:(starts.(nxt) + !active_length)
          in
          set !active_node text.(!active_edge) split;
          let leaf = new_node ~start:i ~stop:max_int in
          set split text.(i) leaf;
          starts.(nxt) <- starts.(nxt) + !active_length;
          set split text.(starts.(nxt)) nxt;
          if !last_new >= 0 then slink.(!last_new) <- split;
          last_new := split;
          decr remainder;
          if !active_node = 0 && !active_length > 0 then begin
            decr active_length;
            active_edge := i - !remainder + 1
          end
          else if !active_node <> 0 then active_node := slink.(!active_node)
        end
      end
    done
  done;
  let n_nodes = !n_nodes in
  (* Rebuild adjacency from the live table slots (overwritten slots always
     hold the current edge target) with a counting sort on parent ids.  The
     suffix links are dead now: they serve as the sort's cursor. *)
  let child_off = alloc 8 (n_nodes + 1) in
  Array.fill child_off 0 (n_nodes + 1) 0;
  for i = 0 to cap - 1 do
    if keys.(i) >= 0 then begin
      let parent = keys.(i) / span in
      child_off.(parent + 1) <- child_off.(parent + 1) + 1
    end
  done;
  for v = 1 to n_nodes do
    child_off.(v) <- child_off.(v) + child_off.(v - 1)
  done;
  let n_edges = child_off.(n_nodes) in
  let child_nodes = alloc 9 (max n_edges 1) in
  let cursor = slink in
  Array.blit child_off 0 cursor 0 (n_nodes + 1);
  for i = 0 to cap - 1 do
    if keys.(i) >= 0 then begin
      let parent = keys.(i) / span in
      child_nodes.(cursor.(parent)) <- vals.(i);
      cursor.(parent) <- cursor.(parent) + 1
    end
  done;
  (* One Euler-tour DFS computes string depths, and records every node's
     leaf set as a contiguous slice of [leaf_order] — {!iter_repeats} then
     only has to scan the node arrays.  A leaf's edge is still open, so its
     suffix starts its string depth above its edge start; each leaf is
     recorded as its packed occurrence.  A node's edge is read once, when
     the tour enters it, so its [starts] slot then takes its [lo] and its
     [stops] slot its string depth; its [next] child cursor (the suffix
     links again) is dead once the tour leaves it, and takes its [hi].  The
     path from the root lives on [stack] (the table's dead keys: a path
     holds at most [n_nodes] nodes). *)
  let sd = stops and lo = starts and next = slink and hi = slink in
  let leaf_order = text and stack = keys in
  let cursor = ref 0 in
  let enter nd depth =
    sd.(nd) <- depth;
    lo.(nd) <- !cursor;
    next.(nd) <- child_off.(nd)
  in
  enter 0 0;
  stack.(0) <- 0;
  let sp = ref 1 in
  while !sp > 0 do
    let nd = stack.(!sp - 1) in
    if next.(nd) = child_off.(nd + 1) then begin
      hi.(nd) <- !cursor;
      decr sp
    end
    else begin
      let c = child_nodes.(next.(nd)) in
      next.(nd) <- next.(nd) + 1;
      if child_off.(c + 1) = child_off.(c) then begin
        let gpos = starts.(c) - sd.(nd) in
        let seq = seq_of_pos.(gpos) in
        sd.(c) <- sd.(nd) + (n - starts.(c));
        lo.(c) <- !cursor;
        leaf_order.(!cursor) <-
          Suffix_tree.occ ~seq ~pos:(gpos - seq_start.(seq));
        incr cursor;
        hi.(c) <- !cursor
      end
      else begin
        enter c (sd.(nd) + (stops.(c) - starts.(c)));
        stack.(!sp) <- c;
        incr sp
      end
    end
  done;
  { n_nodes; sd; lo; hi; leaf_order; buf = vals }

(* Every node but the root is a leaf or has at least two children, and
   the tour gave each leaf a slice of one. *)
let count_leaves t =
  let c = ref 0 in
  for nd = 1 to t.n_nodes - 1 do
    if t.hi.(nd) - t.lo.(nd) = 1 then incr c
  done;
  !c

(* Sort [a.(0 .. k-1)] in place: insertion sort for short runs, heapsort
   above, so no slice costs more than O(k log k) or allocates. *)
let sort_prefix a k =
  if k <= 16 then
    for i = 1 to k - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let rec sift i size =
      let l = (2 * i) + 1 in
      if l < size then begin
        let m = if l + 1 < size && a.(l + 1) > a.(l) then l + 1 else l in
        if a.(m) > a.(i) then begin
          let x = a.(i) in
          a.(i) <- a.(m);
          a.(m) <- x;
          sift m size
        end
      end
    in
    for i = (k / 2) - 1 downto 0 do
      sift i k
    done;
    for size = k - 1 downto 1 do
      let x = a.(0) in
      a.(0) <- a.(size);
      a.(size) <- x;
      sift 0 size
    done
  end

let iter_repeats ?(min_length = 2) t (f : Suffix_tree.visit) =
  (* The Euler tour already ran inside {!build}: [t.sd] holds string
     depths and [t.leaf_order].[lo, hi) each node's leaf set, so this is a
     flat scan over the node arrays, highest node first.  Each node sorts
     a copy of its slice: sorting [leaf_order] itself would shuffle leaves
     across the sub-ranges of nodes not yet visited.  Leaves have slices of
     one, so [count >= 2] leaves exactly the internal nodes. *)
  for nd = t.n_nodes - 1 downto 1 do
    let count = t.hi.(nd) - t.lo.(nd) in
    if t.sd.(nd) >= min_length && count >= 2 then begin
      Array.blit t.leaf_order t.lo.(nd) t.buf 0 count;
      sort_prefix t.buf count;
      f ~length:t.sd.(nd) ~occs:t.buf ~count
    end
  done
