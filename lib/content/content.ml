open Machine

(* Stable function-content machinery: FNV-1a hashing, name-erased rendered
   instruction streams, and k-gram shingles.  One definition of "content"
   shared by the layers that fingerprint functions — the compressed-size
   model and bp-compress objective in lib/linker / lib/pgo, thin-WPO's
   summary exchange, the merge layer's fingerprints, and the serve
   daemon's cache keys. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

(* The hot kernel of every content hash: a plain loop, so the compiler
   keeps the running hash unboxed instead of allocating an [Int64] per
   byte. *)
let fnv_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

let hash_string s = fnv_string fnv_offset s

let add_blocks buf blocks =
  List.iter
    (fun (b : Block.t) ->
      Buffer.add_string buf b.Block.label;
      Buffer.add_char buf ':';
      Array.iter
        (fun i ->
          Buffer.add_string buf (Insn.to_string i);
          Buffer.add_char buf ';')
        b.Block.body;
      Buffer.add_string buf (Block.terminator_to_string b.Block.term);
      Buffer.add_char buf '|')
    blocks

let add_func buf (f : Mfunc.t) = add_blocks buf f.Mfunc.blocks

let render (f : Mfunc.t) =
  let buf = Buffer.create 256 in
  add_func buf f;
  Buffer.contents buf

(* k-gram shingles over the instruction stream: every window of [k]
   consecutive rendered instructions (terminators included) hashes to
   one utility id, deduplicated.  Functions sharing instruction
   subsequences — outlined-clone families, merge-function survivors,
   codegen idioms — share shingles. *)
let shingles ?(k = 2) (f : Mfunc.t) =
  let insns = ref [] in
  List.iter
    (fun (b : Block.t) ->
      Array.iter (fun i -> insns := Insn.to_string i :: !insns) b.Block.body;
      insns := Block.terminator_to_string b.Block.term :: !insns)
    f.blocks;
  let insns = Array.of_list (List.rev !insns) in
  let n = Array.length insns in
  if n = 0 then []
  else begin
    let k = min k n in
    let out = ref [] in
    for i = 0 to n - k do
      let h = ref fnv_offset in
      for j = i to i + k - 1 do
        h := fnv_byte (fnv_string !h insns.(j)) 0
      done;
      out := !h :: !out
    done;
    List.sort_uniq Int64.compare !out
  end
