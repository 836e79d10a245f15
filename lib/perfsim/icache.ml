type t = {
  line_bytes : int;
  assoc : int;
  sets : int;
  tags : int array;   (* sets * assoc entries; -1 = invalid *)
  ages : int array;   (* LRU stamps *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~size_bytes ~line_bytes ~assoc =
  if line_bytes <= 0 || assoc <= 0 || size_bytes <= 0 then
    invalid_arg "Icache.create: size, line and ways must be positive";
  if size_bytes mod (line_bytes * assoc) <> 0 then
    invalid_arg "Icache.create: size not divisible by line * assoc";
  let sets = size_bytes / (line_bytes * assoc) in
  {
    line_bytes;
    assoc;
    sets;
    tags = Array.make (sets * assoc) (-1);
    ages = Array.make (sets * assoc) 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let access t addr =
  let line = addr / t.line_bytes in
  let base = line mod t.sets * t.assoc in
  let stop = base + t.assoc in
  t.clock <- t.clock + 1;
  let w = ref base in
  while !w < stop && t.tags.(!w) <> line do
    incr w
  done;
  if !w < stop then begin
    t.ages.(!w) <- t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* Evict the LRU way: the first with the oldest stamp. *)
    let victim = ref base in
    for w = base + 1 to stop - 1 do
      if t.ages.(w) < t.ages.(!victim) then victim := w
    done;
    t.tags.(!victim) <- line;
    t.ages.(!victim) <- t.clock;
    false
  end

let hits t = t.hits
let misses t = t.misses

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.ages 0 (Array.length t.ages) 0;
  t.clock <- 0;
  t.hits <- 0;
  t.misses <- 0
