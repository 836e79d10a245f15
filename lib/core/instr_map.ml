type t = {
  shared : (Machine.Insn.t, int) Hashtbl.t;
  mutable next : int;  (** the next fresh symbol; 0 is [ret] *)
}

let create () = { shared = Hashtbl.create 1024; next = 1 }

let ret_symbol (_ : t) = 0

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let symbol_of_insn t insn =
  match Legality.classify insn with
  | Legality.Illegal -> fresh t
  | Legality.Legal -> (
    match Hashtbl.find_opt t.shared insn with
    | Some id -> id
    | None ->
      let id = fresh t in
      Hashtbl.replace t.shared insn id;
      id)

let seq_of_block t ~has_ret body =
  let n = Array.length body in
  let arr = Array.make (if has_ret then n + 1 else n) (ret_symbol t) in
  for i = 0 to n - 1 do
    arr.(i) <- symbol_of_insn t body.(i)
  done;
  arr
