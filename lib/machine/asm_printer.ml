let to_source (p : Program.t) =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  let line s =
    add s;
    add "\n"
  in
  List.iter (fun e -> line ("extern " ^ e)) p.externs;
  List.iter
    (fun (d : Dataobj.t) ->
      add ("data " ^ d.name ^ ":");
      Array.iter
        (function
          | Dataobj.Word w -> add (" " ^ string_of_int w)
          | Dataobj.Sym s -> add (" @" ^ s))
        d.words;
      line "")
    p.data;
  List.iter
    (fun (f : Mfunc.t) ->
      add ("func " ^ f.name);
      if f.from_module <> "" then add (" module=" ^ f.from_module);
      if f.no_outline then add " no_outline";
      Option.iter (fun l -> add (" cold=" ^ l)) f.cold_from;
      line ":";
      List.iter
        (fun (b : Block.t) ->
          line (b.label ^ ":");
          Array.iter
            (fun i ->
              add "  ";
              line (Insn.to_string i))
            b.body;
          add "  ";
          line (Block.terminator_to_string ~source:true b.term))
        f.blocks)
    p.funcs;
  Buffer.contents buf
