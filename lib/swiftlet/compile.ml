let compile_module ?externals ~name src =
  match Parser.parse_module ~name src with
  | Error e -> Error (Printf.sprintf "%s: parse error: %s" name e)
  | Ok ast -> (
    match Typecheck.check_module ?externals ast with
    | Error e -> Error (Printf.sprintf "%s: type error: %s" name e)
    | Ok env -> Ok (Lower.lower_module env ast))

let signatures_of ~name src =
  match Parser.parse_module ~name src with
  | Error e -> Error (Printf.sprintf "%s: parse error: %s" name e)
  | Ok ast -> (
    match Sigs.build ast with
    | Error e -> Error (Printf.sprintf "%s: %s" name e)
    | Ok env ->
      (* Only free functions are exported; constructors and methods remain
         module-local. *)
      let exported =
        List.filter_map
          (fun d ->
            match d with
            | Ast.D_func fd -> (
              match Sigs.lookup_func env fd.Ast.fd_name with
              | Some fs -> Some (fd.Ast.fd_name, fs)
              | None -> None)
            | Ast.D_class _ -> None)
          ast.Ast.ma_decls
      in
      Ok exported)

(* [f] over [xs] in order; the first error wins. *)
let map_ok f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] xs

let compile_with ~signatures_of ~compile_module sources =
  (* First pass: gather exported signatures of every module. *)
  match
    map_ok
      (fun (name, src) ->
        Result.map (fun sigs -> (name, sigs)) (signatures_of ~name src))
      sources
  with
  | Error e -> Error e
  | Ok per_module ->
    map_ok
      (fun (name, src) ->
        (* Imports: every other module's exports. *)
        let externals =
          List.concat_map
            (fun (m, sigs) -> if String.equal m name then [] else sigs)
            per_module
        in
        compile_module ~externals ~name src)
      sources

let compile_program sources =
  compile_with ~signatures_of
    ~compile_module:(fun ~externals -> compile_module ~externals)
    sources
