type parsed = (Ast.module_ast, string) result Lazy.t

let parse ~name src : parsed =
  lazy
    (match Parser.parse_module ~name src with
    | Error e -> Error (Printf.sprintf "%s: parse error: %s" name e)
    | Ok _ as ok -> ok)

let compile_parsed ?externals (p : parsed) =
  match Lazy.force p with
  | Error _ as e -> e
  | Ok ast -> (
    match Typecheck.check_module ?externals ast with
    | Error e -> Error (Printf.sprintf "%s: type error: %s" ast.Ast.ma_name e)
    | Ok env -> Ok (Lower.lower_module env ast))

let signatures_of_parsed (p : parsed) =
  match Lazy.force p with
  | Error _ as e -> e
  | Ok ast -> (
    match Sigs.build ast with
    | Error e -> Error (Printf.sprintf "%s: %s" ast.Ast.ma_name e)
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

let compile_module ?externals ~name src =
  compile_parsed ?externals (parse ~name src)

(* [f] over [xs] in order; the first error wins. *)
let map_ok f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] xs

let compile_with ~signatures_of ~compile_module sources =
  (* One lazy parse per module, shared by both passes. *)
  let sources = List.map (fun (name, src) -> (name, src, parse ~name src)) sources in
  (* First pass: gather exported signatures of every module. *)
  match
    map_ok
      (fun (name, _, p) ->
        Result.map (fun sigs -> (name, sigs)) (signatures_of ~name p))
      sources
  with
  | Error e -> Error e
  | Ok per_module ->
    map_ok
      (fun (name, src, p) ->
        (* Imports: every other module's exports. *)
        let externals =
          List.concat_map
            (fun (m, sigs) -> if String.equal m name then [] else sigs)
            per_module
        in
        compile_module ~externals ~name src p)
      sources

let compile_program sources =
  compile_with
    ~signatures_of:(fun ~name:_ p -> signatures_of_parsed p)
    ~compile_module:(fun ~externals ~name:_ _ p -> compile_parsed ~externals p)
    sources
