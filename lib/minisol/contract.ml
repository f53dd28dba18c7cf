type t = {
  name : string;
  source : string;
  ast : Ast.contract;
  bytecode : Evm.Bytecode.t;
  abi : Abi.func list;
}

let compile_ast ast ~source =
  let bytecode, abi = Codegen.compile ast in
  { name = ast.Ast.c_name; source; ast; bytecode; abi }

let compile source = compile_ast (Parser.parse source) ~source

let compile_result ?file source =
  let error pos what =
    let loc = String.concat ":" (Option.to_list file @ List.map string_of_int pos) in
    Error (if loc = "" then what else loc ^ ": " ^ what)
  in
  match compile source with
  | c -> Ok c
  | exception Lexer.Lex_error (msg, line, col) ->
    error [ line; col ] ("lexical error: " ^ msg)
  | exception Parser.Parse_error (msg, line, col) ->
    error [ line; col ] ("parse error: " ^ msg)
  | exception Typecheck.Type_error msg -> error [] ("type error: " ^ msg)

let source_hash source = Crypto.Keccak.hash_hex source

let of_embedded ~name ~source_hash:recorded source =
  let actual = source_hash source in
  if actual <> recorded then
    Error
      (Printf.sprintf
         "embedded source hash mismatch: recorded %s, actual %s (source \
          edited after the document was written?)"
         recorded actual)
  else
    match compile_result source with
    | Error e -> Error ("embedded source does not compile: " ^ e)
    | exception e ->
      Error ("embedded source does not compile: " ^ Printexc.to_string e)
    | Ok c when c.name <> name ->
      Error
        (Printf.sprintf
           "contract name mismatch: document says %S, source declares %S" name
           c.name)
    | Ok c -> Ok c

let constructor_abi t =
  match List.find_opt (fun f -> f.Abi.is_constructor) t.abi with
  | Some f -> f
  | None -> assert false (* Codegen synthesises one *)

let callable_functions t = List.filter (fun f -> not f.Abi.is_constructor) t.abi

let instruction_count t = Evm.Bytecode.byte_size t.bytecode

let deploy state addr t = Evm.State.set_code state addr t.bytecode
