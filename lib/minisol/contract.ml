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

let constructor_abi t =
  match List.find_opt (fun f -> f.Abi.is_constructor) t.abi with
  | Some f -> f
  | None -> assert false (* Codegen synthesises one *)

let callable_functions t = List.filter (fun f -> not f.Abi.is_constructor) t.abi

let instruction_count t = Evm.Bytecode.byte_size t.bytecode

let deploy state addr t = Evm.State.set_code state addr t.bytecode
