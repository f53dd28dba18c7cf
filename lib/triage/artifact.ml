(* Deterministic repro artifacts: one finding, frozen as a versioned
   JSON document that replays without the campaign that produced it.

   The artifact embeds the full Minisol source (so a checked-in corpus
   is self-contained) plus its Keccak-256, which [of_json] re-verifies —
   an artifact whose source was edited without re-shrinking is rejected
   rather than silently replayed against a different program. *)

module J = Telemetry.Json

let format_tag = "mufuzz-repro"

let current_version = 1

type t = {
  contract : Minisol.Contract.t;
  finding : Oracles.Oracle.finding;
  path_hash : string;
  gas_per_tx : int;
  n_senders : int;
  attacker : bool;
  seed : Mufuzz.Seed.t;
}

let source_hash (c : Minisol.Contract.t) =
  Minisol.Contract.source_hash c.source

let key t =
  {
    Oracles.Oracle.k_cls = t.finding.cls;
    k_pc = t.finding.pc;
    k_path = t.path_hash;
  }

let make ~contract ~gas_per_tx ~n_senders ~attacker
    ~(finding : Oracles.Oracle.finding) ~seed =
  {
    contract;
    finding;
    path_hash =
      Oracles.Oracle.path_hash
        (Mufuzz.Seed.call_path seed ~upto:finding.tx_index);
    gas_per_tx;
    n_senders;
    attacker;
    seed;
  }

let file_name t =
  Printf.sprintf "%s_%s_%d_%s.json" t.contract.name
    (Oracles.Oracle.class_to_string t.finding.cls)
    t.finding.pc t.path_hash

(* Field order is fixed here; [J.to_string] preserves it, so equal
   artifacts render byte-identically (the repro determinism contract). *)
let to_json t =
  J.Obj
    (J.header ~format:format_tag ~version:current_version
    @ [
        ("contract", J.String t.contract.name);
        ("source_hash", J.String (source_hash t.contract));
        ("oracle", J.String (Oracles.Oracle.class_to_string t.finding.cls));
        ("pc", J.Int t.finding.pc);
        ("tx_index", J.Int t.finding.tx_index);
        ("detail", J.String t.finding.detail);
        ("path_hash", J.String t.path_hash);
        ("gas_per_tx", J.Int t.gas_per_tx);
        ("n_senders", J.Int t.n_senders);
        ("attacker", J.Bool t.attacker);
        ( "txs",
          J.List
            (List.map
               (fun (tx : Mufuzz.Seed.tx) ->
                 J.Obj
                   [
                     ("fn", J.String tx.fn.Abi.name);
                     ("sender", J.Int tx.sender);
                     ("stream", J.String (Util.Hex.encode tx.stream));
                   ])
               t.seed.txs) );
        ("source", J.String t.contract.source);
      ])

let to_string t = J.to_string (to_json t)

let ( let* ) = Result.bind

let of_json json =
  let* () =
    J.check_header ~format:format_tag ~versions:(1, current_version) json
  in
  let* name = J.field "contract" J.string_value json in
  let* source_hash = J.field "source_hash" J.string_value json in
  let* source = J.field "source" J.string_value json in
  let* contract = Minisol.Contract.of_embedded ~name ~source_hash source in
  let* cls =
    J.field "oracle"
      (fun v -> Option.bind (J.string_value v) Oracles.Oracle.class_of_string)
      json
  in
  let* pc = J.field "pc" J.to_int json in
  let* tx_index = J.field "tx_index" J.to_int json in
  let* detail = J.field "detail" J.string_value json in
  let* path_hash = J.field "path_hash" J.string_value json in
  let* gas_per_tx = J.field "gas_per_tx" J.to_int json in
  let* n_senders = J.field "n_senders" J.to_int json in
  let* attacker = J.field "attacker" J.to_bool json in
  let* txs =
    Result.bind (J.field "txs" J.to_list json)
      (J.list (fun tx_json ->
           let* name = J.field "fn" J.string_value tx_json in
           let* sender = J.field "sender" J.to_int tx_json in
           let* hex = J.field "stream" J.string_value tx_json in
           match
             Mufuzz.Replay.tx_of_parts ~abi:contract.abi ~name ~sender ~hex
           with
           | tx -> Ok tx
           | exception Mufuzz.Replay.Corrupt m -> Error ("bad tx: " ^ m)))
  in
  Ok
    {
      contract;
      finding = { Oracles.Oracle.cls; pc; tx_index; detail };
      path_hash;
      gas_per_tx;
      n_senders;
      attacker;
      seed = { Mufuzz.Seed.txs };
    }

let of_string s = Result.bind (J.of_string s) of_json

let save path t = Util.Fileio.write_atomic path (to_string t ^ "\n")

let load path = Util.Fileio.load path of_string
