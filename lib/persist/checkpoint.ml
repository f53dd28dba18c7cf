(* The campaign checkpoint document: a versioned, self-describing JSON
   snapshot of everything a running campaign would lose on SIGKILL.

   Follows the repro-artifact precedent: the document embeds the full
   Minisol source plus its Keccak-256, which [of_json] re-verifies and
   recompiles — a checkpoint directory is self-contained, resumable on
   a machine that has never seen the original contract file. *)

module J = Telemetry.Json

let format_tag = "mufuzz-checkpoint"

(* v2 added the input-prediction flip-attempt counts ("attempts"); v1
   documents decode with an empty table, so prediction simply restarts
   its counting after resume. v3 added the prediction proposal counter
   ("predict_proposals"); v2 documents decode it as zero, so the
   proposal total restarts. Earlier v3 writers also stored a round-batch
   controller's width and vote counter; the decoder ignores those keys
   and a resumed campaign runs at its configured width *)
let current_version = 3

type t = {
  tool : string;
  config : Mufuzz.Config.t;
  contract : Minisol.Contract.t;
  snapshot : Mufuzz.Campaign.snapshot;
}

(* ---------------- encoding ---------------- *)

let branch_json (pc, taken) =
  J.Obj [ ("pc", J.Int pc); ("taken", J.Bool taken) ]

let branches_json l = J.List (List.map branch_json l)

let dist_json ((pc, taken), d) =
  J.Obj [ ("pc", J.Int pc); ("taken", J.Bool taken); ("d", J.Float d) ]

let entry_json (se : Mufuzz.Campaign.snapshot_entry) =
  J.Obj
    [
      ("seed", Mufuzz.Seed.to_json se.sn_seed);
      ("path", branches_json se.sn_path);
      ("nested", branches_json se.sn_nested);
      ("fdists", J.List (List.map dist_json se.sn_fdists));
      ( "masks",
        J.List
          (List.map
             (fun (i, m) ->
               J.Obj [ ("tx", J.Int i); ("mask", Mufuzz.Mask.to_json m) ])
             se.sn_masks) );
    ]

let finding_json ((f : Oracles.Oracle.finding), seed) =
  J.Obj
    [
      ("class", J.String (Oracles.Oracle.class_to_string f.cls));
      ("pc", J.Int f.pc);
      ("tx_index", J.Int f.tx_index);
      ("detail", J.String f.detail);
      ("seed", Mufuzz.Seed.to_json seed);
    ]

let occ_json ((k : Oracles.Oracle.key), n) =
  J.Obj
    [
      ("class", J.String (Oracles.Oracle.class_to_string k.k_cls));
      ("pc", J.Int k.k_pc);
      ("path_hash", J.String k.k_path);
      ("count", J.Int n);
    ]

let snapshot_json (s : Mufuzz.Campaign.snapshot) =
  J.Obj
    [
      ("execs", J.Int s.sn_execs);
      ("steps", J.Int s.sn_steps);
      ("mask_probes", J.Int s.sn_mask_probes);
      ("cursor", J.Int s.sn_cursor);
      (* int64 RNG state exceeds the 63-bit [J.Int] range *)
      ("rng", J.String (Int64.to_string s.sn_rng));
      ("rng_counter", J.Int s.sn_rng_counter);
      ("elapsed", J.Float s.sn_elapsed);
      ("entries", J.List (Array.to_list (Array.map entry_json s.sn_entries)));
      ("queue", J.List (List.map (fun i -> J.Int i) s.sn_queue));
      ( "best",
        J.List
          (List.map
             (fun ((pc, taken), d, i) ->
               J.Obj
                 [
                   ("pc", J.Int pc);
                   ("taken", J.Bool taken);
                   ("d", J.Float d);
                   ("entry", J.Int i);
                 ])
             s.sn_best) );
      ("coverage", Mufuzz.Coverage.to_json s.sn_coverage);
      ( "weights",
        match s.sn_weights with
        | None -> J.Null
        | Some ws -> J.List (List.map dist_json ws) );
      ("findings", J.List (List.map finding_json s.sn_findings));
      ("occ", J.List (List.map occ_json s.sn_occ));
      ( "over_time",
        J.List
          (List.map
             (fun (cp : Mufuzz.Report.checkpoint) ->
               J.Obj [ ("execs", J.Int cp.execs); ("covered", J.Int cp.covered) ])
             s.sn_over_time) );
      ( "attempts",
        J.List
          (List.map
             (fun ((pc, taken), n) ->
               J.Obj
                 [ ("pc", J.Int pc); ("taken", J.Bool taken); ("n", J.Int n) ])
             s.sn_attempts) );
      ("predict_proposals", J.Int s.sn_predict_proposals);
    ]

(* Field order is fixed; [J.to_string] preserves it, so equal
   checkpoints render byte-identically. The (large) source string goes
   last to keep the head of the file human-greppable. *)
let to_json t =
  J.Obj
    (J.header ~format:format_tag ~version:current_version
    @ [
        ("tool", J.String t.tool);
        ("contract", J.String t.contract.name);
        ( "source_hash",
          J.String (Minisol.Contract.source_hash t.contract.source) );
        ("config", Mufuzz.Config.to_json t.config);
        ("snapshot", snapshot_json t.snapshot);
        ("source", J.String t.contract.source);
      ])

let to_string t = J.to_string (to_json t)

(* ---------------- decoding ---------------- *)

let ( let* ) = Result.bind

let branch_of_json j =
  let* pc = J.field "pc" J.to_int j in
  let* taken = J.field "taken" J.to_bool j in
  Ok (pc, taken)

let dist_of_json j =
  let* br = branch_of_json j in
  let* d = J.field "d" J.to_float j in
  Ok (br, d)

let seed_of_json ~abi j =
  Result.bind (J.field "seed" Option.some j) (Mufuzz.Seed.of_json ~abi)

let entry_of_json ~abi j : (Mufuzz.Campaign.snapshot_entry, string) result =
  let* sn_seed = seed_of_json ~abi j in
  let* sn_path =
    Result.bind (J.field "path" J.to_list j) (J.list branch_of_json)
  in
  let* sn_nested =
    Result.bind (J.field "nested" J.to_list j) (J.list branch_of_json)
  in
  let* sn_fdists =
    Result.bind (J.field "fdists" J.to_list j) (J.list dist_of_json)
  in
  let* sn_masks =
    Result.bind (J.field "masks" J.to_list j)
      (J.list (fun mj ->
           let* tx = J.field "tx" J.to_int mj in
           let* m =
             Result.bind (J.field "mask" Option.some mj) Mufuzz.Mask.of_json
           in
           Ok (tx, m)))
  in
  Ok { Mufuzz.Campaign.sn_seed; sn_path; sn_nested; sn_fdists; sn_masks }

let class_of_json j =
  J.field "class"
    (fun v -> Option.bind (J.string_value v) Oracles.Oracle.class_of_string)
    j

let finding_of_json ~abi j =
  let* cls = class_of_json j in
  let* pc = J.field "pc" J.to_int j in
  let* tx_index = J.field "tx_index" J.to_int j in
  let* detail = J.field "detail" J.string_value j in
  let* seed = seed_of_json ~abi j in
  Ok ({ Oracles.Oracle.cls; pc; tx_index; detail }, seed)

let occ_of_json j =
  let* k_cls = class_of_json j in
  let* k_pc = J.field "pc" J.to_int j in
  let* k_path = J.field "path_hash" J.string_value j in
  let* count = J.field "count" J.to_int j in
  Ok ({ Oracles.Oracle.k_cls; k_pc; k_path }, count)

let snapshot_of_json ~abi j : (Mufuzz.Campaign.snapshot, string) result =
  let* sn_execs = J.field "execs" J.to_int j in
  let* sn_steps = J.field "steps" J.to_int j in
  let* sn_mask_probes = J.field "mask_probes" J.to_int j in
  (* the queue is read at [cursor mod length]: a negative cursor would
     index before the array *)
  let* sn_cursor =
    J.field "cursor"
      (fun v ->
        Option.bind (J.to_int v) (fun c -> if c >= 0 then Some c else None))
      j
  in
  let* sn_rng =
    J.field "rng"
      (fun v -> Option.bind (J.string_value v) Int64.of_string_opt)
      j
  in
  let* sn_rng_counter = J.field "rng_counter" J.to_int j in
  let* sn_elapsed = J.field "elapsed" J.to_float j in
  let* entries =
    Result.bind (J.field "entries" J.to_list j) (J.list (entry_of_json ~abi))
  in
  let sn_entries = Array.of_list entries in
  let entry what i =
    if i >= 0 && i < Array.length sn_entries then Ok i
    else Error (Printf.sprintf "%s entry index %d out of range" what i)
  in
  let* sn_queue =
    Result.bind (J.field "queue" J.to_list j)
      (J.list (fun ij ->
           match J.to_int ij with
           | Some i -> entry "queue" i
           | None -> Error "ill-typed queue entry"))
  in
  let* sn_best =
    Result.bind (J.field "best" J.to_list j)
      (J.list (fun bj ->
           let* br, d = dist_of_json bj in
           let* i = Result.bind (J.field "entry" J.to_int bj) (entry "best") in
           Ok (br, d, i)))
  in
  let* sn_coverage =
    Result.bind (J.field "coverage" Option.some j) Mufuzz.Coverage.of_json
  in
  let* sn_weights =
    Result.bind (J.field "weights" (J.nullable J.to_list) j) (function
      | None -> Ok None
      | Some ws -> Result.map Option.some (J.list dist_of_json ws))
  in
  let* sn_findings =
    Result.bind (J.field "findings" J.to_list j) (J.list (finding_of_json ~abi))
  in
  let* sn_occ = Result.bind (J.field "occ" J.to_list j) (J.list occ_of_json) in
  let* sn_over_time =
    Result.bind (J.field "over_time" J.to_list j)
      (J.list (fun cj ->
           let* execs = J.field "execs" J.to_int cj in
           let* covered = J.field "covered" J.to_int cj in
           Ok { Mufuzz.Report.execs; covered }))
  in
  (* absent before v2 *)
  let* sn_attempts =
    Result.bind (J.field_or "attempts" J.to_list ~default:[] j)
      (J.list (fun aj ->
           let* br = branch_of_json aj in
           let* n = J.field "n" J.to_int aj in
           Ok (br, n)))
  in
  (* absent before v3 *)
  let* sn_predict_proposals =
    J.field_or "predict_proposals" J.to_int ~default:0 j
  in
  Ok
    {
      Mufuzz.Campaign.sn_execs;
      sn_steps;
      sn_mask_probes;
      sn_cursor;
      sn_rng;
      sn_rng_counter;
      sn_elapsed;
      sn_entries;
      sn_queue;
      sn_best;
      sn_coverage;
      sn_weights;
      sn_findings;
      sn_occ;
      sn_over_time;
      sn_attempts;
      sn_predict_proposals;
    }

let of_json json =
  let* () =
    J.check_header ~format:format_tag ~versions:(1, current_version) json
  in
  let* tool = J.field "tool" J.string_value json in
  let* name = J.field "contract" J.string_value json in
  let* source_hash = J.field "source_hash" J.string_value json in
  let* source = J.field "source" J.string_value json in
  let* contract = Minisol.Contract.of_embedded ~name ~source_hash source in
  let* config =
    Result.bind (J.field "config" Option.some json)
      (Mufuzz.Config.of_json ~abi:contract.abi)
  in
  let* snapshot =
    Result.bind (J.field "snapshot" Option.some json)
      (snapshot_of_json ~abi:contract.abi)
  in
  Ok { tool; config; contract; snapshot }

let of_string s =
  match J.of_string s with
  | Ok json -> of_json json
  | Error e -> Error ("corrupt checkpoint: " ^ e)

let save path t = Util.Fileio.write_atomic path (to_string t ^ "\n")

let load path = Util.Fileio.load path of_string
