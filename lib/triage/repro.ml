(* Replay verification: execute an artifact's sequence and confirm the
   recorded (oracle, pc) still fires. Everything here is deterministic —
   the EVM substrate has no wall-clock or randomness — so two replays of
   the same artifact produce byte-identical outcomes (the regression
   gate relies on this). *)

type outcome = {
  ok : bool;  (* the artifact's (oracle, pc) fired *)
  raised : Oracles.Oracle.finding list;  (* every alarm the replay raised *)
}

let target_of (a : Artifact.t) =
  {
    Shrink.contract = a.contract;
    gas = a.gas_per_tx;
    n_senders = a.n_senders;
    attacker = a.attacker;
  }

let replay (a : Artifact.t) =
  let raised =
    Mufuzz.Executor.findings ~contract:a.contract ~gas:a.gas_per_tx
      ~n_senders:a.n_senders ~attacker:a.attacker a.seed
  in
  let ok =
    List.exists
      (fun (g : Oracles.Oracle.finding) ->
        g.cls = a.finding.cls && g.pc = a.finding.pc)
      raised
  in
  { ok; raised }

let describe (a : Artifact.t) (o : outcome) =
  if o.ok then
    Printf.sprintf "[%s] pc=%d reproduced on %s (%d txs, %d alarms raised)"
      (Oracles.Oracle.class_to_string a.finding.cls)
      a.finding.pc a.contract.name
      (List.length a.seed.txs) (List.length o.raised)
  else
    Printf.sprintf
      "[%s] pc=%d did NOT reproduce on %s (%d txs; raised instead: %s)"
      (Oracles.Oracle.class_to_string a.finding.cls)
      a.finding.pc a.contract.name
      (List.length a.seed.txs)
      (match o.raised with
      | [] -> "nothing"
      | fs ->
        String.concat ", "
          (List.map
             (fun (g : Oracles.Oracle.finding) ->
               Printf.sprintf "[%s]@%d"
                 (Oracles.Oracle.class_to_string g.cls)
                 g.pc)
             fs))

(* The one path from a witness to an artifact: shrink, re-raise the
   finding on the shrunk sequence (its tx_index and detail may have
   moved), rebuild the artifact around it. *)
let shrunk_artifact ?max_execs ~(target : Shrink.target) finding seed =
  let r = Shrink.shrink ~target ?max_execs finding seed in
  if not r.reproduced then Error "artifact does not reproduce its finding"
  else
    match Shrink.reraise ~target finding r.seed with
    | None -> Error "shrunk sequence lost the finding (shrinker bug)"
    | Some finding ->
      Ok
        ( Artifact.make ~contract:target.contract ~gas_per_tx:target.gas
            ~n_senders:target.n_senders ~attacker:target.attacker ~finding
            ~seed:r.seed,
          r )

let minimize ?dir ~target finding seed =
  match shrunk_artifact ~target finding seed with
  | Error _ -> None
  | Ok (a, r) ->
    let save dir =
      Util.Fileio.mkdirs dir;
      let path = Filename.concat dir (Artifact.file_name a) in
      Artifact.save path a;
      path
    in
    Some (Option.map save dir, r)

let shrink ?max_execs ?dest (a : Artifact.t) =
  Result.map
    (fun (shrunk, (r : Shrink.result)) ->
      Option.iter (fun path -> Artifact.save path shrunk) dest;
      (shrunk, r.execs))
    (shrunk_artifact ?max_execs ~target:(target_of a) a.finding a.seed)
