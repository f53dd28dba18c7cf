module J = Telemetry.Json

let src = Logs.Src.create "fleet.worker" ~doc:"fleet shard worker"

module Log = (val Logs.src_log src : Logs.LOG)

exception Interrupted

let progress_format = "mufuzz-fleet-progress"

let progress_version = 1

let shard_dir_name k = Printf.sprintf "shard-%04d" k

let progress_file = "progress.json"

let summary_file = "summary.json"

let heartbeat_file = "heartbeat"

let campaign_namespace ~index ~tool = Printf.sprintf "c%04d-%s" index tool

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

(* Progress is written only at contract granularity: [p_done] contracts
   are fully folded into [p_summary]. Campaigns inside the current
   contract checkpoint separately (under [c<idx>-<tool>/]), so a replay
   re-runs at most one contract, resuming each of its campaigns from
   its last checkpoint — and refolds them from scratch, keeping the
   summary arithmetic independent of where the kill landed. *)
let progress_json ~shard ~done_ ~summary =
  J.Obj
    [
      ("format", J.String progress_format);
      ("version", J.Int progress_version);
      ("shard", J.Int shard);
      ("done", J.Int done_);
      ("summary", Summary.to_json summary);
    ]

let load_progress ~dir ~shard ~buckets =
  let path = Filename.concat dir progress_file in
  if not (Sys.file_exists path) then Ok (0, Summary.empty ~buckets)
  else
    let ( let* ) = Result.bind in
    let fail fmt = Printf.ksprintf (fun s -> Error (path ^ ": " ^ s)) fmt in
    let* json =
      Result.map_error (Printf.sprintf "%s: %s" path)
        (J.of_string (String.trim (Util.Fileio.read_file path)))
    in
    let field name conv =
      match Option.bind (J.member name json) conv with
      | Some v -> Ok v
      | None -> fail "missing or ill-typed field %S" name
    in
    let* format = field "format" J.string_value in
    if format <> progress_format then fail "format is %S" format
    else
      let* version = field "version" J.to_int in
      if version <> progress_version then fail "unsupported version %d" version
      else
        let* k = field "shard" J.to_int in
        if k <> shard then fail "progress is for shard %d, expected %d" k shard
        else
          let* done_ = field "done" J.to_int in
          let* summary =
            match J.member "summary" json with
            | None -> fail "missing field \"summary\""
            | Some sj ->
              Result.map_error (Printf.sprintf "%s: %s" path)
                (Summary.of_json sj)
          in
          if summary.Summary.s_buckets <> buckets then
            fail "progress buckets %d, config says %d"
              summary.Summary.s_buckets buckets
          else Ok (done_, summary)

let touch path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Unix.close fd;
  try Unix.utimes path 0.0 0.0 (* 0.0 0.0 = set both times to now *)
  with Unix.Unix_error _ -> ()

(* One campaign: build the per-(contract, tool) config, resume from the
   newest checkpoint if one survived a previous lease, run, and hand
   back the report. *)
let run_campaign ?metrics ~config ~(entry : Shard.entry) ~index ~contract
    ~(profile : Baselines.Fuzzers.profile) ~shard_dir ~heartbeat ~interrupt ()
    =
  let cdir =
    Filename.concat shard_dir
      (campaign_namespace ~index ~tool:profile.Baselines.Fuzzers.name)
  in
  let fresh () =
    let base =
      {
        Mufuzz.Config.default with
        rng_seed = Config.seed_for config entry.Shard.name;
        max_executions =
          Config.budget_for config ~size:(Config.size_of_contract contract);
        checkpoint_dir = Some cdir;
        checkpoint_every_execs = config.Config.checkpoint_every;
        checkpoint_keep = 2;
      }
    in
    (profile.configure base, None, 0)
  in
  let effective, resume, start_execs =
    if Sys.file_exists cdir then
      match Persist.Store.load_latest cdir with
      | Ok (path, ckpt) ->
        ( ckpt.Persist.Checkpoint.config,
          Some (path, ckpt.snapshot),
          ckpt.snapshot.Mufuzz.Campaign.sn_execs )
      | Error e ->
        Log.warn (fun m ->
            m "%s/%s: stale checkpoint unreadable (%s); restarting campaign"
              entry.Shard.name profile.name e);
        fresh ()
    else fresh ()
  in
  let driver =
    Persist.Driver.of_config ?metrics ~start_execs ~tool:profile.name
      ~contract effective
  in
  let on_safe_point ~final ~bus ~execs snapshot =
    Option.iter
      (fun d -> Persist.Driver.hook d ~final ~bus ~execs snapshot)
      driver;
    heartbeat ();
    if (not final) && interrupt () then raise Interrupted
  in
  Baselines.Fuzzers.run profile ~config:effective ?metrics ?resume
    ~on_safe_point contract

let run_shard ?metrics ?(heartbeat = fun () -> ()) ?(interrupt = fun () -> false)
    ~state ~corpus ~shard ~(config : Config.t) () =
  let ( let* ) = Result.bind in
  let* manifest = Shard.load_manifest corpus in
  let* () = Config.validate_tools config in
  let shard_dir = Filename.concat state (shard_dir_name shard) in
  mkdirs shard_dir;
  let hb_path = Filename.concat shard_dir heartbeat_file in
  let beat () =
    heartbeat ();
    try touch hb_path with Unix.Unix_error _ -> ()
  in
  let* done_before, initial =
    load_progress ~dir:shard_dir ~shard ~buckets:config.buckets
  in
  if done_before > 0 then
    Log.info (fun m ->
        m "shard %d: resuming past %d completed contracts" shard done_before);
  let tools =
    List.filter_map Baselines.Fuzzers.find config.Config.tools
  in
  beat ();
  let* summary =
    Shard.fold ~dir:corpus ~shard ~manifest ~init:initial
      ~f:(fun acc index entry ->
        if index < done_before then acc
        else begin
          if interrupt () then raise Interrupted;
          let acc =
            match Minisol.Contract.compile entry.Shard.source with
            | exception e ->
              Log.warn (fun m ->
                  m "shard %d: %s does not compile: %s" shard entry.Shard.name
                    (Printexc.to_string e));
              Summary.fold_failure acc ~name:entry.Shard.name
                ~reason:(Printf.sprintf "compile: %s" (Printexc.to_string e))
            | contract ->
              let size = Config.size_of_contract contract in
              let budget = Config.budget_for config ~size in
              let acc =
                List.fold_left
                  (fun acc profile ->
                    match
                      Summary.obs_of_report
                        (run_campaign ?metrics ~config ~entry ~index ~contract
                           ~profile ~shard_dir ~heartbeat:beat ~interrupt ())
                    with
                    | obs ->
                      Summary.fold acc ~tool:profile.Baselines.Fuzzers.name
                        ~size ~budget obs
                    | exception ((Interrupted | Mufuzz.Campaign.Preempt) as e)
                      ->
                      raise e
                    | exception e ->
                      Log.warn (fun m ->
                          m "shard %d: %s/%s campaign failed: %s" shard
                            entry.Shard.name profile.Baselines.Fuzzers.name
                            (Printexc.to_string e));
                      Summary.fold_failure acc
                        ~name:
                          (entry.Shard.name ^ "/"
                         ^ profile.Baselines.Fuzzers.name)
                        ~reason:(Printexc.to_string e))
                  acc tools
              in
              (* campaign checkpoints are only needed while the contract
                 is in flight; drop them once it is folded *)
              List.iter
                (fun (p : Baselines.Fuzzers.profile) ->
                  Util.Fileio.remove_tree
                    (Filename.concat shard_dir
                       (campaign_namespace ~index ~tool:p.name)))
                tools;
              acc
          in
          let acc = Summary.contract_done acc in
          Util.Fileio.write_atomic
            (Filename.concat shard_dir progress_file)
            (J.to_string (progress_json ~shard ~done_:(index + 1) ~summary:acc)
            ^ "\n");
          beat ();
          acc
        end)
  in
  Util.Fileio.write_atomic
    (Filename.concat shard_dir summary_file)
    (Summary.to_string summary ^ "\n");
  beat ();
  Ok summary

let load_summary ~state ~shard ~buckets =
  let path =
    Filename.concat (Filename.concat state (shard_dir_name shard)) summary_file
  in
  let ( let* ) = Result.bind in
  let* content =
    try Ok (Util.Fileio.read_file path)
    with Sys_error e -> Error (Printf.sprintf "%s: %s" path e)
  in
  let* summary =
    Result.map_error (Printf.sprintf "%s: %s" path)
      (Summary.of_string (String.trim content))
  in
  if summary.Summary.s_buckets <> buckets then
    Error
      (Printf.sprintf "%s: summary buckets %d, config says %d" path
         summary.Summary.s_buckets buckets)
  else Ok summary
