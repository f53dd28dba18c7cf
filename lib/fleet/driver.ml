let src = Logs.Src.create "fleet.driver" ~doc:"fleet coordinator"

module Log = (val Logs.src_log src : Logs.LOG)

let config_file = "fleet.json"

let summary_out = "fleet-summary.json"

type options = {
  state : string;
  corpus : string;
  config : Config.t;
  workers : int;
  heartbeat_timeout : float;
  poll_interval : float;
  status_interval : float;  (** 0 disables the stderr status line *)
  worker_argv : (shard:int -> string array) option;
      (** override the spawned worker command (tests); default re-execs
          [Sys.executable_name fleet worker ...] *)
}

let default_options ~state ~corpus ~config ~workers =
  {
    state;
    corpus;
    config;
    workers;
    heartbeat_timeout = 60.0;
    poll_interval = 0.05;
    status_interval = 0.0;
    worker_argv = None;
  }

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

type counters = {
  m_shards_done : Telemetry.Metrics.counter;
  m_contracts_done : Telemetry.Metrics.counter;
  m_contracts_failed : Telemetry.Metrics.counter;
  m_reassignments : Telemetry.Metrics.counter;
  m_workers_alive : Telemetry.Metrics.gauge;
}

let make_counters metrics =
  {
    m_shards_done =
      Telemetry.Metrics.counter metrics
        ~help:"fleet shards completed and recorded in the ledger"
        "mufuzz_fleet_shards_done_total";
    m_contracts_done =
      Telemetry.Metrics.counter metrics
        ~help:"contracts fully fuzzed across the fleet"
        "mufuzz_fleet_contracts_done_total";
    m_contracts_failed =
      Telemetry.Metrics.counter metrics
        ~help:"per-campaign failures recorded in shard summaries"
        "mufuzz_fleet_contracts_failed_total";
    m_reassignments =
      Telemetry.Metrics.counter metrics
        ~help:"shard leases reclaimed from dead or stale workers"
        "mufuzz_fleet_lease_reassignments_total";
    m_workers_alive =
      Telemetry.Metrics.gauge metrics ~help:"worker processes currently alive"
        "mufuzz_fleet_workers_alive";
  }

(* ---------------- state-directory setup ---------------- *)

(* Pin the run parameters: a fresh state dir records them; a resumed
   one must present the same config digest (the per-contract seeds and
   budgets derive from it — mixing would corrupt the aggregate). *)
let check_config ~state ~(config : Config.t) =
  let path = Filename.concat state config_file in
  if Sys.file_exists path then
    match Config.of_string (String.trim (Util.Fileio.read_file path)) with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok existing ->
      if Config.digest existing <> Config.digest config then
        Error
          (Printf.sprintf
             "%s: state directory was created with a different fleet config \
              (digest %s, this run %s); use a fresh --state or the original \
              parameters"
             path (Config.digest existing) (Config.digest config))
      else Ok ()
  else begin
    Util.Fileio.write_atomic path (Config.to_string config ^ "\n");
    Ok ()
  end

let load_or_create_ledger ~state ~manifest_hash ~config_digest ~shards =
  let ( let* ) = Result.bind in
  let* existing = Ledger.load ~dir:state in
  match existing with
  | None ->
    Ok (Ledger.create ~manifest_hash ~config_digest ~shards)
  | Some l ->
    if l.Ledger.lg_manifest_hash <> manifest_hash then
      Error
        "fleet ledger was written against a different corpus manifest; \
         refusing to resume"
    else if l.Ledger.lg_config_digest <> config_digest then
      Error
        "fleet ledger was written under a different fleet config; refusing \
         to resume"
    else if Ledger.shards l <> shards then
      Error
        (Printf.sprintf
           "fleet ledger tracks %d shards but the manifest has %d"
           (Ledger.shards l) shards)
    else Ok l

(* ---------------- worker process management ---------------- *)

type slot = { pid : int; slot_shard : int; started : float }

let default_worker_argv ~options ~shard =
  [|
    Sys.executable_name;
    "fleet";
    "worker";
    "--state";
    options.state;
    "--corpus";
    options.corpus;
    "--shard";
    string_of_int shard;
  |]

let spawn_worker options ~shard =
  let argv =
    match options.worker_argv with
    | Some f -> f ~shard
    | None -> default_worker_argv ~options ~shard
  in
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
  in
  { pid; slot_shard = shard; started = Unix.gettimeofday () }

let heartbeat_age ~state ~shard ~now =
  let path =
    Filename.concat
      (Filename.concat state (Worker.shard_dir_name shard))
      Worker.heartbeat_file
  in
  match Unix.stat path with
  | { Unix.st_mtime; _ } -> Some (now -. st_mtime)
  | exception Unix.Unix_error _ -> None

(* ---------------- shared completion bookkeeping ---------------- *)

let record_done ~state ~counters ~bus ledger ~shard ~(summary : Summary.t) =
  let failed = List.length summary.Summary.s_failed in
  let ledger =
    Ledger.mark_done ledger ~shard ~contracts:summary.Summary.s_contracts
      ~failed
  in
  Ledger.save ~dir:state ledger;
  Telemetry.Metrics.incr counters.m_shards_done;
  Telemetry.Metrics.add counters.m_contracts_done summary.Summary.s_contracts;
  Telemetry.Metrics.add counters.m_contracts_failed failed;
  Telemetry.Bus.emit bus
    (Telemetry.Event.Fleet_shard_done
       { shard; contracts = summary.Summary.s_contracts; failed });
  ledger

let record_reassignment ~state ~counters ~bus ledger ~shard ~worker =
  let ledger = Ledger.mark_pending ledger ~shard in
  Ledger.save ~dir:state ledger;
  Telemetry.Metrics.incr counters.m_reassignments;
  Telemetry.Bus.emit bus
    (Telemetry.Event.Fleet_lease_reassigned { shard; worker });
  ledger

let merge_all ~state ~(config : Config.t) ledger =
  let ( let* ) = Result.bind in
  let rec loop acc k =
    if k >= Ledger.shards ledger then Ok acc
    else
      let* s = Worker.load_summary ~state ~shard:k ~buckets:config.buckets in
      loop (Summary.merge acc s) (k + 1)
  in
  let* merged = loop (Summary.empty ~buckets:config.buckets) 0 in
  Util.Fileio.write_atomic
    (Filename.concat state summary_out)
    (Summary.to_string merged ^ "\n");
  Ok merged

let status_line ledger ~alive =
  Printf.sprintf "fleet: %d/%d shards done, %d workers alive, %d reassignments"
    (Ledger.done_count ledger) (Ledger.shards ledger) alive
    ledger.Ledger.lg_reassignments

(* ---------------- process-mode main loop ---------------- *)

let run_processes ~counters ~bus ~options ~jobs ledger0 =
  let state = options.state in
  let slots : slot option array = Array.make (Stdlib.max 1 jobs) None in
  let alive () =
    Array.fold_left
      (fun n -> function Some _ -> n + 1 | None -> n)
      0 slots
  in
  let ledger = ref ledger0 in
  let last_status = ref 0.0 in
  let failure = ref None in
  let note_failure msg = if !failure = None then failure := Some msg in
  let reap slot_idx =
    Array.iteri
      (fun i -> function
        | Some s when i = slot_idx -> (
          (* worker gone: either it published a summary (done) or it
             died mid-shard (lease returns to the pool) *)
          slots.(i) <- None;
          match
            Worker.load_summary ~state ~shard:s.slot_shard
              ~buckets:options.config.Config.buckets
          with
          | Ok summary ->
            ledger :=
              record_done ~state ~counters ~bus !ledger ~shard:s.slot_shard
                ~summary
          | Error e ->
            Log.warn (fun m ->
                m "worker %d (shard %d) left no summary: %s" i s.slot_shard e);
            ledger :=
              record_reassignment ~state ~counters ~bus !ledger
                ~shard:s.slot_shard ~worker:i)
        | _ -> ())
      slots
  in
  while (not (Ledger.all_done !ledger)) && !failure = None do
    (* fill free slots while shards are pending *)
    Array.iteri
      (fun i -> function
        | Some _ -> ()
        | None -> (
          match Ledger.acquire !ledger ~worker:i with
          | None -> ()
          | Some (l, shard) -> (
            match spawn_worker options ~shard with
            | slot ->
              ledger := l;
              Ledger.save ~dir:state l;
              slots.(i) <- Some slot;
              Telemetry.Bus.emit bus
                (Telemetry.Event.Fleet_shard_leased { shard; worker = i });
              Log.info (fun m ->
                  m "shard %d leased to worker %d (pid %d)" shard i slot.pid)
            | exception Unix.Unix_error (e, _, _) ->
              note_failure
                (Printf.sprintf "cannot spawn worker: %s"
                   (Unix.error_message e)))))
      slots;
    Telemetry.Metrics.set counters.m_workers_alive (float_of_int (alive ()));
    if alive () = 0 && not (Ledger.all_done !ledger) then
      (* nothing running and nothing spawnable — only reachable when
         spawn failed, which already set [failure] *)
      note_failure "no workers running and shards still pending"
    else begin
      (try ignore (Unix.select [] [] [] options.poll_interval)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      let now = Unix.gettimeofday () in
      Array.iteri
        (fun i -> function
          | None -> ()
          | Some s -> (
            match Unix.waitpid [ Unix.WNOHANG ] s.pid with
            | 0, _ ->
              (* alive; a silent heartbeat past the timeout means a hung
                 worker — kill it and put the shard back *)
              let age =
                match heartbeat_age ~state ~shard:s.slot_shard ~now with
                | Some age -> age
                | None -> now -. s.started
              in
              if
                options.heartbeat_timeout > 0.0
                && age > options.heartbeat_timeout
              then begin
                Log.warn (fun m ->
                    m "worker %d (shard %d): heartbeat silent %.0fs; killing"
                      i s.slot_shard age);
                (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
                (try ignore (Unix.waitpid [] s.pid)
                 with Unix.Unix_error _ -> ());
                slots.(i) <- None;
                ledger :=
                  record_reassignment ~state ~counters ~bus !ledger
                    ~shard:s.slot_shard ~worker:i
              end
            | _, Unix.WEXITED 0 -> reap i
            | _, (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
              slots.(i) <- None;
              Log.warn (fun m ->
                  m "worker %d (shard %d) died; reassigning" i s.slot_shard);
              ledger :=
                record_reassignment ~state ~counters ~bus !ledger
                  ~shard:s.slot_shard ~worker:i
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> reap i))
        slots;
      Telemetry.Metrics.set counters.m_workers_alive (float_of_int (alive ()));
      if
        options.status_interval > 0.0
        && now -. !last_status >= options.status_interval
      then begin
        last_status := now;
        prerr_endline (status_line !ledger ~alive:(alive ()))
      end
    end
  done;
  (* a failure above leaves workers running; stop them before returning *)
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some s ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
        slots.(i) <- None)
    slots;
  Telemetry.Metrics.set counters.m_workers_alive 0.0;
  match !failure with Some msg -> Error msg | None -> Ok !ledger

(* ---------------- entry point ---------------- *)

(* One coordinator per state dir: two drivers leasing from the same
   ledger would double-assign shards. [lockf] releases on process death,
   so a SIGKILLed coordinator never wedges the directory. *)
let acquire_lock ~state =
  let path = Filename.concat state "fleet.lock" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
  match Unix.lockf fd Unix.F_TLOCK 0 with
  | () -> Ok fd
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
    Unix.close fd;
    Error
      (Printf.sprintf
         "%s: another fleet coordinator is already driving this state \
          directory"
         path)
  | exception e ->
    Unix.close fd;
    raise e

let run ?(metrics = Telemetry.Metrics.create ()) ?(bus = Telemetry.Bus.null)
    options =
  let ( let* ) = Result.bind in
  let config = options.config in
  let* () = Config.validate_tools config in
  let* manifest = Shard.load_manifest options.corpus in
  let* manifest_hash = Shard.manifest_digest options.corpus in
  mkdirs options.state;
  let* lock_fd = acquire_lock ~state:options.state in
  Fun.protect ~finally:(fun () -> try Unix.close lock_fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let* () = check_config ~state:options.state ~config in
  let* ledger =
    load_or_create_ledger ~state:options.state ~manifest_hash
      ~config_digest:(Config.digest config) ~shards:(Shard.shards manifest)
  in
  let counters = make_counters metrics in
  (* counters reflect ledger state across restarts: seed them from what
     previous coordinator incarnations already recorded *)
  Array.iter
    (function
      | Ledger.Done { d_contracts; d_failed } ->
        Telemetry.Metrics.incr counters.m_shards_done;
        Telemetry.Metrics.add counters.m_contracts_done d_contracts;
        Telemetry.Metrics.add counters.m_contracts_failed d_failed
      | _ -> ())
    ledger.Ledger.lg_states;
  Telemetry.Metrics.add counters.m_reassignments
    ledger.Ledger.lg_reassignments;
  (* leases held by a previous (dead) coordinator's workers *)
  let ledger, reclaimed = Ledger.reclaim_all ledger in
  if reclaimed > 0 then begin
    Log.info (fun m -> m "reclaimed %d stale leases" reclaimed);
    Telemetry.Metrics.add counters.m_reassignments reclaimed
  end;
  Ledger.save ~dir:options.state ledger;
  let* ledger =
    run_processes ~counters ~bus ~options ~jobs:options.workers ledger
  in
  merge_all ~state:options.state ~config ledger

let write_csvs ~dir ~(config : Config.t) summary =
  mkdirs dir;
  let tools = config.Config.tools in
  let put name content =
    Util.Fileio.write_atomic (Filename.concat dir name) content
  in
  put "fig5_small.csv"
    (Summary.fig5_csv summary ~tools ~size:"small"
       ~budget:config.Config.budget_small);
  put "fig5_large.csv"
    (Summary.fig5_csv summary ~tools ~size:"large"
       ~budget:config.Config.budget_large);
  put "fig6.csv" (Summary.fig6_csv summary ~tools);
  put "findings.csv" (Summary.findings_csv summary ~tools)
