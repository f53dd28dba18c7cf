(** The fleet coordinator.

    Leases shards from the {!Ledger} to forked local [fleet worker]
    processes, supervises them by heartbeat, reassigns the leases
    of dead or hung workers, and merges the published shard summaries
    into the fleet aggregate.

    Everything the coordinator holds is O(shards): the ledger, the
    slot table and, at the end, one running {!Summary.t} merge.
    Contract-level state lives only inside workers, one contract at a
    time.

    Crash contract: the coordinator can be SIGKILLed at any moment and
    re-run with the same arguments; completed shards are skipped,
    leased shards are reclaimed and replayed from their workers'
    progress files, and the final aggregate is bit-identical to an
    uninterrupted run's. *)

val config_file : string
(** ["fleet.json"], the pinned run parameters in the state dir. *)

val summary_out : string
(** ["fleet-summary.json"], the merged aggregate. *)

type options = {
  state : string;
  corpus : string;
  config : Config.t;
  workers : int;  (** local [fleet worker] processes to fork *)
  heartbeat_timeout : float;
      (** seconds of heartbeat silence before a worker is declared hung,
          SIGKILLed and its lease reassigned; [<= 0] disables *)
  poll_interval : float;
  status_interval : float;  (** stderr status-line cadence; [0] = off *)
  worker_argv : (shard:int -> string array) option;
}

val default_options :
  state:string ->
  corpus:string ->
  config:Config.t ->
  workers:int ->
  options
(** 60 s heartbeat timeout, 50 ms poll, no status line, default argv. *)

val run :
  ?metrics:Telemetry.Metrics.t ->
  ?bus:Telemetry.Bus.t ->
  options ->
  (Summary.t, string) result
(** Drive the fleet to completion and return the merged summary (also
    written to [state/fleet-summary.json]). Safe to call on a state
    directory a previous run left behind — that is the resume path.
    A [lockf] lock on [state/fleet.lock] (auto-released on process
    death, even SIGKILL) rejects a second concurrent coordinator.
    [metrics] gains the [mufuzz_fleet_*] series; [bus] receives
    [Fleet_shard_leased] / [Fleet_shard_done] /
    [Fleet_lease_reassigned] events. *)

val write_csvs : dir:string -> config:Config.t -> Summary.t -> unit
(** Emit [fig5_small.csv], [fig5_large.csv], [fig6.csv] and
    [findings.csv] under [dir] in the bench harness's formats. *)
