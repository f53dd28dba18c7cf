(** Shard worker: stream one corpus shard, run every configured fuzzer
    campaign per contract, fold the reports into a {!Summary.t}.

    Crash safety is layered:
    - campaigns checkpoint through [Persist] under
      [<state>/shard-<k>/c<idx>-<tool>/] at the config's cadence;
    - after each fully-finished contract the worker atomically rewrites
      [progress.json] ([done] count + folded summary) and deletes the
      contract's campaign checkpoints;
    - the finished shard is published as [summary.json].

    A worker re-leased a half-done shard therefore skips the [done]
    contracts, resumes the in-flight contract's campaigns from their
    last checkpoints, and refolds that contract from scratch — the
    summary it ends with is bit-identical to an uninterrupted run's. *)

exception Interrupted
(** Raised out of {!run_shard} when the [interrupt] callback answers
    [true] at a campaign safe point — the in-process stand-in for
    SIGKILL in resume tests. State on disk is exactly what a kill at
    that moment would leave. *)

val shard_dir_name : int -> string
(** ["shard-%04d"] under the fleet state directory. *)

val progress_file : string
val summary_file : string

val heartbeat_file : string
(** Touched at every safe point and contract boundary; the driver
    treats a stale mtime as a dead worker. *)

val run_shard :
  ?metrics:Telemetry.Metrics.t ->
  ?heartbeat:(unit -> unit) ->
  ?interrupt:(unit -> bool) ->
  state:string ->
  corpus:string ->
  shard:int ->
  config:Config.t ->
  unit ->
  (Summary.t, string) result
(** Process shard [shard] of the corpus at [corpus], writing progress
    under [state]. Per-campaign failures (compile errors, oracle
    crashes) are recorded as summary failures, never aborting the
    shard; {!Interrupted} and [Campaign.Preempt] always propagate.
    Each campaign runs in-process with [Persist] checkpointing. *)

val load_summary :
  state:string -> shard:int -> buckets:int -> (Summary.t, string) result
(** Read a completed shard's published [summary.json]. *)
