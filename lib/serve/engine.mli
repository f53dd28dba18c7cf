(** The campaign engine behind [mufuzz serve]: a registry of submitted
    campaigns plus a priority scheduler that runs them in cooperative
    time slices over one shared executor (and, optionally, one shared
    worker-domain pool).

    {b Slicing.} [step] picks the runnable campaign with the highest
    priority (ties: least-recently-run, then submission order — FIFO
    for fresh work, round-robin among peers) and runs it for about
    [slice_execs] executions. The slice ends at the campaign's next
    safe point: the engine's [on_safe_point] hook forces the snapshot
    thunk, persists it with {!Persist.Driver.save} into the campaign's
    namespaced {!Persist.Store} (counted in
    [mufuzz_checkpoint_written_total]) and raises
    {!Mufuzz.Campaign.Preempt}. The next slice resumes from that
    snapshot, so a sliced campaign's final report equals an
    uninterrupted run's at [jobs = 1] (modulo wall time).

    {b On disk.} Each campaign owns [state_dir/<id>/] containing
    [contract.sol], [meta.json], [events.jsonl] (the telemetry trace,
    appended across slices), rotated [checkpoint-*.json], and — once
    completed — [report.json] plus shrunk repro artifacts in
    [artifacts/], written by {!Triage.Repro.minimize}. [create]
    rescans [state_dir], so a restarted daemon resumes unfinished
    campaigns from their last checkpoint.

    The engine is single-threaded: callers alternate [step] with
    protocol operations; nothing here spawns threads (the worker pool
    spawns domains, but only inside a slice). *)

type t

val create :
  ?slice_execs:int ->
  ?checkpoint_keep:int ->
  ?jobs:int ->
  state_dir:string ->
  metrics:Telemetry.Metrics.t ->
  unit ->
  t
(** [slice_execs] (default 500) is the per-slice execution budget.
    [checkpoint_keep] (default 3) bounds retained checkpoints per
    campaign. [jobs > 1] spawns a shared worker pool that campaigns
    submitted with ["jobs"] > 1 run on. Scans [state_dir] for
    campaigns left by a previous daemon. *)

val state_dir : t -> string
val metrics : t -> Telemetry.Metrics.t

val submit :
  t ->
  Protocol.submit ->
  ((string * Telemetry.Json.t) list, Protocol.error_code * string) result
(** Validate (read the file if file-referenced, compile, resolve the
    tool profile), assign the next campaign id and enqueue. Returns the
    campaign's status fields; the ["id"] member names the campaign. *)

val status :
  t ->
  string ->
  ((string * Telemetry.Json.t) list, Protocol.error_code * string) result

val list_campaigns : t -> Telemetry.Json.t list
(** Status objects of every campaign, in submission order. *)

val cancel :
  t ->
  string ->
  ((string * Telemetry.Json.t) list, Protocol.error_code * string) result
(** Queued or running only; a terminal campaign is a [Bad_state]
    error. A cancelled running campaign keeps its on-disk checkpoints
    (a later [mufuzz resume] can still pick them up) but frees its
    scheduler slot immediately. *)

val report :
  t -> string -> (Telemetry.Json.t, Protocol.error_code * string) result
(** The final campaign report (exactly [mufuzz fuzz --json] shape);
    [Bad_state] until the campaign completes. *)

val artifacts :
  t ->
  string ->
  ((string * Telemetry.Json.t) list, Protocol.error_code * string) result
(** [(path, artifact)] for each shrunk repro artifact of a completed
    campaign; each [artifact] is a {!Triage.Artifact} JSON object that
    [mufuzz repro] accepts. *)

val has_runnable : t -> bool

val step : t -> string option
(** Run one time slice of the best runnable campaign; [None] when all
    campaigns are terminal. *)

val run_to_completion : t -> unit
(** [step] until nothing is runnable (the in-process equivalent of a
    daemon with no clients — used by tests). *)

val shutdown : t -> unit
(** Flush every campaign's [meta.json] and stop the worker pool.
    Running campaigns stay resumable via their checkpoints. *)
