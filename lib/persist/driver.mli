(** The one checkpoint writer, and the cadence that drives it.

    {!save} is the only path from a campaign snapshot to disk: it
    builds the {!Checkpoint.t}, writes it into the rotated {!Store},
    bumps [mufuzz_checkpoint_written_total] and emits
    [Checkpoint_written] on the campaign bus. A write failure
    ([Sys_error], e.g. a full disk) is logged and swallowed, never
    killing the campaign it was protecting.

    {!on_safe_point} is the cadence the CLI and fleet worker plug into
    [Mufuzz.Campaign.run ~on_safe_point]: at each safe point it decides
    whether a write is due — final safe point, ≥
    [checkpoint_every_execs] executions, or ≥
    [checkpoint_every_seconds] seconds since the last write — and only
    then forces the snapshot thunk and calls {!save}. The serve engine
    calls {!save} itself at each slice end. *)

type t

val create :
  ?metrics:Telemetry.Metrics.t ->
  ?start_execs:int ->
  tool:string ->
  contract:Minisol.Contract.t ->
  store:Store.t ->
  Mufuzz.Config.t ->
  t
(** A driver writing into [store] (flat, or one campaign's
    {!Store.namespaced} slice, with its own [keep]). Cadence comes from
    the config's [checkpoint_every_*] fields. [start_execs] (default 0)
    is the execution count already persisted — pass the snapshot's
    count when resuming so the first safe point does not rewrite the
    checkpoint just loaded. *)

val of_config :
  ?metrics:Telemetry.Metrics.t ->
  ?start_execs:int ->
  tool:string ->
  contract:Minisol.Contract.t ->
  Mufuzz.Config.t ->
  t option
(** A driver over the flat store at [config.checkpoint_dir], keeping
    [config.checkpoint_keep] files; [None] when the directory is unset
    (persistence off). *)

val save :
  t ->
  bus:Telemetry.Bus.t ->
  execs:int ->
  Mufuzz.Campaign.snapshot ->
  string option
(** Write one checkpoint now, whatever the cadence says. Returns the
    written path, or [None] when the write failed — then nothing is
    counted and no event is emitted. *)

val on_safe_point :
  t ->
  final:bool ->
  bus:Telemetry.Bus.t ->
  execs:int ->
  (unit -> Mufuzz.Campaign.snapshot) ->
  unit
(** [on_safe_point t] partially applied is exactly the shape
    [Campaign.run ~on_safe_point] expects. *)
