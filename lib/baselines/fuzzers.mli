(** The comparison fuzzers of §V, reimplemented as policy profiles over
    the same EVM substrate so that differences measure {e policy}, not
    engineering (the ablation-fair methodology).

    - {b sFuzz}: random transaction ordering, AFL-style unrestricted byte
      mutation, branch-distance seed selection, flat energy.
    - {b ConFuzzius}: data-dependency ordering (no repetition), random
      mutation, distance feedback.
    - {b Smartian}: data-flow feedback ordering (no repetition), no
      branch-distance selection (it uses its own dataflow coverage),
      flat energy.
    - {b IR-Fuzz}: invocation ordering + tail prolongation, distance
      feedback, energy allocation on important branches — everything but
      the RAW repetition rule and the mutation mask.
    - {b MuFuzz}: the full system.

    [supports] lists each tool's detectable bug classes from Table I;
    findings outside a tool's list are filtered from its reports. *)

type profile = {
  name : string;
  configure : Mufuzz.Config.t -> Mufuzz.Config.t;
  supports : Oracles.Oracle.bug_class list;
}

val mufuzz : profile
val sfuzz : profile
val confuzzius : profile
val smartian : profile
val irfuzz : profile

val contractfuzzer : profile
(** Black-box baseline: fresh random seeds every round, no feedback. *)

val echidna : profile
(** Coverage-light property fuzzer stand-in (assertion/UE oriented). *)

val all : profile list
(** In the paper's presentation order: sFuzz, ConFuzzius, Smartian,
    IR-Fuzz, MuFuzz. *)

val extended : profile list
(** [all] plus ContractFuzzer and Echidna (tools the paper's baselines
    had already superseded; kept for completeness). *)

val find : string -> profile option

val run :
  profile ->
  ?config:Mufuzz.Config.t ->
  ?pool:Mufuzz.Pool.t ->
  ?sinks:Telemetry.Sink.t list ->
  ?metrics:Telemetry.Metrics.t ->
  ?resume:string * Mufuzz.Campaign.snapshot ->
  ?on_safe_point:
    (final:bool ->
    bus:Telemetry.Bus.t ->
    execs:int ->
    (unit -> Mufuzz.Campaign.snapshot) ->
    unit) ->
  Minisol.Contract.t ->
  Mufuzz.Report.t
(** Run the tool's campaign; the report's findings are filtered to the
    tool's supported classes. Runs through {!Mufuzz.Campaign.run_parallel},
    so [config.jobs] (or an explicit [pool]) shards the campaign across
    worker domains; the default [jobs = 1] runs the campaign inline.
    [sinks]/[metrics] are passed through to the campaign's telemetry;
    [resume]/[on_safe_point] to the campaign's checkpoint machinery
    (note [configure] must already have been applied to the config a
    resumed snapshot was captured under — the checkpoint stores the
    effective config, so this holds when resuming via [mufuzz resume]). *)
