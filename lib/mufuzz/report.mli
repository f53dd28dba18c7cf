(** Campaign results. *)

type checkpoint = { execs : int; covered : int }

(** Why the campaign loop exited. *)
type stop_reason =
  | Budget_exhausted  (** [max_executions] reached *)
  | Time_exhausted  (** [max_seconds] wall-clock budget reached *)
  | Queue_exhausted  (** no seed left to select *)
  | Stalled  (** pool-dispatch stall guard: too many zero-progress rounds *)
  | Preempted
      (** an [on_safe_point] hook raised {!Campaign.Preempt}: the
          campaign yielded mid-run with a snapshot captured; the report
          is a partial view, and the campaign is expected to be resumed
          later (the service scheduler's time-slice mechanism) *)

val stop_reason_to_string : stop_reason -> string
(** Kebab-case tag, as rendered in the JSON report. *)

type domain_stat = {
  domain : int;  (** worker domain id *)
  d_execs : int;  (** sequence executions this domain performed *)
  busy_seconds : float;  (** time inside fuzzing tasks *)
  stall_seconds : float;
      (** time parked at batch barriers waiting for the coordinator merge *)
}

type parallel_stats = {
  jobs : int;
  rounds : int;  (** coordinator merge rounds *)
  round_batch : int;  (** seeds shipped per domain per round *)
  merge_seconds : float;
      (** coordinator time spent merging feedback — merges overlap with
          still-running sibling tasks (incremental in-order merge), so
          this is work attributed to the coordinator, not wall-clock the
          workers spent parked *)
  merge_wait_seconds : float;
      (** coordinator wall-clock blocked at pool barriers waiting for
          the next in-order result (from {!Pool.stats}) *)
  worker_idle_seconds : float;
      (** summed worker wall-clock parked while a batch was in flight *)
  steals : int;  (** work-stealing events in the pool *)
  domains : domain_stat list;
}

type t = {
  contract_name : string;
  executions : int;
  steps : int;
      (** EVM opcodes dispatched across the campaign — every executed
          sequence is replayed in full, so a fresh campaign's
          [mufuzz_evm_steps_total] counter equals this *)
  mask_probes : int;
      (** Algorithm-2 probe executions (a subset of [executions]) —
          lets bench runs attribute wall time to probe waves vs
          mutation rounds *)
  predict_proposals : int;
      (** prediction proposal executions (also a subset of
          [executions]); 0 unless [--predict] *)
  covered_branches : int;  (** distinct (pc, side) identities exercised *)
  covered : (int * bool) list;  (** the exercised branch sides themselves *)
  total_branch_sides : int;  (** 2 x number of JUMPIs in the bytecode *)
  findings : Oracles.Oracle.finding list;  (** deduplicated *)
  occurrences : (Oracles.Oracle.key * int) list;
      (** triage view: every alarm occurrence grouped under its
          (class, pc, call-path hash) dedup key, sorted by key — a long
          campaign raises the same finding hundreds of times; this is
          where the duplicates go *)
  witnesses : (Oracles.Oracle.finding * string) list;
      (** finding paired with the rendering of the seed that exposed it *)
  witness_seeds : (Oracles.Oracle.finding * Seed.t) list;
      (** the raw seeds, for replay and minimisation *)
  over_time : checkpoint list;  (** coverage growth, in execution order *)
  seeds_in_queue : int;
  corpus : Seed.t list;  (** the final seed queue, for saving/resuming *)
  corpus_skipped : (int * string) list;
      (** corrupt blocks the corpus loader skipped ([(block, reason)]);
          surfaces in [to_json] as the ["skipped"] field *)
  wall_seconds : float;
  stop_reason : stop_reason;  (** why the loop exited *)
  parallel : parallel_stats option;
      (** per-domain throughput, [None] for inline (jobs = 1) campaigns *)
}

val execs_per_sec : domain_stat -> float
(** Executions per second of busy time for one domain. *)

val coverage_pct : t -> float
(** [100 * covered / total]; 0 when the contract has no branches. *)

val findings_by_class : t -> (Oracles.Oracle.bug_class * int) list

val pp_summary : Format.formatter -> t -> unit

val to_text : t -> string
(** Full plain-text report: summary, per-class counts, every finding with
    its witness sequence, and the coverage growth curve — what the CLI
    writes with [--out]. The growth curve is sampled at ~20 points with
    the final checkpoint always included. *)

val to_json : t -> Telemetry.Json.t
(** The machine-readable report: every field of [t] except the raw
    seeds ([witness_seeds], [corpus] — those serialise through
    {!Replay}), plus derived [coverage_pct] and [execs_per_sec]. This
    is what [mufuzz fuzz --json] prints and the bench harness
    ingests. *)

val to_json_string : t -> string
(** [Telemetry.Json.to_string] of {!to_json}: one compact line. *)
