(** Campaign configuration.

    The three feature switches correspond exactly to the paper's ablation
    (Fig. 7): disabling [sequence_aware] falls back to random transaction
    ordering, disabling [mask_guided] falls back to unrestricted random
    byte mutation, disabling [dynamic_energy] uses a flat per-seed energy
    (the sFuzz default the paper substitutes in).

    The fixed parameters of Algorithms 1-3 are constants of {!Campaign},
    not fields: eight bootstrap seeds, energy 20 capped at 120, masks
    cached for 32 seeds, mask probing capped at 15% of the budget, and
    {!Analysis.Prefix.default_params} for branch weights.

    Every execution replays its whole sequence from the memoised
    post-deploy state; there is no prefix-state switch. The paper's §VI
    intermediate-state idea (a prefix state cache) lost to plain
    re-execution on every measured workload (EXPERIMENTS.md). *)

(** How initial transaction orderings are produced. *)
type sequence_mode =
  | Seq_random  (** shuffled order (sFuzz) *)
  | Seq_dataflow  (** write->read topological order (Smartian/ConFuzzius) *)
  | Seq_dataflow_repeat
      (** dataflow order plus the RAW repetition rule — full §IV-A *)

type t = {
  rng_seed : int64;  (** all campaign randomness derives from this *)
  jobs : int;
      (** worker domains for {!Campaign.run_parallel}; [1] (the default)
          dispatches the campaign loop inline — parallelism is opt-in *)
  round_batch : int;
      (** seeds each worker domain fuzzes per parallel round (default 2;
          values below 1 count as 1): the coordinator ships
          [jobs * round_batch] seed-energy groups per merge barrier, so
          larger values amortise coordination at the cost of staler
          worker coverage snapshots; ignored at [jobs = 1] *)
  max_executions : int;  (** transaction-sequence executions budget *)
  gas_per_tx : int;
  n_senders : int;  (** size of the sender account pool *)
  (* feature switches (ablation study, Fig. 7, and baseline policies) *)
  sequence_mode : sequence_mode;
  mask_guided : bool;
  dynamic_energy : bool;
  distance_feedback : bool;
      (** branch-distance seed selection (sFuzz-style); disabled it falls
          back to round-robin *)
  prolongation : bool;
      (** IR-Fuzz-style tail prolongation: initial seeds get extra random
          transactions appended *)
  blackbox : bool;
      (** ContractFuzzer-style black-box mode: every round generates a
          fresh random seed; no queue, no feedback (coverage is still
          recorded for reporting) *)
  (* mask computation cost controls *)
  mask_stride : int;
      (** compute the mask every [stride] positions (1 = Algorithm 2
          verbatim); larger strides trade fidelity for speed *)
  mask_max_probes : int;  (** execution cap for one Algorithm-2 run *)
  (* runtime sequence exploration *)
  sequence_mutation_prob : float;
      (** probability a selected seed also gets a sequence-level mutation
          (extend / duplicate / swap), §IV-A's continuing exploration *)
  (* input prediction (hybrid fuzzing, ROADMAP item 3) *)
  predict : bool;
      (** solve magic values for stuck frontier branches from the
          comparison operands recorded in traces (Harvey-style); [false]
          (the default) keeps campaigns bit-for-bit identical to
          pre-prediction builds *)
  predict_attempts : int;
      (** times a frontier branch must be reached without flipping before
          the prediction phase fires for it *)
  predict_max_candidates : int;
      (** cap on proposal executions one prediction firing may spend *)
  attacker_enabled : bool;  (** install the reentrancy attacker account *)
  initial_corpus : Seed.t list;
      (** seeds executed and enqueued before generation starts (corpus
          resume / replay); empty by default *)
  (* observability (see {!Campaign}: a campaign builds its event bus
     from these plus any sinks the caller passes) *)
  trace_path : string option;
      (** write a JSONL event trace here; [None] (the default) attaches
          no trace sink *)
  status_interval : float;
      (** seconds between live status lines on stderr; [0.] (the
          default) disables the status sink *)
  max_seconds : float;
      (** wall-clock budget, checked alongside [max_executions] in both
          campaign loops; [0.] (the default) disables the time limit —
          keeping the default campaign free of clock reads, hence
          deterministic *)
  checkpoint_dir : string option;
      (** directory for crash-safe campaign checkpoints ([Persist]);
          [None] (the default) disables checkpointing *)
  checkpoint_every_execs : int;
      (** write a checkpoint every N sequence executions (at the next
          safe point); [0] disables the exec cadence *)
  checkpoint_every_seconds : float;
      (** also write when this many wall seconds have elapsed since the
          last checkpoint; [0.] (the default) disables the time cadence *)
  checkpoint_keep : int;  (** rotated checkpoints to keep on disk *)
}

val default : t
(** All three components enabled, deterministic seed 42, a budget suited
    to unit-scale contracts (2000 executions). *)

val ablation_no_sequence : t -> t
val ablation_no_mask : t -> t
val ablation_no_energy : t -> t

val sequence_mode_to_string : sequence_mode -> string

val sequence_mode_of_string : string -> (sequence_mode, string) result

val to_json : t -> Telemetry.Json.t
(** Checkpoint codec: the full configuration, with the int64 RNG seed as
    a decimal string and [initial_corpus] through the {!Seed} codec. *)

val of_json : abi:Abi.func list -> Telemetry.Json.t -> (t, string) result
(** Inverse of {!to_json}. Strict: every field must be present, so a
    checkpoint from a config shape this build does not know is rejected
    rather than silently defaulted. Keys of knobs that older builds
    stored and that are now constants or gone (the seed count, energy
    bounds, mask cache and budget, Algorithm-3 weighting parameters,
    the auto round-batch flag, the strict-corpus flag and the
    prefix state-caching switch) are ignored, so older checkpoints keep
    loading. *)
