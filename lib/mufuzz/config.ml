type sequence_mode = Seq_random | Seq_dataflow | Seq_dataflow_repeat

type t = {
  rng_seed : int64;
  jobs : int;
  round_batch : int;
  max_executions : int;
  gas_per_tx : int;
  n_senders : int;
  sequence_mode : sequence_mode;
  mask_guided : bool;
  dynamic_energy : bool;
  distance_feedback : bool;
  prolongation : bool;
  blackbox : bool;
  mask_stride : int;
  mask_max_probes : int;
  sequence_mutation_prob : float;
  (* input prediction (hybrid fuzzing): solve magic values for frontier
     branches from recorded comparison operands *)
  predict : bool;
  predict_attempts : int;  (* failed flips of a branch before prediction fires *)
  predict_max_candidates : int;  (* proposal executions per firing *)
  attacker_enabled : bool;
  state_caching : bool;
  initial_corpus : Seed.t list;
  (* telemetry — both default to off, keeping the no-op-bus guarantee *)
  trace_path : string option;
  status_interval : float;
  (* stopping + persistence *)
  max_seconds : float;
  checkpoint_dir : string option;
  checkpoint_every_execs : int;
  checkpoint_every_seconds : float;
  checkpoint_keep : int;
}

let default =
  {
    rng_seed = 42L;
    jobs = 1;
    round_batch = 2;
    max_executions = 2000;
    gas_per_tx = 1_000_000;
    n_senders = 3;
    sequence_mode = Seq_dataflow_repeat;
    mask_guided = true;
    dynamic_energy = true;
    distance_feedback = true;
    prolongation = false;
    blackbox = false;
    mask_stride = 8;
    mask_max_probes = 24;
    sequence_mutation_prob = 0.15;
    predict = false;
    predict_attempts = 25;
    predict_max_candidates = 12;
    attacker_enabled = true;
    state_caching = true;
    initial_corpus = [];
    trace_path = None;
    status_interval = 0.0;
    max_seconds = 0.0;
    checkpoint_dir = None;
    checkpoint_every_execs = 500;
    checkpoint_every_seconds = 0.0;
    checkpoint_keep = 3;
  }

let ablation_no_sequence t = { t with sequence_mode = Seq_random }
let ablation_no_mask t = { t with mask_guided = false }
let ablation_no_energy t = { t with dynamic_energy = false }

(* ---------------- JSON codec (campaign checkpoints) ---------------- *)

module J = Telemetry.Json

let sequence_mode_to_string = function
  | Seq_random -> "random"
  | Seq_dataflow -> "dataflow"
  | Seq_dataflow_repeat -> "dataflow-repeat"

let sequence_mode_of_string = function
  | "random" -> Ok Seq_random
  | "dataflow" -> Ok Seq_dataflow
  | "dataflow-repeat" -> Ok Seq_dataflow_repeat
  | s -> Error (Printf.sprintf "config: unknown sequence mode %S" s)

let to_json t =
  J.Obj
    [
      (* int64 seeds exceed the 63-bit [J.Int] range; ship as decimal *)
      ("rng_seed", J.String (Int64.to_string t.rng_seed));
      ("jobs", J.Int t.jobs);
      ("round_batch", J.Int t.round_batch);
      ("max_executions", J.Int t.max_executions);
      ("gas_per_tx", J.Int t.gas_per_tx);
      ("n_senders", J.Int t.n_senders);
      ("sequence_mode", J.String (sequence_mode_to_string t.sequence_mode));
      ("mask_guided", J.Bool t.mask_guided);
      ("dynamic_energy", J.Bool t.dynamic_energy);
      ("distance_feedback", J.Bool t.distance_feedback);
      ("prolongation", J.Bool t.prolongation);
      ("blackbox", J.Bool t.blackbox);
      ("mask_stride", J.Int t.mask_stride);
      ("mask_max_probes", J.Int t.mask_max_probes);
      ("sequence_mutation_prob", J.Float t.sequence_mutation_prob);
      ("predict", J.Bool t.predict);
      ("predict_attempts", J.Int t.predict_attempts);
      ("predict_max_candidates", J.Int t.predict_max_candidates);
      ("attacker_enabled", J.Bool t.attacker_enabled);
      ("state_caching", J.Bool t.state_caching);
      ("initial_corpus", J.List (List.map Seed.to_json t.initial_corpus));
      ( "trace_path",
        match t.trace_path with None -> J.Null | Some p -> J.String p );
      ("status_interval", J.Float t.status_interval);
      ("max_seconds", J.Float t.max_seconds);
      ( "checkpoint_dir",
        match t.checkpoint_dir with None -> J.Null | Some d -> J.String d );
      ("checkpoint_every_execs", J.Int t.checkpoint_every_execs);
      ("checkpoint_every_seconds", J.Float t.checkpoint_every_seconds);
      ("checkpoint_keep", J.Int t.checkpoint_keep);
    ]

let of_json ~abi j =
  let ( let* ) = Result.bind in
  let* rng_seed =
    J.field "rng_seed"
      (fun v -> Option.bind (J.string_value v) Int64.of_string_opt)
      j
  in
  (* older documents also carry the seed count, the energy bounds, the
     mask cache size and budget share, the Algorithm-3 weighting
     parameters, and the auto round-batch and strict-corpus flags.
     Those knobs are now constants or gone, so the keys are ignored and
     an auto-tuned campaign resumes at its fixed round_batch *)
  let* jobs = J.field "jobs" J.to_int j in
  let* round_batch = J.field "round_batch" J.to_int j in
  let* max_executions = J.field "max_executions" J.to_int j in
  let* gas_per_tx = J.field "gas_per_tx" J.to_int j in
  let* n_senders = J.field "n_senders" J.to_int j in
  let* sequence_mode =
    Result.bind
      (J.field "sequence_mode" J.string_value j)
      sequence_mode_of_string
  in
  let* mask_guided = J.field "mask_guided" J.to_bool j in
  let* dynamic_energy = J.field "dynamic_energy" J.to_bool j in
  let* distance_feedback = J.field "distance_feedback" J.to_bool j in
  let* prolongation = J.field "prolongation" J.to_bool j in
  let* blackbox = J.field "blackbox" J.to_bool j in
  let* mask_stride = J.field "mask_stride" J.to_int j in
  let* mask_max_probes = J.field "mask_max_probes" J.to_int j in
  let* sequence_mutation_prob =
    J.field "sequence_mutation_prob" J.to_float j
  in
  (* the predict knobs post-date checkpoint format v1; decode them with
     defaults so pre-prediction checkpoints keep loading *)
  let* predict = J.field_or "predict" J.to_bool ~default:default.predict j in
  let* predict_attempts =
    J.field_or "predict_attempts" J.to_int ~default:default.predict_attempts j
  in
  let* predict_max_candidates =
    J.field_or "predict_max_candidates" J.to_int
      ~default:default.predict_max_candidates j
  in
  let* attacker_enabled = J.field "attacker_enabled" J.to_bool j in
  let* state_caching = J.field "state_caching" J.to_bool j in
  let* initial_corpus =
    Result.bind
      (J.field "initial_corpus" J.to_list j)
      (J.list (Seed.of_json ~abi))
  in
  let* trace_path =
    J.field_or "trace_path" (J.nullable J.string_value) ~default:None j
  in
  let* status_interval = J.field "status_interval" J.to_float j in
  let* max_seconds = J.field "max_seconds" J.to_float j in
  let* checkpoint_dir =
    J.field_or "checkpoint_dir" (J.nullable J.string_value) ~default:None j
  in
  let* checkpoint_every_execs = J.field "checkpoint_every_execs" J.to_int j in
  let* checkpoint_every_seconds =
    J.field "checkpoint_every_seconds" J.to_float j
  in
  let* checkpoint_keep = J.field "checkpoint_keep" J.to_int j in
  Ok
    {
      rng_seed;
      jobs;
      round_batch;
      max_executions;
      gas_per_tx;
      n_senders;
      sequence_mode;
      mask_guided;
      dynamic_energy;
      distance_feedback;
      prolongation;
      blackbox;
      mask_stride;
      mask_max_probes;
      sequence_mutation_prob;
      predict;
      predict_attempts;
      predict_max_candidates;
      attacker_enabled;
      state_caching;
      initial_corpus;
      trace_path;
      status_interval;
      max_seconds;
      checkpoint_dir;
      checkpoint_every_execs;
      checkpoint_every_seconds;
      checkpoint_keep;
    }
