(** Seed execution harness: runs a full transaction sequence on a fresh
    world state (the paper's per-round re-execution model, §VI) and
    returns the per-transaction traces the feedback loops consume.

    Campaigns, the shrinker and every replay path re-execute the whole
    sequence from the memoised post-deploy state. A ctx built with a
    {!State_cache.t} instead resumes from the deepest cached
    intermediate state whose transaction prefix matches (the §VI
    future-work idea); runs are bit-identical either way, and only the
    benchmark's cached-replay measurement builds one. *)

val deployer : Evm.State.address
val sender_pool : int -> Evm.State.address list
(** Deterministic, well-funded externally-owned accounts. *)

val contract_address : Evm.State.address

type tx_result = Executor_types.tx_result = {
  tx_index : int;
  fn_name : string;
  success : bool;
  trace : Evm.Trace.t;
}

type run = {
  tx_results : tx_result list;
  final_state : Evm.State.t;
  received_value : bool;
      (** some successful non-constructor transaction carried value *)
  executed_steps : int;
      (** EVM opcodes this call actually dispatched; transactions served
          from a cached prefix are excluded (mirrors [mufuzz_txs_total]) *)
  logical_steps : int;
      (** EVM opcodes across the whole sequence, cached prefixes
          included — a pure function of the seed, independent of cache
          warmth, so campaign step totals survive checkpoint/resume
          unchanged *)
}

type ctx
(** A batch execution context: sender pool, post-deploy world state,
    interpreter config and telemetry handles, all resolved once and
    reused across every seed pushed through it. Single-domain by
    design — the parallel campaign builds one per worker, with the
    pool's batch barrier as the hand-off edge. *)

val make_ctx :
  contract:Minisol.Contract.t ->
  gas:int ->
  n_senders:int ->
  attacker:bool ->
  ?cache:State_cache.t ->
  ?metrics:Telemetry.Metrics.t ->
  unit ->
  ctx
(** Resolves metric handles (one registry-mutex round trip instead of
    one per execution), memoizes the post-deploy state, pre-faults the
    interpreter's frame pools ({!Evm.Interp.preheat}). A cache, when
    given, must be dedicated to this (contract, gas, n_senders,
    attacker) configuration — and, like the ctx, to one domain at a
    time; only then is [mufuzz_cache_prefix_hits_total] registered. *)

val run_in_ctx : ctx -> Seed.t -> run
(** Execute one seed: resume from the deepest cached prefix (if the
    ctx has a cache), then run the remaining transactions in order with
    the block advancing between them. Constructor transactions are
    always issued by {!deployer}.
    Telemetry accumulates {e locally} in the ctx; nothing reaches the
    shared registry until {!flush}. *)

val flush : ctx -> unit
(** Push locally-accumulated telemetry ([mufuzz_txs_total],
    [mufuzz_evm_steps_total], the [mufuzz_tx_gas_used] histogram, and
    with a cache [mufuzz_cache_prefix_hits_total] and the cache's
    hit/miss/eviction counters) into the shared registry — one atomic
    op per metric.
    Call at batch boundaries; idempotent between executions. *)

val run_batch : ctx -> Seed.t list -> run list
(** One dispatch pass over a whole seed population: runs each seed in
    list order through the shared ctx and flushes telemetry once.
    Result [i] is exactly [run_in_ctx ctx (List.nth seeds i)] — the
    batch is an amortisation, not a semantic change (tests assert the
    differential). *)

val run_seed :
  contract:Minisol.Contract.t ->
  gas:int ->
  n_senders:int ->
  attacker:bool ->
  ?metrics:Telemetry.Metrics.t ->
  Seed.t ->
  run
(** [make_ctx] + [run_in_ctx] + [flush] for a single seed — the
    convenience path replay-style consumers (triage, minimiser,
    regression replay) use. Campaign loops should hold a ctx and call
    {!run_batch} instead.

    The post-deploy world state (deployed code plus funded account
    pool) is memoized per (contract, n_senders) in domain-local
    storage, so repeated executions skip the constructor re-run; the
    returned runs are bit-identical with or without the memo. *)

val inspect : static:Oracles.Oracle.static_info -> run -> Oracles.Oracle.finding list
(** Run the nine oracles over a completed run — the campaign's and the
    triage layer's single entry into {!Oracles.Oracle.inspect_campaign}. *)

val findings :
  contract:Minisol.Contract.t ->
  gas:int ->
  n_senders:int ->
  attacker:bool ->
  Seed.t ->
  Oracles.Oracle.finding list
(** [run_seed] followed by {!inspect} with the contract's own static
    info — what replay-style consumers (minimiser, shrinker, repro)
    call. *)
