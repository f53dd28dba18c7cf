module U = Word.U256

let log_src = Logs.Src.create "mufuzz.campaign" ~doc:"MuFuzz campaign events"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Preempt

(* The fixed parameters of Algorithms 1-3, as the paper runs them. *)
let initial_seeds = 8  (* seeds generated before the main loop *)
let base_energy = 20  (* mutations per selected seed *)
let max_energy = 120  (* energy cap after dynamic weighting *)
let mask_cache_max = 32  (* seeds holding a cached mask *)

(* share of the campaign budget mask probing may consume in total;
   beyond it seeds mutate unmasked, which keeps Algorithm 2 from
   starving exploration under small budgets *)
let mask_budget_fraction = 0.15

(* seeds each worker fuzzes per pool round *)
let round_width (config : Config.t) = Stdlib.max 1 config.round_batch

type entry = {
  seed : Seed.t;
  path : (int * bool) list;
  nested_hits : (int * bool) list;
  frontier_dists : ((int * bool) * float) list;
  masks : (int, Mask.t) Hashtbl.t;  (* tx index -> cached mask *)
}

let derive_sequence (contract : Minisol.Contract.t) =
  Analysis.Sequence.derive (Analysis.Statevars.analyze contract.ast)

(* Branches whose within-transaction ordinal is >= 2 — the paper's
   "nested branch" (at least two enclosing conditional statements). *)
let nested_hits_of_results (results : Executor.tx_result list) =
  List.concat_map
    (fun (r : Executor.tx_result) ->
      let _, acc =
        List.fold_left
          (fun (ord, acc) ev ->
            match ev with
            | Evm.Trace.Branch { pc; taken; _ } ->
              (ord + 1, if ord + 1 >= 2 then (pc, taken) :: acc else acc)
            | _ -> (ord, acc))
          (0, []) r.trace.events
      in
      acc)
    results
  |> List.sort_uniq compare

let path_of_results (results : Executor.tx_result list) =
  List.concat_map
    (fun (r : Executor.tx_result) -> Evm.Trace.branches r.trace)
    results
  |> List.sort_uniq compare

let frontier_dists_of_results coverage (results : Executor.tx_result list) =
  let frontier = Coverage.uncovered_frontier coverage in
  List.filter_map
    (fun br ->
      let best =
        List.fold_left
          (fun acc (r : Executor.tx_result) ->
            match Coverage.trace_min_distance r.trace br with
            | Some d -> (match acc with Some a when a <= d -> acc | _ -> Some d)
            | None -> acc)
          None results
      in
      Option.map (fun d -> (br, d)) best)
    frontier

(* Algorithm-2 probe verdict: did the mutant still hit one of the
   seed's nested branches, or get closer to a frontier side than the
   seed's baseline distance? *)
let mask_feedback ~baseline_nested ~baseline_dists (run : Executor.run) =
  let hits_nested =
    baseline_nested <> []
    && List.exists
         (fun br -> List.mem br baseline_nested)
         (nested_hits_of_results run.tx_results)
  in
  let distance_decreased =
    List.exists
      (fun (br, base_d) ->
        List.exists
          (fun (r : Executor.tx_result) ->
            match Coverage.trace_min_distance r.trace br with
            | Some d -> d < base_d
            | None -> false)
          run.tx_results)
      baseline_dists
  in
  { Mask.hits_nested; distance_decreased }

(* Triage identity of one alarm occurrence: the call path is the
   function-name prefix of the witnessing sequence up to (and including)
   the raising transaction; whole-contract findings (tx_index = -1,
   e.g. EF) use the empty path. *)
let finding_key (seed : Seed.t) (f : Oracles.Oracle.finding) =
  Oracles.Oracle.key_of ~call_path:(Seed.call_path seed ~upto:f.tx_index) f

let sorted_occurrences occ =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) occ []
  |> List.sort (fun (a, _) (b, _) -> Oracles.Oracle.compare_key a b)

(* ---------------- checkpoint snapshots ---------------- *)

type snapshot_entry = {
  sn_seed : Seed.t;
  sn_path : (int * bool) list;
  sn_nested : (int * bool) list;
  sn_fdists : ((int * bool) * float) list;
  sn_masks : (int * Mask.t) list;
}

type snapshot = {
  sn_execs : int;
  sn_steps : int;
  sn_mask_probes : int;
  sn_cursor : int;
  sn_rng : int64;
  sn_rng_counter : int;
  sn_elapsed : float;
  sn_entries : snapshot_entry array;
  sn_queue : int list;
  sn_best : ((int * bool) * float * int) list;
  sn_coverage : Coverage.t;
  sn_weights : ((int * bool) * float) list option;
  sn_findings : (Oracles.Oracle.finding * Seed.t) list;
  sn_occ : (Oracles.Oracle.key * int) list;
  sn_over_time : Report.checkpoint list;
  sn_attempts : ((int * bool) * int) list;
  sn_predict_proposals : int;
}

let snapshot_entry_of_entry (e : entry) =
  {
    sn_seed = e.seed;
    sn_path = e.path;
    sn_nested = e.nested_hits;
    sn_fdists = e.frontier_dists;
    sn_masks =
      Hashtbl.fold (fun i m acc -> (i, m) :: acc) e.masks []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
  }

let entry_of_snapshot_entry (se : snapshot_entry) =
  let masks = Hashtbl.create 4 in
  List.iter (fun (i, m) -> Hashtbl.replace masks i m) se.sn_masks;
  {
    seed = se.sn_seed;
    path = se.sn_path;
    nested_hits = se.sn_nested;
    frontier_dists = se.sn_fdists;
    masks;
  }

(* Rebuild the seed pool of a snapshot. [sn_best] was recorded in
   [Hashtbl.fold] order and is re-inserted in REVERSE fold order into a
   table of the same initial capacity: stdlib buckets keep bindings
   most-recent-first, resizes preserve relative order and the resize
   points depend only on the binding count, so this reproduces the
   original table layout exactly — and with it the fold order the
   distance-feedback selection observes. That, plus the restored RNG
   stream, is what makes a resumed campaign replay the uninterrupted one
   bit-for-bit. *)
let restore_pool (s : snapshot) =
  let entries = Array.map entry_of_snapshot_entry s.sn_entries in
  let queue = Array.of_list (List.map (fun i -> entries.(i)) s.sn_queue) in
  let best_for_branch : (int * bool, float * entry) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (br, d, i) -> Hashtbl.replace best_for_branch br (d, entries.(i)))
    (List.rev s.sn_best);
  (queue, best_for_branch)

let emit_resumed ~bus ~metrics (path, s) =
  Telemetry.Metrics.incr
    (Telemetry.Metrics.counter metrics "mufuzz_checkpoint_loaded_total"
       ~help:"campaign checkpoints restored");
  Telemetry.Bus.emit bus
    (Telemetry.Event.Checkpoint_loaded { execs = s.sn_execs; path });
  Log.info (fun m -> m "resumed from %s at exec %d" path s.sn_execs)

(* Immutable per-contract context, derived once and shared read-only by
   the campaign loop and every worker domain. *)
type ctx = {
  x_config : Config.t;
  x_contract : Minisol.Contract.t;
  x_info : Analysis.Statevars.t;
  x_cfg : Analysis.Cfg.t;
  x_dict : Word.U256.t array;
  x_static : Oracles.Oracle.static_info;
  x_abi : Abi.func list;
}

let make_ctx config (contract : Minisol.Contract.t) =
  {
    x_config = config;
    x_contract = contract;
    x_info = Analysis.Statevars.analyze contract.ast;
    x_cfg = Analysis.Cfg.build contract.bytecode;
    (* contract-specific magic numbers for the mutation dictionary,
       straight off the pre-decoded artifact (same words as
       [Bytecode.push_constants], already collected and memoised).
       Under [predict] the callable account universe joins the
       dictionary too, so address-typed words keep landing on accounts
       the sender-swap solver can later impersonate — without the flag
       the dictionary is exactly the pre-prediction one, preserving
       default campaigns byte-for-byte. *)
    x_dict =
      (let consts = (Evm.Bytecode.artifact contract.bytecode).a_push_constants in
       if config.predict then
         Array.append consts
           (Array.of_list (Accounts.caller_pool config.n_senders))
       else consts);
    x_static = Oracles.Oracle.static_info_of contract;
    x_abi = contract.abi;
  }

(* ---------------- telemetry plumbing ---------------- *)

(* A campaign's event bus is assembled from the config's declarative
   sinks (JSONL trace, live status line) plus whatever the caller
   passes programmatically (ring buffers in tests). With neither, this
   is [Bus.null] and every emission below is a single array-length
   test — the no-op overhead guarantee. *)
let make_bus (config : Config.t) ~total_sides sinks =
  let config_sinks =
    (match config.trace_path with
    | Some path -> [ Telemetry.Sink.jsonl path ]
    | None -> [])
    @
    if config.status_interval > 0.0 then
      [ Telemetry.Sink.status ~interval:config.status_interval ~total_sides () ]
    else []
  in
  match config_sinks @ sinks with
  | [] -> Telemetry.Bus.null
  | l -> Telemetry.Bus.create l

let total_sides_of_cfg cfg = 2 * List.length (Analysis.Cfg.branch_points cfg)

(* Branch sides a run is about to cover for the first time — computed
   BEFORE folding the run into [coverage], and only when someone is
   listening. *)
let pending_new_sides bus coverage results =
  if not (Telemetry.Bus.enabled bus) then []
  else
    List.filter
      (fun br -> not (Coverage.is_covered coverage br))
      (path_of_results results)

let emit_new_sides bus coverage sides =
  List.iter
    (fun (pc, taken) ->
      Telemetry.Bus.emit bus
        (Telemetry.Event.New_branch_side
           { pc; taken; covered = Coverage.covered_count coverage }))
    sides

let emit_finding bus (f : Oracles.Oracle.finding) =
  Telemetry.Bus.emit bus
    (Telemetry.Event.Finding_raised
       {
         cls = Oracles.Oracle.class_to_string f.cls;
         pc = f.pc;
         tx_index = f.tx_index;
       })

(* the registry handles every campaign records through *)
type meters = {
  m_execs : Telemetry.Metrics.counter;
  m_findings : Telemetry.Metrics.counter;
  m_enqueued : Telemetry.Metrics.counter;
  m_probes : Telemetry.Metrics.counter;
  m_probes_coord : Telemetry.Metrics.counter;
  m_predict_proposed : Telemetry.Metrics.counter;
  m_predict_flipped : Telemetry.Metrics.counter;
  m_covered : Telemetry.Metrics.gauge;
}

let make_meters metrics =
  let c name help = Telemetry.Metrics.counter metrics name ~help in
  {
    m_execs = c "mufuzz_executions_total" "transaction-sequence executions";
    m_findings = c "mufuzz_findings_total" "distinct (bug class, pc) findings";
    m_enqueued = c "mufuzz_seeds_enqueued_total" "seeds added to the selection queue";
    m_probes = c "mufuzz_mask_probes_total" "Algorithm-2 mask probe executions";
    m_probes_coord =
      c "mufuzz_mask_probes_coordinator_total"
        "mask probes executed on the coordinator domain (zero whenever \
         jobs > 1: probing runs inside worker tasks)";
    m_predict_proposed =
      c "mufuzz_predict_proposed_total" "input-prediction proposals executed";
    m_predict_flipped =
      c "mufuzz_predict_flipped_total"
        "frontier branch sides covered by a prediction proposal";
    m_covered =
      Telemetry.Metrics.gauge metrics "mufuzz_covered_sides"
        ~help:"branch sides covered so far";
  }

(* ---------------- initial seeds ---------------- *)

let base_sequence ctx rng =
  match ctx.x_config.Config.sequence_mode with
  | Config.Seq_random -> Analysis.Sequence.random_sequence rng ctx.x_info
  | Config.Seq_dataflow -> Analysis.Sequence.derive_base ctx.x_info
  | Config.Seq_dataflow_repeat -> Analysis.Sequence.derive ctx.x_info

let new_seed ctx rng =
  let config = ctx.x_config in
  let seed =
    Seed.of_sequence ~dict:ctx.x_dict rng ~n_senders:config.n_senders ctx.x_abi
      ("constructor" :: base_sequence ctx rng)
  in
  if not config.prolongation then seed
  else begin
    (* IR-Fuzz-style prolongation: stretch the tail with extra calls *)
    let fns = Minisol.Contract.callable_functions ctx.x_contract in
    if fns = [] then seed
    else
      let extra =
        List.init (1 + Util.Rng.int rng 3) (fun _ ->
            Seed.random_tx ~dict:ctx.x_dict rng ~n_senders:config.n_senders
              (Util.Rng.choose_list rng fns))
      in
      { Seed.txs = seed.txs @ extra }
  end

(* ---------------- sequence-level mutation (§IV-A, continuing) ------- *)

let mutate_sequence ctx rng (seed : Seed.t) =
  let config = ctx.x_config in
  let info = ctx.x_info in
  match seed.txs with
  | [] | [ _ ] -> seed
  | ctor :: rest -> begin
    let rest = Array.of_list rest in
    let n = Array.length rest in
    (match
       (* RAW-targeted duplication and sequence extension are the §IV-A
          moves of the full system. Baselines mutate the ORDER of their
          sequences (the paper's §III-B point is precisely that they
          cannot make a transaction run twice); IR-Fuzz's extension
          happens at seed creation via prolongation instead. *)
       if config.sequence_mode = Config.Seq_dataflow_repeat then Util.Rng.int rng 3
       else 1
     with
    | 0 ->
      (* duplicate a transaction whose function the RAW rule marks as
         repeatable (fall back to any) *)
      let candidates =
        Array.to_list rest
        |> List.filter (fun (tx : Seed.tx) ->
               match Analysis.Statevars.info info tx.fn.Abi.name with
               | Some fi -> Analysis.Statevars.should_repeat info fi
               | None -> false)
      in
      let tx =
        match candidates with
        | [] -> rest.(Util.Rng.int rng n)
        | l -> Util.Rng.choose_list rng l
      in
      let pos = Util.Rng.int rng (n + 1) in
      let l = Array.to_list rest in
      let before = List.filteri (fun i _ -> i < pos) l in
      let after = List.filteri (fun i _ -> i >= pos) l in
      { Seed.txs = ctor :: (before @ [ tx ] @ after) }
    | 1 when n >= 2 ->
      let i = Util.Rng.int rng n and j = Util.Rng.int rng n in
      let tmp = rest.(i) in
      rest.(i) <- rest.(j);
      rest.(j) <- tmp;
      { Seed.txs = ctor :: Array.to_list rest }
    | _ ->
      (* append a random callable *)
      let fns = Minisol.Contract.callable_functions ctx.x_contract in
      if fns = [] then seed
      else
        let fn = Util.Rng.choose_list rng fns in
        { Seed.txs = ctor :: (Array.to_list rest
                              @ [ Seed.random_tx ~dict:ctx.x_dict rng
                                    ~n_senders:config.n_senders fn ]) })
  end

(* ---------------- input prediction (hybrid fuzzing) ---------------- *)

(* Count a run's visits to still-uncovered branch flip sides. The table
   drives the prediction trigger: once a frontier side has been reached
   [predict_attempts] times without flipping, the solver fires for it. *)
let note_flip_attempts ~coverage attempts (results : Executor.tx_result list) =
  List.iter
    (fun (r : Executor.tx_result) ->
      List.iter
        (function
          | Evm.Trace.Branch { pc; taken; _ } ->
            let other = (pc, not taken) in
            if not (Coverage.is_covered coverage other) then
              Hashtbl.replace attempts other
                (1 + Option.value ~default:0 (Hashtbl.find_opt attempts other))
          | _ -> ())
        r.trace.Evm.Trace.events)
    results

(* The comparison site guarding frontier side [(pc, want)] in a replay
   that reached its other side: the solver's target, tagged with the
   transaction whose input feeds it. *)
let comparison_for_branch (results : Executor.tx_result list) (pc, want) =
  List.find_map
    (fun (r : Executor.tx_result) ->
      List.find_map
        (function
          | Evm.Trace.Branch { pc = p; taken; cmp = Some c; _ }
            when p = pc && taken = not want ->
            Some (r.tx_index, c)
          | _ -> None)
        r.trace.Evm.Trace.events)
    results

(* Proposal seeds for flipping frontier side [want] of the comparison
   [cmp] reached by [e.seed]'s transaction [tx_index]: mask-respecting
   stream patches of each solved value (calldata / msg.value operands),
   plus a sender swap when the operand is the caller address — the
   solved value then IS the address the guard wants, so the proposal is
   the pool account holding it rather than a byte patch. Deduplicated,
   capped at [predict_max_candidates]. *)
let predict_proposals ctx (e : entry) ~tx_index ~(cmp : Evm.Trace.comparison)
    ~want =
  let config = ctx.x_config in
  let module T = Evm.Trace.Taint in
  match List.nth_opt e.seed.Seed.txs tx_index with
  | None -> []
  | Some tx ->
    (* the mask-interaction invariant: solved bytes land only where the
       cached Algorithm-2 mask admits an overwrite (no mask yet means
       nothing is known to be protected) *)
    let allow pos =
      match Hashtbl.find_opt e.masks tx_index with
      | Some msk -> Mask.allows msk Mutation.O ~pos
      | None -> true
    in
    let args_len = Abi.args_byte_length tx.Seed.fn in
    let cands = Predict.Solver.candidates cmp ~want in
    let of_stream stream =
      Seed.with_tx e.seed tx_index { tx with Seed.stream }
    in
    let stream_patches =
      List.concat_map
        (fun (side, v) ->
          let taint = Predict.Solver.side_taint cmp side in
          if T.has taint T.calldata || T.has taint T.callvalue then
            Predict.Inject.patches ~allow ~taint
              ~current:(Predict.Solver.side_value cmp side)
              ~args_len ~stream:tx.Seed.stream v
            |> List.map of_stream
          else [])
        cands
    in
    let sender_swaps =
      List.filter_map
        (fun (side, v) ->
          if not (T.has (Predict.Solver.side_taint cmp side) T.caller) then None
          else
            let rec find i = function
              | [] -> None
              | a :: rest -> if U.equal a v then Some i else find (i + 1) rest
            in
            match find 0 (Accounts.caller_pool config.Config.n_senders) with
            | Some idx when idx <> tx.Seed.sender ->
              Some (Seed.with_tx e.seed tx_index { tx with Seed.sender = idx })
            | _ -> None)
        cands
    in
    let seen = ref [] in
    List.filter
      (fun s ->
        if List.mem s !seen then false
        else begin
          seen := s :: !seen;
          true
        end)
      (stream_patches @ sender_swaps)
    |> List.filteri (fun i _ -> i < config.Config.predict_max_candidates)

(* Frontier sides whose attempt count crossed the firing threshold and
   for which the distance pool still holds a witness entry, nearest
   (lowest pc) first. *)
let predict_ready (config : Config.t) ~coverage ~best_for_branch attempts =
  Hashtbl.fold
    (fun br n acc ->
      if
        n >= config.predict_attempts
        && (not (Coverage.is_covered coverage br))
        && Hashtbl.mem best_for_branch br
      then br :: acc
      else acc)
    attempts []
  |> List.sort compare

(* ==================== the campaign loop ====================

   Algorithm 1 as one round-structured loop over one state record. Each
   round picks seeds with the one selection policy, assigns them
   Algorithm-3 energy and spends it with [fuzz_entry]. The pool's size
   decides how a round is dispatched:

   - inline (jobs = 1): one seed per round, fuzzed on the calling domain
     against the live state with the campaign RNG, so every execution's
     feedback lands before the next one runs;
   - pool (jobs > 1): up to [jobs * round_batch] distinct seeds per
     round, dealt into one task per worker. A task fuzzes against a
     private copy of the round-start coverage with its own RNG stream
     ({!Util.Rng.derive}) and buffers its feedback; the coordinator
     merges the buffers in submission order, so a run is reproducible
     for a fixed (rng_seed, jobs, round_batch). Freshness judged against
     a snapshot one round stale costs at most a few duplicate queue
     entries, never a lost one. *)

type cand = {
  c_seed : Seed.t;
  c_tx_results : Executor.tx_result list;
  c_fresh : bool;  (* new coverage against the task's snapshot *)
}

(* Feedback a pool task holds back for the coordinator's merge. *)
type buffer = {
  best_at_start : (int * bool, float) Hashtbl.t;
      (* round-start best distances: global bests only shrink, so
         nothing this pre-filter drops could have entered the pool *)
  allowance : int;  (* mask probes this task may spend *)
  mutable found : (Oracles.Oracle.finding * Seed.t) list;  (* newest first *)
  mutable cands : cand list;  (* newest first *)
}

(* Where executions run and their feedback lands. The campaign's own
   lane holds the live coverage, attempt and weight tables and the
   campaign-wide counters; a pool task's lane holds private copies and a
   [buffer]. *)
type lane = {
  worker : int;
  rng : Util.Rng.t;
  xctx : Executor.ctx;
  cov : Coverage.t;
  attempts : (int * bool, int) Hashtbl.t;
      (* flip-attempt counts per frontier side (prediction trigger) *)
  weights : (int * bool, float) Hashtbl.t option;
      (* Algorithm-3 branch weights; [None] without dynamic energy *)
  quota : int;  (* executions the lane may reach *)
  mutable execs : int;
  mutable steps : int;
  mutable probes : int;
  buffer : buffer option;  (* [None]: the live campaign state *)
}

type state = {
  ctx : ctx;
  config : Config.t;
  bus : Telemetry.Bus.t;
  meters : meters;
  pool : (Pool.t * Pool.stats) option;  (* pool dispatch, stats at start *)
  xctxs : Executor.ctx array;  (* one per worker domain *)
  live : lane;
  start_time : float;
  on_safe_point :
    (final:bool -> bus:Telemetry.Bus.t -> execs:int -> (unit -> snapshot) -> unit)
    option;
  findings_tbl : (Oracles.Oracle.bug_class * int, unit) Hashtbl.t;
  occ : (Oracles.Oracle.key, int) Hashtbl.t;
  mutable witness_seeds : (Oracles.Oracle.finding * Seed.t) list;
      (* first witness per finding, newest first *)
  mutable over_time : Report.checkpoint list;  (* newest first *)
  mutable queue : entry array;
  best : (int * bool, float * entry) Hashtbl.t;  (* distance pool *)
  mutable cursor : int;
  mutable predict_proposed : int;
  mutable rng_counter : int;  (* worker streams derived so far *)
  mutable rounds : int;
  mutable zero_rounds : int;
  mutable merge_seconds : float;
  execs_by_worker : int array;
}

(* Build the campaign state from the config, or restore it from a
   snapshot; a resumed campaign skips seed bootstrap. *)
let init ~config ~ctx ~bus ~metrics ~start_time ?pool ?resume ?on_safe_point
    () =
  let from f default = match resume with Some (_, s) -> f s | None -> default in
  let meters = make_meters metrics in
  let jobs = match pool with Some p -> Pool.size p | None -> 1 in
  (* one cache shard and one executor context per worker domain, built
     once for the whole campaign: the hot execution path touches only
     domain-local state, and per-execution telemetry reaches the shared
     registry in one flush per task or safe point (the pool barrier is
     the hand-off edge that makes coordinator-built contexts safe to
     hand to workers) *)
  let cache =
    if config.Config.state_caching then
      Some (State_cache.create_sharded ~metrics ~shards:jobs ())
    else None
  in
  let xctxs =
    Array.init jobs (fun w ->
        Executor.make_ctx ~contract:ctx.x_contract ~gas:config.gas_per_tx
          ~n_senders:config.n_senders ~attacker:config.attacker_enabled
          ?cache:(Option.map (fun s -> State_cache.shard s w) cache)
          ~metrics ())
  in
  let table bindings =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bindings;
    tbl
  in
  let weights =
    if not config.dynamic_energy then None
    else Some (table (from (fun s -> Option.value ~default:[] s.sn_weights) []))
  in
  let live =
    {
      worker = 0;
      rng =
        from (fun s -> Util.Rng.restore s.sn_rng) (Util.Rng.create config.rng_seed);
      xctx = xctxs.(0);
      cov = from (fun s -> Coverage.copy s.sn_coverage) (Coverage.create ());
      attempts = table (from (fun s -> s.sn_attempts) []);
      weights;
      quota = config.max_executions;
      execs = from (fun s -> s.sn_execs) 0;
      steps = from (fun s -> s.sn_steps) 0;
      probes = from (fun s -> s.sn_mask_probes) 0;
      buffer = None;
    }
  in
  let witness_seeds = from (fun s -> List.rev s.sn_findings) [] in
  let queue, best =
    match resume with
    | Some (_, s) -> restore_pool s
    | None -> ([||], Hashtbl.create 64)
  in
  {
    ctx;
    config;
    bus;
    meters;
    pool = Option.map (fun p -> (p, Pool.stats p)) pool;
    xctxs;
    live;
    start_time = start_time -. from (fun s -> s.sn_elapsed) 0.0;
    on_safe_point;
    findings_tbl =
      table
        (List.map
           (fun ((f : Oracles.Oracle.finding), _) -> ((f.cls, f.pc), ()))
           witness_seeds);
    occ = table (from (fun s -> s.sn_occ) []);
    witness_seeds;
    over_time = from (fun s -> List.rev s.sn_over_time) [];
    queue;
    best;
    cursor = from (fun s -> s.sn_cursor) 0;
    predict_proposed = from (fun s -> s.sn_predict_proposals) 0;
    rng_counter = from (fun s -> s.sn_rng_counter) 0;
    rounds = 0;
    zero_rounds = 0;
    merge_seconds = 0.0;
    execs_by_worker = Array.make jobs 0;
  }

(* Capture every mutable structure of a campaign at a safe point. Queue
   and distance pool share [entry] values by physical identity (mask
   caches mutate them in place), so both serialise as indices into one
   deduplicated entry pool. Everything is copied out: the snapshot stays
   valid while the campaign keeps mutating. *)
let capture st =
  let seen = ref [] in
  let id_of e =
    match List.assq_opt e !seen with
    | Some id -> id
    | None ->
      let id = List.length !seen in
      seen := (e, id) :: !seen;
      id
  in
  let sn_queue = List.map id_of (Array.to_list st.queue) in
  let sn_best =
    List.rev
      (Hashtbl.fold (fun br (d, e) acc -> (br, d, id_of e) :: acc) st.best [])
  in
  let sn_entries =
    List.rev_map (fun (e, _) -> snapshot_entry_of_entry e) !seen |> Array.of_list
  in
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  {
    sn_execs = st.live.execs;
    sn_steps = st.live.steps;
    sn_mask_probes = st.live.probes;
    sn_cursor = st.cursor;
    sn_rng = Util.Rng.save st.live.rng;
    sn_rng_counter = st.rng_counter;
    sn_elapsed = Unix.gettimeofday () -. st.start_time;
    sn_entries;
    sn_queue;
    sn_best;
    sn_coverage = Coverage.copy st.live.cov;
    sn_weights = Option.map sorted st.live.weights;
    sn_findings = List.rev st.witness_seeds;
    sn_occ = sorted_occurrences st.occ;
    sn_over_time = List.rev st.over_time;
    sn_attempts = sorted st.live.attempts;
    sn_predict_proposals = st.predict_proposed;
  }

let time_exhausted st =
  st.config.max_seconds > 0.0
  && Unix.gettimeofday () >= st.start_time +. st.config.max_seconds

(* executions lane [t] may still run; the live lane also stops at the
   deadline *)
let exec_room st t =
  if Option.is_none t.buffer && time_exhausted st then 0 else t.quota - t.execs

let budget_left st = exec_room st st.live > 0
let remaining st = Stdlib.max 0 (st.config.max_executions - st.live.execs)

(* Mask probes lane [t] may still spend. Inline the global budget is
   checked once when a mask is requested and the plan may then run to
   completion; a pool task caps each plan at its allowance. *)
let mask_room st t =
  match t.buffer with
  | Some b -> b.allowance - t.probes
  | None ->
    if
      float_of_int t.probes
      < mask_budget_fraction *. float_of_int st.config.max_executions
    then max_int
    else 0

let is_covered st br = Coverage.is_covered st.live.cov br

let record cov (results : Executor.tx_result list) =
  List.fold_left
    (fun fresh (r : Executor.tx_result) -> Coverage.record cov r.trace || fresh)
    false results

let raise_weight tbl key w =
  match Hashtbl.find_opt tbl key with
  | Some w' when w' >= w -> ()
  | _ -> Hashtbl.replace tbl key w

let note_findings st seed fs =
  List.iter
    (fun (f : Oracles.Oracle.finding) ->
      let tkey = finding_key seed f in
      Hashtbl.replace st.occ tkey
        (1 + Option.value ~default:0 (Hashtbl.find_opt st.occ tkey));
      let key = (f.cls, f.pc) in
      if not (Hashtbl.mem st.findings_tbl key) then begin
        Hashtbl.replace st.findings_tbl key ();
        st.witness_seeds <- (f, seed) :: st.witness_seeds;
        Telemetry.Metrics.incr st.meters.m_findings;
        emit_finding st.bus f;
        Log.info (fun m ->
            m "exec %d: new finding %a" st.live.execs Oracles.Oracle.pp_finding f)
      end)
    fs

let checkpoint st =
  st.over_time <-
    { Report.execs = st.live.execs; covered = Coverage.covered_count st.live.cov }
    :: st.over_time

(* Fold one executed run into lane [t] and return whether it covered a
   new branch side there. The live lane also accounts the run
   campaign-wide: metrics, [New_branch_side] events, findings and the
   coverage-over-time curve. A pool lane buffers its findings for the
   merge. *)
let observe st t ?(worker = t.worker) seed (run : Executor.run) =
  t.execs <- t.execs + 1;
  (* logical steps (cached prefixes included): a pure function of the
     executed seeds, so the report total survives checkpoint/resume with
     a cold state cache *)
  t.steps <- t.steps + run.Executor.logical_steps;
  let live = Option.is_none t.buffer in
  let new_sides =
    if live then pending_new_sides st.bus t.cov run.tx_results else []
  in
  let fresh = record t.cov run.tx_results in
  Telemetry.Bus.emit st.bus (Telemetry.Event.Exec_completed { worker; fresh });
  if st.config.predict then
    note_flip_attempts ~coverage:t.cov t.attempts run.tx_results;
  let found = Executor.inspect ~static:st.ctx.x_static run in
  (match t.buffer with
  | Some b ->
    b.found <- List.rev_append (List.map (fun f -> (f, seed)) found) b.found
  | None ->
    st.execs_by_worker.(worker) <- st.execs_by_worker.(worker) + 1;
    Telemetry.Metrics.incr st.meters.m_execs;
    emit_new_sides st.bus t.cov new_sides;
    if fresh then begin
      Telemetry.Metrics.set st.meters.m_covered
        (float_of_int (Coverage.covered_count t.cov));
      Log.debug (fun m ->
          m "exec %d: coverage %d sides" t.execs (Coverage.covered_count t.cov))
    end;
    note_findings st seed found);
  (* pre-fuzz / continuous branch weighting (Algorithm 3) *)
  (match t.weights with
  | Some tbl when fresh ->
    List.iter
      (fun (r : Executor.tx_result) ->
        List.iter
          (fun (wb : Analysis.Prefix.weighted_branch) ->
            raise_weight tbl (wb.pc, wb.taken) wb.weight)
          (Analysis.Prefix.analyze_trace st.ctx.x_cfg r.trace))
      run.tx_results
  | _ -> ());
  if live then checkpoint st;
  fresh

let exec st t seed =
  let run = Executor.run_in_ctx t.xctx seed in
  (run, observe st t seed run)

let entry_of seed results frontier_dists =
  {
    seed;
    path = path_of_results results;
    nested_hits = nested_hits_of_results results;
    frontier_dists;
    masks = Hashtbl.create 4;
  }

let note_entry st e =
  List.iter
    (fun (br, d) ->
      match Hashtbl.find_opt st.best br with
      | Some (best, _) when best <= d -> ()
      | _ -> Hashtbl.replace st.best br (d, e))
    e.frontier_dists

let enqueue st seed results =
  let e = entry_of seed results (frontier_dists_of_results st.live.cov results) in
  let cap = 128 in
  let q = Array.to_list st.queue @ [ e ] in
  let q = if List.length q > cap then List.tl q else q in
  st.queue <- Array.of_list q;
  Telemetry.Metrics.incr st.meters.m_enqueued;
  Telemetry.Bus.emit st.bus
    (Telemetry.Event.Seed_enqueued
       { txs = List.length e.seed.txs; queue_len = Array.length st.queue });
  note_entry st e

let improves best dists =
  List.exists
    (fun (br, d) -> match best br with Some b -> d < b | None -> true)
    dists

(* Algorithm 1 lines 8-13: a seed with new coverage joins the queue; one
   that only gets closer to an uncovered branch than anything known
   joins the distance pool — this is what lets mutation hill-climb
   strict conditions. *)
let admit st seed results ~fresh =
  if fresh then enqueue st seed results
  else begin
    let dists = frontier_dists_of_results st.live.cov results in
    if improves (fun br -> Option.map fst (Hashtbl.find_opt st.best br)) dists then
      note_entry st (entry_of seed results dists)
  end

(* A mutant's fate after execution: admitted at once inline, or
   pre-filtered against the round-start snapshot and buffered for the
   coordinator, which re-judges it globally at merge time. *)
let consider st t seed (run : Executor.run) ~fresh =
  match t.buffer with
  | None -> admit st seed run.tx_results ~fresh
  | Some b ->
    if
      fresh
      || improves (Hashtbl.find_opt b.best_at_start)
           (frontier_dists_of_results t.cov run.tx_results)
    then
      b.cands <-
        { c_seed = seed; c_tx_results = run.tx_results; c_fresh = fresh } :: b.cands

(* Algorithm 2, staged: the plan draws from the lane's RNG exactly as
   the interleaved [Mask.compute] would, then the affordable prefix of
   the probes executes in plan order and the verdicts fold back. *)
let get_mask st t (e : entry) tx_index =
  match Hashtbl.find_opt e.masks tx_index with
  | Some m -> Some m
  | None when mask_room st t <= 0 -> None
  | None ->
    let config = st.config in
    let tx = List.nth e.seed.txs tx_index in
    let pl =
      Mask.plan t.rng ~stride:config.mask_stride ~max_probes:config.mask_max_probes
        tx.stream
    in
    let afford = Stdlib.min (exec_room st t) (mask_room st t) in
    let before = t.probes in
    let feedbacks =
      Array.mapi
        (fun i (p : Mask.probe) ->
          if i >= afford || exec_room st t <= 0 then None
          else begin
            t.probes <- t.probes + 1;
            let probe = { tx with stream = p.probe_stream } in
            let run, _ = exec st t (Seed.with_tx e.seed tx_index probe) in
            Some
              (mask_feedback ~baseline_nested:e.nested_hits
                 ~baseline_dists:e.frontier_dists run)
          end)
        (Mask.probes pl)
    in
    let m = Mask.finish pl feedbacks in
    let spent = t.probes - before in
    if Option.is_none t.buffer then begin
      Telemetry.Metrics.add st.meters.m_probes spent;
      Telemetry.Metrics.add st.meters.m_probes_coord spent
    end;
    Telemetry.Bus.emit st.bus
      (Telemetry.Event.Mask_updated { tx_index; probes = spent });
    if Hashtbl.length e.masks < mask_cache_max then
      Hashtbl.replace e.masks tx_index m;
    Some m

(* Spend one selected seed's energy on lane [t]: Algorithm 1's inner
   loop under the §IV-B mask and the §IV-C energy update. *)
let fuzz_entry st t (entry, energy) =
  let config = st.config in
  let rng = t.rng in
  let remaining = ref energy in
  while !remaining > 0 && exec_room st t > 0 do
    let ntx = List.length entry.seed.txs in
    let tx_index = Util.Rng.int rng ntx in
    let tx = List.nth entry.seed.txs tx_index in
    let stream = tx.Seed.stream in
    let mask =
      if
        config.mask_guided
        && (entry.nested_hits <> [] || entry.frontier_dists <> [])
      then get_mask st t entry tx_index
      else None
    in
    let pos = Util.Rng.int rng (Stdlib.max 1 (String.length stream)) in
    let m = Mutation.random rng ~max_n:8 in
    let allowed =
      match mask with
      | Some msk -> Mask.allows msk m.Mutation.kind ~pos
      | None -> true
    in
    if not allowed then remaining := !remaining - 1
    else begin
      let mutated = Mutation.apply ~dict:st.ctx.x_dict rng m ~pos stream in
      let candidate =
        Seed.with_tx entry.seed tx_index { tx with stream = mutated }
      in
      let candidate =
        if Util.Rng.float rng < config.sequence_mutation_prob then
          mutate_sequence st.ctx rng candidate
        else candidate
      in
      if exec_room st t > 0 then begin
        let run, fresh = exec st t candidate in
        consider st t candidate run ~fresh;
        remaining := Energy.update !remaining ~new_coverage:fresh
      end
      else remaining := 0
    end
  done

(* Execute coordinator-generated seeds (bootstrap, black-box batches,
   predict replays and proposals), calling [k item seed worker run] on
   each in list order; [k] folds the run into the live lane. Inline, the
   budget and [admit] are checked right before each execution. On the
   pool they are checked once for the whole list, which then runs as one
   batch across the workers. *)
let run_seeds st ?(admit = fun _ -> true) ~seed_of items k =
  match st.pool with
  | None ->
    List.iter
      (fun x ->
        if budget_left st && admit x then begin
          let seed = seed_of x in
          k x seed 0 (Executor.run_in_ctx st.live.xctx seed)
        end)
      items
  | Some (pool, _) ->
    let rem = remaining st in
    let batch =
      List.filter admit items
      |> List.map (fun x -> (x, seed_of x))
      |> List.filteri (fun i _ -> i < rem)
      |> Array.of_list
    in
    let n = Array.length batch in
    let ntasks = Stdlib.min (Pool.size pool) n in
    let tasks =
      Array.init ntasks (fun j worker ->
          let xctx = st.xctxs.(worker) in
          let out = ref [] in
          let i = ref j in
          while !i < n do
            out := (!i, worker, Executor.run_in_ctx xctx (snd batch.(!i))) :: !out;
            i := !i + ntasks
          done;
          Executor.flush xctx;
          !out)
    in
    Pool.run_batch pool tasks |> Array.to_list |> List.concat
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
    |> List.iter (fun (i, worker, run) ->
           let x, seed = batch.(i) in
           k x seed worker run)

(* ---------------- prediction phase ---------------- *)
(* For every ready frontier side: replay the pool's closest seed to
   recover the guarding comparison (comparisons are not stored in
   entries or snapshots), then spend up to [predict_max_candidates]
   executions on solved proposals. A firing that fails to flip leaves
   the attempt counter negative by the accumulated count, so each retry
   waits longer than the last — the backoff lives in the attempts table
   and therefore survives checkpoints. Inline, sides fire one at a time
   with live coverage and budget guards. On the pool, every side's
   replay crosses the pool as one batch, then every proposal as a
   second: a proposal batched before a sibling flips its side still
   executes, but the budget cap stays exact. Entirely inert when
   [predict] is off: no RNG draws, no executions. *)
let predict_phase st =
  let fire sides =
    let firing =
      List.filter_map
        (fun br ->
          if budget_left st && not (is_covered st br) then begin
            let fired_at =
              Option.value ~default:0 (Hashtbl.find_opt st.live.attempts br)
            in
            Hashtbl.replace st.live.attempts br 0;
            Some (br, fired_at, snd (Hashtbl.find st.best br))
          end
          else None)
        sides
    in
    let replayed = ref [] in
    run_seeds st ~seed_of:(fun (_, _, e) -> e.seed) firing
      (fun (br, fired_at, e) seed worker run ->
        ignore (observe st st.live ~worker seed run);
        replayed := (br, fired_at, e, run) :: !replayed);
    let replayed = List.rev !replayed in
    let proposals =
      List.concat_map
        (fun (br, _, e, (run : Executor.run)) ->
          if is_covered st br then []
          else
            match comparison_for_branch run.tx_results br with
            | None -> []
            | Some (tx_index, cmp) ->
              List.map
                (fun cand -> (br, cand))
                (predict_proposals st.ctx e ~tx_index ~cmp ~want:(snd br)))
        replayed
    in
    run_seeds st proposals ~seed_of:snd
      ~admit:(fun (br, _) -> not (is_covered st br))
      (fun (br, _) seed worker (run : Executor.run) ->
        Telemetry.Metrics.incr st.meters.m_predict_proposed;
        st.predict_proposed <- st.predict_proposed + 1;
        let covered_before = is_covered st br in
        if observe st st.live ~worker seed run then enqueue st seed run.tx_results;
        if (not covered_before) && is_covered st br then begin
          Telemetry.Metrics.incr st.meters.m_predict_flipped;
          Log.info (fun m ->
              m "predict: flipped (%d,%B) at exec %d" (fst br) (snd br)
                st.live.execs)
        end);
    List.iter
      (fun (br, fired_at, _, _) ->
        if not (is_covered st br) then
          Hashtbl.replace st.live.attempts br (-fired_at))
      replayed
  in
  if st.config.predict then begin
    let ready =
      predict_ready st.config ~coverage:st.live.cov ~best_for_branch:st.best
        st.live.attempts
    in
    match st.pool with
    | None -> List.iter (fun br -> fire [ br ]) ready
    | Some _ -> fire ready
  end

(* Branch-distance-feedback selection (Algorithm 1 lines 8-13): most
   picks go to a seed closest to some still-uncovered branch, the rest
   walk the queue round-robin. Returns up to [want] distinct entries. *)
let select st ~want =
  let pick () =
    let frontier =
      Hashtbl.fold
        (fun br (d, e) acc -> if is_covered st br then acc else (br, d, e) :: acc)
        st.best []
    in
    if
      st.config.distance_feedback && frontier <> []
      && Util.Rng.float st.live.rng < 0.7
    then
      let _, _, e = Util.Rng.choose_list st.live.rng frontier in
      e
    else begin
      let e = st.queue.(st.cursor mod Array.length st.queue) in
      st.cursor <- st.cursor + 1;
      e
    end
  in
  let chosen = ref [] and tries = ref 0 in
  while List.length !chosen < want && !tries < 4 * want do
    incr tries;
    let e = pick () in
    if not (List.memq e !chosen) then chosen := e :: !chosen
  done;
  List.rev !chosen

(* Fold one finished pool task into the live state, in submission
   order: candidates are re-judged against the merged coverage, then
   findings, weights, coverage and attempt counts merge. *)
let merge st (t : lane) =
  let t0 = Unix.gettimeofday () in
  let b = Option.get t.buffer in
  let live = st.live in
  Telemetry.Metrics.add st.meters.m_execs t.execs;
  Telemetry.Metrics.add st.meters.m_probes t.probes;
  live.execs <- live.execs + t.execs;
  live.steps <- live.steps + t.steps;
  live.probes <- live.probes + t.probes;
  st.execs_by_worker.(t.worker) <- st.execs_by_worker.(t.worker) + t.execs;
  List.iter
    (fun c ->
      let fresh = record live.cov c.c_tx_results in
      (* a candidate that lost the freshness race (another domain covered
         the same side this round) may still join the distance pool *)
      admit st c.c_seed c.c_tx_results ~fresh:(c.c_fresh && fresh))
    (List.rev b.cands);
  List.iter (fun (f, seed) -> note_findings st seed [ f ]) (List.rev b.found);
  (match (live.weights, t.weights) with
  | Some into, Some ws -> Hashtbl.iter (raise_weight into) ws
  | _ -> ());
  Coverage.merge ~into:live.cov t.cov;
  (* sum worker attempt counts, dropping sides the merged coverage has
     since flipped — they no longer need prediction *)
  Hashtbl.iter
    (fun br n ->
      if not (is_covered st br) then
        Hashtbl.replace live.attempts br
          (n + Option.value ~default:0 (Hashtbl.find_opt live.attempts br)))
    t.attempts;
  checkpoint st;
  st.merge_seconds <- st.merge_seconds +. (Unix.gettimeofday () -. t0)

(* One pool round: the chosen seeds are dealt round-robin into one task
   per worker, with disjoint slices of the remaining execution budget as
   quotas and an even share of the remaining mask budget. *)
let fuzz_on_pool st pool pairs =
  let config = st.config in
  let rem = remaining st in
  let ntasks = Stdlib.min (Stdlib.min (Pool.size pool) (List.length pairs)) rem in
  let base_quota = rem / ntasks and extra = rem mod ntasks in
  let mask_cap =
    int_of_float (mask_budget_fraction *. float_of_int config.max_executions)
  in
  let allowance = Stdlib.max 0 (mask_cap - st.live.probes) / ntasks in
  let best_at_start = Hashtbl.create (Stdlib.max 16 (Hashtbl.length st.best)) in
  Hashtbl.iter (fun br (d, _) -> Hashtbl.replace best_at_start br d) st.best;
  let groups = Array.make ntasks [] in
  List.iteri (fun i p -> groups.(i mod ntasks) <- p :: groups.(i mod ntasks)) pairs;
  let tasks =
    Array.init ntasks (fun i ->
        let group = List.rev groups.(i) in
        let quota = base_quota + if i < extra then 1 else 0 in
        (* every worker stream is a pure function of (campaign seed,
           dispatch counter); the counter rides along in checkpoints so
           resumed campaigns continue with fresh streams *)
        let rng = Util.Rng.derive config.rng_seed st.rng_counter in
        st.rng_counter <- st.rng_counter + 1;
        let cov = Coverage.copy st.live.cov in
        fun worker ->
          let t =
            {
              worker;
              rng;
              xctx = st.xctxs.(worker);
              cov;
              attempts = Hashtbl.create 16;
              weights = Option.map (fun _ -> Hashtbl.create 16) st.live.weights;
              quota;
              execs = 0;
              steps = 0;
              probes = 0;
              buffer = Some { best_at_start; allowance; found = []; cands = [] };
            }
          in
          List.iter (fuzz_entry st t) group;
          Executor.flush t.xctx;
          t)
  in
  (* workers never emit New_branch_side (their snapshots race); the
     coordinator diffs the merged covered set per round instead *)
  let covered_before =
    if Telemetry.Bus.enabled st.bus then Coverage.covered st.live.cov else []
  in
  let round_execs = ref 0 in
  (* incremental merge: task i folds in while tasks i+1.. still run *)
  Pool.run_batch_iter pool tasks ~merge:(fun _ t ->
      round_execs := !round_execs + t.execs;
      merge st t);
  if !round_execs = 0 then st.zero_rounds <- st.zero_rounds + 1
  else st.zero_rounds <- 0;
  let covered = Coverage.covered_count st.live.cov in
  Telemetry.Metrics.set st.meters.m_covered (float_of_int covered);
  if Telemetry.Bus.enabled st.bus then begin
    let base = List.length covered_before in
    Coverage.covered st.live.cov
    |> List.filter (fun br -> not (List.mem br covered_before))
    |> List.sort compare
    |> List.iteri (fun i (pc, taken) ->
           Telemetry.Bus.emit st.bus
             (Telemetry.Event.New_branch_side
                { pc; taken; covered = base + i + 1 }))
  end;
  Telemetry.Bus.emit st.bus
    (Telemetry.Event.Batch_merge
       { round = st.rounds; execs = !round_execs; covered });
  Log.debug (fun m ->
      m "round %d: %d seeds in %d tasks, %d execs, coverage %d sides" st.rounds
        (List.length pairs) ntasks !round_execs covered)

let round st =
  st.rounds <- st.rounds + 1;
  (* coarse pool rounds: [round_batch] seeds per worker per merge
     barrier amortise the per-round coordination (snapshot copies, RNG
     derivation, parking and waking the pool) *)
  let want =
    match st.pool with
    | None -> 1
    | Some (pool, _) ->
      Stdlib.min (Pool.size pool * round_width st.config) (remaining st)
  in
  let pairs =
    List.map
      (fun entry ->
        let energy =
          Energy.assign ~dynamic:st.config.dynamic_energy ~base:base_energy
            ~max_energy ~weights:st.live.weights ~path:entry.path
        in
        Telemetry.Bus.emit st.bus (Telemetry.Event.Energy_reassigned { energy });
        (entry, energy))
      (select st ~want)
  in
  match st.pool with
  | None -> List.iter (fuzz_entry st st.live) pairs
  | Some (pool, _) -> fuzz_on_pool st pool pairs

(* Safe points: moments where every feedback structure is consistent and
   no work is in flight (inline: between seeds; pool: between rounds,
   workers parked), so the whole campaign can be captured. The snapshot
   is built lazily — only when the hook decides the cadence is due does
   any copying happen. *)
let safe_point st ~final =
  (* metrics sinks observing at the safe point see exact totals *)
  Array.iter Executor.flush st.xctxs;
  Option.iter
    (fun hook ->
      hook ~final ~bus:st.bus ~execs:st.live.execs (fun () -> capture st))
    st.on_safe_point

let report st ~stop_reason =
  let parallel =
    Option.map
      (fun (pool, (s0 : Pool.stats)) ->
        let s1 = Pool.stats pool in
        let sum = Array.fold_left ( +. ) 0.0 in
        {
          Report.jobs = Pool.size pool;
          rounds = st.rounds;
          round_batch = round_width st.config;
          merge_seconds = st.merge_seconds;
          merge_wait_seconds = s1.merge_wait_seconds -. s0.merge_wait_seconds;
          worker_idle_seconds = sum s1.stall_seconds -. sum s0.stall_seconds;
          steals = s1.steals - s0.steals;
          domains =
            List.init (Pool.size pool) (fun i ->
                {
                  Report.domain = i;
                  d_execs = st.execs_by_worker.(i);
                  busy_seconds = s1.busy_seconds.(i) -. s0.busy_seconds.(i);
                  stall_seconds = s1.stall_seconds.(i) -. s0.stall_seconds.(i);
                });
        })
      st.pool
  in
  let witness_seeds = List.rev st.witness_seeds in
  {
    Report.contract_name = st.ctx.x_contract.name;
    executions = st.live.execs;
    steps = st.live.steps;
    mask_probes = st.live.probes;
    predict_proposals = st.predict_proposed;
    covered_branches = Coverage.covered_count st.live.cov;
    covered = List.sort compare (Coverage.covered st.live.cov);
    total_branch_sides = total_sides_of_cfg st.ctx.x_cfg;
    findings = Oracles.Oracle.dedup (List.map fst witness_seeds);
    occurrences = sorted_occurrences st.occ;
    witnesses = List.map (fun (f, seed) -> (f, Seed.show seed)) witness_seeds;
    witness_seeds;
    over_time = List.rev st.over_time;
    seeds_in_queue = Array.length st.queue;
    corpus = Array.to_list st.queue |> List.map (fun e -> e.seed);
    corpus_skipped = [];
    wall_seconds = Unix.gettimeofday () -. st.start_time;
    stop_reason;
    parallel;
  }

let fuzz st ~resumed =
  (* a resumed campaign already carries its seeded queue; re-running the
     bootstrap would double-spend the budget and desync the RNG *)
  if not resumed then begin
    (* replayed corpus first, then freshly generated seeds *)
    let initial =
      List.map Option.some st.config.initial_corpus
      @ List.init initial_seeds (fun _ -> None)
    in
    run_seeds st initial
      ~seed_of:(function Some s -> s | None -> new_seed st.ctx st.live.rng)
      (fun _ seed worker run ->
        ignore (observe st st.live ~worker seed run);
        enqueue st seed run.tx_results)
  end;
  (* A hook may raise [Preempt] from a non-final safe point to yield the
     campaign: the loop exits immediately with [Report.Preempted], the
     snapshot the hook captured being the resume point. Safe points are
     the only raise sites, so the exception always leaves every feedback
     structure consistent. *)
  let preempted = ref false in
  (try
     (* black-box mode: no feedback, fresh random seeds until the budget
        ends — one per safe point inline, [jobs * 32] per pool batch *)
     if st.config.blackbox then begin
       let width = match st.pool with None -> 1 | Some (p, _) -> Pool.size p * 32 in
       while budget_left st do
         safe_point st ~final:false;
         run_seeds st
           (List.init (Stdlib.min (remaining st) width) ignore)
           ~seed_of:(fun () -> new_seed st.ctx st.live.rng)
           (fun () seed worker run -> ignore (observe st st.live ~worker seed run))
       done
     end;
     while budget_left st && Array.length st.queue > 0 && st.zero_rounds < 64 do
       (* inline, the safe point and the prediction phase precede each
          seed; on the pool they follow each merge, when attempt counts
          are current and before the next quota split *)
       if Option.is_none st.pool then begin
         safe_point st ~final:false;
         predict_phase st
       end;
       round st;
       if Option.is_some st.pool then begin
         if budget_left st then predict_phase st;
         safe_point st ~final:false
       end
     done
   with Preempt -> preempted := true);
  if !preempted then
    (* the preempting hook already captured its snapshot; the final
       flush keeps metrics sinks exact without re-running the hook *)
    Array.iter Executor.flush st.xctxs
  else safe_point st ~final:true;
  let stop_reason =
    if !preempted then Report.Preempted
    else if st.live.execs >= st.config.max_executions then Report.Budget_exhausted
    else if time_exhausted st then Report.Time_exhausted
    else if st.zero_rounds >= 64 then Report.Stalled
    else Report.Queue_exhausted
  in
  report st ~stop_reason

(* Dispatch is decided by the pool alone: none (or a one-worker pool)
   runs inline; a larger pool, given or spawned for this campaign,
   shards each round across its workers. *)
let campaign ~config ~sinks ?metrics ?resume ?on_safe_point ~pool ~jobs contract =
  let start_time = Unix.gettimeofday () in
  let metrics =
    match metrics with Some m -> m | None -> Telemetry.Metrics.create ()
  in
  let ctx = make_ctx config contract in
  let bus = make_bus config ~total_sides:(total_sides_of_cfg ctx.x_cfg) sinks in
  let go pool =
    let st =
      init ~config ~ctx ~bus ~metrics ~start_time ?pool ?resume ?on_safe_point ()
    in
    Option.iter (emit_resumed ~bus ~metrics) resume;
    fuzz st ~resumed:(Option.is_some resume)
  in
  let report =
    match pool with
    | Some p when Pool.size p > 1 -> go (Some p)
    | Some _ -> go None
    | None when jobs > 1 ->
      (* a pool created here (rather than passed in) also reports its
         steal events through the campaign's bus *)
      Pool.with_pool ~bus ~metrics ~jobs (fun p -> go (Some p))
    | None -> go None
  in
  Telemetry.Bus.finalize bus;
  report

let run ?(config = Config.default) ?(sinks = []) ?metrics ?resume ?on_safe_point
    contract =
  campaign ~config ~sinks ?metrics ?resume ?on_safe_point ~pool:None ~jobs:1
    contract

let run_parallel ?(config = Config.default) ?pool ?(sinks = []) ?metrics ?resume
    ?on_safe_point contract =
  campaign ~config ~sinks ?metrics ?resume ?on_safe_point ~pool ~jobs:config.jobs
    contract

type failure = { failed_contract : string; failed_reason : string }

let run_result ?config ?sinks ?metrics ?resume ?on_safe_point contract =
  match run ?config ?sinks ?metrics ?resume ?on_safe_point contract with
  | report -> Ok report
  | exception Preempt ->
    (* a cooperative yield is control flow, not a broken contract *)
    raise Preempt
  | exception e ->
    let failed_reason =
      match e with
      | Pool.Task_error inner ->
        Printf.sprintf "worker task failed: %s" (Printexc.to_string inner)
      | e -> Printexc.to_string e
    in
    Error
      { failed_contract = contract.Minisol.Contract.name; failed_reason }

let run_many ?(config = Config.default) ?pool contracts =
  match pool with
  | Some p when Pool.size p > 1 ->
    Pool.map p (fun c -> run_result ~config c) contracts
  | _ -> List.map (fun c -> run_result ~config c) contracts
