(* The three benchmark workloads. Each has a set-up phase (timed as
   [setup_s]) and a unit of work that a run repeats while its time
   lasts. Every repeat of a unit is the same work, so its deterministic
   outputs must be byte-identical across repeats.

   - audit-small: one auditor session, three short-execution example
     contracts fuzzed back to back at jobs=1. Campaign-loop work (mask,
     coverage, mutation, oracles, prefix cache, predict) dominates.
   - audit-large-j2: one generated Large contract fuzzed at jobs=2. The
     EVM carries most of the cost, and the pool and the coordinator
     merge are exercised.
   - fleet-vuln: the labelled vulnerability suite written as corpus
     shards and run in-process by the fleet worker: many short
     campaigns, heavy on per-contract set-up and checkpoint writes. *)

module Summary = Fleet.Summary

type audit = {
  jobs : int;
  plan : (string * Minisol.Contract.t * Mufuzz.Config.t) list;
      (** campaigns in execution order; a contract may have several *)
}

type fleet = {
  entries : Fleet.Shard.entry list;
  corpus : string;  (** shard directory written at set-up *)
  shard_counts : int array;  (** entries in each shard of [corpus] *)
  run_shards : int list;  (** the shards this value runs, in order *)
  config : Fleet.Config.t;
  scratch : string;  (** per-run directory for fresh fleet state dirs *)
}

type kind = Audit of audit | Fleet of fleet

type params = {
  seed : int;  (** the benchmark seed: campaign and fleet seeds derive from it *)
  gen_seed : int64;  (** generator seed of the audit-large-j2 contract *)
  scale : float;  (** budget and population multiplier; 1.0 for measured runs *)
  scratch : string;  (** directory the run may write to; removed at exit *)
}

(* Set-up timings of one repetition, in seconds. *)
type setup_times = {
  compile : float;
  derive : float;
  make_ctx : float;
  shard_write : float;
}

(* The set-up that precedes the timed phase: compile, derive and deploy
   on the audit workloads, shard writing on the fleet (which compiles
   inside its timed phase). *)
let setup_total t = t.compile +. t.derive +. t.make_ctx +. t.shard_write

let names = [ "audit-small"; "audit-large-j2"; "fleet-vuln" ]

(* Execution budgets at scale 1. audit-small keeps the 20k executions
   per contract of an auditor session. audit-large-j2 runs two
   campaigns per unit so that coverage is averaged over two seeds and a
   finding counts only when both raise it; 2500 executions each keep a
   unit near 12 s at jobs=2. fleet-vuln lowers the fleet's small-contract
   budget to 600 so the 191-contract suite fits one run, while the
   fleet's default 500-execution checkpoint cadence still fires inside
   every campaign. *)
let small_budget = 20_000

let large_budget = 2_500

let large_campaigns = 2

let fleet_budget = 600

let fleet_shards = 4

let setup_reps = 15

let scaled p n = max 100 (int_of_float (float_of_int n *. p.scale))

(* Campaign seeds: a pure function of the benchmark seed and a salt. *)
let campaign_seed p salt =
  let rng = Util.Rng.derive (Int64.of_int p.seed) (Hashtbl.hash salt) in
  Util.Rng.next_int64 rng

(* The paper's full configuration plus input prediction: the auditor's
   session. *)
let auditor_config p ~salt ~budget ~jobs =
  {
    Mufuzz.Config.default with
    rng_seed = campaign_seed p salt;
    max_executions = budget;
    jobs;
    predict = true;
  }

let gas = Mufuzz.Config.default.gas_per_tx

let n_senders = Mufuzz.Config.default.n_senders

let attacker = Mufuzz.Config.default.attacker_enabled

let timed f =
  let t0 = Spans.now () in
  let r = f () in
  (r, Spans.now () -. t0)

(* One set-up repetition for the audit workloads: compile every
   contract, derive its §IV-A sequence and build an executor context
   (which deploys it). *)
let audit_setup_once sources =
  let contracts, compile =
    timed (fun () ->
        List.map (fun (n, src) -> (n, Minisol.Contract.compile src)) sources)
  in
  let (), derive =
    timed (fun () ->
        List.iter
          (fun (_, c) -> ignore (Mufuzz.Campaign.derive_sequence c))
          contracts)
  in
  let (), make_ctx =
    timed (fun () ->
        List.iter
          (fun (_, c) ->
            ignore
              (Mufuzz.Executor.make_ctx ~contract:c ~gas ~n_senders ~attacker ()))
          contracts)
  in
  (contracts, { compile; derive; make_ctx; shard_write = 0. })

let small_sources () =
  [
    ("crowdsale", Corpus.Examples.crowdsale);
    ("shared_wallet", Corpus.Examples.wallet);
    ("strict_guard", Corpus.Examples.strict_guard);
  ]

let large_sources p =
  List.map
    (fun (s : Corpus.Generator.spec) -> (s.name, s.source))
    (Corpus.Generator.population ~seed:p.gen_seed ~n:1 Corpus.Generator.Large
       ~bug_rate:0.1)

let vuln_entries p =
  let suite = Corpus.Vuln.suite in
  let n =
    if p.scale >= 1.0 then List.length suite
    else max 4 (int_of_float (float_of_int (List.length suite) *. p.scale))
  in
  List.filteri (fun i _ -> i < n)
    (List.map
       (fun (l : Corpus.Vuln.labelled) ->
         { Fleet.Shard.name = l.name; source = l.source })
       suite)

let fleet_config p =
  {
    Fleet.Config.default with
    tools = [ Baselines.Fuzzers.mufuzz.name ];
    budget_small = scaled p fleet_budget;
    budget_large = scaled p Fleet.Config.default.budget_large;
    seed = Int64.of_int p.seed;
  }

(* Set-up, repeated [setup_reps] times; returns the workload and the
   timings of each repetition. *)
let setup p name =
  let reps = if p.scale >= 1.0 then setup_reps else 3 in
  let audit sources ~jobs ~campaigns_of =
    let runs = List.init reps (fun _ -> audit_setup_once sources) in
    let contracts = fst (List.hd (List.rev runs)) in
    (Audit { jobs; plan = campaigns_of contracts }, List.map snd runs)
  in
  match name with
  | "audit-small" ->
    let budget = scaled p small_budget in
    audit (small_sources ()) ~jobs:1 ~campaigns_of:(fun contracts ->
        List.map
          (fun (n, c) ->
            (n, c, auditor_config p ~salt:n ~budget ~jobs:1))
          contracts)
  | "audit-large-j2" ->
    let budget = scaled p large_budget in
    audit (large_sources p) ~jobs:2 ~campaigns_of:(fun contracts ->
        List.concat_map
          (fun (n, c) ->
            List.init large_campaigns (fun i ->
                ( n,
                  c,
                  auditor_config p ~salt:(Printf.sprintf "%s/%d" n i) ~budget
                    ~jobs:2 )))
          contracts)
  | "fleet-vuln" ->
    let entries = vuln_entries p in
    let dirs =
      List.init reps (fun i ->
          let dir = Filename.concat p.scratch (Printf.sprintf "corpus-%d" i) in
          let (), t =
            timed (fun () ->
                ignore (Fleet.Shard.write_list ~dir ~shards:fleet_shards entries);
                match Fleet.Shard.load_manifest dir with
                | Ok _ -> ()
                | Error e -> failwith ("fleet corpus manifest: " ^ e))
          in
          (dir, t))
    in
    let corpus, _ = List.hd (List.rev dirs) in
    let shard_counts =
      match Fleet.Shard.load_manifest corpus with
      | Ok m ->
        Array.of_list (List.map (fun (i : Fleet.Shard.shard_info) -> i.si_count) m.m_shards)
      | Error e -> failwith ("fleet corpus manifest: " ^ e)
    in
    List.iter
      (fun (d, _) -> if d <> corpus then Util.Fileio.remove_tree d)
      dirs;
    ( Fleet
        {
          entries;
          corpus;
          shard_counts;
          run_shards = List.init fleet_shards Fun.id;
          config = fleet_config p;
          scratch = p.scratch;
        },
      List.map
        (fun (_, t) -> { compile = 0.; derive = 0.; make_ctx = 0.; shard_write = t })
        dirs )
  | other -> invalid_arg ("unknown workload " ^ other)

(* ---------------- one unit of work ---------------- *)

type campaign = {
  name : string;
  contract : Minisol.Contract.t;
  config : Mufuzz.Config.t;
  report : Mufuzz.Report.t;
  wall : float;
  final : Mufuzz.Campaign.snapshot option;
      (** forced at the final safe point (traced units only) *)
}

type unit_result = {
  wall : float;
  execs : int;
  contracts : int;  (** contracts completed *)
  attempted : int;  (** campaigns attempted *)
  errors : (string * string) list;  (** campaigns that raised *)
  summary : Summary.t;
  campaigns : campaign list;  (** audit workloads only *)
  fingerprints : string list;
      (** deterministic per-campaign outputs, compared across repeats *)
}

(* What a traced unit hands to the campaign: a bench-owned event sink,
   the run's metrics registry, and safe-point spans. *)
type tracer = {
  sink : Telemetry.Sink.t;
  metrics : Telemetry.Metrics.t;
}

(* Coverage-curve resolution for the audit workloads: their campaigns
   saturate within the first tenth of the budget, so the fleet's ten
   buckets would make the area equal the final coverage. *)
let audit_buckets = 100

let fold_report s (c : campaign) =
  Summary.contract_done
    (Summary.fold s ~tool:Baselines.Fuzzers.mufuzz.name
       ~size:(Fleet.Config.size_of_contract c.contract)
       ~budget:c.config.max_executions
       (Summary.obs_of_report c.report))

let summary_of ?(buckets = audit_buckets) campaigns =
  List.fold_left fold_report (Summary.empty ~buckets) campaigns

(* The report minus its wall-clock fields. *)
let fingerprint (r : Mufuzz.Report.t) =
  let module J = Telemetry.Json in
  match Mufuzz.Report.to_json r with
  | J.Obj fields ->
    J.to_string
      (J.Obj
         (List.filter
            (fun (k, _) ->
              not (List.mem k [ "wall_seconds"; "execs_per_sec"; "steps_per_sec"; "parallel" ]))
            fields))
  | j -> J.to_string j

(* Safe-point hook that records one span per round (safe point to safe
   point) and keeps the snapshot forced at the final safe point. *)
let round_hook ?(rounds = true) final =
  let last = ref (Spans.now ()) in
  fun ~final:is_final ~bus:_ ~execs:_ thunk ->
    let t = Spans.now () in
    if rounds then Spans.record "round" ~start:!last ~stop:t;
    last := t;
    if is_final then final := Some (thunk ())

let run_audit ?tracer (a : audit) =
  let t0 = Spans.now () in
  let outcomes =
    List.map
      (fun (name, contract, config) ->
        Spans.with_span ("campaign:" ^ name) (fun () ->
            let final = ref None in
            let c0 = Spans.now () in
            match
              match tracer with
              | None -> Mufuzz.Campaign.run_parallel ~config contract
              | Some tr ->
                Mufuzz.Campaign.run_parallel ~config ~sinks:[ tr.sink ]
                  ~metrics:tr.metrics ~on_safe_point:(round_hook final)
                  contract
            with
            | report ->
              Ok
                {
                  name;
                  contract;
                  config;
                  report;
                  wall = Spans.now () -. c0;
                  final = !final;
                }
            | exception e -> Error (name, Printexc.to_string e)))
      a.plan
  in
  let wall = Spans.now () -. t0 in
  let campaigns = List.filter_map Result.to_option outcomes in
  let errors =
    List.filter_map (function Error e -> Some e | Ok _ -> None) outcomes
  in
  {
    wall;
    execs =
      List.fold_left (fun n c -> n + c.report.Mufuzz.Report.executions) 0 campaigns;
    contracts = List.length campaigns;
    attempted = List.length a.plan;
    errors;
    summary = summary_of campaigns;
    campaigns;
    fingerprints = List.map (fun c -> fingerprint c.report) campaigns;
  }

let state_counter = ref 0

(* Each fleet unit gets a fresh state directory, removed afterwards:
   a reused one would let the worker's resume path skip every finished
   contract and measure nothing. *)
let run_fleet ?tracer (f : fleet) =
  incr state_counter;
  let state = Filename.concat f.scratch (Printf.sprintf "state-%d" !state_counter) in
  let metrics = Option.map (fun tr -> tr.metrics) tracer in
  let last = ref (Spans.now ()) in
  let heartbeat () =
    let t = Spans.now () in
    Spans.record "round" ~start:!last ~stop:t;
    last := t
  in
  let t0 = Spans.now () in
  let results =
    List.map (fun k ->
        Spans.with_span (Printf.sprintf "shard:%d" k) (fun () ->
            last := Spans.now ();
            match
              Fleet.Worker.run_shard ?metrics ~heartbeat ~state ~corpus:f.corpus
                ~shard:k ~config:f.config ()
            with
            | r -> r
            | exception e -> Error (Printexc.to_string e)))
      f.run_shards
  in
  let wall = Spans.now () -. t0 in
  Util.Fileio.remove_tree state;
  let summary =
    List.fold_left
      (fun acc r -> match r with Ok s -> Summary.merge acc s | Error _ -> acc)
      (Summary.empty ~buckets:f.config.buckets)
      results
  in
  let errors =
    List.filter_map
      (function Error e -> Some ("shard", e) | Ok _ -> None)
      results
  in
  {
    wall;
    execs = summary.s_execs;
    contracts = summary.s_contracts;
    attempted = List.fold_left (fun n k -> n + f.shard_counts.(k)) 0 f.run_shards;
    errors;
    summary;
    campaigns = [];
    fingerprints = [ Summary.to_string summary ];
  }

(* The pieces a unit is made of, in order: one campaign of an audit
   workload, one shard of the fleet. A measured run cycles through them,
   so that its timed phase is filled with whole pieces rather than whole
   units. *)
let pieces = function
  | Audit a -> List.map (fun p -> Audit { a with plan = [ p ] }) a.plan
  | Fleet f -> List.map (fun k -> Fleet { f with run_shards = [ k ] }) f.run_shards

let run_piece ?tracer = function
  | Audit a -> run_audit ?tracer a
  | Fleet f -> run_fleet ?tracer f

(* One unit from one run of each of its pieces, in order. *)
let combine kind (parts : unit_result list) =
  let campaigns = List.concat_map (fun (u : unit_result) -> u.campaigns) parts in
  let sum f = List.fold_left (fun n u -> n + f u) 0 parts in
  {
    wall = List.fold_left (fun a (u : unit_result) -> a +. u.wall) 0. parts;
    execs = sum (fun u -> u.execs);
    contracts = sum (fun u -> u.contracts);
    attempted = sum (fun u -> u.attempted);
    errors = List.concat_map (fun (u : unit_result) -> u.errors) parts;
    summary =
      (match kind with
      | Audit _ -> summary_of campaigns
      | Fleet f ->
        List.fold_left
          (fun acc (u : unit_result) -> Summary.merge acc u.summary)
          (Summary.empty ~buckets:f.config.buckets)
          parts);
    campaigns;
    fingerprints = List.concat_map (fun (u : unit_result) -> u.fingerprints) parts;
  }

let run_unit ?tracer kind = combine kind (List.map (run_piece ?tracer) (pieces kind))

(* ---------------- deterministic quality metrics ---------------- *)

let cells (s : Summary.t) = List.map snd s.s_cells

let campaign_count s = List.fold_left (fun n c -> n + c.Summary.c_n) 0 (cells s)

(* Mean final branch-side coverage, in percent. *)
let coverage_pct s =
  let n = campaign_count s in
  if n = 0 then 0.
  else
    float_of_int (List.fold_left (fun a c -> a + c.Summary.c_final_upct) 0 (cells s))
    /. float_of_int n /. 1e6

(* Mean of each campaign's coverage curve over the fixed execution grid
   [(b+1) * budget / buckets] (the Fig. 5 area), in percent. *)
let coverage_auc_pct s =
  let n = campaign_count s in
  if n = 0 then 0.
  else
    let area =
      List.fold_left
        (fun a c -> Array.fold_left ( + ) a c.Summary.c_curve)
        0 (cells s)
    in
    float_of_int area /. float_of_int (n * s.s_buckets) /. 1e6

(* Distinct (contract, bug class) pairs that every campaign on the
   contract raises. With one campaign per contract (audit-small,
   fleet-vuln) these are simply the pairs found; on audit-large-j2 a
   class one of the two seeds happens upon does not count, which keeps
   the figure a property of the fuzzer rather than of the seed. *)
let findings (u : unit_result) =
  match u.campaigns with
  | [] ->
    List.fold_left
      (fun a c ->
        List.fold_left (fun a (_, (contracts, _)) -> a + contracts) a c.Summary.c_classes)
      0 (cells u.summary)
  | campaigns ->
    let classes (c : campaign) =
      List.sort_uniq compare
        (List.map
           (fun (f : Oracles.Oracle.finding) -> f.cls)
           c.report.Mufuzz.Report.findings)
    in
    let names = List.sort_uniq compare (List.map (fun c -> c.name) campaigns) in
    List.fold_left
      (fun a name ->
        match List.filter (fun c -> c.name = name) campaigns with
        | [] -> a
        | first :: rest ->
          let common =
            List.fold_left
              (fun acc c -> List.filter (fun k -> List.mem k (classes c)) acc)
              (classes first) rest
          in
          a + List.length common)
      0 names

(* ---------------- output checks ---------------- *)

(* Checks on one unit's outputs; returns the number of campaigns that
   failed one, with a reason for each. *)
let check_campaign (c : campaign) =
  let r = c.report and cfg = c.config in
  let witness_ok () =
    List.for_all
      (fun ((f : Oracles.Oracle.finding), seed) ->
        List.exists
          (fun (g : Oracles.Oracle.finding) -> g.cls = f.cls)
          (Mufuzz.Executor.findings ~contract:c.contract ~gas:cfg.gas_per_tx
             ~n_senders:cfg.n_senders ~attacker:cfg.attacker_enabled seed))
      r.witness_seeds
  in
  let corpus_within_report () =
    let cov = Mufuzz.Coverage.create () in
    let ctx =
      Mufuzz.Executor.make_ctx ~contract:c.contract ~gas:cfg.gas_per_tx
        ~n_senders:cfg.n_senders ~attacker:cfg.attacker_enabled ()
    in
    List.iter
      (fun (run : Mufuzz.Executor.run) ->
        List.iter
          (fun (t : Mufuzz.Executor.tx_result) -> ignore (Mufuzz.Coverage.record cov t.trace))
          run.tx_results)
      (Mufuzz.Executor.run_batch ctx r.corpus);
    List.for_all (fun b -> List.mem b r.covered) (Mufuzz.Coverage.covered cov)
  in
  match
    if not (witness_ok ()) then Some "a witness seed no longer raises its class"
    else if not (corpus_within_report ()) then
      Some "the replayed corpus covers a side the report lacks"
    else if r.executions <> cfg.max_executions then
      Some (Printf.sprintf "ran %d of %d executions" r.executions cfg.max_executions)
    else None
  with
  | verdict -> verdict
  | exception e -> Some ("check raised " ^ Printexc.to_string e)

(* Output checks on one unit; one (campaign, reason) pair per campaign
   that fails. *)
let check_audit (u : unit_result) =
  List.filter_map
    (fun (c : campaign) -> Option.map (fun why -> (c.name, why)) (check_campaign c))
    u.campaigns

let expected_fleet_execs (f : fleet) =
  List.fold_left
    (fun a (e : Fleet.Shard.entry) ->
      let c = Minisol.Contract.compile e.source in
      a + Fleet.Config.budget_for f.config ~size:(Fleet.Config.size_of_contract c))
    0 f.entries

let check_fleet (f : fleet) (u : unit_result) =
  let s = u.summary in
  let n = List.length f.entries in
  let expected = expected_fleet_execs f in
  if s.s_failed <> [] then
    List.map (fun (name, reason) -> (name, "fleet failure: " ^ reason)) s.s_failed
  else if s.s_contracts <> n then
    [ ("fleet", Printf.sprintf "summary holds %d of %d contracts" s.s_contracts n) ]
  else if s.s_execs <> expected then
    [ ("fleet", Printf.sprintf "summary holds %d of %d executions" s.s_execs expected) ]
  else []

let check kind u =
  match kind with Audit _ -> check_audit u | Fleet f -> check_fleet f u
