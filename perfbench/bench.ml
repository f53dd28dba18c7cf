(* One benchmark run: set up a workload, measure it, check its outputs
   and produce the result the runner prints. [trace = false] gives the
   end-to-end metrics; [trace = true] the per-layer breakdown. *)

open Workloads

type options = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  gen_seed : int64;
  scale : float;
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  lines : string list;  (** human-readable report, printed before the JSON *)
}

(* Units of every metric a run may emit; BENCHMARK.json names the same
   metrics with the same units (the smoke test holds them together). *)
let end_to_end =
  [
    ("norm_execs_per_s", "1/s");
    ("norm_contracts_per_hour", "1/h");
    ("coverage_pct", "%");
    ("coverage_auc_pct", "%");
    ("findings", "count");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("host.cores", "count");
    ("host.calib_mops", "Mop/s");
    ("host.ref_mops", "Mop/s");
    ("minisol.compile_ms", "ms");
    ("analysis.derive_sequence_ms", "ms");
    ("executor.make_ctx_ms", "ms");
    ("fleet.shard_write_ms", "ms");
    ("executor.us_per_exec", "us");
    ("executor.us_per_exec_cached", "us");
    ("evm.steps_per_exec", "count");
    ("evm.steps_per_s", "1/s");
    ("evm.us_per_tx", "us");
    ("state_cache.hit_ratio", "ratio");
    ("state_cache.evictions", "count");
    ("campaign.us_per_exec", "us");
    ("campaign.outside_evm_frac", "ratio");
    ("campaign.round_ms_p50", "ms");
    ("campaign.round_ms_p99", "ms");
    ("campaign.rounds", "count");
    ("campaign.minor_words_per_exec", "words");
    ("campaign.promoted_words_per_exec", "words");
    ("mutation.us_per_op", "us");
    ("mask.us_per_plan", "us");
    ("mask.probe_frac", "ratio");
    ("mask.probes_per_mask", "count");
    ("coverage.us_per_record", "us");
    ("coverage.frontier_sides", "count");
    ("oracle.us_per_inspect", "us");
    ("predict.proposal_frac", "ratio");
    ("predict.flipped", "count");
    ("pool.busy_frac", "ratio");
    ("pool.worker_idle_s", "s");
    ("pool.coord_merge_s", "s");
    ("pool.coord_parked_s", "s");
    ("pool.rounds", "count");
    ("pool.steals", "count");
    ("pool.scaling_eff", "ratio");
    ("checkpoint.encode_ms", "ms");
    ("checkpoint.decode_ms", "ms");
    ("checkpoint.kbytes", "KiB");
    ("checkpoint.written", "count");
    ("fleet.overhead_frac", "ratio");
    ("crypto.keccak_ns", "ns");
    ("word.u256_mul_ns", "ns");
    ("word.u256_divmod_ns", "ns");
    ("evm.one_tx_ns", "ns");
    ("mutation.one_op_ns", "ns");
    ("trace.overhead_frac", "ratio");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer

let median = Util.Stats.median

(* Nearest-rank percentile of a sample. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let ratio a b = if b = 0. then 0. else a /. b

let rate (u : unit_result) = ratio (float_of_int u.execs) u.wall

(* Failures of a repeat: campaigns that raised, plus campaigns whose
   deterministic outputs differ from the first repeat's. *)
let repeat_failures ~(first : unit_result) (u : unit_result) =
  let mismatches =
    if List.length u.fingerprints <> List.length first.fingerprints then u.attempted
    else
      List.length
        (List.filter Fun.id (List.map2 ( <> ) u.fingerprints first.fingerprints))
  in
  let mismatches =
    match u.campaigns with [] when mismatches > 0 -> u.attempted | _ -> mismatches
  in
  List.length u.errors + mismatches

let describe_failures (u : unit_result) checks =
  List.map (fun (n, e) -> Printf.sprintf "FAILED %s: raised %s" n e) u.errors
  @ List.map (fun (n, e) -> Printf.sprintf "FAILED %s: %s" n e) checks

let scratch_root = ".perfbench"

let make_scratch () =
  (try Unix.mkdir scratch_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Util.Fileio.temp_dir ~in_dir:scratch_root ~prefix:"run" ()

let counter reg name = float_of_int (Telemetry.Metrics.value (Telemetry.Metrics.counter reg name))

(* ---------------- end-to-end run ---------------- *)

let jobs = function Audit a -> a.jobs | Fleet _ -> 1

(* Cycles through the unit's pieces while [o.seconds] lasts, always
   completing the first cycle, whose outputs are checked; a piece starts
   only if its mean wall so far still fits. Each piece starts from a
   collected heap, so it does not pay for the garbage of the one before
   it; [peak_rss_mb] is read after the first cycle, so it does not
   depend on how many pieces fit. After each piece, on a collected heap
   again so that the program's garbage does not slow it, the host
   reference runs for about 2% of the piece's wall, on as many domains
   as the workload has jobs: its passes sample the host as the pieces
   did. Returns the runs of each piece, oldest first, and the reference
   passes. *)
let measure_pieces o kind =
  let pieces = Array.of_list (pieces kind) in
  let n = Array.length pieces in
  let runs = Array.make n [] in
  let refs = ref [] in
  let t0 = Spans.now () in
  let run i =
    Gc.compact ();
    let u = run_piece pieces.(i) in
    runs.(i) <- u :: runs.(i);
    Gc.compact ();
    let r0 = Spans.now () in
    let rec sample () =
      refs := Host.reference_pass ~domains:(jobs kind) () :: !refs;
      if Spans.now () -. r0 < 0.02 *. u.wall then sample ()
    in
    sample ()
  in
  for i = 0 to n - 1 do
    run i
  done;
  let peak_rss = Host.peak_rss_mib () in
  let mean_wall i = Util.Stats.mean (List.map (fun (u : unit_result) -> u.wall) runs.(i)) in
  let rec go i =
    if Spans.now () -. t0 +. mean_wall i <= o.seconds then begin
      run i;
      go ((i + 1) mod n)
    end
  in
  go 0;
  (Array.to_list (Array.map List.rev runs), List.rev !refs, peak_rss)

(* Throughput is the unit's work over its estimated wall: the sum, over
   its pieces, of each piece's mean wall across the run. Every second of
   the timed phase counts, and a piece's share does not depend on how
   often it ran. The reported rates are normalised to the host
   reference: multiplied by [Host.ref_nominal_mops] over the reference's
   mean rate in the same run. A shared host's speed swings between
   minutes move the fuzzer and the reference together, so the ratio
   holds still where the raw rate does not; the raw rates are printed
   alongside. [setup_s] is normalised the same way, by the reference
   passes run on either side of set-up ([setup_ref]). *)
let end_to_end_run o kind setup_times ~setup_ref =
  let setup_totals = List.map setup_total setup_times in
  let runs, refs, peak_rss = measure_pieces o kind in
  let ref_mops = Util.Stats.mean refs in
  let norm = Host.ref_nominal_mops /. ref_mops in
  let first = combine kind (List.map List.hd runs) in
  let unit_wall =
    List.fold_left
      (fun a piece_runs ->
        a +. Util.Stats.mean (List.map (fun (u : unit_result) -> u.wall) piece_runs))
      0. runs
  in
  let checks = check kind first in
  let failed =
    List.fold_left
      (fun n piece_runs ->
        let first = List.hd piece_runs in
        List.fold_left (fun n u -> n + repeat_failures ~first u) n piece_runs)
      0 runs
    + List.length checks
  in
  let all = List.concat runs in
  let attempted = List.fold_left (fun n (u : unit_result) -> n + u.attempted) 0 all in
  let metrics =
    [
      ("norm_execs_per_s", ratio (float_of_int first.execs) unit_wall *. norm);
      ("norm_contracts_per_hour", ratio (float_of_int first.contracts) unit_wall *. 3600. *. norm);
      ("coverage_pct", coverage_pct first.summary);
      ("coverage_auc_pct", coverage_auc_pct first.summary);
      ("findings", float_of_int (findings first));
      ("setup_s", median setup_totals *. setup_ref /. Host.ref_nominal_mops);
      ("peak_rss_mb", peak_rss);
    ]
  in
  let lines =
    Printf.sprintf "%d runs of %d pieces (%d campaigns, %d executions a unit); unit wall %.3f s"
      (List.length all) (List.length runs) first.attempted first.execs unit_wall
    :: List.mapi
         (fun i piece_runs ->
           Printf.sprintf "piece %d walls %s s" i
             (String.concat " "
                (List.map (fun (u : unit_result) -> Printf.sprintf "%.3f" u.wall) piece_runs)))
         runs
    @ Printf.sprintf
        "raw execs_per_s %.1f 1/s, contracts_per_hour %.1f 1/h; reference %.2f Mop/s (%d passes), \
         normalised by %.4f"
        (ratio (float_of_int first.execs) unit_wall)
        (ratio (float_of_int first.contracts) unit_wall *. 3600.)
        ref_mops (List.length refs) norm
      :: Printf.sprintf "set-up reference %.2f Mop/s; raw set-up median %.4f ms" setup_ref
           (median setup_totals *. 1e3)
      :: Printf.sprintf "set-up repetitions %s ms"
        (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" (s *. 1e3)) setup_totals))
      :: Printf.sprintf "failed_frac %.4f ratio (%d of %d campaigns)"
           (ratio (float_of_int failed) (float_of_int attempted))
           failed attempted
      :: describe_failures first checks
  in
  (failed, attempted, metrics, lines)

(* ---------------- traced run ---------------- *)

(* The fleet's campaigns run bare: same profile, seeds and budgets as
   the worker, through [Baselines.Fuzzers.run] with no checkpointing.
   The fleet worker takes no event sinks, so the bench sink listens
   here instead. *)
let bare_campaigns ~sink (f : fleet) =
  List.map
    (fun (e : Fleet.Shard.entry) ->
      let contract = Minisol.Contract.compile e.source in
      let size = Fleet.Config.size_of_contract contract in
      let profile = Baselines.Fuzzers.mufuzz in
      let config =
        profile.configure
          {
            Mufuzz.Config.default with
            rng_seed = Fleet.Config.seed_for f.config e.name;
            max_executions = Fleet.Config.budget_for f.config ~size;
          }
      in
      let final = ref None in
      let report, wall =
        timed (fun () ->
            Baselines.Fuzzers.run profile ~config ~sinks:[ sink ]
              ~on_safe_point:(round_hook ~rounds:false final)
              contract)
      in
      { name = e.name; contract; config; report; wall; final = !final })
    f.entries

let pool_metrics kind (u : unit_result) =
  let stats =
    List.filter_map (fun (c : campaign) -> c.report.Mufuzz.Report.parallel) u.campaigns
  in
  let sumf f = List.fold_left (fun a p -> a +. f p) 0. stats in
  let sumi f = float_of_int (List.fold_left (fun a p -> a + f p) 0 stats) in
  let busy =
    sumf (fun (p : Mufuzz.Report.parallel_stats) ->
        List.fold_left (fun a (d : Mufuzz.Report.domain_stat) -> a +. d.busy_seconds) 0. p.domains)
  in
  let scaling =
    match (kind, u.campaigns) with
    | Audit a, first :: _ when a.jobs > 1 ->
      let config = { first.config with jobs = 1 } in
      let r1, w1 =
        timed (fun () -> Mufuzz.Campaign.run_parallel ~config first.contract)
      in
      let rate1 = ratio (float_of_int r1.executions) w1 in
      let rate_n = ratio (float_of_int first.report.executions) first.wall in
      ratio rate_n (float_of_int a.jobs *. rate1)
    | _ -> 0.
  in
  [
    ("pool.busy_frac", ratio busy (float_of_int (jobs kind) *. u.wall));
    ("pool.worker_idle_s", sumf (fun p -> p.worker_idle_seconds));
    ("pool.coord_merge_s", sumf (fun p -> p.merge_seconds));
    ("pool.coord_parked_s", sumf (fun p -> p.merge_wait_seconds));
    ("pool.rounds", sumi (fun p -> p.rounds));
    ("pool.steals", sumi (fun p -> p.steals));
    ("pool.scaling_eff", scaling);
  ]

let traced_run o kind (setup_times : setup_times list) ~micro =
  Gc.compact ();
  let untraced = run_unit kind in
  let registry = Telemetry.Metrics.create () in
  let masks = ref 0 and mask_probes = ref 0 in
  let sink =
    {
      Telemetry.Sink.on_event =
        (function
        | Telemetry.Event.Mask_updated { probes; _ } ->
          incr masks;
          mask_probes := !mask_probes + probes
        | _ -> ());
      on_finalize = ignore;
    }
  in
  Gc.compact ();
  Spans.enabled := true;
  let gc0 = Gc.quick_stat () in
  let traced =
    Spans.with_span ("workload:" ^ o.workload) (fun () ->
        run_unit ~tracer:{ sink; metrics = registry } kind)
  in
  let gc1 = Gc.quick_stat () in
  let rounds = Spans.durations "round" in
  let min_time = if o.scale >= 1.0 then 0.2 else 0.005 in
  let bare =
    match kind with
    | Fleet f -> Some (Spans.with_span "bare_campaigns" (fun () -> bare_campaigns ~sink f))
    | Audit _ -> None
  in
  (* the fleet compiles inside its timed phase, so its compile, derive
     and deploy costs are measured here rather than at set-up *)
  let compile_times =
    match kind with
    | Fleet f ->
      let sources = List.map (fun (e : Fleet.Shard.entry) -> (e.name, e.source)) f.entries in
      List.init 3 (fun _ -> snd (audit_setup_once sources))
    | Audit _ -> setup_times
  in
  let replayed = match bare with Some b -> b | None -> traced.campaigns in
  let rp = Spans.with_span "replay" (fun () -> Layers.replay ~min_time replayed) in
  let pool = Spans.with_span "pool_baseline" (fun () -> pool_metrics kind untraced) in
  Spans.enabled := false;
  (* checks: the traced repeat against the untraced one, the usual
     output checks, checkpoint decoding, and for the fleet the bare
     campaigns' summary against the worker's *)
  let checks = check kind traced in
  let bare_mismatch =
    match (kind, bare) with
    | Fleet f, Some b
      when Fleet.Summary.to_string (summary_of ~buckets:f.config.buckets b)
           <> Fleet.Summary.to_string traced.summary ->
      [ ("fleet", "bare campaigns summarise differently from the fleet worker") ]
    | _ -> []
  in
  let decode =
    if rp.decode_failures > 0 then
      [ ("checkpoint", Printf.sprintf "%d snapshots failed to decode" rp.decode_failures) ]
    else []
  in
  let failed =
    repeat_failures ~first:untraced untraced
    + repeat_failures ~first:untraced traced
    + List.length checks + List.length bare_mismatch + List.length decode
  in
  let attempted = untraced.attempted + traced.attempted in
  let execs = float_of_int untraced.execs in
  let reg_execs = counter registry "mufuzz_executions_total" in
  let hits = counter registry "mufuzz_cache_hits_total" in
  let misses = counter registry "mufuzz_cache_misses_total" in
  let setup_ms times f = median (List.map f times) *. 1e3 in
  let campaign_us = ratio untraced.wall execs *. 1e6 in
  let metrics =
    [
      ("minisol.compile_ms", setup_ms compile_times (fun t -> t.compile));
      ("analysis.derive_sequence_ms", setup_ms compile_times (fun t -> t.derive));
      ("executor.make_ctx_ms", setup_ms compile_times (fun t -> t.make_ctx));
      ("fleet.shard_write_ms", setup_ms setup_times (fun t -> t.shard_write));
      ("executor.us_per_exec", rp.us_per_exec);
      ("executor.us_per_exec_cached", rp.us_per_exec_cached);
      ("evm.steps_per_exec", rp.steps_per_exec);
      ("evm.steps_per_s", rp.steps_per_s);
      ("evm.us_per_tx", rp.us_per_tx);
      ("state_cache.hit_ratio", ratio hits (hits +. misses));
      ("state_cache.evictions", counter registry "mufuzz_cache_evictions_total");
      ("campaign.us_per_exec", campaign_us);
      ( "campaign.outside_evm_frac",
        1. -. ratio (rp.us_per_exec *. execs *. 1e-6) (untraced.wall *. float_of_int (jobs kind)) );
      ("campaign.round_ms_p50", percentile 0.5 rounds *. 1e3);
      ("campaign.round_ms_p99", percentile 0.99 rounds *. 1e3);
      ("campaign.rounds", float_of_int (List.length rounds));
      ( "campaign.minor_words_per_exec",
        ratio (gc1.minor_words -. gc0.minor_words) (float_of_int traced.execs) );
      ( "campaign.promoted_words_per_exec",
        ratio (gc1.promoted_words -. gc0.promoted_words) (float_of_int traced.execs) );
      ("mutation.us_per_op", rp.mutation_us_per_op);
      ("mask.us_per_plan", rp.mask_us_per_plan);
      ("mask.probe_frac", ratio (counter registry "mufuzz_mask_probes_total") reg_execs);
      ("mask.probes_per_mask", ratio (float_of_int !mask_probes) (float_of_int !masks));
      ("coverage.us_per_record", rp.coverage_us_per_record);
      ("coverage.frontier_sides", rp.frontier_sides);
      ("oracle.us_per_inspect", rp.oracle_us_per_inspect);
      ( "predict.proposal_frac",
        ratio (counter registry "mufuzz_predict_proposed_total") reg_execs );
      ("predict.flipped", counter registry "mufuzz_predict_flipped_total");
    ]
    @ pool
    @ [
        ("checkpoint.encode_ms", rp.encode_ms);
        ("checkpoint.decode_ms", rp.decode_ms);
        ("checkpoint.kbytes", rp.kbytes);
        ("checkpoint.written", counter registry "mufuzz_checkpoint_written_total");
        ( "fleet.overhead_frac",
          match bare with
          | Some b ->
            1. -. ratio (List.fold_left (fun a (c : campaign) -> a +. c.wall) 0. b) untraced.wall
          | None -> 0. );
      ]
    @ micro
    @ [ ("trace.overhead_frac", 1. -. ratio (rate traced) (rate untraced)) ]
  in
  let spans_file =
    Filename.concat scratch_root
      (Printf.sprintf "spans-%s-%d.json" o.workload o.seed)
  in
  Util.Fileio.write_atomic spans_file (Telemetry.Json.to_string (Spans.to_json ()) ^ "\n");
  let lines =
    Printf.sprintf "traced repeat %.3f s, untraced %.3f s; %d spans written to %s"
      traced.wall untraced.wall (List.length (Spans.all ())) spans_file
    :: Printf.sprintf "failed_frac %.4f ratio (%d of %d campaigns)"
         (ratio (float_of_int failed) (float_of_int attempted))
         failed attempted
    :: describe_failures traced (checks @ bare_mismatch @ decode)
  in
  (failed, attempted, metrics, lines)

let run o =
  if not (List.mem o.workload names) then
    invalid_arg
      (Printf.sprintf "unknown workload %S (expected one of: %s)" o.workload
         (String.concat ", " names));
  let scratch = make_scratch () in
  let p = { seed = o.seed; gen_seed = o.gen_seed; scale = o.scale; scratch } in
  let calib = Host.calibration_score () in
  (* micro-benchmarks first, while the heap is still small *)
  let micro =
    if o.trace then Layers.micro ~quota:(if o.scale >= 1.0 then 0.25 else 0.01) else []
  in
  (* reference passes on either side of set-up, which normalise setup_s *)
  let ref_passes () = List.init 5 (fun _ -> Host.reference_pass ()) in
  let ref_before = ref_passes () in
  let kind, setup_times = setup p o.workload in
  let setup_ref = Util.Stats.mean (ref_before @ ref_passes ()) in
  let failed, attempted, metrics, lines =
    if o.trace then
      let failed, attempted, metrics, lines = traced_run o kind setup_times ~micro in
      ( failed,
        attempted,
        ("host.cores", float_of_int (Host.cores ()))
        :: ("host.calib_mops", calib)
        :: ("host.ref_mops", Util.Stats.median (List.init 5 (fun _ -> Host.reference_pass ())))
        :: metrics,
        lines )
    else end_to_end_run o kind setup_times ~setup_ref
  in
  Util.Fileio.remove_tree scratch;
  let host =
    Printf.sprintf "host: %d cores, calibration %.1f Mop/s" (Host.cores ()) calib
  in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics;
    lines =
      (host :: lines)
      @ List.map
          (fun (n, v) -> Printf.sprintf "%-34s %14.4f %s" n v (unit_of n))
          metrics;
  }

let to_json r =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (n, v) ->
               (n, J.Obj [ ("value", J.Float v); ("unit", J.String (unit_of n)) ]))
             r.metrics) );
    ]
