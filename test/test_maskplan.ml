(* The staged mask-computation API (plan / waves / finish) and the
   parallel phases built on it: the staged form must be a faithful
   factoring of the sequential [Mask.compute], waves must respect
   position-group boundaries, and the batched campaign phases
   (worker-side mask probing, batched predict) must keep the
   budget-exactness and determinism guarantees of the serial code. *)

module J = Telemetry.Json

let unit name f = Alcotest.test_case name `Quick f

let qprop name ?(count = 200) ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

(* ------------------------------------------------------------------ *)
(* plan / finish versus the sequential compute                         *)

(* a deterministic feedback oracle: any pure function of the mutant
   stream works, the laws only need both paths to see the same answers *)
let oracle s =
  let h = Hashtbl.hash s in
  { Mufuzz.Mask.hits_nested = h land 1 = 0; distance_decreased = h land 2 = 0 }

let stream_gen =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 64))

let params_gen =
  QCheck2.Gen.(
    tup4 stream_gen (int_range 1 9) (int_range 0 300) (map Int64.of_int int))

let print_params (s, stride, max_probes, seed) =
  Printf.sprintf "stream=%S stride=%d max_probes=%d seed=%Ld" s stride
    max_probes seed

let differential_tests =
  [
    qprop "plan+finish equals compute for any (stream, stride, budget)"
      ~count:400 ~print:print_params params_gen
      (fun (stream, stride, max_probes, seed) ->
        let direct =
          Mufuzz.Mask.compute
            (Util.Rng.create seed)
            ~stride ~max_probes ~probe:oracle stream
        in
        let pl =
          Mufuzz.Mask.plan (Util.Rng.create seed) ~stride ~max_probes stream
        in
        let staged =
          Mufuzz.Mask.finish pl
            (Array.map
               (fun (p : Mufuzz.Mask.probe) -> Some (oracle p.probe_stream))
               (Mufuzz.Mask.probes pl))
        in
        J.to_string (Mufuzz.Mask.to_json direct)
        = J.to_string (Mufuzz.Mask.to_json staged));
    qprop "compute executes exactly the planned probes" ~count:400
      ~print:print_params params_gen
      (fun (stream, stride, max_probes, seed) ->
        let calls = ref 0 in
        ignore
          (Mufuzz.Mask.compute
             (Util.Rng.create seed)
             ~stride ~max_probes
             ~probe:(fun s ->
               incr calls;
               oracle s)
             stream);
        let pl =
          Mufuzz.Mask.plan (Util.Rng.create seed) ~stride ~max_probes stream
        in
        !calls = Array.length (Mufuzz.Mask.probes pl)
        && !calls <= max_probes);
    qprop "an unexecuted suffix equals a budget-starved probe callback"
      ~count:300
      ~print:
        (QCheck2.Print.pair print_params QCheck2.Print.int)
      QCheck2.Gen.(pair params_gen (int_range 0 300))
      (fun ((stream, stride, max_probes, seed), cut) ->
        (* feeding [Some] for the first [cut] probes and [None] after
           must match the sequential path whose probe budget dries up
           at the same point (there the callback is simply never
           invoked past the cap) *)
        let pl =
          Mufuzz.Mask.plan (Util.Rng.create seed) ~stride ~max_probes stream
        in
        let n = Array.length (Mufuzz.Mask.probes pl) in
        let partial =
          Mufuzz.Mask.finish pl
            (Array.mapi
               (fun i (p : Mufuzz.Mask.probe) ->
                 if i < cut then Some (oracle p.probe_stream) else None)
               (Mufuzz.Mask.probes pl))
        in
        let truncated =
          (* missing trailing entries are [None] by contract *)
          Mufuzz.Mask.finish pl
            (Array.init (Stdlib.min cut n) (fun i ->
                 Some (oracle (Mufuzz.Mask.probes pl).(i).probe_stream)))
        in
        J.to_string (Mufuzz.Mask.to_json partial)
        = J.to_string (Mufuzz.Mask.to_json truncated));
    unit "all-None feedback admits nothing" (fun () ->
        let pl =
          Mufuzz.Mask.plan (Util.Rng.create 7L) ~stride:1 ~max_probes:1000
            (String.make 16 'x')
        in
        let mask =
          Mufuzz.Mask.finish pl
            (Array.make (Array.length (Mufuzz.Mask.probes pl)) None)
        in
        Alcotest.(check (float 0.0)) "fraction" 0.0
          (Mufuzz.Mask.admitted_fraction mask));
  ]

(* ------------------------------------------------------------------ *)
(* waves                                                               *)

let wave_params_gen =
  QCheck2.Gen.(
    pair params_gen (int_range 1 40))

let print_wave_params (p, w) =
  Printf.sprintf "%s width=%d" (print_params p) w

let wave_tests =
  [
    qprop "concatenated waves are the probe sequence, in order" ~count:300
      ~print:print_wave_params wave_params_gen
      (fun ((stream, stride, max_probes, seed), width) ->
        let pl =
          Mufuzz.Mask.plan (Util.Rng.create seed) ~stride ~max_probes stream
        in
        Array.concat (Mufuzz.Mask.waves pl ~width)
        = Mufuzz.Mask.probes pl);
    qprop "a position's probes never straddle two waves" ~count:300
      ~print:print_wave_params wave_params_gen
      (fun ((stream, stride, max_probes, seed), width) ->
        let pl =
          Mufuzz.Mask.plan (Util.Rng.create seed) ~stride ~max_probes stream
        in
        let owner = Hashtbl.create 16 in
        List.for_all
          (fun wave ->
            Array.for_all
              (fun (p : Mufuzz.Mask.probe) ->
                match Hashtbl.find_opt owner p.probe_pos with
                | None ->
                  Hashtbl.add owner p.probe_pos wave;
                  true
                | Some w -> w == wave)
              wave)
          (Mufuzz.Mask.waves pl ~width));
    qprop "waves respect width once clamped to a full position group"
      ~count:300 ~print:print_wave_params wave_params_gen
      (fun ((stream, stride, max_probes, seed), width) ->
        let pl =
          Mufuzz.Mask.plan (Util.Rng.create seed) ~stride ~max_probes stream
        in
        let group = List.length Mufuzz.Mutation.all_kinds in
        let effective = Stdlib.max width group in
        List.for_all
          (fun wave -> Array.length wave <= effective)
          (Mufuzz.Mask.waves pl ~width));
  ]

(* ------------------------------------------------------------------ *)
(* parallel campaign phases built on the staged API                    *)

let crowdsale = lazy (Minisol.Contract.compile Corpus.Examples.crowdsale)

(* everything observable except wall-clock time and per-domain stats *)
let essence (r : Mufuzz.Report.t) =
  ( r.executions,
    r.covered_branches,
    List.sort compare r.covered,
    r.mask_probes,
    r.predict_proposals,
    List.sort compare
      (List.map (fun (f : Oracles.Oracle.finding) -> (f.cls, f.pc)) r.findings)
  )

(* a mask-heavy profile: stride 1 and a generous probe cap so every
   refresh runs long probe plans inside the worker tasks *)
let mask_heavy jobs budget =
  { Mufuzz.Config.default with
    jobs;
    max_executions = budget;
    mask_stride = 1;
    mask_max_probes = 64;
    rng_seed = 7L }

let campaign_tests =
  [
    unit "jobs=2 mask-heavy campaign is deterministic and probes in workers"
      (fun () ->
        let config = mask_heavy 2 900 in
        let c = Lazy.force crowdsale in
        let metrics = Telemetry.Metrics.create () in
        let a = Mufuzz.Campaign.run_parallel ~config ~metrics c in
        let b = Mufuzz.Campaign.run_parallel ~config c in
        Alcotest.(check int) "budget exact" 900 a.executions;
        Alcotest.(check bool) "probes ran" true (a.mask_probes > 0);
        Alcotest.(check bool) "deterministic" true (essence a = essence b);
        (* the point of the batched path: zero probes execute on the
           coordinator domain when jobs > 1 *)
        Alcotest.(check int) "no coordinator probes" 0
          (Telemetry.Metrics.value
             (Telemetry.Metrics.counter metrics
                "mufuzz_mask_probes_coordinator_total")));
    unit "jobs=2 mask-heavy kill-and-resume preserves coverage and findings"
      (fun () ->
        let config = mask_heavy 2 1800 in
        let c = Lazy.force crowdsale in
        let snap = ref None in
        let hook ~final ~bus:_ ~execs thunk =
          if (not final) && execs >= 500 && Option.is_none !snap then
            snap := Some (thunk ())
        in
        let a = Mufuzz.Campaign.run_parallel ~config ~on_safe_point:hook c in
        let snap =
          match !snap with
          | Some s -> s
          | None -> Alcotest.fail "no mid-run safe point"
        in
        Alcotest.(check bool) "snapshot saw probes" true
          (snap.Mufuzz.Campaign.sn_mask_probes > 0);
        let b = Mufuzz.Campaign.run_parallel ~config ~resume:("test", snap) c in
        Alcotest.(check int) "covered sides" a.covered_branches
          b.Mufuzz.Report.covered_branches;
        Alcotest.(check (list (pair int bool))) "covered set"
          (List.sort compare a.covered)
          (List.sort compare b.covered);
        Alcotest.(check int) "budget exact" 1800 b.executions;
        Alcotest.(check bool) "resumed run still probes" true
          (b.mask_probes >= snap.sn_mask_probes));
    unit "round-batch 0 runs at width 1, the same campaign as round-batch 1"
      (fun () ->
        let c = Lazy.force crowdsale in
        let at rb =
          Mufuzz.Campaign.run_parallel
            ~config:{ (mask_heavy 2 600) with Mufuzz.Config.round_batch = rb }
            c
        in
        let zero = at 0 and one = at 1 in
        Alcotest.(check int) "budget exact" 600 zero.executions;
        (match zero.parallel with
        | None -> Alcotest.fail "parallel stats missing"
        | Some p ->
          Alcotest.(check int) "width clamped to 1" 1 p.round_batch;
          Alcotest.(check bool) "merge wait non-negative" true
            (p.merge_wait_seconds >= 0.0);
          Alcotest.(check bool) "worker idle non-negative" true
            (p.worker_idle_seconds >= 0.0));
        Alcotest.(check bool) "same campaign" true (essence zero = essence one));
    unit "report JSON carries the probe and proposal counters" (fun () ->
        let config = { Mufuzz.Config.default with max_executions = 400 } in
        let r = Mufuzz.Campaign.run ~config (Lazy.force crowdsale) in
        match Mufuzz.Report.to_json r with
        | J.Obj fields ->
          Alcotest.(check bool) "mask_probes present" true
            (List.mem_assoc "mask_probes" fields);
          Alcotest.(check bool) "predict_proposals present" true
            (List.mem_assoc "predict_proposals" fields);
          Alcotest.(check (option int)) "mask_probes value"
            (Some r.mask_probes)
            (Option.bind (List.assoc_opt "mask_probes" fields) J.to_int)
        | _ -> Alcotest.fail "report is not an object");
  ]

(* ------------------------------------------------------------------ *)
(* pool merge-wait accounting                                          *)

let pool_tests =
  [
    unit "merge_wait_seconds is recorded and non-negative" (fun () ->
        Mufuzz.Pool.with_pool ~jobs:2 (fun p ->
            ignore
              (Mufuzz.Pool.run_batch p
                 (Array.init 8 (fun i _worker ->
                      (* enough work that the coordinator measurably
                         waits on the drain *)
                      let acc = ref i in
                      for _ = 1 to 100_000 do
                        acc := (!acc * 7 + 3) land 0xFFFF
                      done;
                      !acc)));
            let s = Mufuzz.Pool.stats p in
            Alcotest.(check bool) "non-negative" true
              (s.merge_wait_seconds >= 0.0)));
    unit "wait metrics publish as gauges" (fun () ->
        let metrics = Telemetry.Metrics.create () in
        Mufuzz.Pool.with_pool ~jobs:2 ~metrics (fun p ->
            ignore (Mufuzz.Pool.run_batch p (Array.make 4 (fun w -> w)));
            let g name = Telemetry.Metrics.gauge metrics name in
            Alcotest.(check bool) "merge-wait gauge" true
              (Telemetry.Metrics.gauge_value
                 (g "mufuzz_pool_merge_wait_seconds")
              >= 0.0);
            Alcotest.(check bool) "idle gauge" true
              (Telemetry.Metrics.gauge_value
                 (g "mufuzz_pool_worker_idle_seconds")
              >= 0.0)));
  ]

(* ------------------------------------------------------------------ *)
(* codec tolerance: older v3 documents and v2 documents               *)

(* [j] with [extra] appended to its object member [key] *)
let add_to key extra = function
  | J.Obj fields ->
    J.Obj
      (List.map
         (fun (k, v) ->
           match v with
           | J.Obj sub when k = key -> (k, J.Obj (sub @ extra))
           | _ -> (k, v))
         fields)
  | j -> j

let codec_tests =
  [
    unit "checkpoint v3 with auto round-batch state resumes at the fixed width"
      (fun () ->
        let contract = Lazy.force crowdsale in
        let config = mask_heavy 2 700 in
        let snap = ref None in
        let hook ~final ~bus:_ ~execs thunk =
          if (not final) && execs >= 200 && Option.is_none !snap then
            snap := Some (thunk ())
        in
        let full =
          Mufuzz.Campaign.run_parallel ~config ~on_safe_point:hook contract
        in
        let snapshot =
          match !snap with Some s -> s | None -> Alcotest.fail "no safe point"
        in
        let ckpt =
          { Persist.Checkpoint.tool = "MuFuzz"; config; contract; snapshot }
        in
        (* the document as earlier builds wrote it: the auto controller
           on, its live width and vote counter in the snapshot, and the
           knobs that are now constants in the config *)
        let prefix = Analysis.Prefix.default_params in
        let doc =
          Persist.Checkpoint.to_json ckpt
          |> add_to "config"
               [ ("round_batch_auto", J.Bool true);
                 ("initial_seeds", J.Int 8);
                 ("base_energy", J.Int 20);
                 ("max_energy", J.Int 120);
                 ("mask_cache_max", J.Int 32);
                 ("mask_budget_fraction", J.Float 0.15);
                 ("strict_corpus", J.Bool false);
                 ("nested_coeff", J.Float prefix.nested_coeff);
                 ("vuln_bonus", J.Float prefix.vuln_bonus)
               ]
          |> add_to "snapshot"
               [ ("round_batch", J.Int 8); ("rb_votes", J.Int (-1)) ]
        in
        match Persist.Checkpoint.of_string (J.to_string doc) with
        | Error e -> Alcotest.fail e
        | Ok c ->
          Alcotest.(check int) "predict_proposals" snapshot.sn_predict_proposals
            c.snapshot.sn_predict_proposals;
          let r =
            Mufuzz.Campaign.run_parallel ~config:c.config
              ~resume:("test", c.snapshot) contract
          in
          Alcotest.(check int) "budget exact" 700 r.executions;
          (match r.parallel with
          | None -> Alcotest.fail "parallel stats missing"
          | Some p ->
            Alcotest.(check int) "fixed width" config.round_batch p.round_batch);
          Alcotest.(check bool) "same campaign as the uninterrupted run" true
            (essence full = essence r));
    unit "config decodes documents carrying the removed knobs" (fun () ->
        let abi = (Lazy.force crowdsale).Minisol.Contract.abi in
        let config = { Mufuzz.Config.default with round_batch = 5 } in
        let j =
          match Mufuzz.Config.to_json config with
          | J.Obj fields ->
            J.Obj
              (fields
              @ [ ("round_batch_auto", J.Bool true);
                  ("initial_seeds", J.Int 3);
                  ("base_energy", J.Int 9);
                  ("max_energy", J.Int 40);
                  ("mask_cache_max", J.Int 4);
                  ("mask_budget_fraction", J.Float 0.5);
                  ("strict_corpus", J.Bool true);
                  ("state_caching", J.Bool true)
                ])
          | j -> j
        in
        match Mufuzz.Config.of_json ~abi j with
        | Error e -> Alcotest.fail e
        | Ok c ->
          Alcotest.(check int) "configured width kept" 5 c.round_batch;
          Alcotest.(check string) "removed keys ignored"
            (J.to_string (Mufuzz.Config.to_json config))
            (J.to_string (Mufuzz.Config.to_json c)));
    unit "checkpoint v3 round-trips predict_proposals" (fun () ->
        let contract = Lazy.force crowdsale in
        let config = mask_heavy 2 700 in
        let snap = ref None in
        let hook ~final ~bus:_ ~execs thunk =
          if (not final) && execs >= 200 && Option.is_none !snap then
            snap := Some (thunk ())
        in
        ignore (Mufuzz.Campaign.run_parallel ~config ~on_safe_point:hook contract);
        let snapshot =
          match !snap with
          | Some s -> { s with Mufuzz.Campaign.sn_predict_proposals = 5 }
          | None -> Alcotest.fail "no safe point"
        in
        let ckpt =
          { Persist.Checkpoint.tool = "MuFuzz"; config; contract; snapshot }
        in
        match
          Persist.Checkpoint.of_string (Persist.Checkpoint.to_string ckpt)
        with
        | Error e -> Alcotest.fail e
        | Ok c ->
          Alcotest.(check int) "predict_proposals" 5
            c.snapshot.sn_predict_proposals);
    unit "checkpoint decodes v2 documents missing the v3 fields" (fun () ->
        let contract = Lazy.force crowdsale in
        let config = { Mufuzz.Config.default with max_executions = 500 } in
        let snap = ref None in
        let hook ~final ~bus:_ ~execs thunk =
          if (not final) && execs >= 200 && Option.is_none !snap then
            snap := Some (thunk ())
        in
        ignore (Mufuzz.Campaign.run ~config ~on_safe_point:hook contract);
        let snapshot =
          match !snap with
          | Some s -> s
          | None -> Alcotest.fail "no safe point"
        in
        let ckpt =
          { Persist.Checkpoint.tool = "MuFuzz"; config; contract; snapshot }
        in
        let j =
          match Persist.Checkpoint.to_json ckpt with
          | J.Obj fields ->
            J.Obj
              (List.map
                 (fun (k, v) ->
                   if k <> "snapshot" then (k, v)
                   else
                     match v with
                     | J.Obj sf ->
                       ( k,
                         J.Obj
                           (List.filter
                              (fun (sk, _) -> sk <> "predict_proposals")
                              sf) )
                     | other -> (k, other))
                 fields)
          | j -> j
        in
        match Persist.Checkpoint.of_json j with
        | Error e -> Alcotest.fail e
        | Ok c ->
          Alcotest.(check int) "proposals zeroed" 0
            c.snapshot.sn_predict_proposals);
  ]

let suite =
  [
    ("maskplan: staged = sequential", differential_tests);
    ("maskplan: waves", wave_tests);
    ("maskplan: batched campaign phases", campaign_tests);
    ("maskplan: pool wait accounting", pool_tests);
    ("maskplan: v3 codec tolerance", codec_tests);
  ]
