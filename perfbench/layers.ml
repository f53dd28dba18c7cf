(* Per-layer measurements for traced runs. "Replay" re-runs a layer's
   public function on inputs captured from the traced campaigns: each
   campaign's final corpus, the runs that corpus produces, and the
   snapshot forced at its final safe point. Every replay is timed as
   whole passes over all captured inputs, repeated until [min_time]
   seconds have been spent, and reported per operation. *)

open Workloads

let per_op ~min_time ~ops name f =
  Spans.with_span ("replay:" ^ name) @@ fun () ->
  let rec loop passes spent =
    if passes > 0 && spent >= min_time then spent /. float_of_int (passes * ops)
    else
      let (), dt = timed f in
      loop (passes + 1) (spent +. dt)
  in
  if ops = 0 then 0. else loop 0 0.

type captured = {
  campaign : campaign;
  static : Oracles.Oracle.static_info;
  runs : Mufuzz.Executor.run list;  (** one cold pass over the corpus *)
}

let make_ctx ?cache (c : campaign) =
  Mufuzz.Executor.make_ctx ~contract:c.contract ~gas:c.config.gas_per_tx
    ~n_senders:c.config.n_senders ~attacker:c.config.attacker_enabled ?cache ()

let capture (c : campaign) =
  {
    campaign = c;
    static = Oracles.Oracle.static_info_of c.contract;
    runs = Mufuzz.Executor.run_batch (make_ctx c) c.report.corpus;
  }

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let streams caps =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun (s : Mufuzz.Seed.t) -> List.map (fun (t : Mufuzz.Seed.tx) -> t.stream) s.txs)
        k.campaign.report.corpus)
    caps

type replay = {
  us_per_exec : float;
  us_per_exec_cached : float;
  steps_per_exec : float;
  steps_per_s : float;
  us_per_tx : float;
  coverage_us_per_record : float;
  oracle_us_per_inspect : float;
  mutation_us_per_op : float;
  mask_us_per_plan : float;
  frontier_sides : float;
  encode_ms : float;
  decode_ms : float;
  kbytes : float;
  decode_failures : int;
}

let replay ~min_time campaigns =
  let caps = List.map capture campaigns in
  let execs = sum (fun k -> List.length k.runs) caps in
  let txs = sum (fun k -> sum (fun (r : Mufuzz.Executor.run) -> List.length r.tx_results) k.runs) caps in
  let steps = sum (fun k -> sum (fun (r : Mufuzz.Executor.run) -> r.logical_steps) k.runs) caps in
  let exec_s =
    per_op ~min_time ~ops:execs "executor" (fun () ->
        List.iter
          (fun k ->
            ignore (Mufuzz.Executor.run_batch (make_ctx k.campaign) k.campaign.report.corpus))
          caps)
  in
  let cached_s =
    let ctxs =
      List.map
        (fun k ->
          let ctx = make_ctx ~cache:(Mufuzz.State_cache.create ()) k.campaign in
          ignore (Mufuzz.Executor.run_batch ctx k.campaign.report.corpus);
          (ctx, k.campaign.report.corpus))
        caps
    in
    per_op ~min_time ~ops:execs "executor_cached" (fun () ->
        List.iter (fun (ctx, corpus) -> ignore (Mufuzz.Executor.run_batch ctx corpus)) ctxs)
  in
  let record_s =
    per_op ~min_time ~ops:execs "coverage" (fun () ->
        List.iter
          (fun k ->
            let cov = Mufuzz.Coverage.create () in
            List.iter
              (fun (r : Mufuzz.Executor.run) ->
                List.iter
                  (fun (t : Mufuzz.Executor.tx_result) ->
                    ignore (Mufuzz.Coverage.record cov t.trace))
                  r.tx_results)
              k.runs)
          caps)
  in
  let inspect_s =
    per_op ~min_time ~ops:execs "oracle" (fun () ->
        List.iter
          (fun k ->
            List.iter (fun r -> ignore (Mufuzz.Executor.inspect ~static:k.static r)) k.runs)
          caps)
  in
  let streams = streams caps in
  let n_streams = List.length streams in
  let mutation_s =
    let rng = Util.Rng.create 7L in
    per_op ~min_time ~ops:n_streams "mutation" (fun () ->
        List.iter
          (fun s ->
            let m = Mufuzz.Mutation.random rng ~max_n:8 in
            ignore
              (Mufuzz.Mutation.apply rng m
                 ~pos:(Util.Rng.int rng (String.length s + 1))
                 s))
          streams)
  in
  let mask_s =
    let cfg = Mufuzz.Config.default in
    let rng = Util.Rng.create 11L in
    per_op ~min_time ~ops:n_streams "mask" (fun () ->
        List.iter
          (fun s ->
            let pl =
              Mufuzz.Mask.plan rng ~stride:cfg.mask_stride ~max_probes:cfg.mask_max_probes s
            in
            ignore (Mufuzz.Mask.waves pl ~width:16);
            let feedback =
              Array.mapi
                (fun i _ ->
                  Some
                    {
                      Mufuzz.Mask.hits_nested = i land 1 = 0;
                      distance_decreased = i mod 3 = 0;
                    })
                (Mufuzz.Mask.probes pl)
            in
            ignore (Mufuzz.Mask.finish pl feedback))
          streams)
  in
  let finals =
    List.filter_map
      (fun k ->
        Option.map
          (fun snapshot ->
            {
              Persist.Checkpoint.tool = Baselines.Fuzzers.mufuzz.name;
              config = k.campaign.config;
              contract = k.campaign.contract;
              snapshot;
            })
          k.campaign.final)
      caps
  in
  let n_finals = List.length finals in
  let docs = List.map Persist.Checkpoint.to_string finals in
  let encode_s =
    per_op ~min_time ~ops:n_finals "checkpoint_encode" (fun () ->
        List.iter (fun ck -> ignore (Persist.Checkpoint.to_string ck)) finals)
  in
  let decode_failures =
    List.length
      (List.filter (fun d -> Result.is_error (Persist.Checkpoint.of_string d)) docs)
  in
  let decode_s =
    per_op ~min_time ~ops:n_finals "checkpoint_decode" (fun () ->
        List.iter (fun d -> ignore (Persist.Checkpoint.of_string d)) docs)
  in
  let frontier =
    sum
      (fun (ck : Persist.Checkpoint.t) ->
        List.length (Mufuzz.Coverage.uncovered_frontier ck.snapshot.sn_coverage))
      finals
  in
  let mean_of n total = if n = 0 then 0. else total /. float_of_int n in
  let exec_total = exec_s *. float_of_int execs in
  {
    us_per_exec = exec_s *. 1e6;
    us_per_exec_cached = cached_s *. 1e6;
    steps_per_exec = mean_of execs (float_of_int steps);
    steps_per_s = (if exec_total > 0. then float_of_int steps /. exec_total else 0.);
    us_per_tx = mean_of txs (exec_total *. 1e6);
    coverage_us_per_record = record_s *. 1e6;
    oracle_us_per_inspect = inspect_s *. 1e6;
    mutation_us_per_op = mutation_s *. 1e6;
    mask_us_per_plan = mask_s *. 1e6;
    frontier_sides = mean_of n_finals (float_of_int frontier);
    encode_ms = encode_s *. 1e3;
    decode_ms = decode_s *. 1e3;
    kbytes = mean_of n_finals (float_of_int (sum String.length docs) /. 1024.);
    decode_failures;
  }

(* ---------------- micro-benchmarks ---------------- *)

(* The substrate micro-benchmarks: Keccak-256, 256-bit multiply and
   divmod, one full transaction and one mutation, each an OLS estimate
   of nanoseconds per call. *)
let micro ~quota =
  let open Bechamel in
  let open Toolkit in
  let crowdsale = Minisol.Contract.compile Corpus.Examples.crowdsale in
  let invest = List.find (fun f -> f.Abi.name = "invest") crowdsale.abi in
  let deployed =
    Evm.State.credit
      (Minisol.Contract.deploy Evm.State.empty Mufuzz.Accounts.contract_address
         crowdsale)
      Mufuzz.Accounts.deployer Word.U256.max_value
  in
  let msg =
    {
      Evm.Interp.caller = Mufuzz.Accounts.deployer;
      origin = Mufuzz.Accounts.deployer;
      callee = Mufuzz.Accounts.contract_address;
      value = Word.U256.zero;
      data = Abi.encode_call invest [ Abi.VUint (Word.U256.of_int 5) ];
      gas = 1_000_000;
    }
  in
  let a = Word.U256.of_decimal_string "123456789123456789123456789" in
  let b = Word.U256.of_decimal_string "987654321987654321987654321" in
  let d = Word.U256.of_decimal_string "1000000000000000000" in
  let block = String.make 100 'x' in
  let rng = Util.Rng.create 7L in
  let stream = String.make 64 '\042' in
  let tests =
    [
      ( "crypto.keccak_ns",
        Test.make ~name:"keccak" (Staged.stage (fun () -> ignore (Crypto.Keccak.hash block))) );
      ( "word.u256_mul_ns",
        Test.make ~name:"mul" (Staged.stage (fun () -> ignore (Word.U256.mul a b))) );
      ( "word.u256_divmod_ns",
        Test.make ~name:"divmod"
          (Staged.stage (fun () -> ignore (Word.U256.divmod Word.U256.max_value d))) );
      ( "evm.one_tx_ns",
        Test.make ~name:"tx"
          (Staged.stage (fun () ->
               ignore
                 (Evm.Interp.execute ~block:Evm.Interp.default_block ~state:deployed msg)))
      );
      ( "mutation.one_op_ns",
        Test.make ~name:"mutation"
          (Staged.stage (fun () ->
               let m = Mufuzz.Mutation.random rng ~max_n:8 in
               ignore (Mufuzz.Mutation.apply rng m ~pos:(Util.Rng.int rng 64) stream))) );
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second quota) () in
  List.map
    (fun (metric, test) ->
      let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      let est =
        Hashtbl.fold
          (fun _ r acc ->
            match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> acc)
          results 0.
      in
      (metric, est))
    tests
