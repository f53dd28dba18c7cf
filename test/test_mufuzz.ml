(* The fuzzer core: seeds, mutation operators, masks, coverage tables,
   energy assignment and whole-campaign behaviour (incl. determinism). *)

module U = Word.U256

let unit name f = Alcotest.test_case name `Quick f

let qprop name ?(count = 300) ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

let fn_u name = { Abi.name; inputs = [ Abi.Uint256 ]; payable = true; is_constructor = false }

let seed_tests =
  [
    unit "stream length = 32*arity + value word" (fun () ->
        Alcotest.(check int) "len" 64 (Mufuzz.Seed.stream_length (fn_u "f")));
    unit "tx_value reads trailing word" (fun () ->
        let tx =
          Mufuzz.Seed.make_tx (fn_u "f") ~sender:0 ~args:(String.make 32 '\000')
            ~value:(U.of_int 777)
        in
        Alcotest.(check string) "777" "777" (U.to_decimal_string (Mufuzz.Seed.tx_value tx)));
    unit "tx_value on truncated stream is zero-extended" (fun () ->
        let tx =
          Mufuzz.Seed.make_tx (fn_u "f") ~sender:0 ~args:"" ~value:U.zero
        in
        let tx = { tx with stream = String.sub tx.stream 0 40 } in
        (* only 8 value bytes remain; must not crash *)
        ignore (Mufuzz.Seed.tx_value tx));
    unit "tx_calldata starts with the selector" (fun () ->
        let f = fn_u "f" in
        let tx = Mufuzz.Seed.make_tx f ~sender:0 ~args:"" ~value:U.zero in
        Alcotest.(check string) "selector" (Abi.selector f)
          (String.sub (Mufuzz.Seed.tx_calldata tx) 0 4));
    unit "of_sequence resolves names" (fun () ->
        let rng = Util.Rng.create 1L in
        let abi = [ fn_u "a"; fn_u "b" ] in
        let seed = Mufuzz.Seed.of_sequence rng ~n_senders:2 abi [ "b"; "a"; "b" ] in
        Alcotest.(check (list string)) "order" [ "b"; "a"; "b" ]
          (List.map (fun (tx : Mufuzz.Seed.tx) -> tx.fn.Abi.name) seed.txs));
    unit "of_sequence rejects unknown names" (fun () ->
        let rng = Util.Rng.create 1L in
        match Mufuzz.Seed.of_sequence rng ~n_senders:1 [ fn_u "a" ] [ "zz" ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "should raise");
    unit "address dictionary biases address args to live accounts" (fun () ->
        let rng = Util.Rng.create 3L in
        let f =
          { Abi.name = "g"; inputs = [ Abi.Address ]; payable = false;
            is_constructor = false }
        in
        let pool = Mufuzz.Accounts.address_dictionary 3 in
        let hits = ref 0 in
        for _ = 1 to 100 do
          let tx = Mufuzz.Seed.random_tx rng ~n_senders:3 f in
          let w = U.of_bytes_be (String.sub tx.stream 0 32) in
          if List.exists (U.equal w) pool then incr hits
        done;
        Alcotest.(check bool) "mostly pool addresses" true (!hits > 50));
  ]

let mutation_gen = QCheck2.Gen.(pair (string_size (int_range 0 96)) small_int)

let mutation_tests =
  [
    qprop "O preserves length" ~print:(fun (s, p) -> Printf.sprintf "%d@%d" (String.length s) p)
      mutation_gen (fun (s, p) ->
        let rng = Util.Rng.create (Int64.of_int p) in
        let out = Mufuzz.Mutation.apply rng { kind = Mufuzz.Mutation.O; n = 4 } ~pos:p s in
        String.length out = String.length s);
    qprop "I grows length by n" ~print:(fun (s, p) -> Printf.sprintf "%d@%d" (String.length s) p)
      mutation_gen (fun (s, p) ->
        let rng = Util.Rng.create (Int64.of_int p) in
        let out = Mufuzz.Mutation.apply rng { kind = Mufuzz.Mutation.I; n = 3 } ~pos:p s in
        String.length out = String.length s + 3);
    qprop "D never grows" ~print:(fun (s, p) -> Printf.sprintf "%d@%d" (String.length s) p)
      mutation_gen (fun (s, p) ->
        let rng = Util.Rng.create (Int64.of_int p) in
        let out = Mufuzz.Mutation.apply rng { kind = Mufuzz.Mutation.D; n = 5 } ~pos:p s in
        String.length out <= String.length s);
    qprop "R preserves length" ~print:(fun (s, p) -> Printf.sprintf "%d@%d" (String.length s) p)
      mutation_gen (fun (s, p) ->
        let rng = Util.Rng.create (Int64.of_int p) in
        let out = Mufuzz.Mutation.apply rng { kind = Mufuzz.Mutation.R; n = 2 } ~pos:p s in
        String.length out = String.length s);
    unit "dictionary words appear in R word mode" (fun () ->
        let rng = Util.Rng.create 12L in
        let dict = [| U.of_decimal_string "88000000000000000" |] in
        let stream = String.make 64 '\000' in
        let found = ref false in
        for _ = 1 to 500 do
          let out =
            Mufuzz.Mutation.apply ~dict rng
              { kind = Mufuzz.Mutation.R; n = 4 } ~pos:40 stream
          in
          if String.length out = 64 then begin
            let w = U.of_bytes_be (String.sub out 32 32) in
            if U.equal w dict.(0) then found := true
          end
        done;
        Alcotest.(check bool) "dict word injected" true !found);
    unit "empty stream never crashes any operator" (fun () ->
        let rng = Util.Rng.create 5L in
        List.iter
          (fun kind ->
            ignore (Mufuzz.Mutation.apply rng { Mufuzz.Mutation.kind; n = 4 } ~pos:0 ""))
          Mufuzz.Mutation.all_kinds);
    unit "kind indices are distinct" (fun () ->
        let idx = List.map Mufuzz.Mutation.kind_index Mufuzz.Mutation.all_kinds in
        Alcotest.(check (list int)) "0..3" [ 0; 1; 2; 3 ] (List.sort compare idx));
  ]

let mask_tests =
  [
    unit "probe verdicts control admission" (fun () ->
        let rng = Util.Rng.create 1L in
        let stream = String.make 8 'x' in
        (* positions < 4 always good; rest always bad *)
        let calls = ref [] in
        let probe _mutant =
          (* the probe cannot see the position, so drive by call order:
             Algorithm 2 probes position-major, 4 kinds per position *)
          let i = List.length !calls in
          calls := i :: !calls;
          let pos = i / 4 in
          { Mufuzz.Mask.hits_nested = pos < 4; distance_decreased = false }
        in
        let mask = Mufuzz.Mask.compute rng ~stride:1 ~max_probes:1000 ~probe stream in
        List.iter
          (fun kind ->
            Alcotest.(check bool) "pos0 allowed" true
              (Mufuzz.Mask.allows mask kind ~pos:0);
            Alcotest.(check bool) "pos7 denied" false
              (Mufuzz.Mask.allows mask kind ~pos:7))
          Mufuzz.Mutation.all_kinds);
    unit "stride propagates the anchor verdict" (fun () ->
        let rng = Util.Rng.create 2L in
        let stream = String.make 8 'x' in
        let probe _ = { Mufuzz.Mask.hits_nested = true; distance_decreased = false } in
        let mask = Mufuzz.Mask.compute rng ~stride:4 ~max_probes:1000 ~probe stream in
        Alcotest.(check bool) "pos1 inherits pos0" true
          (Mufuzz.Mask.allows mask Mufuzz.Mutation.O ~pos:1));
    unit "allow_all admits everything" (fun () ->
        let mask = Mufuzz.Mask.allow_all 16 in
        Alcotest.(check (float 0.0001)) "fraction" 1.0
          (Mufuzz.Mask.admitted_fraction mask);
        Alcotest.(check bool) "beyond range allowed" true
          (Mufuzz.Mask.allows mask Mufuzz.Mutation.D ~pos:100));
    unit "max_probes caps executions" (fun () ->
        let rng = Util.Rng.create 3L in
        let count = ref 0 in
        let probe _ =
          incr count;
          { Mufuzz.Mask.hits_nested = false; distance_decreased = false }
        in
        ignore (Mufuzz.Mask.compute rng ~stride:1 ~max_probes:10 ~probe (String.make 64 'a'));
        Alcotest.(check int) "ten probes" 10 !count);
  ]

let coverage_tests =
  [
    unit "record returns true only on new sides" (fun () ->
        let cov = Mufuzz.Coverage.create () in
        let trace taken =
          { Evm.Trace.status = Evm.Trace.Success;
            events = [ Evm.Trace.Branch { pc = 3; taken; dist_to_flip = 2.0;
                                          cond_taint = 0; cmp = None } ];
            return_data = ""; gas_used = 0; steps = 0 }
        in
        Alcotest.(check bool) "first" true (Mufuzz.Coverage.record cov (trace true));
        Alcotest.(check bool) "repeat" false (Mufuzz.Coverage.record cov (trace true));
        Alcotest.(check bool) "other side" true (Mufuzz.Coverage.record cov (trace false)));
    unit "frontier lists uncovered twins" (fun () ->
        let cov = Mufuzz.Coverage.create () in
        let trace =
          { Evm.Trace.status = Evm.Trace.Success;
            events = [ Evm.Trace.Branch { pc = 7; taken = true; dist_to_flip = 5.0;
                                          cond_taint = 0; cmp = None } ];
            return_data = ""; gas_used = 0; steps = 0 }
        in
        ignore (Mufuzz.Coverage.record cov trace);
        Alcotest.(check (list (pair int bool))) "frontier" [ (7, false) ]
          (Mufuzz.Coverage.uncovered_frontier cov);
        Alcotest.(check (option (float 0.001))) "distance" (Some 5.0)
          (Mufuzz.Coverage.best_distance cov (7, false)));
    unit "covering the twin clears its distance" (fun () ->
        let cov = Mufuzz.Coverage.create () in
        let trace taken =
          { Evm.Trace.status = Evm.Trace.Success;
            events = [ Evm.Trace.Branch { pc = 7; taken; dist_to_flip = 5.0;
                                          cond_taint = 0; cmp = None } ];
            return_data = ""; gas_used = 0; steps = 0 }
        in
        ignore (Mufuzz.Coverage.record cov (trace true));
        ignore (Mufuzz.Coverage.record cov (trace false));
        Alcotest.(check (list (pair int bool))) "no frontier" []
          (Mufuzz.Coverage.uncovered_frontier cov));
    unit "trace_min_distance picks the smallest visit" (fun () ->
        let trace =
          { Evm.Trace.status = Evm.Trace.Success;
            events =
              [ Evm.Trace.Branch { pc = 7; taken = true; dist_to_flip = 5.0; cond_taint = 0; cmp = None };
                Evm.Trace.Branch { pc = 7; taken = true; dist_to_flip = 2.0; cond_taint = 0; cmp = None } ];
            return_data = ""; gas_used = 0; steps = 0 }
        in
        Alcotest.(check (option (float 0.001))) "min" (Some 2.0)
          (Mufuzz.Coverage.trace_min_distance trace (7, false)));
  ]

let energy_tests =
  [
    unit "flat when dynamic disabled" (fun () ->
        Alcotest.(check int) "base" 20
          (Mufuzz.Energy.assign ~dynamic:false ~base:20 ~max_energy:100
             ~weights:None ~path:[]));
    unit "weight scales energy up to the cap" (fun () ->
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace tbl (1, true) 100.0;
        let e =
          Mufuzz.Energy.assign ~dynamic:true ~base:20 ~max_energy:60
            ~weights:(Some tbl) ~path:[ (1, true) ]
        in
        Alcotest.(check int) "capped" 60 e);
    unit "unknown path gets base" (fun () ->
        let tbl = Hashtbl.create 4 in
        let e =
          Mufuzz.Energy.assign ~dynamic:true ~base:20 ~max_energy:60
            ~weights:(Some tbl) ~path:[ (9, false) ]
        in
        Alcotest.(check int) "base" 20 e);
    unit "update decrements, refunds on coverage" (fun () ->
        Alcotest.(check int) "dec" 9 (Mufuzz.Energy.update 10 ~new_coverage:false);
        Alcotest.(check int) "bonus" 12 (Mufuzz.Energy.update 10 ~new_coverage:true));
  ]

let campaign_tests =
  [
    unit "campaign is deterministic for a fixed seed" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let config = { Mufuzz.Config.default with max_executions = 300 } in
        let r1 = Mufuzz.Campaign.run ~config c in
        let r2 = Mufuzz.Campaign.run ~config c in
        Alcotest.(check int) "same coverage" r1.covered_branches r2.covered_branches;
        Alcotest.(check int) "same findings" (List.length r1.findings)
          (List.length r2.findings);
        Alcotest.(check (list (pair int bool))) "same covered set" r1.covered r2.covered);
    unit "different seeds explore differently" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.guess_number in
        let run seed =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 150; rng_seed = seed }
            c
        in
        let r1 = run 1L and r2 = run 2L in
        (* executions equal; exploration may differ — just require both ran *)
        Alcotest.(check int) "budget respected" 150 r1.executions;
        Alcotest.(check int) "budget respected" 150 r2.executions);
    unit "budget is a hard cap" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let r =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 77 } c
        in
        Alcotest.(check int) "exact budget" 77 r.executions);
    unit "checkpoints are monotone" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let r =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 200 } c
        in
        let rec monotone = function
          | (a : Mufuzz.Report.checkpoint) :: (b :: _ as rest) ->
            a.execs <= b.execs && a.covered <= b.covered && monotone rest
          | _ -> true
        in
        Alcotest.(check bool) "monotone" true (monotone r.over_time));
    unit "derive_sequence reproduces the paper's example" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        Alcotest.(check (list string)) "sequence"
          [ "invest"; "refund"; "invest"; "withdraw" ]
          (Mufuzz.Campaign.derive_sequence c));
    unit "campaign on a contract with no functions" (fun () ->
        let c = Minisol.Contract.compile "contract Empty { uint256 x; }" in
        let r =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 50 } c
        in
        Alcotest.(check bool) "terminates with coverage" true (r.covered_branches > 0));
    unit "executor funds senders and runs constructor as deployer" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let rng = Util.Rng.create 4L in
        let seed =
          Mufuzz.Seed.of_sequence rng ~n_senders:3 c.abi [ "constructor"; "invest" ]
        in
        let run = Mufuzz.Executor.run_seed ~contract:c ~gas:1_000_000 ~n_senders:3
            ~attacker:true seed in
        Alcotest.(check int) "two txs" 2 (List.length run.tx_results);
        (* owner slot (3) must hold the deployer regardless of the seed's
           sender choice *)
        Alcotest.(check string) "owner = deployer"
          (U.to_hex_string Mufuzz.Accounts.deployer)
          (U.to_hex_string
             (Evm.State.storage_get run.final_state Mufuzz.Accounts.contract_address
                (U.of_int 3))));
  ]

let suite =
  [
    ("mufuzz: seeds", seed_tests);
    ("mufuzz: mutation", mutation_tests);
    ("mufuzz: mask", mask_tests);
    ("mufuzz: coverage", coverage_tests);
    ("mufuzz: energy", energy_tests);
    ("mufuzz: campaign", campaign_tests);
  ]

(* What a replay yields that the cache must not change: per-tx branch
   streams and outcomes, the value flag, the logical step total and the
   oracle findings. [executed_steps] is left out: skipping cached
   prefixes is the point. *)
let replay_essence ~static (r : Mufuzz.Executor.run) =
  ( List.map
      (fun (t : Mufuzz.Executor.tx_result) ->
        (t.tx_index, t.fn_name, t.success, Evm.Trace.branches t.trace))
      r.tx_results,
    r.received_value,
    r.logical_steps,
    List.map
      (fun (f : Oracles.Oracle.finding) ->
        (Oracles.Oracle.class_to_string f.cls, f.pc, f.tx_index))
      (Mufuzz.Executor.inspect ~static r) )

(* Replays [seeds] through one cache-carrying ctx twice (cold, then
   warm) and through a plain ctx; true when every replay agrees. *)
let cache_transparent (c : Minisol.Contract.t) seeds =
  let static = Oracles.Oracle.static_info_of c in
  let ctx ?cache () =
    Mufuzz.Executor.make_ctx ~contract:c ~gas:1_000_000 ~n_senders:3
      ~attacker:true ?cache ()
  in
  let cache = Mufuzz.State_cache.create () in
  let cached = ctx ~cache () and plain = ctx () in
  let replay ctx = List.map (fun s -> replay_essence ~static (Mufuzz.Executor.run_in_ctx ctx s)) seeds in
  let reference = replay plain in
  let cold = replay cached in
  let warm = replay cached in
  (cold = reference && warm = reference, Mufuzz.State_cache.hits cache)

let cache_tests =
  [
    unit "state caching is semantically transparent" (fun () ->
        (* a campaign's final corpus: many seeds sharing prefixes *)
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let r =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 400 }
            c
        in
        Alcotest.(check bool) "corpus kept" true (r.corpus <> []);
        let same, hits = cache_transparent c r.corpus in
        Alcotest.(check bool) "replays served from the cache" true (hits > 0);
        Alcotest.(check bool) "same traces, steps and findings" true same);
    unit "cache hits on repeated prefixes" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let cache = Mufuzz.State_cache.create () in
        let rng = Util.Rng.create 7L in
        let seed =
          Mufuzz.Seed.of_sequence rng ~n_senders:3 c.abi
            [ "constructor"; "invest"; "refund"; "withdraw" ]
        in
        let run s =
          Mufuzz.Executor.run_in_ctx
            (Mufuzz.Executor.make_ctx ~contract:c ~gas:1_000_000 ~n_senders:3
               ~attacker:true ~cache ())
            s
        in
        let r1 = run seed in
        (* mutate only the last tx: the three-tx prefix must come from cache *)
        let last = List.nth seed.txs 3 in
        let seed2 =
          Mufuzz.Seed.with_tx seed 3 { last with sender = last.sender + 1 }
        in
        let r2 = run seed2 in
        Alcotest.(check bool) "hits recorded" true (Mufuzz.State_cache.hits cache > 0);
        (* prefix traces identical *)
        let b r i = Evm.Trace.branches (List.nth r.Mufuzz.Executor.tx_results i).trace in
        Alcotest.(check (list (pair int bool))) "tx0 same" (b r1 0) (b r2 0);
        Alcotest.(check (list (pair int bool))) "tx2 same" (b r1 2) (b r2 2));
    unit "digest distinguishes stream, sender and function" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let f = List.find (fun (f : Abi.func) -> f.Abi.name = "invest") c.abi in
        let tx = Mufuzz.Seed.make_tx f ~sender:0 ~args:(String.make 32 'a') ~value:U.zero in
        let d0 = Mufuzz.State_cache.digest_tx "" tx in
        Alcotest.(check bool) "sender" true
          (d0 <> Mufuzz.State_cache.digest_tx "" { tx with sender = 1 });
        Alcotest.(check bool) "stream" true
          (d0 <> Mufuzz.State_cache.digest_tx "" { tx with stream = String.make 64 'b' });
        Alcotest.(check bool) "chain" true
          (d0 <> Mufuzz.State_cache.digest_tx d0 tx));
  ]

let suite = suite @ [ ("mufuzz: state cache", cache_tests) ]

let report_tests =
  [
    unit "to_text contains summary and witnesses" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.suicidal in
        let r =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 400 } c
        in
        let text = Mufuzz.Report.to_text r in
        let contains needle =
          let n = String.length needle and m = String.length text in
          let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "has title" true (contains "Suicidal");
        Alcotest.(check bool) "has coverage" true (contains "branch coverage");
        Alcotest.(check bool) "has US class" true (contains "US");
        Alcotest.(check bool) "has growth" true (contains "coverage growth"));
    unit "to_text always prints the final coverage checkpoint" (fun () ->
        (* 45 checkpoints: step = 45/20 = 2, and 44 (the last index) is
           even, so before the fix the final sample depended on parity;
           47 checkpoints give step 2 with an odd last index — both must
           end on the true final value *)
        List.iter
          (fun n ->
            let over_time =
              List.init n (fun i ->
                  { Mufuzz.Report.execs = i + 1; covered = i + 1 })
            in
            let r =
              {
                Mufuzz.Report.contract_name = "T";
                executions = n;
                steps = 0;
                mask_probes = 0;
                predict_proposals = 0;
                covered_branches = n;
                covered = [];
                total_branch_sides = 2 * n;
                findings = [];
                occurrences = [];
                witnesses = [];
                witness_seeds = [];
                over_time;
                seeds_in_queue = 0;
                corpus = [];
                corpus_skipped = [];
                wall_seconds = 0.0;
                stop_reason = Mufuzz.Report.Budget_exhausted;
                parallel = None;
              }
            in
            let text = Mufuzz.Report.to_text r in
            let final = Printf.sprintf "  %6d %4d\n" n n in
            let contains needle =
              let k = String.length needle and m = String.length text in
              let rec go i =
                i + k <= m && (String.sub text i k = needle || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool)
              (Printf.sprintf "final checkpoint printed (n=%d)" n)
              true (contains final))
          [ 1; 2; 19; 20; 45; 46; 47; 100 ]);
    unit "findings_by_class counts match findings" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.suicidal in
        let r =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 400 } c
        in
        let total =
          List.fold_left (fun acc (_, n) -> acc + n) 0
            (Mufuzz.Report.findings_by_class r)
        in
        Alcotest.(check int) "sum" (List.length r.findings) total);
  ]

let cache_property =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"caching transparent on generated contracts" ~count:5
         ~print:Int64.to_string
         QCheck2.Gen.(map Int64.of_int small_int)
         (fun gseed ->
           let spec =
             List.hd
               (Corpus.Generator.population ~seed:gseed ~n:1 Corpus.Generator.Small
                  ~bug_rate:0.3)
           in
           let c = Corpus.Generator.compile spec in
           (* random 1-4 transaction sequences over the contract's ABI *)
           let rng = Util.Rng.create gseed in
           let seeds =
             List.init 12 (fun _ ->
                 let ntx = 1 + Util.Rng.int rng 4 in
                 {
                   Mufuzz.Seed.txs =
                     List.init ntx (fun _ ->
                         Mufuzz.Seed.random_tx rng ~n_senders:3
                           (Util.Rng.choose_list rng c.abi));
                 })
           in
           fst (cache_transparent c seeds)));
  ]

let suite =
  suite @ [ ("mufuzz: report", report_tests); ("mufuzz: cache property", cache_property) ]

let replay_tests =
  [
    unit "seed serialisation round trip" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let rng = Util.Rng.create 21L in
        let seed =
          Mufuzz.Seed.of_sequence rng ~n_senders:3 c.abi
            [ "constructor"; "invest"; "refund"; "withdraw" ]
        in
        let s = Mufuzz.Replay.seed_to_string seed in
        let back = Mufuzz.Replay.seed_of_string ~abi:c.abi s in
        Alcotest.(check int) "tx count" 4 (List.length back.txs);
        List.iter2
          (fun (a : Mufuzz.Seed.tx) (b : Mufuzz.Seed.tx) ->
            Alcotest.(check string) "fn" a.fn.Abi.name b.fn.Abi.name;
            Alcotest.(check int) "sender" a.sender b.sender;
            Alcotest.(check string) "stream" a.stream b.stream)
          seed.txs back.txs);
    unit "corpus file round trip" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let rng = Util.Rng.create 22L in
        let seeds =
          List.init 3 (fun _ ->
              Mufuzz.Seed.of_sequence rng ~n_senders:3 c.abi
                [ "constructor"; "invest" ])
        in
        let path = Filename.temp_file "corpus" ".txt" in
        Mufuzz.Replay.save_corpus path seeds;
        let loaded, skipped = Mufuzz.Replay.load_corpus ~abi:c.abi path in
        Sys.remove path;
        Alcotest.(check int) "three seeds" 3 (List.length loaded);
        Alcotest.(check int) "nothing skipped" 0 (List.length skipped));
    unit "corrupt block skipped, rest load" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let rng = Util.Rng.create 23L in
        let seeds =
          List.init 2 (fun _ ->
              Mufuzz.Seed.of_sequence rng ~n_senders:3 c.abi
                [ "constructor"; "invest" ])
        in
        let path = Filename.temp_file "corpus" ".txt" in
        (* good block, corrupt block (unknown function), good block *)
        let oc = open_out path in
        output_string oc (Mufuzz.Replay.seed_to_string (List.nth seeds 0));
        output_string oc "\nnonsense 0 aa\n\n";
        output_string oc (Mufuzz.Replay.seed_to_string (List.nth seeds 1));
        close_out oc;
        let loaded, skipped = Mufuzz.Replay.load_corpus ~abi:c.abi path in
        Sys.remove path;
        Alcotest.(check int) "two seeds survive" 2 (List.length loaded);
        (match skipped with
        | [ (1, reason) ] ->
          Alcotest.(check bool) "reason mentions the function" true
            (String.length reason > 0)
        | _ -> Alcotest.fail "expected exactly block 1 skipped"));
    unit "unknown function rejected" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        match Mufuzz.Replay.seed_of_string ~abi:c.abi "nonsense 0 aa\n" with
        | exception Mufuzz.Replay.Corrupt _ -> ()
        | _ -> Alcotest.fail "should raise");
    unit "campaign accepts a replayed corpus" (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let r1 =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 200 } c
        in
        (* bootstrap a second campaign from the first one's queue *)
        let r2 =
          Mufuzz.Campaign.run
            ~config:{ Mufuzz.Config.default with max_executions = 200;
                      initial_corpus = r1.corpus }
            c
        in
        Alcotest.(check bool) "at least as much coverage" true
          (r2.covered_branches >= r1.covered_branches - 2))
  ]

let suite = suite @ [ ("mufuzz: replay", replay_tests) ]
