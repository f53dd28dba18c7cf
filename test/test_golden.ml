(* Golden-trace snapshots: the branch-event stream of a fixed seed on
   each example contract, hashed and pinned.

   The fingerprint covers every JUMPI the interpreter reports — pc,
   taken direction and the sFuzz branch distance — across the whole
   transaction sequence. Any change to the compiler, the interpreter's
   branch instrumentation or the seed byte-stream layout shows up here
   as a hash mismatch, and the same seed executed on worker domains
   must fingerprint identically to the sequential run (the --jobs 1 vs
   --jobs 2 determinism contract). *)

let gas = Mufuzz.Config.default.gas_per_tx
let n_senders = Mufuzz.Config.default.n_senders
let attacker = Mufuzz.Config.default.attacker_enabled

(* One fixed seed per contract: the derived sequence, concretised with
   a pinned RNG stream. *)
let fixed_seed (c : Minisol.Contract.t) =
  let rng = Util.Rng.create 7L in
  Mufuzz.Seed.of_sequence rng ~n_senders c.abi
    ("constructor" :: Mufuzz.Campaign.derive_sequence c)

let branch_fingerprint (run : Mufuzz.Executor.run) =
  let buf = Buffer.create 512 in
  List.iter
    (fun (r : Mufuzz.Executor.tx_result) ->
      List.iter
        (fun (e : Evm.Trace.event) ->
          match e with
          | Evm.Trace.Branch { pc; taken; dist_to_flip; _ } ->
            Buffer.add_string buf
              (Printf.sprintf "%d:%d:%b:%h;" r.tx_index pc taken dist_to_flip)
          | _ -> ())
        r.trace.events)
    run.tx_results;
  Crypto.Keccak.hash_hex (Buffer.contents buf)

let fingerprint_of source =
  let c = Minisol.Contract.compile source in
  let seed = fixed_seed c in
  branch_fingerprint
    (Mufuzz.Executor.run_seed ~contract:c ~gas ~n_senders ~attacker seed)

(* Pinned snapshots (regenerate by reading the test failure diff after
   an intentional instrumentation change). *)
let golden =
  [
    ( "crowdsale",
      Corpus.Examples.crowdsale,
      "eee1223ba922f2f7326c23a393c5153f38398272e9f8047c2f611ee45569f97a" );
    ( "guess_number",
      Corpus.Examples.guess_number,
      "db87e4772fedf336a47e661d44d160d5d1d72b0dfe27d6a5705e08c7807b3b99" );
    ( "simple_dao",
      Corpus.Examples.simple_dao,
      "b9e99fe56ffc76f14f43132517d8d9c97c2216c14b76f6ac73a68d3a918ef773" );
    ( "token_overflow",
      Corpus.Examples.token_overflow,
      "11b8896dfc3690c5a194a7cf421d180bfeeae085845b10a4355752f1212d751f" );
  ]

let snapshot_tests =
  List.map
    (fun (name, source, expected) ->
      Alcotest.test_case (name ^ " branch stream matches snapshot") `Quick
        (fun () ->
          Alcotest.(check string) "golden hash" expected (fingerprint_of source)))
    golden

let determinism_tests =
  [
    Alcotest.test_case "fingerprint is stable across repeated runs" `Quick
      (fun () ->
        let h1 = fingerprint_of Corpus.Examples.crowdsale in
        let h2 = fingerprint_of Corpus.Examples.crowdsale in
        Alcotest.(check string) "same hash" h1 h2);
    Alcotest.test_case "state cache does not change the branch stream" `Quick
      (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.simple_dao in
        let seed = fixed_seed c in
        let plain =
          Mufuzz.Executor.run_seed ~contract:c ~gas ~n_senders ~attacker seed
        in
        let ctx =
          Mufuzz.Executor.make_ctx ~contract:c ~gas ~n_senders ~attacker
            ~cache:(Mufuzz.State_cache.create ()) ()
        in
        (* run twice through the same cache: cold, then prefix-hit *)
        let _ = Mufuzz.Executor.run_in_ctx ctx seed in
        let cached = Mufuzz.Executor.run_in_ctx ctx seed in
        Alcotest.(check string) "same fingerprint"
          (branch_fingerprint plain)
          (branch_fingerprint cached));
    Alcotest.test_case "worker domains fingerprint like the coordinator"
      `Quick
      (fun () ->
        let contracts =
          List.map
            (fun (_, source, _) -> Minisol.Contract.compile source)
            golden
        in
        let sequential =
          List.map
            (fun c ->
              branch_fingerprint
                (Mufuzz.Executor.run_seed ~contract:c ~gas ~n_senders ~attacker
                   (fixed_seed c)))
            contracts
        in
        let parallel =
          Mufuzz.Pool.with_pool ~jobs:2 (fun pool ->
              Mufuzz.Pool.map pool
                (fun c ->
                  branch_fingerprint
                    (Mufuzz.Executor.run_seed ~contract:c ~gas ~n_senders
                       ~attacker (fixed_seed c)))
                contracts)
        in
        List.iter2
          (fun a b -> Alcotest.(check string) "jobs=1 = jobs=2" a b)
          sequential parallel);
    Alcotest.test_case "campaigns agree across --jobs 1 and --jobs 2" `Slow
      (fun () ->
        let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
        let run jobs =
          Mufuzz.Campaign.run_parallel
            ~config:
              { Mufuzz.Config.default with max_executions = 400; jobs }
            c
        in
        let r1 = run 1 and r2 = run 2 in
        let classes (r : Mufuzz.Report.t) =
          List.sort_uniq compare
            (List.map (fun (f : Oracles.Oracle.finding) -> f.cls) r.findings)
        in
        Alcotest.(check bool) "same bug classes" true
          (classes r1 = classes r2));
  ]

let suite =
  [
    ("golden.snapshots", snapshot_tests);
    ("golden.determinism", determinism_tests);
  ]
