(* Pinned campaign outputs: whole-campaign fingerprints across a matrix
   of contracts and configurations, at jobs=1 and jobs=2.

   Each fingerprint is the Keccak hash of the report's JSON (minus the
   wall-clock fields and the [parallel] block, whose values depend on
   scheduling) followed by [Seed.show] of every seed in the final
   corpus. At jobs=1 the ring-sink event stream is hashed as well. Any
   change to selection, masking, energy, mutation, prediction, resume
   or the report builder shows up here as a hash mismatch; an
   intentional change must re-pin and say why. *)

module J = Telemetry.Json

let wall_fields = [ "wall_seconds"; "execs_per_sec"; "steps_per_sec"; "parallel" ]

let strip keys = function
  | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) fields)
  | j -> j

(* [with_steps:false] also drops the logical step total, which is not
   pinned for jobs>1 campaigns *)
let report_digest ?(with_steps = true) (r : Mufuzz.Report.t) =
  let drop = if with_steps then wall_fields else "steps" :: wall_fields in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (J.to_string (strip drop (Mufuzz.Report.to_json r)));
  List.iter
    (fun s ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Mufuzz.Seed.show s))
    r.corpus;
  Crypto.Keccak.hash_hex (Buffer.contents buf)

let events_digest ring =
  Alcotest.(check int) "ring dropped nothing" 0 (Telemetry.Sink.ring_dropped ring);
  let buf = Buffer.create 65536 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (J.to_string (Telemetry.Event.to_json ev));
      Buffer.add_char buf '\n')
    (Telemetry.Sink.ring_contents ring);
  Crypto.Keccak.hash_hex (Buffer.contents buf)

let contracts =
  [
    ("crowdsale", Corpus.Examples.crowdsale, 2000);
    ("wallet", Corpus.Examples.wallet, 2000);
    ("strict_guard", Corpus.Examples.strict_guard, 1500);
    ("simple_dao", Corpus.Examples.simple_dao, 1500);
  ]

let compiled =
  List.map
    (fun (name, src, budget) -> (name, (lazy (Minisol.Contract.compile src), budget)))
    contracts

let config_of budget = { Mufuzz.Config.default with max_executions = budget }

let variants =
  [
    ("default", fun c -> c);
    ("predict", fun c -> { c with Mufuzz.Config.predict = true });
    ("no-mask", fun c -> { c with Mufuzz.Config.mask_guided = false });
    ("blackbox", fun c -> { c with Mufuzz.Config.blackbox = true });
  ]

(* jobs=1 run with a ring sink; the default variant also captures the
   first snapshot past half the budget for the resume pin *)
let run_seq ?resume ?snap config contract =
  let ring = Telemetry.Sink.ring ~capacity:(1 lsl 20) in
  let on_safe_point =
    Option.map
      (fun cell ~final ~bus:_ ~execs thunk ->
        if (not final) && execs >= config.Mufuzz.Config.max_executions / 2
           && Option.is_none !cell
        then cell := Some (thunk ()))
      snap
  in
  let r =
    Mufuzz.Campaign.run ~config ~sinks:[ Telemetry.Sink.ring_sink ring ]
      ?resume ?on_safe_point contract
  in
  (r, events_digest ring)

let default_runs =
  List.map
    (fun (name, (c, budget)) ->
      ( name,
        lazy
          (let snap = ref None in
           let r = run_seq ~snap (config_of budget) (Lazy.force c) in
           match !snap with
           | Some s -> (r, s)
           | None -> Alcotest.fail "no mid-run safe point") ))
    compiled

(* (contract, case) -> (report digest, events digest); events are
   pinned at jobs=1 only *)
let pins =
  [
    ( "crowdsale",
      "j1/default",
      "59baca66e1c9a4ace7c8d6bad8147f32cfccae2a1cf6016190b5112c5125081f",
      "b085e04c3a3480fe4fa4a1e86bfb3623ff9f71920038046a204de629a593bb2b" );
    ( "crowdsale",
      "j1/predict",
      "847b4c9b7148a32927b5ef1f208514e879cce2473413f46191f286beb9ee7121",
      "f9876cfd65d81dfa8c6f6ab23d311a1bc8ebb3c13982f69baa424793d32fedc9" );
    ( "crowdsale",
      "j1/no-mask",
      "9d5fddb707be03668890288c3ea42258169784cde114ebcca1ed943c98c8ee48",
      "cbed8e7c360589e1c1844119c7d3a77419f811289d6a58dc9b83ddfd7324167d" );
    ( "crowdsale",
      "j1/blackbox",
      "f3cedfbe5c597cd0f83310d05c8ee3d21c24cbce6bb524ecf5215a099dac3cf3",
      "1dd5b244d2b841f058fbfdd1e0c5f801ace3720565a0e0296f6b0e7ee8aaf3cd" );
    ( "crowdsale",
      "j1/resume",
      "59baca66e1c9a4ace7c8d6bad8147f32cfccae2a1cf6016190b5112c5125081f",
      "acbc9f1141182e6bd9f68897f65e83a50f3c53b83f525a9a4386a3c42efba4e7" );
    ( "wallet",
      "j1/default",
      "608a284114bf35b4df5df3f78816216cf1313f532f4d0b0e9ec8bc804fe25213",
      "e7a91b76bd8501900653a6ac44f0067b00a74d37633fc4929d035f3e15202c0e" );
    ( "wallet",
      "j1/predict",
      "1ba0105825de47dd10ec7880554dc59aa07b1faf3e67898fc052c8c275c57b21",
      "d28a8ebaaecdad41f7305b9b3abe910374b67bee3e273e51393a22ca9f3c293d" );
    ( "wallet",
      "j1/no-mask",
      "2b5be69dd32cd1b1f683e12fbee4059a585458523794eeee361d334bf181e05f",
      "ec7be32307caaed3b57f6f248ef8735b3f56c017c0553af53257e106b3919608" );
    ( "wallet",
      "j1/blackbox",
      "bbe2959d3dcba7485a554a3ecb1a6f13e2c271a87d7d91574da2c8d815b3dc24",
      "02f05a7b15228814bc97d15b8d29874ff9170c11ae4cc85dc26509b7403bdd0c" );
    ( "wallet",
      "j1/resume",
      "608a284114bf35b4df5df3f78816216cf1313f532f4d0b0e9ec8bc804fe25213",
      "75e7503314f2ac4d2c72425a66c04fd9495450b8249202f98cb2ae0f0b73a0a6" );
    ( "strict_guard",
      "j1/default",
      "072769042e33d70b37e9da6c1a300b4fb5e7c44940abfde1152988ec4f564b49",
      "68e859fa28f98d3cbcb5b8497de5182724674519f8ef1b4bddd4ad04de18f906" );
    ( "strict_guard",
      "j1/predict",
      "4a02dd3bfc63729bd4f1a65895297fdad03e86bd153e2d165707aeffa6c4c816",
      "fe672f2cebfc65db2a52a3a9553ec60d88d3ffeabe8985dad706780298871e8b" );
    ( "strict_guard",
      "j1/no-mask",
      "189576d20311a8d0e6123db4fb739db54cdd13efb3421c902fd96cf528e38126",
      "15c489efcc8b376794300d9b8c392281b31eac411a49337d7d317a04d043cea9" );
    ( "strict_guard",
      "j1/blackbox",
      "b615a8bb200ab9e984c62c76d39f4dcddde967be61f3c3cd2d43ad188066ba48",
      "4db61747ccf44a0d5bdb86ac24ae20aae1659143a7110e29e77cbb5045169554" );
    ( "strict_guard",
      "j1/resume",
      "072769042e33d70b37e9da6c1a300b4fb5e7c44940abfde1152988ec4f564b49",
      "9a1d1324ab1dbd99a2e752a4e3eed95ced746820a1e8288f6ed04151a20faaf2" );
    ( "simple_dao",
      "j1/default",
      "ffb5992e08c8e3afc005728572d7ce2f9e3bf3f6dd615f3df73de0d7c1d0c07c",
      "8a000ca74bf77b323645a353b1777ec3ca35bf7ffc0bef0eb6e5566e406ed27d" );
    ( "simple_dao",
      "j1/predict",
      "49d11fc5ede37e494438b67c8920554ea7ba6e082d680f6c629805d917bc84c8",
      "941758db3f9902643e762d84d49f91a5f1b3967a29be0c52574e18378acaf62a" );
    ( "simple_dao",
      "j1/no-mask",
      "e780d9a9ad2f3be6e39703dd09d2c9082d650793eaf7fdd7e80e4217c73f0528",
      "ac90970201133978ace77f724d7523ee869c7b383cd6a167d8e7a8b3ad63ab5a" );
    ( "simple_dao",
      "j1/blackbox",
      "12584d2ed150e68deba952c219ddc1538c9acd4bf9dd30e3f88865b04f8b980a",
      "eb5c1b6ece35339d28c44ea8f137da0cb134867b2d1d5863cf966afcafd5d698" );
    ( "simple_dao",
      "j1/resume",
      "ffb5992e08c8e3afc005728572d7ce2f9e3bf3f6dd615f3df73de0d7c1d0c07c",
      "1893e94e8c8658a94a679160111be2495502f9aad29a740b80e9613f218b1d82" );
    ( "crowdsale",
      "j2/default",
      "b8a2cb167b53d6ba1a632a91f2d18d8cab43bec39361aa532c2a4faf297a4aa2",
      "" );
    ( "crowdsale",
      "j2/predict",
      "9d8b6bb537fd1fbe967c830f5ea5561e3f2adcb7715d367e4654d5175d252d2e",
      "" );
    ( "wallet",
      "j2/default",
      "d1022b191ffd8887d8eb32e33dc5382c2bc84fbacebd996e95edd046054b4b74",
      "" );
    ( "wallet",
      "j2/predict",
      "9780833240f1b2566243afbb4d34e4f81f89608e462ab184d6792fb56b81324a",
      "" );
    ( "strict_guard",
      "j2/default",
      "f4b22281284b003f847f90df3fe5d05593cfc8a6c8c3c75ca88b4c30f4273b16",
      "" );
    ( "strict_guard",
      "j2/predict",
      "0e9fb4ea20aeb4e4f4efc6dad3ae6d2dbf292fe734192fe766fa79d5735819d9",
      "" );
    ( "simple_dao",
      "j2/default",
      "4612fecd28d91ec6831a5c6a287bb9dcc3d86b1094cf38880024a56693e41761",
      "" );
    ( "simple_dao",
      "j2/predict",
      "ba9ea94ab354ef8d73d919abdc7827870809edca32bbacaecadd9e60304fe564",
      "" );
  ]

let expected name case =
  match List.find_opt (fun (n, k, _, _) -> n = name && k = case) pins with
  | Some (_, _, r, e) -> (r, e)
  | None -> Alcotest.failf "no pin for %s %s" name case

let check name case (report, events) =
  let r_exp, e_exp = expected name case in
  Alcotest.(check string) "report digest" r_exp report;
  Alcotest.(check string) "events digest" e_exp events

let seq_tests =
  List.concat_map
    (fun (name, (c, budget)) ->
      List.map
        (fun (vname, f) ->
          let case = "j1/" ^ vname in
          Alcotest.test_case (name ^ " " ^ case) `Quick (fun () ->
              let r, ev =
                if vname = "default" then fst (Lazy.force (List.assoc name default_runs))
                else run_seq (f (config_of budget)) (Lazy.force c)
              in
              check name case (report_digest r, ev)))
        variants
      @ [
          Alcotest.test_case (name ^ " j1/resume") `Quick (fun () ->
              let _, snap = Lazy.force (List.assoc name default_runs) in
              let r, ev =
                run_seq ~resume:("pin", snap) (config_of budget) (Lazy.force c)
              in
              check name "j1/resume" (report_digest r, ev));
        ])
    compiled

let par_tests =
  List.concat_map
    (fun (name, (c, budget)) ->
      List.map
        (fun predict ->
          let case = if predict then "j2/predict" else "j2/default" in
          Alcotest.test_case (name ^ " " ^ case) `Quick (fun () ->
              let config =
                { (config_of budget) with jobs = 2; round_batch = 2; predict }
              in
              let r = Mufuzz.Campaign.run_parallel ~config (Lazy.force c) in
              check name case (report_digest ~with_steps:false r, "")))
        [ false; true ])
    compiled

(* ---------------- laws of the one campaign loop ---------------- *)

let crowdsale = List.assoc "crowdsale" compiled |> fst

let normalized r = J.to_string (strip wall_fields (Mufuzz.Report.to_json r))

let law_tests =
  [
    Alcotest.test_case "black-box steps agree at jobs=1 and jobs=2" `Quick
      (fun () ->
        (* both dispatch modes execute the same seed stream, so every
           execution's logical steps must reach the report either way *)
        let config =
          { (config_of 2000) with Mufuzz.Config.blackbox = true; round_batch = 2 }
        in
        let c = Lazy.force crowdsale in
        let a = Mufuzz.Campaign.run ~config c in
        let b = Mufuzz.Campaign.run_parallel ~config:{ config with jobs = 2 } c in
        Alcotest.(check bool) "steps counted" true (a.steps > 0);
        Alcotest.(check int) "steps" a.steps b.Mufuzz.Report.steps;
        Alcotest.(check string) "same report" (normalized a) (normalized b));
    Alcotest.test_case "jobs=1 mufuzz_evm_steps_total equals the report's steps"
      `Quick (fun () ->
        (* every execution replays its whole sequence, so the opcodes
           the interpreter dispatched are the report's logical total *)
        let metrics = Telemetry.Metrics.create () in
        let config = { (config_of 3000) with Mufuzz.Config.rng_seed = 7L } in
        let r = Mufuzz.Campaign.run ~config ~metrics (Lazy.force crowdsale) in
        Alcotest.(check int) "steps"
          r.Mufuzz.Report.steps
          Telemetry.Metrics.(value (counter metrics "mufuzz_evm_steps_total"));
        let dump = Telemetry.Metrics.dump metrics in
        Alcotest.(check bool) "no cache counters" false
          (List.exists
             (fun l -> String.starts_with ~prefix:"mufuzz_cache" l)
             (String.split_on_char '\n' dump)));
  ]
  @ List.concat_map
      (fun predict ->
        List.map
          (fun at ->
            Alcotest.test_case
              (Printf.sprintf "jobs=2 resume at %d%s reproduces the report" at
                 (if predict then " with predict" else ""))
              `Quick
              (fun () ->
                let config =
                  { (config_of 2500) with jobs = 2; round_batch = 2; predict }
                in
                let c = Lazy.force crowdsale in
                let snap = ref None in
                let hook ~final ~bus:_ ~execs thunk =
                  if (not final) && execs >= at && Option.is_none !snap then
                    snap := Some (thunk ())
                in
                let a = Mufuzz.Campaign.run_parallel ~config ~on_safe_point:hook c in
                let snap =
                  match !snap with
                  | Some s -> s
                  | None -> Alcotest.fail "no mid-run safe point"
                in
                let b = Mufuzz.Campaign.run_parallel ~config ~resume:("law", snap) c in
                Alcotest.(check string) "same report" (normalized a) (normalized b)))
          [ 500; 1500 ])
      [ false; true ]

let suite =
  [
    ("campaign: pinned outputs", seq_tests @ par_tests);
    ("campaign: loop laws", law_tests);
  ]
