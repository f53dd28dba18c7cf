(* Campaign persistence: codec round-trip laws, corrupt-input
   rejection, the rotated checkpoint store, and the headline
   guarantee — a campaign resumed from a mid-run checkpoint finishes
   with the same report the uninterrupted run produces. *)

module J = Telemetry.Json

let unit name f = Alcotest.test_case name `Quick f

let qprop name ?(count = 200) ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen f)

let fn_u name =
  { Abi.name; inputs = [ Abi.Uint256 ]; payable = true; is_constructor = false }

let contract = Minisol.Contract.compile Corpus.Examples.crowdsale

let abi = contract.Minisol.Contract.abi

let base_config =
  { Mufuzz.Config.default with max_executions = 2500; rng_seed = 99L }

(* one sequential campaign with a mid-run snapshot captured at the
   first safe point past [at] executions; memoised — several tests
   compare against the same reference run *)
let reference =
  lazy
    (let snap = ref None in
     let hook ~final ~bus:_ ~execs thunk =
       if (not final) && execs >= 800 && Option.is_none !snap then
         snap := Some (thunk ())
     in
     let report =
       Mufuzz.Campaign.run ~config:base_config ~on_safe_point:hook contract
     in
     match !snap with
     | Some s -> (report, s)
     | None -> Alcotest.fail "reference campaign never hit a safe point")

(* report comparison modulo the wall-clock fields the spec excludes *)
let normalized report =
  match Mufuzz.Report.to_json report with
  | J.Obj fields ->
    J.to_string
      (J.Obj
         (List.filter
            (fun (k, _) ->
              not
                (List.mem k [ "wall_seconds"; "execs_per_sec"; "steps_per_sec" ]))
            fields))
  | j -> J.to_string j

(* scratch dirs route through Util.Fileio so an aborted test run
   cannot strand persist-tmp-* litter in the working tree — the
   at_exit hook sweeps everything the process created *)
let temp_dir () = Util.Fileio.temp_dir ~prefix:"persist-tmp" ()

let no_temp_leftovers dir =
  Array.for_all
    (fun name ->
      not
        (String.length name >= 4
        && String.sub name (String.length name - 4) 4 = ".tmp"))
    (Sys.readdir dir)

(* ---------------- atomic file writes ---------------- *)

let occurrences hay needle =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else go (i + 1) (if String.sub hay i n = needle then acc + 1 else acc)
  in
  go 0 0

let contains hay needle = occurrences hay needle > 0

let fileio_tests =
  [
    unit "write_atomic writes and overwrites" (fun () ->
        let dir = temp_dir () in
        let path = Filename.concat dir "f.txt" in
        Util.Fileio.write_atomic path "first";
        Alcotest.(check string) "first" "first" (Util.Fileio.read_file path);
        Util.Fileio.write_atomic path "second";
        Alcotest.(check string) "second" "second" (Util.Fileio.read_file path);
        Alcotest.(check bool) "no temp files" true (no_temp_leftovers dir));
    unit "save_corpus is atomic" (fun () ->
        let dir = temp_dir () in
        let path = Filename.concat dir "corpus.txt" in
        let rng = Util.Rng.create 1L in
        let seed = Mufuzz.Seed.of_sequence rng ~n_senders:2 [ fn_u "a" ] [ "a" ] in
        Mufuzz.Replay.save_corpus path [ seed ];
        let loaded, skipped = Mufuzz.Replay.load_corpus ~abi:[ fn_u "a" ] path in
        Alcotest.(check int) "one seed" 1 (List.length loaded);
        Alcotest.(check int) "none skipped" 0 (List.length skipped);
        Alcotest.(check bool) "no temp files" true (no_temp_leftovers dir));
    unit "load trims, decodes and names the path once in every error"
      (fun () ->
        let dir = temp_dir () in
        let doc = Filename.concat dir "doc.json" in
        Util.Fileio.write_atomic doc "  {\"a\": 1}\n";
        Alcotest.(check bool) "decoded" true
          (Util.Fileio.load doc J.of_string = Ok (J.Obj [ ("a", J.Int 1) ]));
        List.iter
          (fun (what, path, parse) ->
            match Util.Fileio.load path parse with
            | Ok _ -> Alcotest.failf "%s: accepted" what
            | Error e ->
              Alcotest.(check int) (what ^ ": " ^ e) 1 (occurrences e path))
          [
            ("missing file", Filename.concat dir "absent.json", J.of_string);
            ("decoder error", doc, fun _ -> Error "rejected");
          ]);
  ]

(* ---------------- RNG save/restore ---------------- *)

let rng_tests =
  [
    qprop "restore continues the exact stream"
      ~print:(fun (s, k) -> Printf.sprintf "seed=%Ld skip=%d" s k)
      QCheck2.Gen.(pair (map Int64.of_int int) (int_range 0 50))
      (fun (seed, skip) ->
        let r = Util.Rng.create seed in
        for _ = 1 to skip do
          ignore (Util.Rng.int r 1000)
        done;
        let saved = Util.Rng.save r in
        let expect = List.init 16 (fun _ -> Util.Rng.int r 1_000_000) in
        let r' = Util.Rng.restore saved in
        let got = List.init 16 (fun _ -> Util.Rng.int r' 1_000_000) in
        expect = got);
    unit "state survives the decimal-string codec" (fun () ->
        let r = Util.Rng.create (-7L) in
        ignore (Util.Rng.int r 99);
        let s = Int64.to_string (Util.Rng.save r) in
        let r' = Util.Rng.restore (Int64.of_string s) in
        Alcotest.(check int) "next draw" (Util.Rng.int r 1000)
          (Util.Rng.int r' 1000));
  ]

(* ---------------- codec round trips ---------------- *)

let hex_digits = "0123456789abcdef"

let mask_json_gen =
  QCheck2.Gen.(
    pair (int_range 1 64)
      (string_size ~gen:(map (String.get hex_digits) (int_range 0 15))
         (int_range 1 80)))

let codec_tests =
  [
    qprop "mask json round trip"
      ~print:(fun (s, b) -> Printf.sprintf "stride=%d bits=%s" s b)
      mask_json_gen
      (fun (stride, bits) ->
        let j = J.Obj [ ("stride", J.Int stride); ("bits", J.String bits) ] in
        match Mufuzz.Mask.of_json j with
        | Error e -> QCheck2.Test.fail_reportf "of_json: %s" e
        | Ok m -> J.to_string (Mufuzz.Mask.to_json m) = J.to_string j);
    unit "mask of_json rejects bad input" (fun () ->
        let bad =
          [
            J.Obj [ ("stride", J.Int 0); ("bits", J.String "f") ];
            J.Obj [ ("stride", J.Int 4); ("bits", J.String "") ];
            J.Obj [ ("stride", J.Int 4); ("bits", J.String "xyz") ];
            J.Obj [ ("stride", J.Int 4) ];
          ]
        in
        List.iter
          (fun j ->
            match Mufuzz.Mask.of_json j with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %s" (J.to_string j))
          bad);
    unit "coverage json round trip on campaign output" (fun () ->
        let report, _ = Lazy.force reference in
        ignore report;
        let _, snap = Lazy.force reference in
        let j = Mufuzz.Coverage.to_json snap.Mufuzz.Campaign.sn_coverage in
        match Mufuzz.Coverage.of_json j with
        | Error e -> Alcotest.fail e
        | Ok cov ->
          Alcotest.(check string) "stable" (J.to_string j)
            (J.to_string (Mufuzz.Coverage.to_json cov)));
    unit "coverage of_json rejects n=0 and dists on covered sides" (fun () ->
        let hit n = J.Obj [ ("pc", J.Int 3); ("taken", J.Bool true); ("n", J.Int n) ] in
        let dist = J.Obj [ ("pc", J.Int 3); ("taken", J.Bool true); ("d", J.Float 1.0) ] in
        let doc hits dists =
          J.Obj [ ("hits", J.List hits); ("dists", J.List dists) ]
        in
        (match Mufuzz.Coverage.of_json (doc [ hit 0 ] []) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted n=0");
        match Mufuzz.Coverage.of_json (doc [ hit 2 ] [ dist ]) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted dist on covered side");
    unit "seed json round trip" (fun () ->
        let rng = Util.Rng.create 5L in
        let names =
          List.filter_map
            (fun (f : Abi.func) ->
              if f.is_constructor then None else Some f.Abi.name)
            abi
        in
        let seed =
          Mufuzz.Seed.of_sequence rng ~n_senders:3 abi ("constructor" :: names)
        in
        let j = Mufuzz.Seed.to_json seed in
        match Mufuzz.Seed.of_json ~abi j with
        | Error e -> Alcotest.fail e
        | Ok seed' ->
          Alcotest.(check string) "stable" (J.to_string j)
            (J.to_string (Mufuzz.Seed.to_json seed')));
    unit "seed of_json rejects unknown functions" (fun () ->
        let j =
          J.List
            [
              J.Obj
                [
                  ("fn", J.String "no_such_fn");
                  ("sender", J.Int 0);
                  ("stream", J.String "");
                ];
            ]
        in
        match Mufuzz.Seed.of_json ~abi j with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted unknown function");
    unit "config json round trip (non-default fields)" (fun () ->
        let rng = Util.Rng.create 2L in
        let seed = Mufuzz.Seed.of_sequence rng ~n_senders:2 abi [ "constructor" ] in
        let config =
          { base_config with
            Mufuzz.Config.jobs = 4;
            sequence_mode = Mufuzz.Config.Seq_random;
            blackbox = true;
            trace_path = Some "t.jsonl";
            checkpoint_dir = Some "ck";
            checkpoint_every_execs = 123;
            checkpoint_every_seconds = 1.5;
            checkpoint_keep = 7;
            max_seconds = 3.25;
            initial_corpus = [ seed ];
            rng_seed = -123456789L }
        in
        let j = Mufuzz.Config.to_json config in
        match Mufuzz.Config.of_json ~abi j with
        | Error e -> Alcotest.fail e
        | Ok config' ->
          Alcotest.(check string) "stable" (J.to_string j)
            (J.to_string (Mufuzz.Config.to_json config')));
  ]

(* ---------------- checkpoint documents ---------------- *)

let make_checkpoint () =
  let _, snap = Lazy.force reference in
  {
    Persist.Checkpoint.tool = "MuFuzz";
    config = base_config;
    contract;
    snapshot = snap;
  }

(* rewrite one top-level field of a rendered checkpoint *)
let with_field name v ckpt =
  match Persist.Checkpoint.to_json ckpt with
  | J.Obj fields ->
    J.Obj (List.map (fun (k, old) -> (k, if k = name then v else old)) fields)
  | j -> j

(* rewrite one field of a rendered checkpoint's snapshot object *)
let with_snapshot_field name rewrite ckpt =
  match Persist.Checkpoint.to_json ckpt with
  | J.Obj fields ->
    J.Obj
      (List.map
         (fun (k, v) ->
           match v with
           | J.Obj sf when k = "snapshot" ->
             ( k,
               J.Obj
                 (List.map
                    (fun (sk, sv) -> (sk, if sk = name then rewrite sv else sv))
                    sf) )
           | _ -> (k, v))
         fields)
  | j -> j

let checkpoint_tests =
  [
    unit "to_string/of_string round trip, byte-stable" (fun () ->
        let c = make_checkpoint () in
        let s = Persist.Checkpoint.to_string c in
        match Persist.Checkpoint.of_string s with
        | Error e -> Alcotest.fail e
        | Ok c' ->
          Alcotest.(check string) "same rendering" s
            (Persist.Checkpoint.to_string c');
          Alcotest.(check string) "tool" "MuFuzz" c'.tool;
          Alcotest.(check int) "execs" c.snapshot.sn_execs c'.snapshot.sn_execs);
    unit "rejects garbage and truncation" (fun () ->
        let s = Persist.Checkpoint.to_string (make_checkpoint ()) in
        List.iter
          (fun bad ->
            match Persist.Checkpoint.of_string bad with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "accepted corrupt input")
          [ "{nope"; ""; String.sub s 0 (String.length s / 2) ]);
    unit "rejects wrong format tag" (fun () ->
        let j = with_field "format" (J.String "mufuzz-repro") (make_checkpoint ()) in
        match Persist.Checkpoint.of_json j with
        | Error e ->
          Alcotest.(check bool) "mentions format" true
            (String.length e > 0)
        | Ok _ -> Alcotest.fail "accepted wrong format");
    unit "rejects future versions" (fun () ->
        let j = with_field "version" (J.Int 999) (make_checkpoint ()) in
        match Persist.Checkpoint.of_json j with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted version 999");
    unit "rejects source tampering (hash mismatch)" (fun () ->
        let j =
          with_field "source"
            (J.String (Corpus.Examples.crowdsale ^ " "))
            (make_checkpoint ())
        in
        match Persist.Checkpoint.of_json j with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted tampered source");
    unit "rejects out-of-range entry indices" (fun () ->
        let c = make_checkpoint () in
        let empty_first_seed = function
          | J.List (J.Obj e :: rest) ->
            J.List
              (J.Obj
                 (List.map
                    (fun (k, v) -> (k, if k = "seed" then J.List [] else v))
                    e)
              :: rest)
          | j -> j
        in
        List.iter
          (fun (what, name, rewrite, names) ->
            match
              Persist.Checkpoint.of_json (with_snapshot_field name rewrite c)
            with
            | Error e ->
              Alcotest.(check bool)
                (what ^ ": error names " ^ names)
                true (contains e names)
            | Ok _ -> Alcotest.failf "accepted %s" what)
          [
            ( "dangling queue index", "queue",
              (fun _ -> J.List [ J.Int 999999 ]), "queue" );
            ("negative cursor", "cursor", (fun _ -> J.Int (-7)), "cursor");
            ( "entry seed without transactions", "entries", empty_first_seed,
              "seed" );
          ]);
  ]

(* ---------------- the rotated store ---------------- *)

let store_tests =
  [
    unit "file naming is sortable and recognisable" (fun () ->
        Alcotest.(check string) "padded" "checkpoint-000000000042.json"
          (Persist.Store.file_name 42);
        Alcotest.(check bool) "accepts own names" true
          (Persist.Store.is_checkpoint_file (Persist.Store.file_name 7));
        List.iter
          (fun n ->
            Alcotest.(check bool) n false (Persist.Store.is_checkpoint_file n))
          [ "report.json"; "checkpoint-.json"; "checkpoint-12x.json"; "x" ]);
    unit "save rotates down to keep, load_latest picks newest" (fun () ->
        let dir = temp_dir () in
        let store = Persist.Store.create ~dir ~keep:2 in
        let c = make_checkpoint () in
        let save execs =
          ignore
            (Persist.Store.save store
               { c with snapshot = { c.snapshot with sn_execs = execs } })
        in
        save 100;
        save 200;
        save 300;
        Alcotest.(check int) "kept 2" 2 (List.length (Persist.Store.list store));
        Alcotest.(check bool) "no temp files" true (no_temp_leftovers dir);
        match Persist.Store.load_latest dir with
        | Error e -> Alcotest.fail e
        | Ok (path, loaded) ->
          Alcotest.(check int) "newest" 300 loaded.snapshot.sn_execs;
          Alcotest.(check string) "path name" (Persist.Store.file_name 300)
            (Filename.basename path));
    unit "load_latest falls back past a corrupt newest file" (fun () ->
        let dir = temp_dir () in
        let store = Persist.Store.create ~dir ~keep:3 in
        let c = make_checkpoint () in
        ignore (Persist.Store.save store c);
        Util.Fileio.write_atomic
          (Filename.concat dir (Persist.Store.file_name (c.snapshot.sn_execs + 1)))
          "{torn";
        (match Persist.Store.load_latest dir with
        | Error e -> Alcotest.fail e
        | Ok (_, loaded) ->
          Alcotest.(check int) "older good one" c.snapshot.sn_execs
            loaded.snapshot.sn_execs);
        match Persist.Store.load_latest (temp_dir ()) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "empty dir should not load");
  ]

(* ---------------- kill-and-resume determinism ---------------- *)

let resume_tests =
  [
    unit "sequential resume reproduces the uninterrupted report" (fun () ->
        let report_a, snap = Lazy.force reference in
        let report_b =
          Mufuzz.Campaign.run ~config:base_config ~resume:("test", snap) contract
        in
        Alcotest.(check string) "reports equal modulo wall clock"
          (normalized report_a) (normalized report_b);
        Alcotest.(check bool) "stopped on budget" true
          (report_b.stop_reason = Mufuzz.Report.Budget_exhausted));
    unit "resume through the disk codec is equally deterministic" (fun () ->
        let report_a, _ = Lazy.force reference in
        let dir = temp_dir () in
        let store = Persist.Store.create ~dir ~keep:1 in
        ignore (Persist.Store.save store (make_checkpoint ()));
        match Persist.Store.load_latest dir with
        | Error e -> Alcotest.fail e
        | Ok (path, ckpt) ->
          let report_b =
            Mufuzz.Campaign.run ~config:ckpt.config ~resume:(path, ckpt.snapshot)
              ckpt.contract
          in
          Alcotest.(check string) "reports equal modulo wall clock"
            (normalized report_a) (normalized report_b));
    unit "parallel resume preserves merged coverage and findings" (fun () ->
        let config =
          { base_config with Mufuzz.Config.jobs = 2; max_executions = 3000 }
        in
        let snap = ref None in
        let hook ~final ~bus:_ ~execs thunk =
          if (not final) && execs >= 600 && Option.is_none !snap then
            snap := Some (thunk ())
        in
        let report_a =
          Mufuzz.Campaign.run_parallel ~config ~on_safe_point:hook contract
        in
        let snap =
          match !snap with
          | Some s -> s
          | None -> Alcotest.fail "no mid-run safe point at jobs 2"
        in
        let report_b =
          Mufuzz.Campaign.run_parallel ~config ~resume:("test", snap) contract
        in
        Alcotest.(check int) "covered sides" report_a.covered_branches
          report_b.Mufuzz.Report.covered_branches;
        Alcotest.(check (list (pair int bool))) "covered set" report_a.covered
          report_b.covered;
        let keys (r : Mufuzz.Report.t) =
          List.map (fun (k, _) -> Oracles.Oracle.key_to_string k) r.occurrences
        in
        Alcotest.(check (list string)) "finding keys" (keys report_a)
          (keys report_b));
    unit "checkpoint driver writes on cadence, campaign emits events" (fun () ->
        let dir = temp_dir () in
        let config =
          { base_config with
            Mufuzz.Config.max_executions = 1200;
            checkpoint_dir = Some dir;
            checkpoint_every_execs = 300;
            checkpoint_keep = 2 }
        in
        let metrics = Telemetry.Metrics.create () in
        let driver =
          match
            Persist.Driver.of_config ~metrics ~tool:"MuFuzz" ~contract config
          with
          | Some d -> d
          | None -> Alcotest.fail "driver should be on"
        in
        let ring = Telemetry.Sink.ring ~capacity:4096 in
        let report =
          Mufuzz.Campaign.run ~config
            ~sinks:[ Telemetry.Sink.ring_sink ring ]
            ~metrics
            ~on_safe_point:(Persist.Driver.on_safe_point driver)
            contract
        in
        ignore report;
        let files = Sys.readdir dir in
        Alcotest.(check int) "rotation kept 2" 2 (Array.length files);
        let written =
          Telemetry.Metrics.value
            (Telemetry.Metrics.counter metrics "mufuzz_checkpoint_written_total")
        in
        Alcotest.(check bool) "wrote several" true (written >= 3);
        let events =
          List.filter
            (fun e -> Telemetry.Event.kind e = "checkpoint-written")
            (Telemetry.Sink.ring_contents ring)
        in
        Alcotest.(check int) "one event per write" written (List.length events);
        (* the final checkpoint resumes to the same end state *)
        match Persist.Store.load_latest dir with
        | Error e -> Alcotest.fail e
        | Ok (path, ckpt) ->
          let resumed =
            Mufuzz.Campaign.run ~config:ckpt.config
              ~resume:(path, ckpt.snapshot) ckpt.contract
          in
          Alcotest.(check string) "same report" (normalized report)
            (normalized resumed));
    unit "checkpoint writes into a store that is no directory are skipped"
      (fun () ->
        let dir = temp_dir () in
        let config =
          { base_config with
            Mufuzz.Config.max_executions = 900;
            checkpoint_dir = Some dir;
            checkpoint_every_execs = 300 }
        in
        let metrics = Telemetry.Metrics.create () in
        let driver =
          match
            Persist.Driver.of_config ~metrics ~tool:"MuFuzz" ~contract config
          with
          | Some d -> d
          | None -> Alcotest.fail "driver should be on"
        in
        (* the store directory is replaced by a regular file *)
        Util.Fileio.remove_tree dir;
        Util.Fileio.write_atomic dir "not a directory\n";
        let ring = Telemetry.Sink.ring ~capacity:4096 in
        let saved = ref [] in
        let on_safe_point ~final ~bus ~execs thunk =
          saved := Persist.Driver.save driver ~bus ~execs (thunk ()) :: !saved;
          Persist.Driver.on_safe_point driver ~final ~bus ~execs thunk
        in
        let report =
          Mufuzz.Campaign.run ~config
            ~sinks:[ Telemetry.Sink.ring_sink ring ]
            ~metrics ~on_safe_point contract
        in
        Alcotest.(check int) "campaign finished its budget" 900
          report.executions;
        Alcotest.(check bool) "saves were attempted" true (!saved <> []);
        Alcotest.(check bool) "no save returned a path" true
          (List.for_all Option.is_none !saved);
        Alcotest.(check int) "nothing counted" 0
          (Telemetry.Metrics.value
             (Telemetry.Metrics.counter metrics
                "mufuzz_checkpoint_written_total"));
        Alcotest.(check int) "no checkpoint event" 0
          (List.length
             (List.filter
                (fun e -> Telemetry.Event.kind e = "checkpoint-written")
                (Telemetry.Sink.ring_contents ring))));
    unit "max_seconds stops the campaign with time-exhausted" (fun () ->
        let config =
          { base_config with
            Mufuzz.Config.max_executions = 100_000_000;
            max_seconds = 0.15 }
        in
        let report = Mufuzz.Campaign.run ~config contract in
        Alcotest.(check bool) "stopped on time" true
          (report.stop_reason = Mufuzz.Report.Time_exhausted);
        Alcotest.(check bool) "did not run the whole budget" true
          (report.executions < config.max_executions);
        Alcotest.(check string) "stop reason serialises" "time-exhausted"
          (Mufuzz.Report.stop_reason_to_string report.stop_reason));
  ]

(* ---------------- decoder totality ---------------- *)

(* Every decoder of external bytes answers [Ok] or [Error] and never
   raises — on arbitrary strings and on truncations and single-byte
   flips of a valid document (the mutants that reach the deep field
   checks, past the JSON parser). *)
let mutants_of doc =
  let open QCheck2.Gen in
  let len = String.length doc in
  oneof
    [
      string;
      map (fun n -> String.sub doc 0 n) (int_bound len);
      map2
        (fun i c -> String.mapi (fun j old -> if j = i then c else old) doc)
        (int_bound (len - 1))
        char;
    ]

let total name ?(count = 200) doc decode =
  qprop ("total on mutants: " ^ name) ~count
    ~print:(fun s -> Printf.sprintf "%d bytes: %S" (String.length s) s)
    QCheck2.Gen.(bind unit (fun () -> mutants_of (Lazy.force doc)))
    (fun s ->
      match decode s with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck2.Test.fail_reportf "%s raised %s" name (Printexc.to_string e))

let totality_tests =
  let ok decode s = Result.map ignore (decode s) in
  let artifact =
    lazy
      (let dir =
         if Sys.file_exists "regressions" then "regressions"
         else "test/regressions"
       in
       Util.Fileio.read_file
         (Filename.concat dir "SimpleDAO_RE_156_92d87d0b83c12ae8.json"))
  in
  let ledger =
    lazy
      (let l =
         Fleet.Ledger.create ~manifest_hash:"m" ~config_digest:"c" ~shards:3
       in
       let l = fst (Option.get (Fleet.Ledger.acquire l ~worker:1)) in
       let l = Fleet.Ledger.mark_done l ~shard:0 ~contracts:4 ~failed:1 in
       J.to_string (Fleet.Ledger.to_json l))
  in
  let summary =
    lazy
      (Fleet.Summary.to_string
         (Fleet.Summary.fold (Fleet.Summary.empty ~buckets:3) ~tool:"MuFuzz"
            ~size:"small" ~budget:90
            {
              Fleet.Summary.o_execs = 90;
              o_steps = 1000;
              o_total_sides = 10;
              o_final_covered = 7;
              o_over_time = [ (10, 3); (60, 7) ];
              o_classes = [ ("RE", 2) ];
            }))
  in
  let event =
    Telemetry.Event.Fleet_shard_done { shard = 2; contracts = 5; failed = 1 }
  in
  (* the streaming shard reader decodes a file: each mutant replaces
     shard 0 of a valid corpus, whose manifest stays intact *)
  let corpus =
    lazy
      (let dir = temp_dir () in
       let manifest =
         Fleet.Shard.write_list ~dir ~shards:1
           [
             { Fleet.Shard.name = "a"; source = "contract A {}" };
             { Fleet.Shard.name = "b"; source = "contract B {}" };
           ]
       in
       let file = Filename.concat dir (Fleet.Shard.shard_file 0) in
       (dir, manifest, file, Util.Fileio.read_file file))
  in
  let read_shard s =
    let dir, manifest, file, _ = Lazy.force corpus in
    Util.Fileio.write_atomic file s;
    Fleet.Shard.fold ~dir ~shard:0 ~manifest ~init:() ~f:(fun () _ _ -> ())
  in
  [
    total "json" summary (ok J.of_string);
    total "checkpoint" ~count:60
      (lazy (Persist.Checkpoint.to_string (make_checkpoint ())))
      (ok Persist.Checkpoint.of_string);
    total "artifact" artifact (ok Triage.Artifact.of_string);
    total "fleet ledger" ledger (ok Fleet.Ledger.of_string);
    total "fleet summary" summary (ok Fleet.Summary.of_string);
    total "fleet shard"
      (lazy
        (let _, _, _, doc = Lazy.force corpus in
         doc))
      read_shard;
    total "fleet config"
      (lazy (Fleet.Config.to_string Fleet.Config.default))
      (ok Fleet.Config.of_string);
    total "event"
      (lazy (J.to_string (Telemetry.Event.to_json event)))
      (ok (fun s -> Result.bind (J.of_string s) Telemetry.Event.of_json));
    total "protocol request"
      (lazy
        {|{"op":"submit","source":"contract C {}","budget":9,"seed":"7"}|})
      (fun s ->
        Result.map_error snd
          (Result.map ignore (Serve.Protocol.parse_request s)));
  ]

let suite =
  [
    ("persist: fileio", fileio_tests);
    ("persist: rng", rng_tests);
    ("persist: codecs", codec_tests);
    ("persist: checkpoint", checkpoint_tests);
    ("persist: store", store_tests);
    ("persist: resume", resume_tests);
    ("persist: decoder totality", totality_tests);
  ]
