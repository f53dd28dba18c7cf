(* Tiny-scale smoke test of the benchmark: every workload named in
   BENCHMARK.json runs untraced and traced at a small scale, passes its
   output checks, and emits exactly the metrics BENCHMARK.json lists,
   each with its listed unit. *)

module J = Telemetry.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let spec =
  match J.of_string (Util.Fileio.read_file "../BENCHMARK.json") with
  | Ok j -> j
  | Error e -> fail "BENCHMARK.json: %s" e

let list key =
  match Option.bind (J.member key spec) J.to_list with
  | Some l -> l
  | None -> fail "BENCHMARK.json: no list %S" key

let str key j =
  match Option.bind (J.member key j) J.string_value with
  | Some s -> s
  | None -> fail "BENCHMARK.json: entry without %S" key

let named key = List.map (fun j -> (str "name" j, str "unit" j)) (list key)

let () =
  let workloads = List.map (str "name") (list "workloads") in
  if List.sort compare workloads <> List.sort compare Perfbench.Workloads.names then
    fail "BENCHMARK.json workloads differ from the benchmark's";
  List.iter
    (fun (trace, expected) ->
      List.iter
        (fun workload ->
          let r =
            Perfbench.Bench.run
              { workload; seed = 3; seconds = 0.; trace; gen_seed = 909L; scale = 0.01 }
          in
          let json = Perfbench.Bench.to_json r in
          let metrics =
            match J.member "metrics" json with
            | Some (J.Obj m) -> m
            | _ -> fail "%s: no metrics object" workload
          in
          if not r.correct then
            fail "%s (trace %b): %d of %d campaigns failed:\n%s" workload trace r.failed
              r.attempted (String.concat "\n" r.lines);
          if List.length metrics <> List.length expected then
            fail "%s (trace %b): %d metrics emitted, %d listed" workload trace
              (List.length metrics) (List.length expected);
          List.iter
            (fun (name, unit) ->
              match List.assoc_opt name metrics with
              | None -> fail "%s (trace %b): metric %s missing" workload trace name
              | Some m ->
                (match Option.bind (J.member "value" m) J.to_float with
                 | Some v when Float.is_finite v -> ()
                 | _ -> fail "%s: metric %s has no finite value" workload name);
                let u = Option.bind (J.member "unit" m) J.string_value in
                if u <> Some unit then
                  fail "%s: metric %s has unit %s, BENCHMARK.json says %s" workload name
                    (Option.value u ~default:"(none)") unit)
            expected)
        workloads)
    [ (false, named "end_to_end"); (true, named "per_layer") ];
  print_endline "perfbench smoke: ok"
