(* Benchmark entry point.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--gen-seed G] [--scale F]

   Prints a human-readable report and, as its last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. Exits 1 on a
   usage error or when the run itself raises. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (audit-small|audit-large-j2|fleet-vuln) --seed N \
     --seconds S --trace 0|1 [--gen-seed G] [--scale F]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and gen_seed = ref 909L and scale = ref 1.0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | "--gen-seed" :: g :: rest ->
      (match Int64.of_string_opt g with Some g -> gen_seed := g | None -> usage ());
      parse rest
    | "--scale" :: f :: rest ->
      (match float_of_string_opt f with Some f when f > 0. -> scale := f | _ -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
    let r =
      Perfbench.Bench.run
        { workload; seed; seconds; trace; gen_seed = !gen_seed; scale = !scale }
    in
    List.iter print_endline r.lines;
    print_endline (Telemetry.Json.to_string (Perfbench.Bench.to_json r))
  | _ -> usage ()
