(* Benchmark harness entry point: one target per table and figure of the
   paper's evaluation (§V). With no argument every experiment runs.

   Usage: main.exe [table1|table2|fig5|fig6|table3|fig7|table4|case_study|throughput|micro|all]
                   [--scale S]   (S scales population sizes and budgets) *)

let usage () =
  print_endline
    "usage: main.exe [table1|table2|fig5|fig6|table3|fig7|table4|case_study|throughput|micro|interp|parallel|all] [--scale S] [--jobs N]";
  exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse targets = function
    | [] -> List.rev targets
    | "--scale" :: s :: rest ->
      (try Exp.scale := float_of_string s with _ -> usage ());
      parse targets rest
    | "--jobs" :: n :: rest ->
      (try Exp.jobs := Stdlib.max 1 (int_of_string n) with _ -> usage ());
      parse targets rest
    | t :: rest -> parse (t :: targets) rest
  in
  let targets =
    match parse [] args with [] -> [ "all" ] | ts -> ts
  in
  let t0 = Unix.gettimeofday () in
  (* fig5 and fig6 come from one run *)
  let fig56 = lazy (Coverage_exp.run ()) in
  let run_target = function
    | "table1" -> Tables.table1 ()
    | "table2" -> Tables.table2 ()
    | "fig5" | "fig6" -> Lazy.force fig56
    | "table3" -> ignore (Bug_exp.run ())
    | "fig7" -> ignore (Ablation_exp.run ())
    | "table4" -> Realworld_exp.run ()
    | "case_study" -> Case_study.run ()
    | "micro" -> Micro.run ()
    | "interp" -> Micro.interp ()
    | "parallel" -> Micro.parallel ()
    | "throughput" -> Throughput_exp.run ()
    | "all" ->
      Tables.table1 ();
      Tables.table2 ();
      Case_study.run ();
      Lazy.force fig56;
      ignore (Bug_exp.run ());
      ignore (Ablation_exp.run ());
      Realworld_exp.run ();
      Throughput_exp.run ();
      Micro.run ()
    | t ->
      Printf.printf "unknown target %s\n" t;
      usage ()
  in
  List.iter run_target targets;
  Printf.printf "\ntotal bench wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
