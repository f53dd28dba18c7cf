(* Fig. 5 (branch coverage over time per fuzzer, small & large) and
   Fig. 6 (overall branch coverage per fuzzer, small & large).

   Time is measured in sequence executions (the substrate is
   deterministic, so executions are the faithful progress axis); the
   paper's x-axis is seconds on its testbed. Reports fold into a
   [Fleet.Summary], whose [fig5_csv]/[fig6_csv] are the one writer of
   these CSVs: a fleet run emits the same files the same way. *)

let tools =
  List.map (fun (p : Baselines.Fuzzers.profile) -> p.name) Baselines.Fuzzers.all

(* Fig. 5 samples coverage at 10 points of the budget *)
let buckets = 10

let run_population summary ~size ~budget contracts =
  List.fold_left
    (fun summary (p : Baselines.Fuzzers.profile) ->
      Exp.map_contracts (fun c -> Exp.run_tool p ~budget c) contracts
      |> List.fold_left
           (fun s r ->
             Fleet.Summary.fold s ~tool:p.name ~size ~budget
               (Fleet.Summary.obs_of_report r))
           summary)
    summary Baselines.Fuzzers.all

(* print a CSV as a table, then write it to bench_results *)
let emit title name csv =
  Exp.section title;
  match
    String.split_on_char '\n' csv
    |> List.filter (( <> ) "")
    |> List.map (String.split_on_char ',')
  with
  | [] -> ()
  | headers :: rows ->
    let t = Util.Table.create ~headers in
    List.iter (Util.Table.add_row t) rows;
    Util.Table.print t;
    Exp.write_file name csv

let run () =
  let small = Exp.d1_small () and large = Exp.d1_large () in
  let bs = Exp.budget_small () and bl = Exp.budget_large () in
  Printf.printf "D1-small: %d contracts, budget %d execs each\n" (List.length small) bs;
  Printf.printf "D1-large: %d contracts, budget %d execs each\n%!" (List.length large) bl;
  let summary = Fleet.Summary.empty ~buckets in
  let summary = run_population summary ~size:"small" ~budget:bs small in
  let summary = run_population summary ~size:"large" ~budget:bl large in
  emit "Fig. 5a - coverage over time on D1-small" "fig5_small.csv"
    (Fleet.Summary.fig5_csv summary ~tools ~size:"small" ~budget:bs);
  emit "Fig. 5b - coverage over time on D1-large" "fig5_large.csv"
    (Fleet.Summary.fig5_csv summary ~tools ~size:"large" ~budget:bl);
  emit "Fig. 6 - overall branch coverage of each fuzzer" "fig6.csv"
    (Fleet.Summary.fig6_csv summary ~tools)
