(* Shared experiment plumbing for the per-table / per-figure benches.

   Scale notes: the paper fuzzes 21k contracts for 10-20 minutes each on a
   32-core server. The reproduction uses deterministic generated
   populations and execution-count budgets instead of wall-clock budgets;
   [scale] multiplies both population sizes and budgets. *)

module Report = Mufuzz.Report
module Config = Mufuzz.Config

let scale = ref 1.0

let scaled n = Stdlib.max 1 (int_of_float (float_of_int n *. !scale))

(* Cross-contract sharding: with [--jobs N] the per-population maps run
   N contracts at a time on a shared domain pool (each contract's
   campaign stays sequential, so per-contract results are identical to a
   [--jobs 1] run — only wall time changes). *)
let jobs = ref 1

let shared_pool : Mufuzz.Pool.t option ref = ref None

let pool () =
  if !jobs <= 1 then None
  else
    match !shared_pool with
    | Some p -> Some p
    | None ->
      let p = Mufuzz.Pool.create ~jobs:!jobs () in
      shared_pool := Some p;
      at_exit (fun () -> Mufuzz.Pool.shutdown p);
      Some p

let map_contracts f contracts =
  match pool () with
  | Some p -> Mufuzz.Pool.map p f contracts
  | None -> List.map f contracts

(* deterministic per-contract seed so every tool sees the same draw *)
let seed_of_name name =
  let h = Hashtbl.hash name in
  Int64.of_int ((h * 2654435761) land 0x3FFFFFFFFFFF)

let budget_small () = scaled 1200
let budget_large () = scaled 2000
let budget_d2 () = scaled 2500
let budget_d3 () = scaled 3000

let n_d1_small () = scaled 36
let n_d1_large () = scaled 14
let n_fig7 () = scaled 12
let n_d3 () = scaled 12

(* D1: generated populations, filtered by the paper's 3632-instruction
   small/large threshold. *)
let d1_small () =
  Corpus.Generator.population ~seed:101L ~n:(n_d1_small ()) Corpus.Generator.Small
    ~bug_rate:0.1
  |> List.map Corpus.Generator.compile
  |> List.filter (fun c -> Minisol.Contract.instruction_count c <= 3632)

let d1_large () =
  Corpus.Generator.population ~seed:202L ~n:(n_d1_large ()) Corpus.Generator.Large
    ~bug_rate:0.1
  |> List.map Corpus.Generator.compile
  |> List.filter (fun c -> Minisol.Contract.instruction_count c > 3632)

(* D3: the "popular, >30k transactions" population — the large generator
   at higher complexity, keeping its injected ground truth. *)
let d3 () =
  Corpus.Generator.population ~seed:303L ~n:(n_d3 ()) Corpus.Generator.Large
    ~bug_rate:0.35

let run_tool (profile : Baselines.Fuzzers.profile) ?(budget = 1000) contract =
  let config =
    { Config.default with rng_seed = seed_of_name contract.Minisol.Contract.name;
      max_executions = budget }
  in
  Baselines.Fuzzers.run profile ~config contract

let mean l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let pct x = Printf.sprintf "%.1f%%" x

let classes_found (r : Report.t) =
  List.sort_uniq compare
    (List.map (fun (f : Oracles.Oracle.finding) -> f.cls) r.findings)

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

(* raw data export for plotting *)
let results_dir = "bench_results"

(* atomic, so a killed bench run never leaves a torn file under a
   committed name *)
let write_file name content =
  Util.Fileio.mkdirs results_dir;
  let path = Filename.concat results_dir name in
  Util.Fileio.write_atomic path content;
  Printf.printf "[data] wrote %s\n%!" path

let write_csv name headers rows =
  write_file name
    (String.concat ""
       (List.map (fun row -> String.concat "," row ^ "\n") (headers :: rows)))
