(** Bounded-memory, merge-commutative campaign aggregation.

    Workers fold each finished campaign report into a per-shard
    summary ({!fold}); the coordinator {!merge}s shard summaries into
    the fleet aggregate. A summary's size is O(tools x sizes x
    buckets + bug classes + failures) — independent of how many
    contracts flowed through it — so fleet memory is bounded by shard
    count, not corpus size.

    All arithmetic is integer fixed-point (coverage as micro-percent,
    100% = [100_000_000]): merging is exactly commutative and
    associative, which makes the aggregate CSVs bit-identical across
    any shard completion order and across SIGKILL-and-resume. *)

type cell = {
  c_n : int;
  c_final_upct : int;
  c_curve : int array;
  c_classes : (string * (int * int)) list;
      (** class -> (contracts, occurrences), sorted *)
}

type t = {
  s_buckets : int;
  s_contracts : int;
  s_execs : int;
  s_steps : int;
  s_failed : (string * string) list;  (** sorted (name, reason) pairs *)
  s_cells : ((string * string) * cell) list;  (** (tool, size) -> cell, sorted *)
}

(** One campaign's contribution, extracted from a report. Wall-clock
    fields are deliberately absent: only deterministic quantities may
    reach the aggregate, or resumed runs would diverge. *)
type obs = {
  o_execs : int;
  o_steps : int;
  o_total_sides : int;
  o_final_covered : int;
  o_over_time : (int * int) list;
  o_classes : (string * int) list;
}

val upct : total:int -> covered:int -> int
(** Rounded micro-percent; [0] when [total <= 0]. *)

val empty : buckets:int -> t

val obs_of_report : Mufuzz.Report.t -> obs

val fold : t -> tool:string -> size:string -> budget:int -> obs -> t
(** Add one campaign. The coverage curve is bucketed on the execution
    grid [(b+1) * budget / buckets], matching the bench harness's
    Fig. 5 checkpoints. *)

val contract_done : t -> t

val fold_failure : t -> name:string -> reason:string -> t

val merge : t -> t -> t
(** Commutative, associative; raises [Invalid_argument] on bucket
    mismatch. *)

val to_json : t -> Telemetry.Json.t
val of_json : Telemetry.Json.t -> (t, string) result
val to_string : t -> string
val of_string : string -> (t, string) result

val fig5_csv : t -> tools:string list -> size:string -> budget:int -> string
(** Fig. 5 CSV (coverage over executions, one column per tool) for one
    population size, on the same grid and format the bench harness
    emits. *)

val fig6_csv : t -> tools:string list -> string
(** Fig. 6 CSV: mean final coverage per tool, small and large columns. *)

val findings_csv : t -> tools:string list -> string
(** Table-III-style CSV: per (tool, size, class), how many contracts
    raised the class and the total alarm occurrences. *)
