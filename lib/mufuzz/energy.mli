(** Dynamic-adaptive energy assignment (§IV-C).

    A selected seed's mutation budget scales with the maximum Algorithm-3
    weight of any branch on its execution path, so paths leading toward
    deeply nested or vulnerable-instruction-reaching branches receive more
    fuzzing resources; with the component disabled every seed receives the
    flat sFuzz default. *)

val assign :
  dynamic:bool ->
  base:int ->
  max_energy:int ->
  weights:(int * bool, float) Hashtbl.t option ->
  path:(int * bool) list ->
  int
(** [assign ~dynamic ~base ~max_energy ~weights ~path] returns the number
    of mutations to spend on the seed whose execution covered [path]. *)

val update : int -> new_coverage:bool -> int
(** Algorithm 1's UPDATEENERGY: consume one unit; discovering new
    coverage refunds a small bonus so productive seeds live longer. *)
