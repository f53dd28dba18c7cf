type branch = int * bool

type t = {
  hits : (branch, int) Hashtbl.t;
  (* best distance toward an uncovered side, keyed by that side *)
  dists : (branch, float) Hashtbl.t;
}

let create () = { hits = Hashtbl.create 256; dists = Hashtbl.create 256 }

let is_covered t br = Hashtbl.mem t.hits br

let record t (trace : Evm.Trace.t) =
  let fresh = ref false in
  List.iter
    (fun ev ->
      match ev with
      | Evm.Trace.Branch { pc; taken; dist_to_flip; _ } ->
        let br = (pc, taken) in
        (match Hashtbl.find_opt t.hits br with
        | Some n -> Hashtbl.replace t.hits br (n + 1)
        | None ->
          Hashtbl.replace t.hits br 1;
          fresh := true;
          Hashtbl.remove t.dists br);
        let flip = (pc, not taken) in
        if not (Hashtbl.mem t.hits flip) then begin
          match Hashtbl.find_opt t.dists flip with
          | Some d when d <= dist_to_flip -> ()
          | _ -> Hashtbl.replace t.dists flip dist_to_flip
        end
      | _ -> ())
    trace.events;
  !fresh

let copy t = { hits = Hashtbl.copy t.hits; dists = Hashtbl.copy t.dists }

(* Merge [src] into [dst]. Hit counts take the max (counts are never read
   as semantics, and max — unlike sum — makes the merge idempotent);
   distances take the min and are dropped for sides that became covered,
   preserving the invariant that [dists] only tracks uncovered sides.
   Commutative and idempotent over the observable state (covered set +
   best distances), so domain-local maps can be folded into the global
   map in any batch order. *)
let merge ~into:dst src =
  Hashtbl.iter
    (fun br n ->
      match Hashtbl.find_opt dst.hits br with
      | Some m -> if n > m then Hashtbl.replace dst.hits br n
      | None ->
        Hashtbl.replace dst.hits br n;
        Hashtbl.remove dst.dists br)
    src.hits;
  Hashtbl.iter
    (fun br d ->
      if not (Hashtbl.mem dst.hits br) then
        match Hashtbl.find_opt dst.dists br with
        | Some d' when d' <= d -> ()
        | _ -> Hashtbl.replace dst.dists br d)
    src.dists

let covered_count t = Hashtbl.length t.hits

let covered t = Hashtbl.fold (fun br _ acc -> br :: acc) t.hits []

let uncovered_frontier t =
  Hashtbl.fold
    (fun (pc, taken) _ acc ->
      let flip = (pc, not taken) in
      if Hashtbl.mem t.hits flip then acc else flip :: acc)
    t.hits []
  |> List.sort_uniq compare

let best_distance t br = Hashtbl.find_opt t.dists br

let trace_min_distance (trace : Evm.Trace.t) (pc, want_side) =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Evm.Trace.Branch { pc = p; taken; dist_to_flip; _ }
        when p = pc && taken = not want_side -> begin
        match acc with
        | Some d when d <= dist_to_flip -> acc
        | _ -> Some dist_to_flip
      end
      | _ -> acc)
    None trace.events

let total_sides_known t =
  covered_count t + List.length (uncovered_frontier t)

(* ---------------- JSON codec (campaign checkpoints) ---------------- *)

module J = Telemetry.Json

(* Iteration order of the tables is never observed (every reader sorts
   or tests membership), so the codec is free to emit a canonical sorted
   form — which also makes [to_json] byte-stable across save/load. *)
let to_json t =
  let branch_fields (pc, taken) = [ ("pc", J.Int pc); ("taken", J.Bool taken) ] in
  let hits =
    Hashtbl.fold (fun br n acc -> (br, n) :: acc) t.hits []
    |> List.sort compare
    |> List.map (fun (br, n) -> J.Obj (branch_fields br @ [ ("n", J.Int n) ]))
  in
  let dists =
    Hashtbl.fold (fun br d acc -> (br, d) :: acc) t.dists []
    |> List.sort compare
    |> List.map (fun (br, d) -> J.Obj (branch_fields br @ [ ("d", J.Float d) ]))
  in
  J.Obj [ ("hits", J.List hits); ("dists", J.List dists) ]

let of_json j =
  let ( let* ) = Result.bind in
  let entry value j =
    let* pc = J.field "pc" J.to_int j in
    let* taken = J.field "taken" J.to_bool j in
    let* v = value j in
    Ok ((pc, taken), v)
  in
  let positive v =
    Option.bind (J.to_int v) (fun n -> if n >= 1 then Some n else None)
  in
  let* hits =
    Result.bind (J.field "hits" J.to_list j)
      (J.list (entry (J.field "n" positive)))
  in
  let* dists =
    Result.bind (J.field "dists" J.to_list j)
      (J.list (entry (J.field "d" J.to_float)))
  in
  let t = create () in
  List.iter (fun (br, n) -> Hashtbl.replace t.hits br n) hits;
  if List.exists (fun (br, _) -> Hashtbl.mem t.hits br) dists then
    Error "coverage: dist entry for a covered side"
  else begin
    List.iter (fun (br, d) -> Hashtbl.replace t.dists br d) dists;
    Ok t
  end
