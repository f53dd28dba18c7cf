(* In-memory span recorder for traced runs. A span is a name, a start
   and an end on the monotonic clock, and the id of the span that was
   open when it started (0 for a root). Recording is off unless
   [enabled] is set, so untraced runs pay one branch per call site.
   Only the main domain records: campaign safe points and fleet
   heartbeats both run there. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = { id : int; name : string; parent : int; start : float; stop : float }

let enabled = ref false

let recorded : span list ref = ref []

let open_spans : int list ref = ref []

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let current () = match !open_spans with id :: _ -> id | [] -> 0

let record name ~start ~stop =
  if !enabled then
    recorded :=
      { id = fresh_id (); name; parent = current (); start; stop } :: !recorded

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = current () in
    let start = now () in
    open_spans := id :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        open_spans := List.tl !open_spans;
        recorded := { id; name; parent; start; stop = now () } :: !recorded)
      f
  end

let all () = List.rev !recorded

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
    (all ())

let to_json () =
  let module J = Telemetry.Json in
  J.List
    (List.map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("name", J.String s.name);
             ("parent", J.Int s.parent);
             ("start_s", J.Float s.start);
             ("end_s", J.Float s.stop);
           ])
       (all ()))
