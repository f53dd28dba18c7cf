(* Work-stealing pool of stdlib Domains.

   Each worker owns a deque; a batch deals tasks round-robin across
   the deques and workers pop from their own front, stealing from the
   back of a sibling when theirs runs dry. All queues share one mutex —
   batches are coarse (a handful of seed-energy tasks per round), so a
   single lock is never contended long enough to matter and keeps the
   invariants trivial. Workers park on a condition variable between
   rounds; the time spent parked while a batch is still in flight is the
   "merge stall" surfaced in reports. *)

type stats = {
  tasks_run : int array;
  busy_seconds : float array;
  stall_seconds : float array;
  merge_wait_seconds : float;
  steals : int;
}

type t = {
  size : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  deques : (int -> unit) Queue.t array;  (* per-worker; task gets worker id *)
  mutable pending : int;  (* submitted tasks not yet completed *)
  mutable in_batch : bool;  (* a batch is in flight: parking = stall *)
  mutable stop : bool;
  tasks_run : int array;
  busy_seconds : float array;
  stall_seconds : float array;
  mutable steals : int;
  mutable merge_wait : float;  (* coordinator seconds blocked at barriers *)
  mutable domains : unit Domain.t array;
  bus : Telemetry.Bus.t;
  m_tasks : Telemetry.Metrics.counter option;
  m_steals : Telemetry.Metrics.counter option;
  m_merge_wait : Telemetry.Metrics.gauge option;
  m_idle : Telemetry.Metrics.gauge option;
}

let size t = t.size

(* Pop from own front, else steal from the back of the first non-empty
   sibling (scanning forward from the thief's index so victims rotate).
   Caller holds the mutex. *)
let take_task t me =
  if not (Queue.is_empty t.deques.(me)) then Some (Queue.pop t.deques.(me))
  else begin
    let found = ref None in
    for k = 1 to t.size - 1 do
      let victim = (me + k) mod t.size in
      if !found = None && not (Queue.is_empty t.deques.(victim)) then begin
        (* steal the most recently dealt task: drain to reach the back *)
        let q = t.deques.(victim) in
        let n = Queue.length q in
        let stolen = ref (Queue.pop q) in
        for _ = 2 to n do
          Queue.push !stolen q;
          stolen := Queue.pop q
        done;
        t.steals <- t.steals + 1;
        (match t.m_steals with Some c -> Telemetry.Metrics.incr c | None -> ());
        Telemetry.Bus.emit t.bus
          (Telemetry.Event.Pool_steal { thief = me; victim });
        found := Some !stolen
      end
    done;
    !found
  end

let worker t me =
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    let rec next () =
      match take_task t me with
      | Some task -> Some task
      | None ->
        if t.stop then None
        else begin
          let t0 = Unix.gettimeofday () in
          Condition.wait t.work_available t.mutex;
          if t.in_batch then
            t.stall_seconds.(me) <-
              t.stall_seconds.(me) +. (Unix.gettimeofday () -. t0);
          next ()
        end
    in
    (match next () with
    | None ->
      running := false;
      Mutex.unlock t.mutex
    | Some task ->
      Mutex.unlock t.mutex;
      let t0 = Unix.gettimeofday () in
      (try task me with _ -> ());
      t.busy_seconds.(me) <- t.busy_seconds.(me) +. (Unix.gettimeofday () -. t0);
      t.tasks_run.(me) <- t.tasks_run.(me) + 1;
      (match t.m_tasks with Some c -> Telemetry.Metrics.incr c | None -> ());
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.batch_done;
      Mutex.unlock t.mutex)
  done

(* 8 MiB on 64-bit. A stop-the-world collection waits for the slowest
   domain to reach a safe point, on a loaded host a descheduled one, so
   the default's once-per-execution collections made pooled throughput
   both lower and sensitive to neighbours. *)
let worker_minor_heap_words = 1 lsl 20

let create ?(bus = Telemetry.Bus.null) ?metrics ~jobs () =
  let jobs = Stdlib.max 1 jobs in
  let handle name help =
    Option.map (fun m -> Telemetry.Metrics.counter m name ~help) metrics
  in
  let ghandle name help =
    Option.map (fun m -> Telemetry.Metrics.gauge m name ~help) metrics
  in
  let t =
    {
      size = jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      deques = Array.init jobs (fun _ -> Queue.create ());
      pending = 0;
      in_batch = false;
      stop = false;
      tasks_run = Array.make jobs 0;
      busy_seconds = Array.make jobs 0.0;
      stall_seconds = Array.make jobs 0.0;
      steals = 0;
      merge_wait = 0.0;
      domains = [||];
      bus;
      m_tasks =
        handle "mufuzz_pool_tasks_total" "tasks completed by the domain pool";
      m_steals =
        handle "mufuzz_pool_steals_total"
          "tasks stolen from a sibling worker's deque";
      m_merge_wait =
        ghandle "mufuzz_pool_merge_wait_seconds"
          "cumulative coordinator seconds blocked at batch barriers";
      m_idle =
        ghandle "mufuzz_pool_worker_idle_seconds"
          "cumulative worker seconds parked while a batch was in flight";
    }
  in
  (* a new domain does not inherit [Printexc.record_backtrace]; mirror
     the creator's setting so a failing task's backtrace survives *)
  let record = Printexc.backtrace_status () in
  t.domains <-
    Array.init jobs (fun i ->
        Domain.spawn (fun () ->
            Printexc.record_backtrace record;
            let gc = Gc.get () in
            if gc.minor_heap_size < worker_minor_heap_words then
              Gc.set { gc with minor_heap_size = worker_minor_heap_words };
            worker t i));
  t

(* Time a coordinator wait loop and fold it into the merge-wait total;
   caller holds the mutex across the whole call (Condition.wait drops
   it while parked, as usual). *)
let timed_wait t cond =
  let t0 = Unix.gettimeofday () in
  while cond () do
    Condition.wait t.batch_done t.mutex
  done;
  t.merge_wait <- t.merge_wait +. (Unix.gettimeofday () -. t0)

(* Publish the cumulative wait gauges; caller holds the mutex. *)
let publish_wait_metrics t =
  (match t.m_merge_wait with
  | Some g -> Telemetry.Metrics.set g t.merge_wait
  | None -> ());
  match t.m_idle with
  | Some g -> Telemetry.Metrics.set g (Array.fold_left ( +. ) 0.0 t.stall_seconds)
  | None -> ()

exception Task_error of exn

let () =
  Printexc.register_printer (function
    | Task_error e ->
      Some (Printf.sprintf "Mufuzz.Pool.Task_error(%s)" (Printexc.to_string e))
    | _ -> None)

(* The one batch protocol: deal the tasks round-robin across the
   deques, then merge results on the coordinator in submission order
   *while the rest of the batch is still running*. Workers flag each
   task's completion under the pool mutex, which doubles as the
   happens-before edge making the result write visible; the coordinator
   merges index 0, then 1, ... as each lands, overlapping merge work
   with sibling tasks. Submission order is preserved so merging stays
   deterministic regardless of which worker finished first. *)
let run_batch_iter t tasks ~merge =
  let n = Array.length tasks in
  if n = 0 then ()
  else begin
    let results = Array.make n None in
    let completed = Array.make n false in
    (* the first failure with the backtrace of the domain that raised
       it; written under the pool mutex *)
    let failure = ref None in
    let fail raised = if Option.is_none !failure then failure := Some raised in
    Mutex.lock t.mutex;
    if t.pending <> 0 || t.in_batch then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool: a batch is already running"
    end;
    Array.iteri
      (fun i task ->
        let wrapped worker_id =
          let outcome =
            match task worker_id with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ())
          in
          Mutex.lock t.mutex;
          (match outcome with Ok v -> results.(i) <- Some v | Error f -> fail f);
          completed.(i) <- true;
          Condition.broadcast t.batch_done;
          Mutex.unlock t.mutex
        in
        Queue.push wrapped t.deques.(i mod t.size))
      tasks;
    t.pending <- n;
    t.in_batch <- true;
    Condition.broadcast t.work_available;
    let next = ref 0 in
    while !next < n do
      timed_wait t (fun () -> not completed.(!next));
      let i = !next in
      incr next;
      let failed = Option.is_some !failure in
      Mutex.unlock t.mutex;
      let raised =
        match results.(i) with
        | Some v when not failed -> (
          try
            merge i v;
            None
          with e -> Some (e, Printexc.get_raw_backtrace ()))
        | _ -> None
      in
      Mutex.lock t.mutex;
      Option.iter fail raised
    done;
    (* the last-merged task's worker may not have decremented [pending]
       yet; hold the batch open until it has so overlap checks stay
       sound for the next round *)
    timed_wait t (fun () -> t.pending > 0);
    t.in_batch <- false;
    publish_wait_metrics t;
    Mutex.unlock t.mutex;
    match !failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace (Task_error e) bt
    | None -> ()
  end

(* the barrier form: store each result by index, return them all *)
let run_batch t tasks =
  let results = Array.make (Array.length tasks) None in
  run_batch_iter t tasks ~merge:(fun i v -> results.(i) <- Some v);
  Array.map Option.get results

let map t f items =
  let tasks = Array.of_list (List.map (fun x -> fun _worker -> f x) items) in
  Array.to_list (run_batch t tasks)

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      tasks_run = Array.copy t.tasks_run;
      busy_seconds = Array.copy t.busy_seconds;
      stall_seconds = Array.copy t.stall_seconds;
      merge_wait_seconds = t.merge_wait;
      steals = t.steals;
    }
  in
  Mutex.unlock t.mutex;
  s

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.domains

let with_pool ?bus ?metrics ~jobs f =
  let t = create ?bus ?metrics ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
