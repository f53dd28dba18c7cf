(** Work-stealing pool of stdlib [Domain]s (OCaml ≥ 5.1, no external
    dependencies).

    The campaign coordinator deals batches of seed-energy tasks across
    worker domains; each worker pops from its own deque and steals from a
    sibling when it runs dry, so an uneven batch (one seed with a long
    mask probe, say) does not leave cores idle. The pool is persistent —
    domains are spawned once and parked between batches — because a
    fuzzing round is far too short to amortise [Domain.spawn].

    One batch may be in flight at a time (a second raises
    [Invalid_argument]); the pool itself is driven from a single
    coordinator domain. *)

type t

val create :
  ?bus:Telemetry.Bus.t -> ?metrics:Telemetry.Metrics.t -> jobs:int -> unit -> t
(** Spawn [max 1 jobs] worker domains, parked until work arrives.
    With [bus], every work-stealing event is emitted as
    [Pool_steal {thief; victim}]; with [metrics], workers record
    [mufuzz_pool_tasks_total] and [mufuzz_pool_steals_total] through
    lock-free counters, and the coordinator publishes the cumulative
    [mufuzz_pool_merge_wait_seconds] / [mufuzz_pool_worker_idle_seconds]
    gauges at the end of every batch. Both default to off (no
    overhead). Each worker's minor heap is at least
    {!worker_minor_heap_words}. *)

val worker_minor_heap_words : int
(** Minor heap size, in words, below which a worker domain raises its
    own: 1M words (8 MiB), against the runtime's default of 256k. A
    minor collection stops every domain, and an execution of a large
    contract allocates about 300k words, so the default forced one
    collection per execution on each worker. *)

val size : t -> int
(** Number of worker domains. *)

val run_batch : t -> (int -> 'a) array -> 'a array
(** [run_batch t tasks] deals [tasks] round-robin across the workers and
    blocks until all complete, returning results in submission order —
    {!run_batch_iter} with a merge that stores each result by index.
    Each task receives the id (in [0 .. size-1]) of the worker that ran
    it, for indexing per-domain scratch state such as executor caches. *)

exception Task_error of exn
(** Raised by {!run_batch} / {!run_batch_iter} (after the whole batch
    has drained) when a task or merge raised; carries the first
    failure, re-raised with the backtrace of the domain that raised it
    (workers record backtraces when the pool's creator does).
    [Printexc.to_string] shows the inner exception. *)

val run_batch_iter :
  t -> (int -> 'a) array -> merge:(int -> 'a -> unit) -> unit
(** Like {!run_batch}, but instead of a stop-the-world barrier followed
    by a serial merge pass, [merge i result] runs on the coordinator in
    submission order {e as each result completes} — merging task 0
    overlaps with workers still executing tasks 1..n. Submission order
    makes the merge sequence deterministic regardless of completion
    order, so campaign results are independent of scheduling. Returns
    once every task has drained and every merge has run. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f items] runs [f] on every item across the pool, preserving
    order — the cross-contract sharding used by the bench harness. *)

type stats = {
  tasks_run : int array;  (** per-worker completed task count *)
  busy_seconds : float array;  (** per-worker time spent inside tasks *)
  stall_seconds : float array;
      (** per-worker time parked while a batch was still in flight —
          waiting for siblings to finish so the coordinator can merge *)
  merge_wait_seconds : float;
      (** coordinator time blocked at batch barriers: inside
          {!run_batch_iter}'s per-index and final waits; this is time
          parked, not time spent merging *)
  steals : int;  (** tasks taken from a sibling's deque *)
}

val stats : t -> stats
(** Cumulative since {!create}. *)

val shutdown : t -> unit
(** Drain, stop and join every worker domain. The pool must not be used
    afterwards. *)

val with_pool :
  ?bus:Telemetry.Bus.t -> ?metrics:Telemetry.Metrics.t -> jobs:int ->
  (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and always shuts it
    down, including on exceptions. *)
