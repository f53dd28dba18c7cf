(** The campaign event taxonomy.

    Every observable state change of Algorithm 1 and its parallel twin
    maps to exactly one constructor; payloads are primitive (ints,
    bools, strings) so the telemetry layer stays below every fuzzing
    module in the dependency order. Events serialise to single-line
    JSON objects tagged by an ["event"] field — the JSONL trace format
    — and deserialise losslessly ([of_json] is a total inverse of
    [to_json], property-tested). *)

type t =
  | Exec_completed of { worker : int; fresh : bool }
      (** one transaction-sequence execution finished on [worker]
          (always 0 at jobs = 1, where the loop runs inline); [fresh] is the
          new-coverage verdict of the loop that ran it *)
  | New_branch_side of { pc : int; taken : bool; covered : int }
      (** a branch side entered the covered set; [covered] is the
          running covered-side count after this one *)
  | Seed_enqueued of { txs : int; queue_len : int }
      (** a seed joined the selection queue *)
  | Mask_updated of { tx_index : int; probes : int }
      (** Algorithm 2 computed (and cached) a seed mask, spending
          [probes] probe executions *)
  | Energy_reassigned of { energy : int }
      (** Algorithm 3 assigned [energy] mutations to a selected seed *)
  | Finding_raised of { cls : string; pc : int; tx_index : int }
      (** a bug oracle fired on a previously unseen (class, pc) site *)
  | Pool_steal of { thief : int; victim : int }
      (** worker [thief] stole a task from worker [victim]'s deque *)
  | Batch_merge of { round : int; execs : int; covered : int }
      (** the parallel coordinator merged one round of worker results *)
  | Checkpoint_written of { execs : int; path : string }
      (** the persistence driver wrote a campaign checkpoint to [path]
          at execution count [execs] *)
  | Checkpoint_loaded of { execs : int; path : string }
      (** a campaign resumed from the checkpoint at [path], captured at
          execution count [execs] *)
  | Fleet_shard_leased of { shard : int; worker : int }
      (** the fleet coordinator leased corpus shard [shard] to worker
          slot [worker] *)
  | Fleet_shard_done of { shard : int; contracts : int; failed : int }
      (** a worker completed its shard: [contracts] contracts folded
          into the shard summary, [failed] of them recorded as
          structured failures *)
  | Fleet_lease_reassigned of { shard : int; worker : int }
      (** shard [shard]'s lease was reclaimed (worker death, stale
          heartbeat, or a coordinator restart) and will be re-leased *)

val kind : t -> string
(** The ["event"] tag, kebab-case: ["exec-completed"], … *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}; [Error] names the missing or invalid
    field. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering (the JSON), for test failure messages. *)
