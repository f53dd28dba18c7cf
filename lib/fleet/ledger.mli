(** The fleet ledger: which shard is pending, leased to a worker, or
    done. One atomically-rewritten JSON file in the fleet state
    directory — the single source of truth a resumed fleet reads to
    skip completed shards and replay in-flight ones.

    The ledger pins the corpus ({!t.lg_manifest_hash}) and the run
    parameters ({!t.lg_config_digest}); a resume against a different
    corpus or config is rejected rather than silently mixing results. *)

val file : string

type state =
  | Pending
  | Leased of { l_worker : int }
  | Done of { d_contracts : int; d_failed : int }

type t = {
  lg_manifest_hash : string;
  lg_config_digest : string;
  lg_states : state array;
  lg_reassignments : int;  (** lifetime lease-reassignment count *)
}

val create : manifest_hash:string -> config_digest:string -> shards:int -> t

val shards : t -> int
val state : t -> int -> state
val done_count : t -> int
val all_done : t -> bool

val reclaim_all : t -> t * int
(** Return every leased shard to pending (counting each as a
    reassignment) — the startup move after a coordinator crash, when no
    leaseholder can still be alive. Returns the reclaim count. *)

val acquire : t -> worker:int -> (t * int) option
(** Lease the lowest-indexed pending shard to [worker]; [None] when
    nothing is pending. *)

val mark_done : t -> shard:int -> contracts:int -> failed:int -> t

val mark_pending : t -> shard:int -> t
(** Reassignment after a worker death: the lease returns to the pool
    and {!t.lg_reassignments} increments. *)

val to_json : t -> Telemetry.Json.t
val of_json : Telemetry.Json.t -> (t, string) result
val of_string : string -> (t, string) result

val save : dir:string -> t -> unit
(** Atomic rewrite of [dir/fleet-ledger.json]. *)

val load : dir:string -> (t option, string) result
(** [Ok None] when no ledger exists yet (fresh fleet). *)
