(** Versioned, self-describing campaign checkpoint documents.

    A checkpoint is a single JSON file capturing everything a running
    campaign would lose on SIGKILL: the seed queue with per-seed
    metadata (paths, nested-branch sets, frontier distances, cached
    masks), the coverage table and distance frontier, learned energy
    weights, deduplicated findings with occurrence counts, the
    exec/step counters, the coverage-over-time curve, and the exact RNG
    stream position. Loading one reconstructs a
    {!Mufuzz.Campaign.snapshot} that {!Mufuzz.Campaign.run} resumes
    from deterministically.

    The document embeds the full Minisol source together with its
    Keccak-256; {!of_json} re-verifies the hash and recompiles, so a
    checkpoint directory is self-contained and survives the original
    contract file moving or changing. *)

type t = {
  tool : string;
      (** which fuzzer profile wrote the checkpoint ("mufuzz" or a
          baseline name); resume re-applies the profile's config and
          findings filter *)
  config : Mufuzz.Config.t;  (** the effective (profile-applied) config *)
  contract : Minisol.Contract.t;  (** recompiled from the embedded source *)
  snapshot : Mufuzz.Campaign.snapshot;
}

val format_tag : string
(** ["mufuzz-checkpoint"] — the ["format"] field of every document. *)

val current_version : int

val to_json : t -> Telemetry.Json.t

val of_json : Telemetry.Json.t -> (t, string) result
(** Rejects wrong format tags, unsupported versions, source-hash
    mismatches, non-compiling sources, contract-name mismatches, and
    any missing or invalid field; entry indices in the queue and
    frontier are bounds-checked, the cursor must be non-negative and
    every seed must hold a transaction. *)

val to_string : t -> string

val of_string : string -> (t, string) result

val save : string -> t -> unit
(** Atomic: writes a temp file in the destination directory and
    renames over [path], so a crash mid-write never leaves a torn
    checkpoint. May raise [Sys_error]. *)

val load : string -> (t, string) result
(** [Error] covers unreadable files as well as every {!of_string}
    rejection. *)
