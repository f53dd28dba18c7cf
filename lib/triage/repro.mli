(** Replay verification for repro artifacts.

    Deterministic: the EVM substrate has no wall-clock or randomness,
    so replaying the same artifact twice yields identical outcomes and
    identical {!describe} strings — the property the self-replaying
    regression corpus is built on. *)

type outcome = {
  ok : bool;  (** the artifact's (oracle, pc) fired *)
  raised : Oracles.Oracle.finding list;
      (** every alarm the replay raised, in trace order *)
}

val target_of : Artifact.t -> Shrink.target

val replay : Artifact.t -> outcome

val describe : Artifact.t -> outcome -> string
(** One deterministic human-readable line per replay (no timings, no
    paths) — what [mufuzz repro] prints. *)

val minimize :
  ?dir:string ->
  target:Shrink.target ->
  Oracles.Oracle.finding ->
  Mufuzz.Seed.t ->
  (string option * Shrink.result) option
(** One campaign finding's witness, triaged: {!Shrink.shrink} it,
    {!Shrink.reraise} the finding on the shrunk sequence and rebuild it
    as an {!Artifact}. With [dir] (created if missing) the artifact is
    saved there under {!Artifact.file_name} and its path returned.
    [None] when the witness does not reproduce the finding. This is
    the artifact writer behind both [mufuzz fuzz --artifacts] /
    [--minimize] and the serve engine's [artifacts/] directory. *)

val shrink :
  ?max_execs:int ->
  ?dest:string ->
  Artifact.t ->
  (Artifact.t * int, string) result
(** Shrink the artifact's sequence under its own execution parameters
    and rebuild it around the re-raised finding (tx_index, detail and
    path hash are recomputed), the same way {!minimize} does. Returns
    the new artifact and the executions spent, or an error if the
    artifact does not reproduce; with [dest] the new artifact is also
    saved there. Shrinking an already-shrunk artifact returns it
    unchanged. *)
