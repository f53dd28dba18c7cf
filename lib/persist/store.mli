(** Rotated on-disk checkpoint store.

    One campaign ↦ one directory. Files are named
    [checkpoint-<execs, zero-padded>.json] so lexicographic order is
    campaign order; each write is atomic (temp + rename) and the store
    keeps only the newest [keep] files.

    Many campaigns can share one state directory through
    {!namespaced}: campaign [id]'s files live under [<dir>/<id>/], so
    keep-K pruning — which only ever scans a store's own directory —
    cannot eat a sibling campaign's checkpoints. Flat single-campaign
    directories (the [mufuzz fuzz --checkpoint] layout) keep working
    unchanged; namespacing is opt-in and needs no migration. *)

type t

val file_name : int -> string
(** [file_name execs] — ["checkpoint-%012d.json"]. *)

val is_checkpoint_file : string -> bool
(** Whether a basename matches the store's naming scheme. *)

val create : dir:string -> keep:int -> t
(** Creates [dir] (and parents) if missing. [keep] is clamped to
    ≥ 1. *)

val valid_namespace : string -> bool
(** Whether a string is usable as a campaign id / store namespace:
    nonempty, chars in [[A-Za-z0-9._-]], no leading dot. *)

val namespaced : dir:string -> id:string -> keep:int -> t
(** The store rooted at [<dir>/<id>] — one campaign's slice of a shared
    state directory. Raises [Invalid_argument] when [id] fails
    {!valid_namespace}. *)

val dir : t -> string
(** The store's directory (after any namespacing). *)

val namespaces : string -> string list
(** Campaign ids under a shared state directory: subdirectories of
    [dir] that hold at least one checkpoint file, sorted. A flat
    (un-namespaced) store yields [[]]. *)

val list : t -> string list
(** Absolute paths of the store's checkpoint files, oldest first. *)

val save : t -> Checkpoint.t -> string
(** Writes the checkpoint atomically, prunes down to [keep] files, and
    returns the written path. May raise [Sys_error]. *)

val load_latest : string -> (string * Checkpoint.t, string) result
(** Loads the newest readable checkpoint in [dir], falling back to
    older files when the newest is corrupt; returns its path too.
    [Error] when the directory holds no loadable checkpoint. *)
