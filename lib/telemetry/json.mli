(** A minimal JSON tree, printer and parser.

    The repository deliberately carries no third-party JSON dependency;
    this module is the single codec behind the JSONL event trace, the
    machine-readable campaign report ([Report.to_json]) and the bench
    harness that consumes both. It covers exactly RFC 8259 minus
    extravagances nobody here emits: numbers parse to [Int] when they
    are integral decimals and to [Float] otherwise. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (the JSONL framing requirement).
    Strings are escaped per RFC 8259; non-finite floats render as
    [null] (JSON has no representation for them). *)

val of_string : string -> (t, string) result
(** Parse one JSON document; trailing garbage is an error. The error
    string names the offending byte offset. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)

val to_int : t -> int option
(** [Int n] and integral [Float]s. *)

val to_float : t -> float option
val to_bool : t -> bool option
val to_list : t -> t list option
val string_value : t -> string option

(** {1 Decoding kit}

    The one set of rules behind every on-disk document decoder
    (checkpoints, repro artifacts, fleet ledgers, shards, summaries,
    progress files, configs, trace events): a field is either present
    and accepted by its converter, or the error names it. *)

val field : string -> (t -> 'a option) -> t -> ('a, string) result
(** [field name conv j] is [conv] applied to field [name] of object
    [j]. [Error "missing field NAME"] when absent (or [j] is not an
    object), [Error "invalid field NAME"] when [conv] answers [None].
    [field name Option.some j] fetches a sub-document for a
    result-returning decoder. *)

val field_or :
  string -> (t -> 'a option) -> default:'a -> t -> ('a, string) result
(** {!field} where an absent field is [Ok default] — for fields a later
    document version added. A present but rejected field is still an
    error. *)

val nullable : (t -> 'a option) -> t -> 'a option option
(** Converter for a field that may hold [null]: [Null] is [Some None]. *)

val list : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** Map in order with a result-returning decoder; the first [Error]
    wins. *)

val header : format:string -> version:int -> (string * t) list
(** The leading [format] and [version] fields of a versioned
    document. *)

val check_header :
  format:string -> versions:int * int -> t -> (unit, string) result
(** Check a document's {!header}: the [format] tag must equal [format]
    and the version lie in [versions] (inclusive). *)
