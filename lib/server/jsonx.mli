(** Minimal self-contained JSON codec: the one JSON writer of the wire
    protocol and of every JSON the CLI prints.

    No JSON library is a dependency, and the needs are small: parse one
    request object per line, print one response object per line.  The
    parser is strict enough to reject garbage (the fuzz suite feeds it
    arbitrary bytes) and total — it never raises; every failure is a
    [Error message] with a position. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete JSON value (leading/trailing whitespace allowed;
    trailing garbage is an error). *)

val to_string : t -> string
(** Compact one-line rendering with full string escaping — safe to
    write as one NDJSON frame.  Integers below 10{^15} print exactly,
    other finite numbers in the shortest form that reads back to the
    same double, and non-finite numbers as [null]. *)

val int : int -> t

val to_buffer : Buffer.t -> t -> unit
(** {!to_string} into a caller's buffer. *)

type names
(** A snapshot's node names as JSON string literals, quotes included,
    escaped once into one blob plus [n + 1] offsets. *)

val names : Gqkg_graph.Snapshot.t -> names
(** Built on first use and memoized on the snapshot: one per epoch. *)

val answer_frame :
  names -> head:(string * t) list -> limit:int -> Gqkg_core.Answer.t -> tail:(string * t) list ->
  string
(** [answer_frame names ~head ~limit a ~tail] is byte for byte
    [to_string (Obj (head @ [("total", int total); ("truncated", Bool (total > limit));
    ("pairs", Arr page)] @ tail)) ^ "\n"], where [total] is the number
    of the answer's pairs and [page] holds its first [limit] pairs
    [(a, b)] as [Arr [Str (name a); Str (name b)]].  It is rendered into
    one string of that exact size, with its body from {!answer_body}: a
    cached answer renders it once per shown count, and each frame after
    that copies it between the members. *)

val answer_body : names -> Gqkg_core.Answer.t -> shown:int -> string
(** The inside of the ["pairs"] array for the answer's first [shown]
    pairs.  The answer's memo holds the last one rendered: a call with
    the same [names] and [shown] returns it (physically); another call
    renders a new one and replaces it by compare-and-set. *)

val of_diagnostic : Gqkg_analysis.Diagnostic.t -> t
(** The one JSON form of a diagnostic: [code], [severity], [subterm],
    [message]. *)

(** {2 Accessors} — [None] on missing member or wrong shape. *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option
val int_opt : t -> int option
val arr : t -> t list option
