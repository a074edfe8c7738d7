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
  | Raw of string
      (** JSON text already rendered by this module, written verbatim;
          {!parse} never returns it *)

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

val pair_page : limit:int -> (int -> string) -> (int * int) list -> int * t
(** [pair_page ~limit name pairs] is the list's length and the array of
    its first [limit] pairs as [[name a, name b]] string pairs, rendered
    in one walk of [pairs]. *)

val of_diagnostic : Gqkg_analysis.Diagnostic.t -> t
(** The one JSON form of a diagnostic: [code], [severity], [subterm],
    [message]. *)

(** {2 Accessors} — [None] on missing member or wrong shape. *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option
val int_opt : t -> int option
val arr : t -> t list option
