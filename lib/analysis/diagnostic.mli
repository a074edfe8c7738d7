(** Structured findings of the static query analyzer: a stable code, a
    severity, the concrete-syntax subterm the finding is anchored to,
    and a message. Codes are documented in DESIGN.md §"Static analysis". *)

type severity = Error | Warning | Info

type t = { code : string; severity : severity; subterm : string; message : string }

val make : code:string -> severity:severity -> subterm:string -> message:string -> t
val severity_to_string : severity -> string

(** One-line human rendering: [severity CODE at `subterm`: message]. *)
val to_string : t -> string

(** Errors first, then warnings, then infos (stable). *)
val sort : t list -> t list

(** The GQ03x warning describing why (and after how much consumption) an
    evaluation under this budget returned a partial result; [None] while
    the budget has not tripped.  Codes: GQ030 timeout, GQ031 state
    limit, GQ032 step limit, GQ033 injected (fault harness), GQ034
    cancelled (signal or server drain).  The CLI maps its presence to
    exit code 3. *)
val of_budget : Gqkg_util.Budget.t -> t option

(** A GQ04x user-input error (malformed file, unparsable query, bad
    argument): rendered structurally by the CLI with exit code 2 instead
    of a raw exception backtrace. *)
val user_error : code:string -> subterm:string -> message:string -> t
