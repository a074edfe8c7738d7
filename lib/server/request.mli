(** The request pipeline [gqkg] and [gqkg serve] share: a request as
    posed, one budget rule, one validation, evaluation through
    {!Gqkg_core.Governor} or the {!Gqkg_graph.Epochs} commit path, and a
    typed response that carries its completeness.  Each surface adapts
    argv or a wire frame into a request and renders the response for a
    terminal or the wire (DESIGN.md §5j). *)

open Gqkg_graph
module Budget = Gqkg_util.Budget

type limits = { timeout_ms : int option; max_states : int option; max_steps : int option }
(** The limits a request carries ([--timeout-ms] or ["timeout_ms"], ...). *)

val no_limits : limits

val budget : ?timeout_ms:int -> ?max_states:int -> ?trip_after_checks:int -> limits -> Budget.t
(** The one budget rule: a limit the request sets wins, an unset one
    falls back to the surface's default given here (the CLI has none,
    serve passes its config's). *)

type kind =
  | Query of { max_length : int option }  (** endpoint pairs *)
  | Count of { length : int }  (** number of matching paths of this length *)

type 'q t = { q : 'q; kind : kind }
(** [q] is the query text as posed, a {!Gqkg_automata.Regex.t} once
    validated. *)

val max_count_length : int
(** Count's table holds (length + 1) x states x 8 bytes, allocated
    before the first budget check, so the budget cannot bound it: a
    length outside [0..max_count_length] is refused. *)

type error =
  | Parse_error of { text : string; position : int; message : string }  (** GQ042 *)
  | Bad_length of int  (** GQ046 on the CLI, GQ062 on the wire *)
  | Script_error of { line : int; message : string }
      (** GQ048: a script line (numbered from 1) that does not parse or apply *)

val error_message : error -> string
(** Without location: each surface places a [Script_error] its own way. *)

val parse : string -> (Gqkg_automata.Regex.t, error) result

val validate : string t -> (Gqkg_automata.Regex.t t, error) result
(** The length rule first, then the parse. *)

type answer = Pairs of (int * int) list | Path_count of { length : int; count : float }

type response = {
  answer : answer;
  completeness : Budget.completeness;
  diagnostic : Gqkg_analysis.Diagnostic.t option;
      (** the GQ03x warning; [Some] exactly when [completeness] is [Partial] *)
}

val eval :
  ?use_cache:bool -> budget:Budget.t -> Snapshot.t -> Gqkg_automata.Regex.t t -> response
(** [use_cache] is {!Gqkg_core.Governor.eval_pairs}'s. *)

type mutated = {
  applied : int;
  ops : int;  (** ops in the script *)
  commits : int;
  reused : int;  (** columns shared with the previous epoch, summed over commits *)
  rebuilt : int;
}

val mutate :
  ?tolerate_partial:bool ->
  ?commit_every:int ->
  ?interrupted:(unit -> bool) ->
  Epochs.t ->
  string list ->
  (mutated, error) result
(** Apply a script, one op per line, to the current epoch.  Every line
    is parsed before any is applied; blank and comment lines are
    skipped, and [tolerate_partial] skips a last line that does not
    parse (a torn append).  A new epoch is committed every
    [commit_every] ops and at the end.  On the first bad line the
    pending ops are abandoned.  [interrupted] is polled before each op:
    once it holds, the pending ops are committed and the rest skipped.
    Callers serialize writers. *)
