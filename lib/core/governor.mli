(** The outcome-typed, cached entry point for all-pairs RPQ answers,
    and the governed commit.

    Each evaluation runs under [budget] and wraps the answer in a
    {!Gqkg_util.Budget.outcome}: [completeness] is [Complete] when the
    budget never tripped and [Partial reason] otherwise.  Exhaustion
    never raises; a [Partial] answer is a subset of the unbudgeted one.
    The other kernels (counting, enumeration, sampling, reachability)
    take the same [budget] and leave its completeness for the caller to
    read ({!Gqkg_util.Budget.completeness}).

    The same budget must not be reused across calls: a tripped budget is
    sticky, so a second evaluation under it would return an empty
    [Partial] immediately.  Create one per evaluation (or use
    {!Gqkg_util.Budget.similar} to rearm). *)

open Gqkg_graph
open Gqkg_automata
module Budget = Gqkg_util.Budget

(** All pairs (a, b) joined by a matching path, as the sorted columns
    of an {!Answer.t}; a [Partial] answer is a subset of the pairs.
    [use_cache] (default false) lets a budgeted evaluation consult the
    semantic result cache ({!Semcache.find_answer}) too: a cached entry
    is always a Complete answer, so serving it under any budget is
    sound — the server's hot path.  Unbudgeted evaluations always
    consult the cache regardless.  A hit returns the entry itself. *)
val eval_answer :
  ?use_cache:bool ->
  budget:Budget.t ->
  ?max_length:int ->
  Snapshot.t ->
  Regex.t ->
  Answer.t Budget.outcome

(** {!eval_answer} of a query text, read by [parse] (its error is
    returned as is).  Whenever {!eval_answer} would consult the result
    cache, a per-snapshot memo ({!Semcache.find_text}) maps [text] and
    [max_length] to the result key a [Complete] answer was stored under,
    so a repeated text is answered with no parse and no plan (and no
    budget check, like any cache hit).  Each call makes one result-cache
    lookup at most, as {!eval_answer} does. *)
val eval_text :
  ?use_cache:bool ->
  budget:Budget.t ->
  ?max_length:int ->
  parse:(string -> (Regex.t, 'e) result) ->
  Snapshot.t ->
  string ->
  (Answer.t Budget.outcome, 'e) result

(** {!eval_answer} as a sorted pair list. *)
val eval_pairs :
  ?use_cache:bool ->
  budget:Budget.t ->
  ?max_length:int ->
  Snapshot.t ->
  Regex.t ->
  (int * int) list Budget.outcome

(** {!Join.relation_of_answer} of {!eval_answer} (no [use_cache]):
    unlimited, every call on a snapshot returns the one relation its
    cache entry holds; limited, one per call. *)
val eval_relation :
  budget:Budget.t -> ?max_length:int -> Snapshot.t -> Regex.t -> Join.relation Budget.outcome

(** Alias of {!Epochs.commit}: derived state lives on each snapshot
    ({!Snapshot.val-memo}), so a commit has nothing to invalidate. *)
val commit : Epochs.t -> Overlay.t -> Overlay.base * Overlay.reuse
