(** Outcome-typed, budget-governed entry points for the Section 4
    algorithms.

    Each function runs the corresponding kernel under [budget] and wraps
    the answer in a {!Gqkg_util.Budget.outcome}: [completeness] is
    [Complete] when the budget never tripped and [Partial reason]
    otherwise.  Exhaustion never raises; a [Partial] value is always
    sound — answer sets are subsets of the unbudgeted answer, counts are
    undercounts, and samplers either produce genuine matching paths or
    nothing.

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

(** Per-source reachability ([result.(i)] lists the targets of
    [sources.(i)], sorted); [Partial] rows are subsets. *)
val reachable_many :
  budget:Budget.t ->
  ?max_length:int ->
  Snapshot.t ->
  Regex.t ->
  sources:int array ->
  int list array Budget.outcome

(** Nodes with at least one matching path starting at them; [Partial]
    results are subsets. *)
val source_nodes :
  budget:Budget.t -> ?max_length:int -> Snapshot.t -> Regex.t -> int list Budget.outcome

(** Exact Count(G, r, k); [Partial] values are undercounts. *)
val count : budget:Budget.t -> Snapshot.t -> Regex.t -> length:int -> float Budget.outcome

(** Counts for every length 0..max_length; [Partial] entries are
    undercounts. *)
val count_all :
  budget:Budget.t -> Snapshot.t -> Regex.t -> max_length:int -> float array Budget.outcome

(** FPRAS estimate of Count(G, r, k); a [Partial] value is 0.0 (an
    interrupted level pass cannot vouch for length-[k] paths). *)
val approx_count :
  budget:Budget.t ->
  ?seed:int ->
  Snapshot.t ->
  Regex.t ->
  length:int ->
  epsilon:float ->
  float Budget.outcome

(** All answers of exactly the given length; a [Partial] list is a
    prefix of the unbudgeted enumeration order. *)
val paths :
  budget:Budget.t ->
  ?sources:int list ->
  Snapshot.t ->
  Regex.t ->
  length:int ->
  Path.t list Budget.outcome

(** Alias of {!Epochs.commit}: derived state lives on each snapshot
    ({!Snapshot.val-memo}), so a commit has nothing to invalidate. *)
val commit : Epochs.t -> Overlay.t -> Overlay.base * Overlay.reuse

(** d_r(a, b); [Some d] is always the true shortest length, [Partial
    None] means the search was cut before reaching the target. *)
val shortest_path_length :
  budget:Budget.t ->
  ?max_length:int ->
  Snapshot.t ->
  Regex.t ->
  source:int ->
  target:int ->
  int option Budget.outcome
