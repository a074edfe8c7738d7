(** Reference evaluators: the Section 4 semantics transcribed directly,
    slow and obviously correct, for the suites to hold the engines to.
    The pair oracle itself, {!Gqkg_core.Naive}, stays in the core
    library because the benchmark harness links it. *)

open Gqkg_graph
open Gqkg_automata

(** Does the concrete path conform to the expression? The guarded NFA
    run over the path. *)
val matches_path : Snapshot.t -> Regex.t -> Gqkg_core.Path.t -> bool

(** Freeman's betweenness by enumerating every shortest path pair by
    pair (exponential in the worst case). With [directed:false] edges
    are symmetric and each unordered pair counts once. *)
val betweenness : ?directed:bool -> Snapshot.t -> float array

(** Regex-constrained betweenness (Section 4.2) from {!Gqkg_core.Naive.paths}:
    for each ordered pair a ≠ b, S_{a,b,r} is the set of matching paths
    of least length (at most [max_length]), and each of its paths
    credits every distinct node other than a and b with 1/|S_{a,b,r}|.
    Paths are edge sequences, so parallel edges count separately. *)
val bcr : max_length:int -> Snapshot.t -> Regex.t -> float array

(** Distinct head tuples of a CRPQ, sorted: every assignment of the
    body variables, kept when each atom's pair is in that atom's
    {!Gqkg_core.Naive.pairs}. Without [max_length] each atom is bounded
    by a length no shortest matching path exceeds. [limit] is ignored. *)
val crpq_answers : ?max_length:int -> Snapshot.t -> Gqkg_logic.Crpq.t -> int list list
