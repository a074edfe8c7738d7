(** The static query analyzer: simplification, pruning, NFA trimming and
    seed-cost estimation run before a query touches the product kernel.

    Pass order and diagnostic codes are documented in DESIGN.md §"Static
    analysis". All rewrites preserve [[r]] on the instance analyzed, so
    planned answers equal the naive reference evaluator's
    (property-tested); the payoff is that statically-empty queries are
    answered without constructing any product state, and the kernel gets
    a trimmed automaton.  The seed-cost estimates are a lint/explain
    figure only. *)

open Gqkg_graph
open Gqkg_automata

type verdict =
  | Empty  (** no path can ever match; skip execution entirely *)
  | Possibly_nonempty

type report = {
  verdict : verdict;
  regex : Regex.t;  (** pruned + simplified expression ([Empty]: the original) *)
  nfa : Nfa.t option;  (** trimmed automaton; [None] iff [Empty] *)
  diagnostics : Diagnostic.t list;  (** sorted errors-first *)
  fwd_cost : float;  (** estimated edges scanned by forward seeding *)
  bwd_cost : float;  (** estimated edges scanned by backward seeding *)
  states_before : int;  (** Thompson states before trimming (0 if [Empty]) *)
  states_after : int;  (** states the kernel actually sees *)
}

val is_empty : report -> bool

(** Lint path: analyze against an optional {!Schema.t} vocabulary.
    Without a schema only graph-independent reasoning (contradictions,
    tautologies) applies. *)
val run : ?schema:Schema.t -> Regex.t -> report

(** Execution path: analyze against the instance the query is about to
    run on. Atom verdicts come from the data itself, read off the
    snapshot's {!Postings}: an atom holds somewhere iff its postings are
    non-empty and everywhere iff they hold every node (edge).  Edge
    label atoms read the snapshot's label-frequency stats instead. *)
val plan : Snapshot.t -> Regex.t -> report

(** [plan] with the atom counts from [count ~edge atom] — the number of
    edges ([edge = true]) or nodes satisfying [atom] — instead of the
    postings; the differential tests pass a scan. *)
val plan_with : count:(edge:bool -> Atom.t -> int) -> Snapshot.t -> Regex.t -> report

(** Static verdict of a test against a schema vocabulary: each atom read
    as the GQ001/002/003 pass reads it (atoms outside a closed universe
    are statically false, atoms carried by every object are true), then
    {!simplify_test}'s folding and truth table. Exposed so {!Decide}
    buckets test atoms and lints disjuncts consistently with lint. *)
val schema_verdict : Schema.t option -> edge:bool -> Regex.test -> [ `True | `False | `Unknown ]

(** Boolean-only test simplification (no vocabulary): three-valued
    constant folding plus an exhaustive truth table over up to 12
    distinct atoms. [`F] means unsatisfiable, [`T] tautological. *)
val simplify_test : Regex.test -> [ `T | `F | `Test of Regex.test ]

(** [reachable n adj roots]: which of the states [0, n) the [roots]
    reach over the adjacency lists [adj]. *)
val reachable : int -> int list array -> int list -> bool array

(** Rebuild an automaton keeping only states reachable from the start
    and co-reachable from the accept over moves that [alive] admits;
    [None] when the trimmed language is empty. *)
val trim : Nfa.t -> alive:(Nfa.move -> bool) -> Nfa.t option
