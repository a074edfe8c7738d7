(** The static query analyzer: simplification, pruning, NFA trimming and
    seed-cost estimation run before a query touches the product kernel.

    Pass order and diagnostic codes are documented in DESIGN.md §"Static
    analysis". All rewrites preserve [[r]] on the instance analyzed, so
    evaluation with analysis on and off is observationally identical
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

(** Global switch consulted by {!plan_if_enabled}; default [true]. The
    off position restores pre-analyzer behavior exactly (untrimmed
    Thompson automaton of the original expression). *)
val enabled : bool ref

val is_empty : report -> bool

(** Lint path: analyze against an optional {!Schema.t} vocabulary.
    Without a schema only graph-independent reasoning (contradictions,
    tautologies) applies. *)
val run : ?schema:Schema.t -> Regex.t -> report

(** Execution path: analyze against the instance the query is about to
    run on. Atom verdicts come from the data itself (exists/forall
    scans, memoized per distinct atom; label atoms use the interned
    label index when present). *)
val plan : Snapshot.t -> Regex.t -> report

(** [plan] when {!enabled}, [None] otherwise. *)
val plan_if_enabled : Snapshot.t -> Regex.t -> report option

(** Static verdict of one atom against a schema vocabulary — the same
    interpretation the GQ001/002/003 pass applies (atoms outside a
    closed universe are statically false, atoms carried by every object
    are true). Exposed so {!Decide} buckets test atoms consistently
    with lint. *)
val schema_atom_verdict :
  Schema.t option -> edge:bool -> Atom.t -> [ `True | `False | `Unknown ]

(** Boolean-only test simplification (no vocabulary): three-valued
    constant folding plus an exhaustive truth table over up to 12
    distinct atoms. [`F] means unsatisfiable, [`T] tautological. *)
val simplify_test : Regex.test -> [ `T | `F | `Test of Regex.test ]

(** Rebuild an automaton keeping only states reachable from the start
    and co-reachable from the accept over moves that [alive] admits;
    [None] when the trimmed language is empty. *)
val trim : Nfa.t -> alive:(Nfa.move -> bool) -> Nfa.t option
