(** Bridge between the static analyzer and the product kernel: plans a
    query (prune, trim, canonicalize) before building the product.
    The minimized canonical automaton is evaluated when it is strictly
    smaller than the trimmed one (identity-preserving otherwise), and
    the semantic plan cache is keyed by canonical-automaton key.
    Canonicalization gives up past a fixed cap of 256 states.

    The optional [budget] is attached to the built product, so every
    kernel downstream shares one cooperative resource budget. *)

open Gqkg_graph
open Gqkg_automata

type prep =
  | Empty  (** statically empty: answer without building any product state *)
  | Ready of Product.t

val prepare : ?budget:Gqkg_util.Budget.t -> Snapshot.t -> Regex.t -> prep

(** A query planned once — analysis and canonicalization done — whose
    products are built on demand. *)
type query

val plan : ?budget:Gqkg_util.Budget.t -> Snapshot.t -> Regex.t -> query

(** The canonical cache key of a planned query ({!semantic_key}). *)
val key : query -> string option

(** The product over the evaluated automaton, from the semantic plan
    cache when the budget is unlimited; [None] when statically empty. *)
val product : query -> Product.t option

(** The product over the reversed evaluated automaton (plan-cached
    under [key|rev]): its runs from node b to node a are the forward
    runs from a to b.  [None] when statically empty. *)
val reversed : query -> Product.t option

(** Everything [explain] wants to show about a plan. *)
type plan = {
  prep : prep;
  report : Gqkg_analysis.Analyze.report;
  canon : Gqkg_analysis.Decide.canonical option;  (** canonical form, when within its cap *)
  minimized : bool;  (** canonical automaton substituted for evaluation *)
  plan_cache_hit : bool;  (** product served from the semantic plan cache *)
}

val prepare_explained : ?budget:Gqkg_util.Budget.t -> Snapshot.t -> Regex.t -> plan

(** Canonical cache key of the query on this snapshot ([None] when
    the query is statically empty or canonicalization gave up) — the Governor's result-cache key
    ingredient. *)
val semantic_key : Snapshot.t -> Regex.t -> string option

(** The snapshot's vocabulary schema, memoized on the snapshot: one
    {!Gqkg_analysis.Schema.of_snapshot} derivation per snapshot, shared
    by every plan on it. *)
val schema_for : Snapshot.t -> Gqkg_analysis.Schema.t
