(** Bridge between the static analyzer and the product kernel: plans a
    query (prune, trim, canonicalize) before building the product.
    With {!Gqkg_analysis.Analyze.enabled} off, reproduces the
    pre-analyzer path exactly.

    The optional [budget] is attached to the built product, so every
    kernel downstream shares one cooperative resource budget. *)

open Gqkg_graph
open Gqkg_automata

type prep =
  | Empty  (** statically empty: answer without building any product state *)
  | Ready of Product.t

val prepare : ?budget:Gqkg_util.Budget.t -> Snapshot.t -> Regex.t -> prep

(** Evaluate the minimized canonical automaton when it is strictly
    smaller than the trimmed one (identity-preserving otherwise), and
    key the semantic plan cache by canonical-automaton key. Default
    [true]; [false] restores the pre-decision-procedure planner. *)
val minimize : bool ref

(** Deterministic state cap for planning-time canonicalization
    (default 256); past it the query is evaluated untouched. *)
val canon_max_states : int ref

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
    runs from a to b.  [None] when statically empty or when analysis is
    off. *)
val reversed : query -> Product.t option

(** Everything [explain] wants to show about a plan. *)
type plan = {
  prep : prep;
  report : Gqkg_analysis.Analyze.report option;  (** [None]: analysis off *)
  canon : Gqkg_analysis.Decide.canonical option;
      (** canonical form, when minimization is on and within its cap *)
  minimized : bool;  (** canonical automaton substituted for evaluation *)
  plan_cache_hit : bool;  (** product served from the semantic plan cache *)
}

val prepare_explained : ?budget:Gqkg_util.Budget.t -> Snapshot.t -> Regex.t -> plan

(** Canonical cache key of the query on this snapshot ([None] when
    analysis/minimization is off, the query is statically empty, or
    canonicalization gave up) — the Governor's result-cache key
    ingredient. *)
val semantic_key : Snapshot.t -> Regex.t -> string option

(** The snapshot's vocabulary schema, memoized on the epoch stamp: one
    {!Gqkg_analysis.Schema.of_snapshot} derivation per committed epoch,
    shared by every plan on that epoch (pinned older epochs stay warm
    in a short memo). *)
val schema_for : Snapshot.t -> Gqkg_analysis.Schema.t
