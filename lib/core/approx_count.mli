(** Randomized approximation of Count(G, r, k) — the FPRAS of Section 4.1
    (Arenas-Croquevielle-Jayaram-Riveros), implemented as a level-by-level
    Karp–Luby union estimator over the non-determinized product (see
    DESIGN.md §5).  It runs on a private {!Product} of the Thompson NFA:
    a configuration (node, NFA state) is the unclosed state
    {!Product.config_state}, and a sample is the deterministic product
    state its path reaches.  Estimates land within the requested relative
    error with high probability; when every union has uniform
    run-multiplicity the estimator is deterministic-exact. *)

type t

(** [create inst r ~epsilon] sizes the per-configuration sample pools at
    Θ(1/ε²). Raises unless 0 < ε < 1. *)
val create :
  ?budget:Gqkg_util.Budget.t ->
  ?seed:int ->
  Gqkg_graph.Snapshot.t ->
  Gqkg_automata.Regex.t ->
  epsilon:float ->
  t

(** Estimate Count(G, r, k).  The budget is checked once per level, after
    noting the product's interned states, so a [max_states] cap governs
    it.  A tripped budget answers 0.0 — an interrupted level pass
    estimates shorter paths, which would not be a sound partial answer
    for length [k]. *)
val estimate : t -> length:int -> float

(** One-shot estimation. *)
val count :
  ?budget:Gqkg_util.Budget.t ->
  ?seed:int ->
  Gqkg_graph.Snapshot.t ->
  Gqkg_automata.Regex.t ->
  length:int ->
  epsilon:float ->
  float
