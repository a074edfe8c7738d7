(** Basic graph pattern matching — the conjunctive core of SPARQL — with
    SPARQL-1.1-style property-path patterns (Section 4's declarative
    face of pattern extraction over RDF).  Evaluation goes through the
    worst-case-optimal multiway join engine ({!Gqkg_core.Join}) on the
    store's frozen view ({!Triple_store.view}), over its ids: a pattern
    with a constant predicate is a zero-copy view of that exact IRI's
    edge label in the view's {!Gqkg_core.Join.Index}; a constant
    subject or object is a singleton atom on a variable named after it,
    which the planner binds first; only a variable predicate
    materializes rows; path patterns are materialized once per distinct
    expression on the same snapshot.  Reference oracles live in the
    tests. *)

type component = Const of Term.t | Var of string

type triple_pattern = { ps : component; pp : component; po : component }

type pattern =
  | Triple of triple_pattern
  | Path of { src : component; path : Gqkg_automata.Regex.t; dst : component }

(** A plain triple pattern. *)
val pattern : component -> component -> component -> pattern

(** A property-path pattern: endpoints joined by a regular expression
    over predicates. *)
val path_pattern : component -> Gqkg_automata.Regex.t -> component -> pattern

val v : string -> component
val c : Term.t -> component
val iri : string -> component

type query = { select : string list; where : pattern list }
type binding = (string * Term.t) list

val pattern_vars : pattern -> string list

(** Call [yield] once per solution mapping (not deduplicated; the join
    engine enumerates each full assignment exactly once).  A tripped
    [budget] stops both path-atom materialization and the join: the
    yielded mappings are a sound subset of the complete answer. *)
val iter_solutions :
  ?budget:Gqkg_util.Budget.t -> Triple_store.t -> query -> yield:(binding -> unit) -> unit

(** Distinct projections onto the selected variables, sorted. Raises if
    a selected variable is unused. *)
val select : ?budget:Gqkg_util.Budget.t -> Triple_store.t -> query -> Term.t list list

(** Number of solution mappings (no projection or dedup). *)
val count_solutions : ?budget:Gqkg_util.Budget.t -> Triple_store.t -> query -> int

val ask : ?budget:Gqkg_util.Budget.t -> Triple_store.t -> query -> bool

(** The join plan: chosen variable order and per-atom estimates. *)
val explain : Triple_store.t -> query -> string
