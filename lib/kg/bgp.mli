(** Basic graph pattern matching — the conjunctive core of SPARQL — with
    SPARQL-1.1-style property-path patterns (Section 4's declarative
    face of pattern extraction over RDF).  Over the store's frozen view
    ({!Triple_store.view}) a BGP is a CRPQ with pinned constants, so
    this module is term mapping over the one conjunctive compiler
    ({!Gqkg_core.Conjunctive}): a constant subject or object is a pinned
    node, which the planner binds first; a constant predicate is that
    exact IRI's edge label, a zero-copy view; a path pattern is a regex
    atom, whose endpoint pairs a repeated or equivalent path on the same
    snapshot reads from the Governor's result cache.  Only a variable
    predicate materializes rows here.  Reference oracles live in the
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
val pattern_vars : pattern -> string list

(** Distinct projections onto the selected variables, sorted. Raises if
    a selected variable is unused.  A tripped [budget] stops both
    path-atom materialization and the join: the rows are a sound
    subset of the complete answer. *)
val select : ?budget:Gqkg_util.Budget.t -> Triple_store.t -> query -> Term.t list list

(** Number of solution mappings (no projection or dedup). *)
val count_solutions : ?budget:Gqkg_util.Budget.t -> Triple_store.t -> query -> int

val ask : ?budget:Gqkg_util.Budget.t -> Triple_store.t -> query -> bool

(** The join plan: chosen variable order and per-atom estimates. *)
val explain : Triple_store.t -> query -> string
