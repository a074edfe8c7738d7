(** The one conjunctive compiler: atoms (x, r, y) of a CRPQ or of a
    SPARQL basic graph pattern (a CRPQ with pinned constants over the
    RDF view) become {!Join} atom specs.

    - A pinned endpoint is a singleton {!Join.Set} atom on a fresh
      variable named after the constant, ahead of every other atom.
    - A node-label atom (x, ?c, x) is the label's postings set.
    - A single forward or backward edge label (unless [max_length] is
      0), and an exact edge-label middle, are zero-copy {!Join.Edges}
      views.
    - Every other regex is a {!Join.Relation}, prepared once per
      distinct regex through {!Governor.eval_relation} under the query's
      budget.  With the default unlimited budget, a path atom repeated on
      one snapshot, or an equivalent one, is a {!Semcache} result hit; a
      limited budget neither reads nor stores cache entries. *)

open Gqkg_graph

type endpoint = Var of string | Pin of { name : string; id : int }

(** A regex, or one exact edge-label id: a SPARQL constant predicate
    names one IRI's label, not every label its local name matches. *)
type middle = Regex of Gqkg_automata.Regex.t | Label of int

type atom = { src : endpoint; mid : middle; dst : endpoint }

(** The specs, pins first, and the pinned variables.  [max_length]
    bounds the regex middles; a negative one raises [Invalid_argument]. *)
val compile :
  ?budget:Gqkg_util.Budget.t ->
  ?max_length:int ->
  Snapshot.t ->
  atom list ->
  Join.atom_spec list * string list

(** [header], one line per atom (its rows as nodes or endpoint pairs, and
    its iterator kind), then the plan {!Join.plan} renders. *)
val explain : header:string -> Snapshot.t -> Join.atom_spec list -> string
