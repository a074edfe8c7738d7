(** Decision procedures for RPQs: emptiness, containment, equivalence,
    and minimization to a canonical automaton.

    The theory (Section 5 of the tutorial; complexity landscape in
    "Foundations of Modern Query Languages for Graph Databases") works
    over a finite alphabet. Guarded NFAs instead carry boolean tests, so
    the procedures first compile the test vocabulary into a finite
    alphabet of {e satisfiability signatures}: one letter per observable
    outcome vector of the distinct tests, enumerated against the schema
    vocabulary. Edge [Label] atoms are enumerated exactly (an edge
    carries exactly one label; a closed schema universe closes the
    choice set), node [Label] atoms are independent bits (nodes may
    carry several labels), and [Prop]/[Feature] atoms are free bits —
    an over-approximation, since value constraints can link them. The
    [exact] flag records whether any over-approximation happened:

    - [True] verdicts ([contains], [empty]) are always sound: they
      quantify over a superset of the realizable letters.
    - [False] verdicts are definitive only when the alphabet is exact
      (all tests label-pure); otherwise they degrade to [Unknown].

    Atoms are pinned true/false against the schema exactly as the
    GQ001/002/003 lint pass would ({!Analyze.schema_verdict}), so
    containment and lint agree on out-of-vocabulary labels.

    Every procedure runs under an optional {!Budget} plus a state cap
    and degrades to [Unknown] (or [None] for {!canonicalize}) rather
    than hanging or raising. *)

open Gqkg_graph
open Gqkg_automata
module Budget = Gqkg_util.Budget

type verdict =
  | True
  | False
  | Unknown of string  (** why no definitive answer (budget, cap, bucketing) *)

val verdict_to_string : verdict -> string

(** A path matching [r1] but not [r2], reconstructed from the product
    search: [nodes] gives each path node's label set (length = edges
    + 1), [steps] each edge's orientation (true = forward) and label
    ([None]: any label outside the tested vocabulary works). Only
    produced when every letter on the refuting word is realizable by a
    plain labeled graph. *)
type witness = { nodes : Const.t list list; steps : (bool * Const.t option) list }

val witness_to_string : witness -> string

(** Is [[r]] empty on every graph over the (schema-restricted)
    vocabulary? *)
val empty : ?schema:Schema.t -> ?budget:Budget.t -> ?max_states:int -> Regex.t -> verdict

(** Does every path matching [r1] match [r2], on every graph over the
    vocabulary? *)
val contains :
  ?schema:Schema.t -> ?budget:Budget.t -> ?max_states:int -> Regex.t -> Regex.t -> verdict

(** Like {!contains}, with a refuting path when the answer is [False]
    (and one is realizable). *)
val contains_witness :
  ?schema:Schema.t ->
  ?budget:Budget.t ->
  ?max_states:int ->
  Regex.t ->
  Regex.t ->
  verdict * witness option

val equiv :
  ?schema:Schema.t -> ?budget:Budget.t -> ?max_states:int -> Regex.t -> Regex.t -> verdict

(** Containment directly on guarded automata (the planner's and the
    property tests' entry point). *)
val contains_nfa :
  ?schema:Schema.t ->
  ?budget:Budget.t ->
  ?max_states:int ->
  Nfa.t ->
  Nfa.t ->
  verdict * witness option

(** The canonical form of a query: determinize over the signature
    alphabet, trim, minimize (Moore partition refinement), number
    states breadth-first over canonically ordered letters, and convert
    back to a guarded NFA the product kernel can run. Two queries get
    equal [key]s iff their minimal DFAs over the shared signature
    alphabet are isomorphic — so alternation order, duplicated
    branches, flattened stars and the like all collapse. [hash] is the
    FNV-1a digest of [key] (cache buckets; equality always compares
    [key] itself). *)
type letters

type canonical = {
  nfa : Nfa.t;  (** runnable canonical automaton (fresh accept state) *)
  dfa_states : int;  (** live states of the minimal DFA *)
  states : int;  (** states of [nfa] = [dfa_states] + 1 *)
  hash : int64;
  key : string;
  exact : bool;  (** no over-approximated (non-label-pure) test atoms *)
  letters : letters;  (** the signature letters and table [key] renders *)
}

val canonicalize :
  ?schema:Schema.t -> ?budget:Budget.t -> ?max_states:int -> Regex.t -> canonical option

val canonicalize_nfa :
  ?schema:Schema.t -> ?budget:Budget.t -> ?max_states:int -> Nfa.t -> canonical option

(** [shape ?max_states nfa] lifts the [Prop]/[Feature] values out of
    [nfa]: the lifted atoms in {!Atom.compare} order, and a key holding
    [max_states], [nfa] with each lifted atom replaced by its rank, and
    the order facts [canonicalize_nfa] reads off the values.  Two
    automata with equal keys canonicalize alike up to the rank-to-rank
    renaming of their atoms: see {!rename_atoms}. *)
val shape : ?max_states:int -> Nfa.t -> Atom.t array * string

(** [rename_atoms c f], for [c] = [canonicalize_nfa ~max_states nfa] and
    [f] mapping the atoms of [shape ~max_states nfa] rank for rank to
    those of an automaton with the same shape key (other atoms to
    themselves), equals [canonicalize_nfa] of that automaton under the
    same schema, field for field. *)
val rename_atoms : canonical -> (Atom.t -> Atom.t) -> canonical

(** 16-hex-digit rendering of a canonical hash. *)
val hash_hex : int64 -> string

(** The GQ05x redundancy lint pass, built on {!contains}/{!empty}:

    - GQ050 (Warning): an alternation branch is subsumed by a sibling
      (only reported for branches that are themselves satisfiable — an
      unsatisfiable branch is GQ0xx territory, and out-of-vocabulary
      labels must not read as "subsumed").
    - GQ051 (Info): a disjunct of a boolean test can never hold while
      its sibling can (the test quietly reduces to the sibling).
    - GQ052 (Warning): a closure adjacent to a wider closure is
      absorbed ([r*/s* = s*] when [L(r) ⊆ L(s)]).

    All verdicts share [budget]; once it trips the remaining checks
    answer [Unknown] and report nothing. *)
val lint :
  ?schema:Schema.t -> ?budget:Budget.t -> ?max_states:int -> Regex.t -> Diagnostic.t list
