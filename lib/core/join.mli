(** Worst-case-optimal multiway join over Snapshot CSR: a
    trie-join engine shared by every conjunctive consumer (CRPQ,
    of which a conjunctive query over labels is a special case, and
    SPARQL BGP), whose atoms {!Conjunctive} compiles.

    Instead of joining relation-by-relation (whose intermediate results
    can be quadratically larger than the output — O(n²) on triangles), the
    engine binds variables one at a time: at each level it merges the two
    shortest sorted key slices of the atoms containing that variable and
    seeks each common value in the others, so a level costs
    O(atoms * shortest slice * log), achieving the AGM worst-case-optimal
    bound (O(n^1.5) on the triangle query).

    Atoms are specified over named variables with one of five relation
    sources; constants must be substituted away by the caller (or pinned
    with a singleton {!Set} atom).  Path atoms arrive materialized: the
    engine evaluates no regex itself.  Trie iterators come in two flavors:
    zero-copy reads of a binary {!relation} (a label's in the {!Index},
    a path atom's prepared one), and tries built per query from the
    atoms that materialize ({!Set}, {!Rows3}, label unions and self-loop
    atoms) by stable LSD radix passes over their columns, in time linear
    in the rows and with no per-row allocation.  A dense trie root (keys below
    4x its distinct count) has a rank array, so a seek on it is one
    read; child slices and sparse roots take up to four linear steps,
    then gallop.  The variable order is chosen by
    {!Gqkg_analysis.Joinplan.choose_order} from per-atom cardinality
    and size-biased fan-out estimates.

    Budget governance: [solve ?budget] charges one step per variable
    binding and polls {!Gqkg_util.Budget.check} at coarse granularity; a
    tripped budget stops the enumeration, so the yielded bindings are a
    sound subset of the complete answer (check
    [Budget.completeness budget] afterwards). *)

open Gqkg_graph
module Budget = Gqkg_util.Budget

(** {1 Sorted-array primitives} *)

(** First index in [lo, hi) of the ascending [a] whose value is at least
    [key] ([hi] when there is none). *)
val lower_bound : int array -> int -> int -> int -> int

(** [sort_rows keys rows] sorts the row ids [rows] in place, stably, by
    the non-negative columns [keys] lexicographically ([keys.(0)] most
    significant), with LSD radix passes; input already in order is
    detected in one pass and left alone. *)
val sort_rows : int array array -> int array -> unit

(** {1 Binary relations and the per-snapshot join index} *)

(** A binary relation's distinct (src, dst) pairs as two immutable tries,
    by src and by dst, with the planner's statistics. *)
type relation

(** Any order, duplicates allowed; sorted input costs one check and one
    radix sort by dst.  Raises [Invalid_argument] on a negative id. *)
val relation_of_pairs : (int * int) list -> relation

(** An answer's relation: its sorted columns fill the src trie in one
    pass, the dst trie takes one radix sort.  Memoized on the answer, so
    every call from any domain returns the same one. *)
val relation_of_answer : Answer.t -> relation

module Index : sig
  (** One {!relation} per edge-label id, built once per snapshot by one
      radix sort of its edges by (label, src, dst) and memoized on it
      ({!Snapshot.val-memo}).  Empty when the snapshot interns no edge
      labels ([num_labels = 0]). *)
  type t

  val get : Snapshot.t -> t

  (** Edge-label ids the constant names ({!Snapshot.label_holds}),
      computed per call (O(labels)). *)
  val edge_label_ids : t -> Const.t -> int list

  (** Nodes whose node labels satisfy the constant, ascending: the
      snapshot's {!Postings} of [Label c] (shared; do not mutate). *)
  val nodes_with_const_label : t -> Const.t -> int array

  (** Per edge label: distinct (src, dst) pairs, distinct sources,
      distinct destinations, self-loop count, and the size-biased
      fan-outs: sum of out-degree^2 (resp. in-degree^2) / pairs. *)
  type label_stat = {
    name : string;
    pairs : int;
    distinct_src : int;
    distinct_dst : int;
    self_loops : int;
    src_fanout : float;
    dst_fanout : float;
  }

  val label_stats : t -> label_stat array

  (** The per-label cardinality and fan-out table [gqkg stats] prints. *)
  val describe : t -> string
end

(** {1 Atom specification} *)

(** A relation over non-negative int ids: a negative id in a
    materialized relation raises [Invalid_argument] from {!plan} and
    {!solve}.  A binary source ({!Edges} on one label, {!Pairs}, {!Relation})
    is read from its tries; over (x, x) it is its self-loop node set.  Any
    other atom is sorted once for its statistics, and its trie built once,
    in the column order the variable order binds first, dropping duplicate rows. *)
type rel =
  | Edges of int list
      (** Union of edge-label ids; one label is its {!Index} relation.
          Arity 2: (src, dst). *)
  | Pairs of (int * int) list  (** Converted by {!relation_of_pairs} per query. *)
  | Relation of relation  (** A prepared binary relation: a cached path atom. *)
  | Set of int array  (** Unary relation (need not be sorted). *)
  | Rows3 of (int * int * int) list  (** Ternary relation. *)

type atom_spec = {
  avars : string array;
      (** One variable name per column; repeats allowed (the atom is
          projected to its distinct variables, e.g. an (x, x) edge atom
          becomes the self-loop node set). *)
  rel : rel;
  name : string;  (** Display name for plans. *)
}

val atom : ?name:string -> string array -> rel -> atom_spec

(** {1 Planning} *)

type plan = {
  order : string array;  (** global variable order *)
  atom_summary : (string * string * int) list;
      (** per atom: display name, iterator kind, rows *)
  rendered : string;  (** full plan text (order + estimates) *)
}

(** Plan without running — what [gqkg explain] surfaces.  [snapshot] is
    required when any atom is {!Edges}. *)
val plan : ?snapshot:Snapshot.t -> atom_spec list -> plan

(** {1 Evaluation} *)

(** Enumerate all satisfying assignments, yielding the values of [vars]
    (in the given order) once per distinct tuple.  When [vars] covers
    every variable each full assignment is yielded exactly once (no
    dedup table is kept); proper projections are deduplicated through
    a flat open-addressed row set that allocates nothing per duplicate.

    Raises [Invalid_argument] if a requested variable appears in no
    atom, an atom's arity disagrees with its relation, or a
    materialized relation holds a negative id.  Exceptions
    raised by [yield] (e.g. a LIMIT sentinel) propagate. *)
val solve :
  ?budget:Budget.t ->
  ?snapshot:Snapshot.t ->
  ?order_hint:string array ->
  atom_spec list ->
  vars:string list ->
  yield:(int array -> unit) ->
  unit
