(** Worst-case-optimal multiway join over Snapshot CSR: a
    Leapfrog-Triejoin engine shared by every conjunctive consumer (CRPQ,
    of which a conjunctive query over labels is a special case, and
    SPARQL BGP).

    Instead of joining relation-by-relation (whose intermediate results
    can be quadratically larger than the output — O(n²) on triangles), the
    engine binds variables one at a time: at each level it leapfrogs the
    sorted iterators of every atom containing that variable to their
    common values, achieving the AGM worst-case-optimal bound (O(n^1.5)
    on the triangle query).

    Atoms are specified over named variables with one of four relation
    sources; constants must be substituted away by the caller (or pinned
    with a singleton {!Set} atom).  Trie iterators come in two flavors:
    zero-copy views over a per-snapshot label-sorted CSR index
    ({!Edges} on one label), and tries built from materialized relations
    ({!Set}, {!Pairs}, {!Rows3}, label unions and self-loop atoms) by
    stable LSD radix passes over their columns, in time linear in the
    rows and with no per-row allocation.  The global variable order is chosen by
    {!Gqkg_analysis.Joinplan.choose_order} from per-atom cardinality
    estimates.

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

(** {1 Per-snapshot join index} *)

module Index : sig
  (** Label-sorted adjacency: for every edge-label id, the distinct
      (src, dst) pairs grouped by src (out orientation) and by dst (in
      orientation), built once per snapshot by radix sorts and
      memoized on it ({!Snapshot.val-memo}).  Empty when the snapshot
      interns no edge labels ([num_labels = 0]). *)
  type t

  val get : Snapshot.t -> t

  (** Edge-label ids whose [label_sat] accepts the constant, computed
      per call (O(labels)). *)
  val edge_label_ids : t -> Const.t -> int list

  (** Nodes whose node labels satisfy the constant, ascending: the
      snapshot's {!Postings} of [Label c] (shared; do not mutate). *)
  val nodes_with_const_label : t -> Const.t -> int array

  (** Per edge label: distinct (src, dst) pairs, distinct sources,
      distinct destinations, self-loop count. *)
  type label_stat = {
    name : string;
    pairs : int;
    distinct_src : int;
    distinct_dst : int;
    self_loops : int;
  }

  val label_stats : t -> label_stat array

  (** The per-label cardinality table [gqkg stats] prints. *)
  val describe : t -> string
end

(** {1 Atom specification} *)

(** A relation over non-negative int ids: a negative id in a
    materialized relation raises [Invalid_argument] from {!plan} and
    {!solve}.  A materialized relation (every source except a
    single-label {!Edges}) is sorted once for its statistics, and its
    trie is built once, in the column order the chosen variable order
    binds first; duplicate rows are dropped in that build. *)
type rel =
  | Edges of int list
      (** Union of edge-label ids, served zero-copy from the {!Index}
          when the list is a singleton.  Arity 2: (src, dst). *)
  | Pairs of (int * int) list  (** Materialized binary relation. *)
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
    dedup table is kept); proper projections are deduplicated.

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

(** {1 Shared path-atom materialization}

    The one place CRPQ and BGP path atoms are materialized: endpoint
    pairs of the regex, computed by the batched {!Frontier}-backed
    product engine, sorted and deduplicated. *)
val path_pairs :
  ?budget:Budget.t ->
  ?max_length:int ->
  Snapshot.t ->
  Gqkg_automata.Regex.t ->
  (int * int) list
