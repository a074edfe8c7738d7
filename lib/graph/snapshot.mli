(** The frozen, columnar store of a graph in any Section 3 data model.

    A snapshot is a fully materialized compressed-sparse-row image of a
    graph: flat int arrays for edge endpoints, offset-packed adjacency in
    both directions, interned edge-label ids, per-node-label membership
    bitmaps, interned property and feature rows, and precomputed
    statistics. Every model (labeled, property, vector-labeled, and RDF
    via the triple store's frozen view, [Gqkg_kg.Triple_store.view])
    freezes to this one physical layout once; the entire Section 4
    machinery runs against it, and a frozen model may be dropped. Every
    atom answers from these columns: each label id carries the constants
    that name it (an RDF type or predicate is named by its full IRI and
    its local name), and RDF's literal-object triples are property rows.

    All array fields are plain immutable arrays — a snapshot can be
    shared across OCaml 5 domains without synchronization; the one
    mutable part, the {!memo} of derived state, is updated by
    compare-and-set. Hot paths (the product kernel, Brandes) index the
    arrays directly; {!node_atom}/{!edge_atom} and the name closures
    serve the cold oracle paths only. *)

(** Degree and label statistics, computed at freeze time. *)
type stats = {
  out_degree_p50 : int;
  out_degree_p99 : int;
  out_degree_max : int;
  in_degree_p50 : int;
  in_degree_p99 : int;
  in_degree_max : int;
  degree_p50 : int;  (** total (out + in) degree percentiles *)
  degree_p99 : int;
  degree_max : int;
  edge_label_counts : int array;  (** edge-label id → multiplicity *)
  node_label_counts : int array;  (** node-label id → member count *)
}

(** One interned (key, value) row per object: the row of object [o] is
    entries [off.(o) .. off.(o+1) - 1] of [kv], each an {!entry} of two
    ids into the {!attrs} dictionary, packed entries strictly ascending.
    A property key may carry several values (an RDF predicate with
    several literals), its entries adjacent; feature keys are unique.
    [off = [||]] means every row is empty. *)
type rows = { off : int array; kv : int array }

(** The property and feature columns of a snapshot. *)
type attrs = {
  dict : Const.t array;
      (** distinct constants ascending by {!Const.compare} (so key-id
          order is key order): every key and value of the four row sets,
          plus any a commit left stale *)
  node_props : rows;  (** σ on nodes: (property, value) rows *)
  edge_props : rows;
  dimension : int;  (** feature width d; 0 outside vector graphs *)
  node_features : rows;
      (** λ on nodes of a vector graph: key [Const.Int i] for feature i,
          ⊥ entries omitted *)
  edge_features : rows;
}

type t = {
  num_nodes : int;
  num_edges : int;
  (* Columnar ρ: edge e runs esrc.(e) → edst.(e). *)
  esrc : int array;
  edst : int array;
  (* CSR out-adjacency: the moves of node v are entries
     out_off.(v) .. out_off.(v+1) - 1 of out_eid/out_nbr (edge id and
     head node), in ascending edge order. out_off has num_nodes + 1
     entries. Same layout for in-adjacency (neighbor = tail node). *)
  out_off : int array;
  out_eid : int array;
  out_nbr : int array;
  in_off : int array;
  in_eid : int array;
  in_nbr : int array;
  (* Interned edge labels: elabel.(e) is the dense label id of edge e,
     label_names.(l) its display name and label_keys.(l) the constants
     that name it:
       edge_atom e (Label c) = ∃ k ∈ label_keys.(elabel.(e)). Const.equal c k.
     num_labels = 0 means the model provides no label index (no edge
     Label atom then holds). *)
  num_labels : int;
  elabel : int array;
  label_names : string array;
  label_keys : Const.t array array;
  (* Interned node labels as membership bitmaps: node_label_bits.(l) is
     a raw Bitset over nodes (see Gqkg_util.Bitset raw layer). A node
     may belong to several label bitmaps (RDF types); in the other
     models membership is exclusive. Same rule as edges:
       node_atom v (Label c) = ∃ l. raw_mem node_label_bits.(l) v
                                    ∧ ∃ k ∈ node_label_keys.(l). Const.equal c k. *)
  num_node_labels : int;
  node_label_names : string array;
  node_label_keys : Const.t array array;
  node_label_bits : int array array;
  attrs : attrs;
  (* Display names (node and edge ids). *)
  node_name : int -> string;
  edge_name : int -> string;
  stats : stats;
  epoch : int;
      (** Process-unique freeze stamp: every constructed snapshot gets a
          fresh value (reported by [gqkg explain], [stats] and serve). *)
  memo : Gqkg_util.Memo.t;
      (** Derived state computed from this snapshot (schema, join index,
          semantic caches), see {!val-memo}; minted fresh with the epoch,
          so two snapshots never share it. *)
}

(** [make] builds the CSR image, label bitmaps and stats from columnar
    endpoint arrays and pre-interned labels. [esrc], [edst] and [elabel]
    must have equal lengths (the edge count); [elabel] entries must lie
    in [0, num_labels) when [num_labels > 0]. [node_labels.(v)] lists
    the node-label ids of node [v] (empty, one, or several). *)
val make :
  attrs:attrs ->
  num_nodes:int ->
  esrc:int array ->
  edst:int array ->
  num_labels:int ->
  elabel:int array ->
  label_names:string array ->
  label_keys:Const.t array array ->
  num_node_labels:int ->
  node_labels:int list array ->
  node_label_names:string array ->
  node_label_keys:Const.t array array ->
  node_name:(int -> string) ->
  edge_name:(int -> string) ->
  t

(** CSR adjacency from endpoint columns (counting sort):
    [(out_off, out_eid, out_nbr, in_off, in_eid, in_nbr)], each node's
    entries in ascending edge order — the primitive [make] and the
    incremental re-freeze ({!Overlay.commit}) share. *)
val pack_csr :
  int -> int array -> int array -> int array * int array * int array * int array * int array * int array

(** Degree/label statistics from packed offsets and label-count columns
    — lets the incremental re-freeze refresh stats while physically
    reusing unchanged count arrays. *)
val stats_of_columns :
  num_nodes:int ->
  out_off:int array ->
  in_off:int array ->
  edge_label_counts:int array ->
  node_label_counts:int array ->
  stats

(** Next value of the process-wide epoch counter — for code that builds
    the record directly instead of through {!make} (the overlay commit,
    snapshot loading). Mint it, and a {!Gqkg_util.Memo.create}, for
    every record. *)
val fresh_epoch : unit -> int

(** [memo s id build] is {!Gqkg_util.Memo.get} on the memo of [s]: the
    value lives exactly as long as [s]. *)
val memo : t -> 'a Type.Id.t -> (t -> 'a) -> 'a

(** {1 Atomic tests}

    The one place columns become atom answers, for every model: a
    [Label c] holds on label id [l] when [c] is {!Const.equal} to one
    of [l]'s keys, so on a node in a bitmap of such a label and on an
    edge of such a label; a [Prop (p, v)] holds when some entry of the object's
    property row maps [p] to a constant {!Const.equal} to [v]; a
    [Feature (i, v)] holds when [1 <= i <= dimension] and feature [i]
    is [v] (⊥ when the row has no entry). A [Prop] never answers from
    feature rows, nor a [Feature] from property rows. *)

val node_atom : t -> int -> Atom.t -> bool
val edge_atom : t -> int -> Atom.t -> bool

(** [label_holds s l a]: edge-label id [l] satisfies [a] by the label
    rule ([Prop] and [Feature] atoms never do); [node_label_holds] the
    same on node-label id [l]. *)
val label_holds : t -> int -> Atom.t -> bool

val node_label_holds : t -> int -> Atom.t -> bool

(** {1 Property and feature columns} *)

val no_rows : rows

(** A row entry packs a key id and a value id (each below 2{^31}). *)
val entry : int -> int -> int

val entry_key : int -> int
val entry_value : int -> int

(** No properties, no features. *)
val no_attrs : attrs

(** Intern per-object [(key, value)] rows into one sorted dictionary
    (an empty array, or all rows empty, gives {!no_rows}). Each row
    must already be in the column order: ascending by
    [(Const.compare key, Const.compare value)], no entry repeated. *)
val intern_attrs :
  dimension:int ->
  node_props:(Const.t * Const.t) array array ->
  edge_props:(Const.t * Const.t) array array ->
  node_features:(Const.t * Const.t) array array ->
  edge_features:(Const.t * Const.t) array array ->
  attrs

(** Index of a constant in a sorted dictionary, or [-1]. *)
val find_const : Const.t array -> Const.t -> int

(** The [(key, value)] constants of one row, in entry order. *)
val row : Const.t array -> rows -> int -> (Const.t * Const.t) array

(** A run [Base (a, b)] of rows [a .. b-1] of a row set, or one
    object's [Row] of entries. *)
type segment = Base of int * int | Row of int array

(** The rows of the objects the segments list in order — renumbering
    and a commit's re-freeze; a run is one blit. *)
val gather_rows : rows -> segment list -> rows

(** The first node-label id whose bitmap holds the node, or [-1]. *)
val node_label : t -> int -> int

(** {1 Freezing the Section 3 models} *)

val of_labeled : Labeled_graph.t -> t
val of_property : Property_graph.t -> t
val of_vector : Vector_graph.t -> t

(** {1 Accessors}

    Thin wrappers over the flat arrays; inner loops should index the
    arrays directly instead. *)

val endpoints : t -> int -> int * int
val out_degree : t -> int -> int
val in_degree : t -> int -> int

(** [iter_out s v f] calls [f edge head] for every out-edge of [v] in
    ascending edge order; [iter_in] the same over in-edges. *)
val iter_out : t -> int -> (int -> int -> unit) -> unit

val iter_in : t -> int -> (int -> int -> unit) -> unit

(** Side-by-side disjoint union (second graph's nodes and edges shifted
    past the first's), label- and property-free: the joint-refinement
    substrate of the WL isomorphism test and subtree kernel. Names
    delegate to the matching side. *)
val disjoint_union : t -> t -> t

(** Human-readable snapshot summary: node/edge counts, the label
    universe with multiplicities, and degree percentiles (p50/p99/max)
    — what [gqkg explain] and [gqkg stats] print. *)
val describe : t -> string
