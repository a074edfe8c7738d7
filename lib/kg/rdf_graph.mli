(** RDF graphs as labeled graphs (Section 3): each triple (s, p, o) is
    an edge from s to o labeled p. Freezing a triple store into the
    shared columnar {!Gqkg_graph.Snapshot.t} lets every Section 4
    algorithm run unchanged over RDF. Atomic tests: an edge satisfies label ℓ when its predicate
    is ℓ or has local name ℓ; a node satisfies ℓ when it has a matching
    rdf:type; (p = v) holds when a literal-valued triple exists. *)

type t

val of_store : Triple_store.t -> t
val num_nodes : t -> int
val num_edges : t -> int

(** The RDF term at a node index. *)
val node_term : t -> int -> Term.t

val find_node : t -> Term.t -> int option
val node_satisfies_atom : t -> int -> Gqkg_graph.Atom.t -> bool
val edge_satisfies_atom : t -> int -> Gqkg_graph.Atom.t -> bool

(** Freeze to the columnar snapshot: predicates become interned edge
    labels (satisfaction by full IRI or local name), rdf:type objects
    become node-label bitmaps (a node may carry several). *)
val to_snapshot : t -> Gqkg_graph.Snapshot.t
