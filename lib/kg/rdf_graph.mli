(** RDF graphs as labeled graphs (Section 3): each triple (s, p, o) is
    an edge from s to o labeled p. The graph of a store is its frozen
    view ({!Triple_store.type-view}), memoized on the store and dropped
    by the next insert, so every Section 4 algorithm runs unchanged
    over RDF on the shared columnar {!Gqkg_graph.Snapshot.t}. Nodes are
    the terms that occur as a subject or an object. Atomic tests: an
    edge satisfies label ℓ when its predicate is ℓ or has local name ℓ;
    a node satisfies ℓ when it has a matching rdf:type; (p = v) holds
    when a literal-valued triple exists. *)

type t = Triple_store.view

(** The store's frozen view: the same physical value until the next
    [add] that inserts a triple. *)
val of_store : Triple_store.t -> t

val num_nodes : t -> int
val num_edges : t -> int

(** The RDF term at a node index. *)
val node_term : t -> int -> Term.t

val find_node : t -> Term.t -> int option

(** The columnar snapshot: predicates are interned edge labels,
    rdf:type objects node-label bitmaps (a node may carry several). *)
val to_snapshot : t -> Gqkg_graph.Snapshot.t
