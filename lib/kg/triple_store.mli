(** In-memory RDF triple store (set semantics; knowledge graphs grow).

    The store is a builder: interned terms, append-only subject /
    predicate / object id columns, and one hash set over the id triple
    that deduplicates inserts and answers {!mem_ids}. Pattern reads go
    through the store's frozen {!type-view}: one columnar
    {!Gqkg_graph.Snapshot.t} per version, built on the first read after
    a write and dropped by every [add] that inserts a triple. A caller
    that reads first and writes after (an RDFS round, [Pg_rdf]) freezes
    once per round. *)

type triple = { s : Term.t; p : Term.t; o : Term.t }

val triple : Term.t -> Term.t -> Term.t -> triple

type t

val create : unit -> t

(** Number of distinct triples. *)
val size : t -> int

(** Number of interned terms. *)
val num_terms : t -> int

(** Dense store id of a term, interning on first sight. Store ids are
    stable for the life of the store. *)
val intern : t -> Term.t -> int

val term_of : t -> int -> Term.t
val id_of : t -> Term.t -> int option
val mem : t -> triple -> bool
val mem_ids : t -> s:int -> p:int -> o:int -> bool

(** Returns whether the triple was new (set semantics). *)
val add : t -> triple -> bool

val add_all : t -> triple list -> unit

(** All triples, in insertion order. *)
val iter : t -> (triple -> unit) -> unit

val to_list : t -> triple list

(** Pattern matching: [None] components are wildcards. A constant term
    absent from the store matches nothing. *)
val iter_matching :
  t -> s:Term.t option -> p:Term.t option -> o:Term.t option -> (triple -> unit) -> unit

val matching : t -> s:Term.t option -> p:Term.t option -> o:Term.t option -> triple list

(** The same over store ids: a CSR row of the subject or object, or the
    predicate's edge range, of the frozen view. *)
val iter_matching_ids :
  t -> s:int option -> p:int option -> o:int option -> (int -> int -> int -> unit) -> unit

(** Count without materializing. *)
val count_matching_ids : t -> s:int option -> p:int option -> o:int option -> int

(** Knowledge-graph integration: set union (shared IRIs deduplicate). *)
val merge : into:t -> t -> unit

val copy : t -> t

(** {1 The frozen view}

    One id space serves every triple position: view ids
    [0 .. nodes - 1] are the snapshot's nodes, the terms that occur as
    a subject or an object (in store-id order); terms that occur only
    as predicates follow. Each distinct predicate IRI is one edge label
    of the snapshot, and edge ids are grouped by label, then sorted by
    (source, target). RDF reading of atoms, the property-graph rule
    over the label keys and property rows the view freezes to: an IRI
    is named by [Const.of_string] of its full text and of its local
    name, a literal or blank node by nothing. An edge satisfies label
    ℓ when ℓ names its predicate; a node satisfies ℓ when ℓ names one
    of its rdf:type objects (the objects are node-label bitmaps);
    (p = v) holds on a node with a triple (node, q, "lit") whose object
    is a literal, where [p] names q and [v] equals
    [Const.of_string "lit"]. No edge has properties. *)

(** RDF graphs as labeled graphs (Section 3): each triple (s, p, o) is
    an edge from s to o labeled p, with edges unnamed (identified by
    their triple). The view is memoized on the store and dropped by the
    next insert, so every Section 4 algorithm runs unchanged over RDF
    on the shared columnar {!Gqkg_graph.Snapshot.t}. *)
type view = private {
  store : t;  (** the store this view was frozen from *)
  snap : Gqkg_graph.Snapshot.t;
  nodes : int;  (** view ids below [nodes] are snapshot nodes *)
  terms : Term.t array;  (** view id → term *)
  label_of : int array;
      (** view id → edge-label id of that exact predicate IRI, or -1 *)
  label_pred : int array;  (** edge-label id → view id of its predicate *)
  first_edge : int array;
      (** edges of label [l] are ids [first_edge.(l) .. first_edge.(l + 1) - 1] *)
  view_id : int array;  (** store id → view id, -1 for a term in no triple *)
  store_id : int array;  (** view id → store id *)
}

(** The memoized frozen view of the store's current version. *)
val view : t -> view

(** View id of a term, or -1 when it occurs in no triple. *)
val view_of_term : view -> Term.t -> int

(** [iter_edges v ~src ~label ~dst f] calls [f e] for every edge of the
    view matching the bound components (a negative argument is a
    wildcard; [src] and [dst] are node ids, [label] an edge-label id). *)
val iter_edges : view -> src:int -> label:int -> dst:int -> (int -> unit) -> unit
