(** Vector-labeled graphs V = (N, E, ρ, λ) of dimension d: every node and
    edge carries a d-vector over Const, with ⊥ for absent entries
    (Section 3; Figure 2(c)). Feature indexes are 1-based, following the
    paper's (f_i = v) notation. *)

type t

val dimension : t -> int
val num_nodes : t -> int
val num_edges : t -> int
val node_id : t -> int -> Const.t
val edge_id : t -> int -> Const.t
val endpoints : t -> int -> int * int

(** λ(n): the full feature vector. Do not mutate. *)
val node_vector : t -> int -> Const.t array

val edge_vector : t -> int -> Const.t array

(** λ(n)_i, 1-based; raises on out-of-range indexes. *)
val node_feature : t -> int -> int -> Const.t

(** Atomic-test oracle: [Feature] atoms, plus [Label] delegated to
    feature 1 (where {!of_property} puts the label). *)
val node_satisfies_atom : t -> int -> Atom.t -> bool

val edge_satisfies_atom : t -> int -> Atom.t -> bool

(** The flattening schema: feature 1 is the label, the rest property
    names in a fixed order. *)
type schema = { feature_names : Const.t array }

(** 1-based feature index of a property name under the schema. *)
val schema_feature_index : schema -> Const.t -> int option

(** Flatten a property graph (the unification of Section 3): feature 1 =
    label, then the property schema with ⊥ for missing values. *)
val of_property : Property_graph.t -> t * schema

(** Inverse of {!of_property} on its image; raises if the schema does
    not match the dimension. *)
val to_property : t -> schema -> Property_graph.t

(** A labeled graph is a 1-dimensional vector-labeled graph. *)
val of_labeled : Labeled_graph.t -> t
