(** Property graphs P = (N, E, ρ, λ, σ): labeled graphs with a partial
    function σ giving property values to nodes and edges (Section 3;
    Figure 2(b)). *)

(** Sorted (property, value) pairs of one object. *)
type properties = (Const.t * Const.t) array

type t

val base : t -> Multigraph.t
val num_nodes : t -> int
val num_edges : t -> int
val node_label : t -> int -> Const.t
val edge_label : t -> int -> Const.t
val node_id : t -> int -> Const.t
val edge_id : t -> int -> Const.t
val endpoints : t -> int -> int * int

(** Linear scan of a sorted property array. *)
val lookup : properties -> Const.t -> Const.t option

(** σ(node, p). *)
val node_property : t -> int -> Const.t -> Const.t option

(** σ(edge, p). *)
val edge_property : t -> int -> Const.t -> Const.t option

val node_properties : t -> int -> properties
val edge_properties : t -> int -> properties

(** Atomic-test oracle: [Label] and [Prop] atoms can hold here. *)
val node_satisfies_atom : t -> int -> Atom.t -> bool

val edge_satisfies_atom : t -> int -> Atom.t -> bool

(** Distinct property names on nodes and on edges, in canonical order —
    the flattening schema used by {!Vector_graph.of_property}. *)
val property_schema : t -> Const.t list * Const.t list

module Builder : sig
  type graph = t
  type t

  val create : unit -> t
  val add_node : t -> Const.t -> label:Const.t -> int
  val add_edge : t -> Const.t -> src:int -> dst:int -> label:Const.t -> int
  val fresh_edge : t -> src:int -> dst:int -> label:Const.t -> int
  val find_node : t -> Const.t -> int option

  (** Last write per (object, property) wins. *)
  val set_node_property : t -> int -> prop:Const.t -> value:Const.t -> unit

  val set_edge_property : t -> int -> prop:Const.t -> value:Const.t -> unit
  val freeze : t -> graph
end

(** A labeled graph is a property graph with empty σ (the hierarchy of
    Section 3). *)
val of_labeled : Labeled_graph.t -> t

val to_labeled : t -> Labeled_graph.t
