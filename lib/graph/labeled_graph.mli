(** Labeled graphs L = (N, E, ρ, λ): multigraphs where every node and
    edge carries one label from Const (Section 3; Figure 2(a)). *)

type t

(** The underlying multigraph. *)
val base : t -> Multigraph.t

val num_nodes : t -> int
val num_edges : t -> int

(** λ(n) for a node. *)
val node_label : t -> int -> Const.t

(** λ(e) for an edge. *)
val edge_label : t -> int -> Const.t

val node_id : t -> int -> Const.t
val edge_id : t -> int -> Const.t
val endpoints : t -> int -> int * int

(** Node indexes carrying the label, ascending (a scan). *)
val nodes_with_label : t -> Const.t -> int list

val edges_with_label : t -> Const.t -> int list

(** Distinct labels with multiplicities, sorted by label. *)
val node_label_histogram : t -> (Const.t * int) list

val edge_label_histogram : t -> (Const.t * int) list

(** Atomic-test oracle: only [Label] atoms can hold on this model. *)
val node_satisfies_atom : t -> int -> Atom.t -> bool

val edge_satisfies_atom : t -> int -> Atom.t -> bool

module Builder : sig
  type graph = t
  type t

  val create : unit -> t

  (** Add (or find) a node; a re-added identifier keeps its first label. *)
  val add_node : t -> Const.t -> label:Const.t -> int

  val add_edge : t -> Const.t -> src:int -> dst:int -> label:Const.t -> int
  val fresh_edge : t -> src:int -> dst:int -> label:Const.t -> int
  val find_node : t -> Const.t -> int option
  val freeze : t -> graph
end

(** Build from (id, label) nodes and (id, src-id, dst-id, label) edges;
    endpoints must be declared as nodes. *)
val of_lists :
  nodes:(Const.t * Const.t) list -> edges:(Const.t * Const.t * Const.t * Const.t) list -> t

(** Assemble from a multigraph and label arrays (lengths must match). *)
val make : base:Multigraph.t -> node_labels:Const.t array -> edge_labels:Const.t array -> t
