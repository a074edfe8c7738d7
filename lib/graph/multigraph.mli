(** Multigraphs (N, E, ρ) with N, E ⊆ Const and ρ : E → N × N (Section 3).

    Nodes and edges carry dense integer indexes ([0 .. num-1]); their Const
    identifiers are preserved for display and identifier-based merging.
    Values are immutable once frozen from a {!Builder}. A frozen
    multigraph keeps only ids and endpoints: adjacency and id lookup
    belong to its {!Snapshot}. *)

type t

val num_nodes : t -> int
val num_edges : t -> int

(** Const identifier of a node index. *)
val node_id : t -> int -> Const.t

(** Const identifier of an edge index. *)
val edge_id : t -> int -> Const.t

(** [endpoints g e] is ρ(e) = (source, target). *)
val endpoints : t -> int -> int * int


module Builder : sig
  type graph = t
  type t

  val create : unit -> t
  val num_nodes : t -> int
  val num_edges : t -> int

  (** Add (or find) a node by identifier; idempotent. *)
  val add_node : t -> Const.t -> int

  (** Add an edge with a fresh identifier. Raises on duplicates. *)
  val add_edge : t -> Const.t -> src:int -> dst:int -> int

  (** Add an edge with a generated unused identifier. *)
  val fresh_edge : t -> src:int -> dst:int -> int

  val find_node : t -> Const.t -> int option
  val freeze : t -> graph
end

(** Build from identifier lists; edge endpoints are added as needed. *)
val of_lists : nodes:Const.t list -> edges:(Const.t * Const.t * Const.t) list -> t
