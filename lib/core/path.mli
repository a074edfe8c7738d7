(** Paths p = n₀e₁n₁…e_k n_k over a graph instance (Section 4).

    Stored as parallel index arrays; the node array always has one more
    element than the edge array. Values are immutable. *)

type t

(** The zero-length path at a node. *)
val trivial : int -> t

(** Build from explicit arrays. Raises unless |nodes| = |edges| + 1 ≥ 1. *)
val make : nodes:int array -> edges:int array -> t

(** |p|: the number of edges. *)
val length : t -> int

(** start(p) = n₀. *)
val start_node : t -> int

(** end(p) = n_k. *)
val end_node : t -> int

(** The underlying arrays. Do not mutate. *)
val nodes : t -> int array

val edges : t -> int array

(** i-th node, 0 ≤ i ≤ length. *)
val node : t -> int -> int

(** i-th edge, 0 ≤ i < length. *)
val edge : t -> int -> int

(** cat(p, p'): concatenation; raises unless end(p) = start(p'). *)
val cat : t -> t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** Every step uses an edge incident the right way (either direction). *)
val well_formed : Gqkg_graph.Snapshot.t -> t -> bool

(** Human-readable rendering using the instance's node/edge names. *)
val to_string : Gqkg_graph.Snapshot.t -> t -> string

val pp : Gqkg_graph.Snapshot.t -> Format.formatter -> t -> unit
