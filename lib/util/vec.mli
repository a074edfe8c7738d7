(** Small dense float vectors and row-major matrices for the GNN layer
    algebra. Sizes are tens of features; simplicity over BLAS. *)

type vec = float array
type mat = { rows : int; cols : int; data : float array }

val vec_add : vec -> vec -> vec
val vec_add_in_place : into:vec -> vec -> unit
val dot : vec -> vec -> float
val mat_create : rows:int -> cols:int -> mat

(** Build from equal-width rows; raises on ragged input. *)
val mat_of_rows : vec list -> mat

val mat_identity : int -> mat
val get : mat -> int -> int -> float
val set : mat -> int -> int -> float -> unit

(** Row vector times matrix: the layer convention. *)
val vec_mat : vec -> mat -> vec

val mat_mul : mat -> mat -> mat

(** min(max(x, 0), 1) — the activation of the logic-capturing AC-GNNs. *)
val truncated_relu : float -> float

val vec_equal : ?eps:float -> vec -> vec -> bool
