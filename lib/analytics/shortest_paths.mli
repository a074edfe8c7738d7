(** Shortest-path computations (Section 4.2 analytics toolbox). *)

open Gqkg_graph

(** Unweighted single-source distances (BFS); -1 = unreachable. *)
val single_source : ?directed:bool -> Snapshot.t -> source:int -> int array

(** Dijkstra with a caller-supplied non-negative edge weight;
    [infinity] = unreachable. Raises on negative weights. *)
val dijkstra : ?directed:bool -> Snapshot.t -> source:int -> weight:(int -> float) -> float array

(** [iter_distances inst f] calls [f ~source ~target ~dist] once per
    pair with [target] reachable from [source] (the pair [(v, v)] at
    distance 0 included), with its BFS distance — the distances of
    {!single_source} for every source, streamed off the batched product
    frontier without an n x n matrix.  [directed] defaults to true.  A
    tripped [budget] leaves some pairs unreported; every reported
    distance is exact. *)
val iter_distances :
  ?budget:Gqkg_util.Budget.t ->
  ?directed:bool ->
  Snapshot.t ->
  (source:int -> target:int -> dist:int -> unit) ->
  unit

(** Exact diameter over reachable pairs; [None] on the empty graph.
    Under a tripped [budget] the value is a lower bound. *)
val diameter : ?budget:Gqkg_util.Budget.t -> ?directed:bool -> Snapshot.t -> int option

(** Double-sweep lower bound (exact on trees, usually tight). *)
val diameter_double_sweep : ?directed:bool -> ?seed:int -> Snapshot.t -> int option

(** Mean distance over reachable ordered pairs. *)
val average_distance : ?budget:Gqkg_util.Budget.t -> ?directed:bool -> Snapshot.t -> float option
