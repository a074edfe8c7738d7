(** Basic traversals: BFS, weakly and strongly connected
    components — the "global properties" substrate of Section 2.1. *)

open Gqkg_graph

val out_neighbors : Snapshot.t -> int -> int array
val in_neighbors : Snapshot.t -> int -> int array

(** Out- and in-neighbors concatenated (undirected view). *)
val all_neighbors : Snapshot.t -> int -> int array

(** Distances (-1 = unreachable) and visit order from a source.
    [directed] (default true) selects whether edge direction matters. *)
val bfs : ?directed:bool -> Snapshot.t -> source:int -> int array * int list

(** The distances of {!bfs}.  Distances from every source stream off
    the batched product frontier instead:
    {!Shortest_paths.iter_distances}. *)
val bfs_distances : ?directed:bool -> Snapshot.t -> source:int -> int array

(** Component labels in [\[0, count)] and the component count. *)
val weakly_connected_components : Snapshot.t -> int array * int

(** Tarjan; labels are in reverse topological order of the
    condensation. *)
val strongly_connected_components : Snapshot.t -> int array * int
