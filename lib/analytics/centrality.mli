(** Centrality measures (Section 4.2): Brandes betweenness, PageRank,
    degree and closeness. The regex-constrained bc_r lives in
    {!Regex_centrality}. *)

open Gqkg_graph

(** Brandes' betweenness. With [directed:false] edges are symmetric and
    each unordered pair is counted once. *)
val betweenness : ?directed:bool -> Snapshot.t -> float array

(** Power iteration with uniform teleportation; dangling mass
    redistributed uniformly. Sums to 1. *)
val pagerank : ?damping:float -> ?tolerance:float -> ?max_iterations:int -> Snapshot.t -> float array

(** Out-degree, or total degree with [directed:false]. *)
val degree : ?directed:bool -> Snapshot.t -> int array

(** Wasserman–Faust closeness (handles disconnected graphs), from
    {!Shortest_paths.iter_distances}. *)
val closeness : ?directed:bool -> Snapshot.t -> float array

(** Node indexes sorted by score descending, ties by index. *)
val ranking : float array -> int array
