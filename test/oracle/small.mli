(** The small random inputs the differential properties draw: a labeled
    graph over node labels [a], [b] and edge labels [x], [y], and a
    regex over the same vocabulary. *)

(** A graph's (seed, nodes, edges): nodes in [1, max_nodes], edges in
    [0, max_edges]. *)
val sized_instance_gen : max_nodes:int -> max_edges:int -> (int * int * int) QCheck2.Gen.t

(** {!sized_instance_gen} with at most 6 nodes and 10 edges. *)
val instance_gen : (int * int * int) QCheck2.Gen.t

(** {!instance_gen} and a regex seed. *)
val regex_and_graph_gen : ((int * int * int) * int) QCheck2.Gen.t

val make_instance : int * int * int -> Gqkg_graph.Snapshot.t

(** A regex of depth at most 3 from its seed. *)
val make_regex : int -> Gqkg_automata.Regex.t
