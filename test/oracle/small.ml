(* Small random graphs and regexes, shared by the suites that compare
   an engine with an oracle on them. *)

open Gqkg_graph

let sized_instance_gen ~max_nodes ~max_edges =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nodes = int_range 1 max_nodes in
    let* edges = int_range 0 max_edges in
    return (seed, nodes, edges))

let instance_gen = sized_instance_gen ~max_nodes:6 ~max_edges:10

let regex_and_graph_gen =
  QCheck2.Gen.(
    let* g = instance_gen in
    let* rseed = int_bound 1_000_000 in
    return (g, rseed))

let make_instance (seed, nodes, edges) =
  let rng = Gqkg_util.Splitmix.create seed in
  Snapshot.of_labeled
    (Gqkg_workload.Gen_graph.random_labeled rng ~nodes ~edges ~node_labels:[ "a"; "b" ]
       ~edge_labels:[ "x"; "y" ])

let make_regex rseed =
  let params =
    { Gen_regex.default with node_labels = [ "a"; "b" ]; edge_labels = [ "x"; "y" ]; max_depth = 3 }
  in
  Gen_regex.generate ~params (Gqkg_util.Splitmix.create rseed)
