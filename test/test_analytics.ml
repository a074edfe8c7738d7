(* Tests for gqkg_analytics: traversals, shortest paths, centrality
   (Brandes vs the naive definition), regex-constrained centrality
   (Section 4.2), PageRank, clustering, max-flow and densest subgraph. *)

open Gqkg_graph
open Gqkg_automata
open Gqkg_analytics

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let parse = Regex_parser.parse

let instance_of_edges ~nodes edges =
  let b = Multigraph.Builder.create () in
  for i = 0 to nodes - 1 do
    ignore (Multigraph.Builder.add_node b (Const.str (string_of_int i)))
  done;
  List.iter (fun (s, d) -> ignore (Multigraph.Builder.fresh_edge b ~src:s ~dst:d)) edges;
  let g = Multigraph.Builder.freeze b in
  Snapshot.of_labeled
    (Labeled_graph.make ~base:g
       ~node_labels:(Array.make nodes (Const.str "node"))
       ~edge_labels:(Array.make (List.length edges) (Const.str "edge")))

(* ---------- Traversal ---------- *)

let test_bfs_distances () =
  (* path 0 -> 1 -> 2 -> 3 *)
  let inst = instance_of_edges ~nodes:4 [ (0, 1); (1, 2); (2, 3) ] in
  let dist = Traversal.bfs_distances inst ~source:0 in
  checkb "distances" true (dist = [| 0; 1; 2; 3 |]);
  let dist_back = Traversal.bfs_distances inst ~source:3 in
  checkb "unreachable is -1" true (dist_back = [| -1; -1; -1; 0 |]);
  let undirected = Traversal.bfs_distances ~directed:false inst ~source:3 in
  checkb "undirected reaches back" true (undirected = [| 3; 2; 1; 0 |])

(* The distance stream must reproduce per-source [bfs_distances] bit for
   bit, one call per reachable pair, in both edge-direction modes, on
   graphs below and above one source word (150 nodes: the second and
   third batches start past the 63-source boundary).  Diameter, average
   distance and closeness must equal references folded from the same
   per-source rows (integer sums keep the floats exact), and the
   distance product must intern exactly one state per node. *)
let test_bfs_distances_many () =
  List.iter
    (fun (gseed, nodes, edges) ->
      let rng = Gqkg_util.Splitmix.create gseed in
      let inst =
        Snapshot.of_labeled
          (Gqkg_workload.Gen_graph.random_labeled rng ~nodes ~edges ~node_labels:[ "a" ]
             ~edge_labels:[ "x" ])
      in
      let n = inst.Snapshot.num_nodes in
      List.iter
        (fun directed ->
          let label = Printf.sprintf "seed %d directed %b" gseed directed in
          let expected =
            Array.init n (fun source -> Traversal.bfs_distances ~directed inst ~source)
          in
          let got = Array.init n (fun _ -> Array.make n (-1)) in
          let calls = ref 0 in
          let interned = Gqkg_core.Product.states_interned_total () in
          Shortest_paths.iter_distances ~directed inst (fun ~source ~target ~dist ->
              incr calls;
              got.(source).(target) <- dist);
          checki (label ^ " one product state per node") n
            (Gqkg_core.Product.states_interned_total () - interned);
          checkb (label ^ " distances") true (got = expected);
          let reached =
            Array.map (Array.fold_left (fun c d -> if d >= 0 then c + 1 else c) 0) expected
          in
          checki (label ^ " one call per pair") (Array.fold_left ( + ) 0 reached) !calls;
          let sum row = Array.fold_left (fun t d -> if d > 0 then t + d else t) 0 row in
          let longest = Array.fold_left (Array.fold_left max) 0 expected in
          checkb (label ^ " diameter") true (Shortest_paths.diameter ~directed inst = Some longest);
          let total = Array.fold_left (fun t row -> t + sum row) 0 expected in
          let pairs = Array.fold_left ( + ) 0 reached - n in
          checkb (label ^ " average distance") true
            (Shortest_paths.average_distance ~directed inst
            = if pairs = 0 then None else Some (float_of_int total /. float_of_int pairs));
          let closeness =
            Array.mapi
              (fun v row ->
                let r = float_of_int (reached.(v) - 1) and t = sum row in
                if t = 0 then 0.0 else r *. r /. (float_of_int (n - 1) *. float_of_int t))
              expected
          in
          checkb (label ^ " closeness") true (Centrality.closeness ~directed inst = closeness))
        [ true; false ])
    [ (11, 9, 20); (12, 30, 45); (13, 5, 2); (14, 150, 400) ]

let test_weakly_connected_components () =
  let inst = instance_of_edges ~nodes:5 [ (0, 1); (2, 3) ] in
  let labels, count = Traversal.weakly_connected_components inst in
  checki "three components" 3 count;
  checki "0 with 1" labels.(0) labels.(1);
  checki "2 with 3" labels.(2) labels.(3);
  checkb "4 alone" true (labels.(4) <> labels.(0) && labels.(4) <> labels.(2))

let test_strongly_connected_components () =
  (* cycle 0->1->2->0, plus 3 hanging off. *)
  let inst = instance_of_edges ~nodes:4 [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  let comp, count = Traversal.strongly_connected_components inst in
  checki "two sccs" 2 count;
  checki "cycle together 01" comp.(0) comp.(1);
  checki "cycle together 12" comp.(1) comp.(2);
  checkb "3 separate" true (comp.(3) <> comp.(0))

let test_scc_dag () =
  (* DAG: all singletons. *)
  let inst = instance_of_edges ~nodes:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let _, count = Traversal.strongly_connected_components inst in
  checki "four sccs" 4 count

(* ---------- Shortest paths ---------- *)

let test_dijkstra_weighted () =
  (* 0->1 (cost 1), 1->2 (cost 1), 0->2 (cost 5): shortest 0-2 is 2. *)
  let inst = instance_of_edges ~nodes:3 [ (0, 1); (1, 2); (0, 2) ] in
  let weight e = if e = 2 then 5.0 else 1.0 in
  let dist = Shortest_paths.dijkstra inst ~source:0 ~weight in
  checkf "via middle" 2.0 dist.(2);
  checkf "direct to 1" 1.0 dist.(1)

let test_dijkstra_rejects_negative () =
  let inst = instance_of_edges ~nodes:2 [ (0, 1) ] in
  Alcotest.check_raises "negative" (Invalid_argument "Shortest_paths.dijkstra: negative weight")
    (fun () -> ignore (Shortest_paths.dijkstra inst ~source:0 ~weight:(fun _ -> -1.0)))

let test_diameter () =
  let inst = instance_of_edges ~nodes:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  checkb "path diameter" true (Shortest_paths.diameter ~directed:false inst = Some 4);
  checkb "double sweep exact on path" true
    (Shortest_paths.diameter_double_sweep ~directed:false inst = Some 4);
  checkb "double sweep from a negative seed" true
    (Shortest_paths.diameter_double_sweep ~directed:false ~seed:(-1) inst = Some 4)

let test_average_distance () =
  let inst = instance_of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  (* undirected distances: (0,1)=1 (0,2)=2 (1,2)=1 in both directions *)
  checkb "average" true
    (match Shortest_paths.average_distance ~directed:false inst with
    | Some avg -> Float.abs (avg -. (8.0 /. 6.0)) < 1e-9
    | None -> false)

(* ---------- Betweenness ---------- *)

let test_betweenness_path_graph () =
  (* Undirected path 0-1-2: node 1 lies on the single shortest path
     between 0 and 2, so bc(1) = 1 (unordered pairs). *)
  let inst = instance_of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  let bc = Centrality.betweenness ~directed:false inst in
  checkf "middle" 1.0 bc.(1);
  checkf "ends" 0.0 bc.(0);
  checkf "ends" 0.0 bc.(2)

let test_betweenness_star () =
  (* Undirected star with 4 leaves: center on all C(4,2)=6 pairs. *)
  let inst = instance_of_edges ~nodes:5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  let bc = Centrality.betweenness ~directed:false inst in
  checkf "center" 6.0 bc.(0);
  checkf "leaf" 0.0 bc.(1)

let test_betweenness_split_paths () =
  (* Two equal shortest paths 0->1->3 and 0->2->3: each middle gets 1/2. *)
  let inst = instance_of_edges ~nodes:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let bc = Centrality.betweenness ~directed:true inst in
  checkf "half" 0.5 bc.(1);
  checkf "half" 0.5 bc.(2)

let test_brandes_equals_naive () =
  let rng = Gqkg_util.Splitmix.create 17 in
  for _ = 1 to 10 do
    let lg = Gqkg_workload.Gen_graph.erdos_renyi_gnm rng ~nodes:8 ~edges:14 in
    let inst = Snapshot.of_labeled lg in
    let fast = Centrality.betweenness ~directed:true inst in
    let slow = Centrality.betweenness_naive ~directed:true inst in
    Array.iteri
      (fun v x -> checkb (Printf.sprintf "node %d" v) true (Float.abs (x -. slow.(v)) < 1e-9))
      fast
  done


let test_betweenness_parallel_matches () =
  let rng = Gqkg_util.Splitmix.create 91 in
  let lg = Gqkg_workload.Gen_graph.erdos_renyi_gnm rng ~nodes:150 ~edges:500 in
  let inst = Snapshot.of_labeled lg in
  let sequential = Centrality.betweenness ~directed:true inst in
  let parallel = Centrality.betweenness_parallel ~domains:4 ~directed:true inst in
  Array.iteri
    (fun v x -> checkb (Printf.sprintf "node %d" v) true (Float.abs (x -. parallel.(v)) < 1e-6))
    sequential;
  (* Undirected halving and the small-graph fallback. *)
  let small = instance_of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  checkb "fallback equals sequential" true
    (Centrality.betweenness_parallel ~directed:false small
    = Centrality.betweenness ~directed:false small)

(* ---------- Regex-constrained betweenness (Section 4.2) ---------- *)

let test_bcr_figure2_bus () =
  (* With r = ?person/rides/?bus/rides^-/?infected, the bus n3 carries the
     single matching (shortest) path between n1 and n2, so bc_r(n3) = 1 —
     while the company n5 never appears on a transport path. *)
  let inst = Snapshot.of_property (Figure2.property ()) in
  let r = parse "?person/rides/?bus/rides^-/?infected" in
  let bc = Regex_centrality.exact inst r in
  let name v = inst.Snapshot.node_name v in
  Array.iteri
    (fun v score ->
      match name v with
      | "n3" -> checkf "bus" 1.0 score
      | _ -> checkf ("other " ^ name v) 0.0 score)
    bc

let test_bcr_vs_plain_bc_differ () =
  (* The paper's point: plain bc credits the bus for ownership paths
     (company ↔ riders), while bc_r restricted to transport paths counts
     only person-bus-infected journeys — so the bus's plain score strictly
     exceeds its transport score. *)
  let inst = Snapshot.of_property (Figure2.property ()) in
  let plain = Centrality.betweenness ~directed:false inst in
  let r = parse "?person/rides/?bus/rides^-/?infected" in
  let constrained = Regex_centrality.exact inst r in
  let n3 =
    let rec find v = if inst.Snapshot.node_name v = "n3" then v else find (v + 1) in
    find 0
  in
  (* plain: shortest paths n5-n1, n5-n2 and both n5-n4 paths pass
     through the bus. *)
  checkf "plain counts ownership paths" 3.0 plain.(n3);
  checkf "bc_r counts only the transport path" 1.0 constrained.(n3);
  checkb "constrained is a strict restriction" true (plain.(n3) > constrained.(n3))

let test_bcr_exact_unconstrained_matches_brandes () =
  (* With r = any-edge*, restricted to node-distinct shortest paths the
     regex-constrained bc over forward edges equals directed Brandes on
     simple graphs (shortest paths never revisit nodes). *)
  let rng = Gqkg_util.Splitmix.create 23 in
  for _ = 1 to 5 do
    let lg = Gqkg_workload.Gen_graph.erdos_renyi_gnm rng ~nodes:7 ~edges:12 in
    let inst = Snapshot.of_labeled lg in
    let r = Gqkg_automata.Regex.plus Gqkg_automata.Regex.any_edge in
    let constrained = Regex_centrality.exact ~max_length:7 inst r in
    let brandes = Centrality.betweenness ~directed:true inst in
    Array.iteri
      (fun v x -> checkb (Printf.sprintf "node %d" v) true (Float.abs (x -. brandes.(v)) < 1e-9))
      constrained
  done

let test_bcr_exact_domain_independent () =
  (* Slicing sources across domains must not change bc_r beyond float
     summation noise. *)
  let rng = Gqkg_util.Splitmix.create 47 in
  let pg = Gqkg_workload.Contact_network.generate rng in
  let inst = Snapshot.of_property pg in
  let r = parse "?person/rides/?bus/rides^-/?person" in
  let seq = Regex_centrality.exact ~domains:1 inst r in
  let par = Regex_centrality.exact ~domains:4 inst r in
  Array.iteri
    (fun v x -> checkb (Printf.sprintf "node %d" v) true (Float.abs (x -. par.(v)) < 1e-6))
    seq

let test_bcr_approximate_close_to_exact () =
  let rng = Gqkg_util.Splitmix.create 31 in
  let pg = Gqkg_workload.Contact_network.generate rng in
  let inst = Snapshot.of_property pg in
  let r = parse "?person/rides/?bus/rides^-/?person" in
  let exact = Regex_centrality.exact inst r in
  let approx = Regex_centrality.approximate ~samples:64 ~seed:5 inst r in
  (* Compare only on meaningful mass; sampled estimator is unbiased per
     pair, with bounded deviation at these sample sizes. *)
  let total_exact = Array.fold_left ( +. ) 0.0 exact in
  let total_approx = Array.fold_left ( +. ) 0.0 approx in
  checkb "total mass close" true
    (Gqkg_util.Stats.relative_error ~truth:total_exact ~estimate:total_approx < 0.1);
  (* Rankings of the top buses agree. *)
  let top arr = (Centrality.ranking arr).(0) in
  checki "same top node" (top exact) (top approx)

(* ---------- PageRank / degree / closeness ---------- *)

let test_pagerank_sums_to_one () =
  let rng = Gqkg_util.Splitmix.create 41 in
  let lg = Gqkg_workload.Gen_graph.erdos_renyi_gnm rng ~nodes:30 ~edges:80 in
  let pr = Centrality.pagerank (Snapshot.of_labeled lg) in
  let total = Array.fold_left ( +. ) 0.0 pr in
  checkb "stochastic" true (Float.abs (total -. 1.0) < 1e-6)

let test_pagerank_cycle_uniform () =
  let inst = instance_of_edges ~nodes:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let pr = Centrality.pagerank inst in
  Array.iter (fun x -> checkb "uniform on cycle" true (Float.abs (x -. 0.25) < 1e-6)) pr

let test_pagerank_sink_handling () =
  (* Dangling node must not lose mass. *)
  let inst = instance_of_edges ~nodes:3 [ (0, 1); (0, 2) ] in
  let pr = Centrality.pagerank inst in
  checkb "sums to one with dangling" true
    (Float.abs (Array.fold_left ( +. ) 0.0 pr -. 1.0) < 1e-6);
  checkb "leaves beat root" true (pr.(1) > pr.(0))

let test_degree_and_closeness () =
  let inst = instance_of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  checkb "directed degree" true (Centrality.degree inst = [| 1; 1; 0 |]);
  checkb "undirected degree" true (Centrality.degree ~directed:false inst = [| 1; 2; 1 |]);
  let closeness = Centrality.closeness ~directed:false inst in
  checkb "middle is closest" true (closeness.(1) > closeness.(0))

let test_ranking () =
  let order = Centrality.ranking [| 0.5; 2.0; 1.0 |] in
  checkb "sorted desc" true (order = [| 1; 2; 0 |])

(* ---------- Walks ---------- *)

let test_walk_counts () =
  let inst = instance_of_edges ~nodes:3 [ (0, 1); (1, 2); (2, 0) ] in
  (* On the directed triangle there is exactly one walk of each length
     between any ordered pair at the right distance. *)
  checkf "3-cycle returns" 1.0 (Walks.count inst ~source:0 ~target:0 ~length:3);
  checkf "length 1" 1.0 (Walks.count inst ~source:0 ~target:1 ~length:1);
  checkf "no walk" 0.0 (Walks.count inst ~source:0 ~target:2 ~length:1);
  checkf "total length-3" 3.0 (Walks.total inst ~length:3)

let test_walk_counts_match_enumeration () =
  (* Walk counts with unconstrained regex path counts (any-edge^k). *)
  let rng = Gqkg_util.Splitmix.create 53 in
  let lg = Gqkg_workload.Gen_graph.erdos_renyi_gnm rng ~nodes:5 ~edges:8 in
  let inst = Snapshot.of_labeled lg in
  let r = Gqkg_automata.Regex.(Seq (any_edge, Seq (any_edge, any_edge))) in
  let via_regex = Gqkg_core.Count.count inst r ~length:3 in
  checkf "regex = adjacency power" via_regex (Walks.total inst ~length:3)

(* ---------- Clustering ---------- *)

let test_clustering_triangle () =
  let inst = instance_of_edges ~nodes:3 [ (0, 1); (1, 2); (2, 0) ] in
  let local = Clustering.local_clustering inst in
  Array.iter (fun c -> checkf "triangle" 1.0 c) local;
  checkf "transitivity" 1.0 (Clustering.transitivity inst)

let test_clustering_path () =
  let inst = instance_of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  let local = Clustering.local_clustering inst in
  checkf "middle open" 0.0 local.(1);
  checkf "transitivity zero" 0.0 (Clustering.transitivity inst)

let test_label_propagation_two_cliques () =
  (* Two triangles joined by one bridge: LPA should find 2 communities. *)
  let inst =
    instance_of_edges ~nodes:6
      [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) ]
  in
  let labels = Clustering.label_propagation ~seed:3 inst in
  checki "left together" labels.(0) labels.(1);
  checki "right together" labels.(3) labels.(4);
  let m = Clustering.modularity inst labels in
  checkb "positive modularity" true (m > 0.0)

let test_modularity_bounds () =
  let inst = instance_of_edges ~nodes:4 [ (0, 1); (2, 3) ] in
  let perfect = Clustering.modularity inst [| 0; 0; 1; 1 |] in
  let silly = Clustering.modularity inst [| 0; 1; 0; 1 |] in
  checkb "better split scores higher" true (perfect > silly)


let test_girvan_newman_two_cliques () =
  (* Two triangles joined by one bridge: the bridge has the highest edge
     betweenness, so GN splits exactly there. *)
  let inst =
    instance_of_edges ~nodes:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) ]
  in
  let labels, q = Clustering.girvan_newman inst in
  checki "left together 01" labels.(0) labels.(1);
  checki "left together 12" labels.(1) labels.(2);
  checki "right together 34" labels.(3) labels.(4);
  checki "right together 45" labels.(4) labels.(5);
  checkb "sides differ" true (labels.(0) <> labels.(3));
  checkb "positive modularity" true (q > 0.0)

let test_girvan_newman_matches_lpa_on_cliques () =
  (* On a graph with crisp communities both methods find the same split
     (up to label renaming). *)
  let inst =
    instance_of_edges ~nodes:8
      [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2); (1, 3);
        (4, 5); (5, 6); (6, 7); (7, 4); (4, 6); (5, 7); (3, 4) ]
  in
  let gn, _ = Clustering.girvan_newman inst in
  let same_side a b = gn.(a) = gn.(b) in
  checkb "clique 1 together" true (same_side 0 1 && same_side 1 2 && same_side 2 3);
  checkb "clique 2 together" true (same_side 4 5 && same_side 5 6 && same_side 6 7);
  checkb "cliques apart" true (not (same_side 0 4))

(* ---------- Max-flow and densest subgraph ---------- *)

let test_maxflow_simple () =
  (* source 0, sink 3; two disjoint unit paths. *)
  let net = Maxflow.create 4 in
  Maxflow.add_edge net ~src:0 ~dst:1 ~capacity:1.0;
  Maxflow.add_edge net ~src:1 ~dst:3 ~capacity:1.0;
  Maxflow.add_edge net ~src:0 ~dst:2 ~capacity:1.0;
  Maxflow.add_edge net ~src:2 ~dst:3 ~capacity:1.0;
  checkf "two units" 2.0 (Maxflow.max_flow net ~source:0 ~sink:3)

let test_maxflow_bottleneck () =
  let net = Maxflow.create 4 in
  Maxflow.add_edge net ~src:0 ~dst:1 ~capacity:5.0;
  Maxflow.add_edge net ~src:1 ~dst:2 ~capacity:1.5;
  Maxflow.add_edge net ~src:2 ~dst:3 ~capacity:5.0;
  checkf "bottleneck" 1.5 (Maxflow.max_flow net ~source:0 ~sink:3);
  let side = Maxflow.min_cut_source_side net ~source:0 in
  checkb "cut separates" true (side.(0) && side.(1) && not side.(2) && not side.(3))

let test_densest_clique_plus_tail () =
  (* K4 (density 6/4 = 1.5) with a pendant path: the clique wins. *)
  let inst =
    instance_of_edges ~nodes:7
      [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3); (3, 4); (4, 5); (5, 6) ]
  in
  let members_c, density_c = Densest.charikar inst in
  let members_g, density_g = Densest.goldberg inst in
  checkb "charikar finds the clique" true (List.sort compare members_c = [ 0; 1; 2; 3 ]);
  checkf "charikar density" 1.5 density_c;
  checkb "goldberg finds the clique" true (List.sort compare members_g = [ 0; 1; 2; 3 ]);
  checkf "goldberg density" 1.5 density_g

let test_densest_goldberg_at_least_charikar () =
  let rng = Gqkg_util.Splitmix.create 61 in
  for _ = 1 to 5 do
    let lg = Gqkg_workload.Gen_graph.erdos_renyi_gnm rng ~nodes:12 ~edges:30 in
    let inst = Snapshot.of_labeled lg in
    let _, dc = Densest.charikar inst in
    let _, dg = Densest.goldberg inst in
    checkb "exact >= greedy" true (dg >= dc -. 1e-9)
  done


(* ---------- k-core ---------- *)

let test_kcore_clique_with_tail () =
  (* K4 plus a pendant path: clique nodes have core 3, tail degrades. *)
  let inst =
    instance_of_edges ~nodes:7
      [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3); (3, 4); (4, 5); (5, 6) ]
  in
  let core = Kcore.core_numbers inst in
  List.iter (fun v -> checki (Printf.sprintf "clique %d" v) 3 core.(v)) [ 0; 1; 2; 3 ];
  checki "tail end" 1 core.(6);
  checki "degeneracy" 3 (Kcore.degeneracy inst);
  checkb "3-core is the clique" true (Kcore.core inst ~k:3 = [ 0; 1; 2; 3 ])

let test_kcore_cycle () =
  let inst = instance_of_edges ~nodes:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let core = Kcore.core_numbers inst in
  Array.iter (fun c -> checki "cycle is a 2-core" 2 c) core

let test_kcore_definition_property () =
  (* Every node of the k-core has >= k neighbors inside it. *)
  let rng = Gqkg_util.Splitmix.create 71 in
  for _ = 1 to 10 do
    let lg = Gqkg_workload.Gen_graph.erdos_renyi_gnm rng ~nodes:15 ~edges:40 in
    let inst = Snapshot.of_labeled lg in
    let k = max 1 (Kcore.degeneracy inst) in
    let members = Kcore.core inst ~k in
    let in_core = Array.make inst.Snapshot.num_nodes false in
    List.iter (fun v -> in_core.(v) <- true) members;
    List.iter
      (fun v ->
        let inside = ref 0 in
        Array.iter (fun (e, w) -> let s, d = (Snapshot.endpoints inst) e in if s <> d && in_core.(w) then incr inside) ((Snapshot.out_pairs inst) v);
        Array.iter (fun (e, u) -> let s, d = (Snapshot.endpoints inst) e in if s <> d && in_core.(u) then incr inside) ((Snapshot.in_pairs inst) v);
        checkb "internal degree >= k" true (!inside >= k))
      members
  done




(* ---------- Graph statistics ---------- *)

let test_stats_degree_histogram () =
  let inst = instance_of_edges ~nodes:4 [ (0, 1); (0, 2); (0, 3) ] in
  checkb "star histogram" true
    (Graph_stats.degree_histogram inst = [ (1, 3); (3, 1) ])

let test_stats_reciprocity () =
  let none = instance_of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  checkf "no reciprocity" 0.0 (Graph_stats.reciprocity none);
  let full = instance_of_edges ~nodes:2 [ (0, 1); (1, 0) ] in
  checkf "full reciprocity" 1.0 (Graph_stats.reciprocity full);
  let half = instance_of_edges ~nodes:3 [ (0, 1); (1, 0); (1, 2) ] in
  checkb "partial" true (Float.abs (Graph_stats.reciprocity half -. (2.0 /. 3.0)) < 1e-9)

let test_stats_assortativity_signs () =
  (* A star is maximally disassortative; a cycle is degree-regular
     (undefined correlation -> 0 by convention). *)
  let star = instance_of_edges ~nodes:6 [ (0, 1); (0, 2); (0, 3); (0, 4); (0, 5) ] in
  checkb "star negative" true (Graph_stats.degree_assortativity star < -0.9);
  let cycle = instance_of_edges ~nodes:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  checkf "regular graph zero" 0.0 (Graph_stats.degree_assortativity cycle)

let test_stats_summary () =
  let inst = instance_of_edges ~nodes:3 [ (0, 1); (1, 2); (2, 2) ] in
  let s = Graph_stats.summarize inst in
  checki "nodes" 3 s.Graph_stats.nodes;
  checki "edges" 3 s.Graph_stats.edges;
  checki "self loops" 1 s.Graph_stats.self_loops;
  checki "components" 1 s.Graph_stats.components;
  checki "max degree (self loop counts twice)" 3 s.Graph_stats.max_degree

(* ---------- Bisimulation structural index ---------- *)

let test_bisimulation_star_collapses () =
  (* All leaves of a star are bisimilar; the quotient has 2 blocks. *)
  let b = Labeled_graph.Builder.create () in
  let hub = Labeled_graph.Builder.add_node b (Const.str "hub") ~label:(Const.str "h") in
  for i = 1 to 6 do
    let leaf =
      Labeled_graph.Builder.add_node b (Const.str (Printf.sprintf "l%d" i)) ~label:(Const.str "leaf")
    in
    ignore (Labeled_graph.Builder.fresh_edge b ~src:hub ~dst:leaf ~label:(Const.str "to"))
  done;
  let lg = Labeled_graph.Builder.freeze b in
  let index = Bisimulation.compute lg in
  checki "two blocks" 2 index.Bisimulation.num_blocks;
  checki "quotient nodes" 2 (Labeled_graph.num_nodes index.Bisimulation.quotient);
  checki "quotient edges" 1 (Labeled_graph.num_edges index.Bisimulation.quotient)

let test_bisimulation_distinguishes_outgoing () =
  (* Two 'a'-labeled nodes with different outgoing labels split. *)
  let lg =
    Labeled_graph.of_lists
      ~nodes:
        [ (Const.str "u", Const.str "a"); (Const.str "v", Const.str "a");
          (Const.str "x", Const.str "b"); (Const.str "y", Const.str "c") ]
      ~edges:
        [ (Const.str "e1", Const.str "u", Const.str "x", Const.str "p");
          (Const.str "e2", Const.str "v", Const.str "y", Const.str "p") ]
  in
  let index = Bisimulation.compute lg in
  checkb "u and v split" true
    (index.Bisimulation.block_of.(0) <> index.Bisimulation.block_of.(1))

let test_bisimulation_fragment_check () =
  checkb "forward ok" true (Bisimulation.forward_fragment (parse "?a/x/(y + z)*"));
  checkb "backward rejected" false (Bisimulation.forward_fragment (parse "x^-"));
  checkb "prop test rejected" false (Bisimulation.forward_fragment (parse "(x & p=1)"));
  (match Bisimulation.source_nodes_via_quotient (Bisimulation.compute (Gqkg_graph.Figure2.labeled ())) (parse "rides^-") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "should reject backward steps")

let test_bisimulation_source_extraction_exact () =
  let rng = Gqkg_util.Splitmix.create 67 in
  let rec forwardize r =
    let open Gqkg_automata.Regex in
    match r with
    | Bwd t -> Fwd t
    | Node_test _ | Fwd _ -> r
    | Alt (a, b) -> Alt (forwardize a, forwardize b)
    | Seq (a, b) -> Seq (forwardize a, forwardize b)
    | Star a -> Star (forwardize a)
  in
  for trial = 1 to 20 do
    let lg =
      Gqkg_workload.Gen_graph.random_labeled rng ~nodes:12 ~edges:26 ~node_labels:[ "a"; "b" ]
        ~edge_labels:[ "x"; "y" ]
    in
    let index = Bisimulation.compute lg in
    let params =
      { Gqkg_workload.Gen_regex.default with node_labels = [ "a"; "b" ]; edge_labels = [ "x"; "y" ] }
    in
    let r = forwardize (Gqkg_workload.Gen_regex.generate ~params rng) in
    let direct = Gqkg_core.Rpq.source_nodes ~max_length:6 (Snapshot.of_labeled lg) r in
    let via_index = Bisimulation.source_nodes_via_quotient ~max_length:6 index r in
    checkb (Printf.sprintf "trial %d exact" trial) true (direct = via_index)
  done

(* ---------- QCheck ---------- *)

let graph_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nodes = int_range 2 10 in
    let* edges = int_range 1 20 in
    return (seed, nodes, edges))

let make_inst (seed, nodes, edges) =
  Snapshot.of_labeled
    (Gqkg_workload.Gen_graph.erdos_renyi_gnm (Gqkg_util.Splitmix.create seed) ~nodes ~edges)

let prop_brandes_naive =
  QCheck2.Test.make ~name:"brandes = naive betweenness" ~count:50 graph_gen (fun g ->
      let inst = make_inst g in
      let fast = Centrality.betweenness ~directed:true inst in
      let slow = Centrality.betweenness_naive ~directed:true inst in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) fast slow)

let prop_pagerank_stochastic =
  QCheck2.Test.make ~name:"pagerank sums to 1" ~count:50 graph_gen (fun g ->
      let pr = Centrality.pagerank (make_inst g) in
      Float.abs (Array.fold_left ( +. ) 0.0 pr -. 1.0) < 1e-6)

let prop_components_partition =
  QCheck2.Test.make ~name:"wcc is a partition refined by edges" ~count:50 graph_gen (fun g ->
      let inst = make_inst g in
      let labels, count = Traversal.weakly_connected_components inst in
      let ok = ref (count > 0) in
      for e = 0 to inst.Snapshot.num_edges - 1 do
        let s, d = (Snapshot.endpoints inst) e in
        if labels.(s) <> labels.(d) then ok := false
      done;
      !ok)

let prop_charikar_half_optimal =
  QCheck2.Test.make ~name:"charikar within 2x of goldberg" ~count:30 graph_gen (fun g ->
      let inst = make_inst g in
      let _, dc = Densest.charikar inst in
      let _, dg = Densest.goldberg inst in
      dc >= (dg /. 2.0) -. 1e-9)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_analytics"
    [
      ( "traversal",
        [
          Alcotest.test_case "bfs" `Quick test_bfs_distances;
          Alcotest.test_case "bfs many = per-source" `Quick test_bfs_distances_many;
          Alcotest.test_case "wcc" `Quick test_weakly_connected_components;
          Alcotest.test_case "scc cycle" `Quick test_strongly_connected_components;
          Alcotest.test_case "scc dag" `Quick test_scc_dag;
        ] );
      ( "shortest",
        [
          Alcotest.test_case "dijkstra" `Quick test_dijkstra_weighted;
          Alcotest.test_case "dijkstra negative" `Quick test_dijkstra_rejects_negative;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "average distance" `Quick test_average_distance;
        ] );
      ( "betweenness",
        [
          Alcotest.test_case "path graph" `Quick test_betweenness_path_graph;
          Alcotest.test_case "star" `Quick test_betweenness_star;
          Alcotest.test_case "split paths" `Quick test_betweenness_split_paths;
          Alcotest.test_case "brandes=naive" `Quick test_brandes_equals_naive;
          Alcotest.test_case "parallel=sequential" `Quick test_betweenness_parallel_matches;
        ] );
      ( "regex-centrality",
        [
          Alcotest.test_case "figure2 bus" `Quick test_bcr_figure2_bus;
          Alcotest.test_case "bc vs bc_r" `Quick test_bcr_vs_plain_bc_differ;
          Alcotest.test_case "bc_r domains=4 = domains=1" `Quick test_bcr_exact_domain_independent;
          Alcotest.test_case "unconstrained = brandes" `Quick test_bcr_exact_unconstrained_matches_brandes;
          Alcotest.test_case "approximate close" `Quick test_bcr_approximate_close_to_exact;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "pagerank stochastic" `Quick test_pagerank_sums_to_one;
          Alcotest.test_case "pagerank cycle" `Quick test_pagerank_cycle_uniform;
          Alcotest.test_case "pagerank dangling" `Quick test_pagerank_sink_handling;
          Alcotest.test_case "degree/closeness" `Quick test_degree_and_closeness;
          Alcotest.test_case "ranking" `Quick test_ranking;
        ] );
      ( "walks",
        [
          Alcotest.test_case "counts" `Quick test_walk_counts;
          Alcotest.test_case "match regex counts" `Quick test_walk_counts_match_enumeration;
        ] );
      ( "clustering",
        [
          Alcotest.test_case "triangle" `Quick test_clustering_triangle;
          Alcotest.test_case "path" `Quick test_clustering_path;
          Alcotest.test_case "label propagation" `Quick test_label_propagation_two_cliques;
          Alcotest.test_case "modularity" `Quick test_modularity_bounds;
          Alcotest.test_case "girvan-newman bridge" `Quick test_girvan_newman_two_cliques;
          Alcotest.test_case "girvan-newman cliques" `Quick test_girvan_newman_matches_lpa_on_cliques;
        ] );
      ( "kcore",
        [
          Alcotest.test_case "clique + tail" `Quick test_kcore_clique_with_tail;
          Alcotest.test_case "cycle" `Quick test_kcore_cycle;
          Alcotest.test_case "definition property" `Quick test_kcore_definition_property;
        ] );
      ( "densest",
        [
          Alcotest.test_case "maxflow simple" `Quick test_maxflow_simple;
          Alcotest.test_case "maxflow bottleneck" `Quick test_maxflow_bottleneck;
          Alcotest.test_case "clique + tail" `Quick test_densest_clique_plus_tail;
          Alcotest.test_case "goldberg >= charikar" `Quick test_densest_goldberg_at_least_charikar;
        ] );
      ( "graph-stats",
        [
          Alcotest.test_case "degree histogram" `Quick test_stats_degree_histogram;
          Alcotest.test_case "reciprocity" `Quick test_stats_reciprocity;
          Alcotest.test_case "assortativity" `Quick test_stats_assortativity_signs;
          Alcotest.test_case "summary" `Quick test_stats_summary;
        ] );
      ( "bisimulation",
        [
          Alcotest.test_case "star collapses" `Quick test_bisimulation_star_collapses;
          Alcotest.test_case "splits by outgoing" `Quick test_bisimulation_distinguishes_outgoing;
          Alcotest.test_case "fragment check" `Quick test_bisimulation_fragment_check;
          Alcotest.test_case "source extraction exact" `Quick test_bisimulation_source_extraction_exact;
        ] );
      ( "properties",
        q [ prop_brandes_naive; prop_pagerank_stochastic; prop_components_partition; prop_charikar_half_optimal ]
      );
    ]
