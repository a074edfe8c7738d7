(* Tests for gqkg_gnn: WL color refinement, AC-GNN forward passes, and
   the logic→GNN compilation (the Section 4.3 correspondence, E10). *)

open Gqkg_graph
open Gqkg_logic
open Gqkg_gnn

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

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

(* ---------- WL ---------- *)

let test_wl_path_symmetry () =
  (* Path 0-1-2: ends get the same color, middle a different one. *)
  let inst = instance_of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  let { Wl.colors; num_colors; _ } = Wl.refine_unlabeled inst in
  checki "two colors" 2 num_colors;
  checki "ends equal" colors.(0) colors.(2);
  checkb "middle differs" true (colors.(1) <> colors.(0))

let test_wl_cycle_uniform () =
  (* A cycle is vertex-transitive: one color, zero refinement rounds. *)
  let inst = instance_of_edges ~nodes:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ] in
  let { Wl.num_colors; rounds; _ } = Wl.refine_unlabeled inst in
  checki "one color" 1 num_colors;
  checki "stable immediately" 0 rounds

let test_wl_initial_coloring_respected () =
  let inst = instance_of_edges ~nodes:2 [] in
  let c = Wl.refine inst ~init:(fun v -> v) in
  checki "two colors kept" 2 c.Wl.num_colors

let test_wl_distinguishes_path_lengths () =
  let p3 = instance_of_edges ~nodes:4 [ (0, 1); (1, 2); (2, 3) ] in
  let star = instance_of_edges ~nodes:4 [ (0, 1); (0, 2); (0, 3) ] in
  checkb "path vs star" true (Wl.isomorphism_test p3 star = `Distinguished)

let test_wl_possibly_isomorphic_on_isomorphic () =
  (* The same cycle with relabeled vertices. *)
  let c1 = instance_of_edges ~nodes:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let c2 = instance_of_edges ~nodes:4 [ (1, 0); (0, 2); (2, 3); (3, 1) ] in
  checkb "cycles pass" true (Wl.isomorphism_test c1 c2 = `Possibly_isomorphic)

let test_wl_blind_spot_regular_graphs () =
  (* The classic failure: C6 vs 2×C3 are both 2-regular, so 1-WL cannot
     tell them apart (undirected view). *)
  let c6 =
    instance_of_edges ~nodes:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ]
  in
  let two_c3 =
    instance_of_edges ~nodes:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]
  in
  checkb "WL is blind here" true (Wl.isomorphism_test c6 two_c3 = `Possibly_isomorphic)

let test_wl_size_mismatch () =
  let a = instance_of_edges ~nodes:2 [ (0, 1) ] in
  let b = instance_of_edges ~nodes:3 [ (0, 1) ] in
  checkb "size differs" true (Wl.isomorphism_test a b = `Distinguished)

let test_wl_histogram () =
  let inst = instance_of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  let coloring = Wl.refine_unlabeled inst in
  let hist = Wl.color_histogram coloring in
  checkb "2 + 1 split" true (List.sort compare (List.map snd hist) = [ 1; 2 ])

let test_wl_vector_graph_features () =
  (* Nodes with different feature vectors start with different colors. *)
  let vg, _ = Figure2.vector () in
  let coloring = Wl.refine_vector vg in
  checkb "all five distinguished" true (coloring.Wl.num_colors = 5)


(* ---------- WL subtree kernel ---------- *)

let test_wl_kernel_self_similarity () =
  let inst = instance_of_edges ~nodes:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  checkb "self similarity 1" true (Float.abs (Wl_kernel.similarity inst inst -. 1.0) < 1e-9)

let test_wl_kernel_isomorphic_graphs () =
  let c1 = instance_of_edges ~nodes:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let c2 = instance_of_edges ~nodes:4 [ (2, 0); (0, 3); (3, 1); (1, 2) ] in
  checkb "isomorphic cycles similar 1.0" true (Float.abs (Wl_kernel.similarity c1 c2 -. 1.0) < 1e-9)

let test_wl_kernel_orders_similarity () =
  (* A path is more similar to a slightly longer path than to a star. *)
  let p5 = instance_of_edges ~nodes:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let p6 = instance_of_edges ~nodes:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let star = instance_of_edges ~nodes:6 [ (0, 1); (0, 2); (0, 3); (0, 4); (0, 5) ] in
  checkb "path closer to path than star" true
    (Wl_kernel.similarity p5 p6 > Wl_kernel.similarity p5 star)

let test_wl_kernel_regular_blindspot () =
  (* WL cannot distinguish C6 from two triangles: the kernel sees them as
     identical too. *)
  let c6 = instance_of_edges ~nodes:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ] in
  let t2 = instance_of_edges ~nodes:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ] in
  checkb "blind spot similarity 1.0" true (Float.abs (Wl_kernel.similarity c6 t2 -. 1.0) < 1e-9)

let test_wl_kernel_respects_initial_colors () =
  (* Same topology, different labels: the kernel with label-aware inits
     must separate them. *)
  let g = instance_of_edges ~nodes:2 [ (0, 1) ] in
  let sim_same = Wl_kernel.similarity ~init1:(fun _ -> 0) ~init2:(fun _ -> 0) g g in
  let sim_diff = Wl_kernel.similarity ~init1:(fun _ -> 0) ~init2:(fun v -> v) g g in
  checkb "same labels: 1.0" true (Float.abs (sim_same -. 1.0) < 1e-9);
  checkb "different labels: below 1" true (sim_diff < 1.0)

(* ---------- AC-GNN forward pass ---------- *)

let test_gnn_identity_layer () =
  let inst = instance_of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  let layer =
    { Gnn.combine = Gqkg_util.Vec.mat_identity 2; aggregate = Gqkg_util.Vec.mat_create ~rows:2 ~cols:2; bias = [| 0.0; 0.0 |] }
  in
  let gnn = Gnn.make ~input_dim:2 ~layers:[ layer ] ~classifier:[| 1.0; 0.0 |] ~threshold:0.5 in
  let features v = if v = 1 then [| 1.0; 0.0 |] else [| 0.0; 1.0 |] in
  let emb = Gnn.embeddings gnn inst ~features in
  checkb "identity preserves" true (Gqkg_util.Vec.vec_equal emb.(1) [| 1.0; 0.0 |]);
  checkb "classifies node 1" true (Gnn.classified_nodes gnn inst ~features = [ 1 ])

let test_gnn_aggregation_counts_neighbors () =
  (* One layer summing neighbor indicator: embedding = truncated count. *)
  let inst = instance_of_edges ~nodes:4 [ (0, 1); (0, 2); (0, 3) ] in
  let layer =
    { Gnn.combine = Gqkg_util.Vec.mat_create ~rows:1 ~cols:1; aggregate = Gqkg_util.Vec.mat_identity 1; bias = [| 0.0 |] }
  in
  let gnn = Gnn.make ~input_dim:1 ~layers:[ layer ] ~classifier:[| 1.0 |] ~threshold:0.5 in
  let emb = Gnn.embeddings gnn inst ~features:(fun _ -> [| 1.0 |]) in
  (* truncated ReLU caps at 1 *)
  checkb "center saturates" true (Gqkg_util.Vec.vec_equal emb.(0) [| 1.0 |]);
  checkb "leaf sees one" true (Gqkg_util.Vec.vec_equal emb.(1) [| 1.0 |])

let test_gnn_dimension_validation () =
  let bad_layer =
    { Gnn.combine = Gqkg_util.Vec.mat_identity 2; aggregate = Gqkg_util.Vec.mat_identity 3; bias = [| 0.0; 0.0 |] }
  in
  (match Gnn.make ~input_dim:2 ~layers:[ bad_layer ] ~classifier:[| 1.0; 0.0 |] ~threshold:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "should reject mismatched dims")

let test_gnn_random_runs () =
  let rng = Gqkg_util.Splitmix.create 3 in
  let gnn = Gnn.random rng ~input_dim:3 ~widths:[ 4; 2 ] ~scale:0.5 in
  checki "two layers" 2 (Gnn.num_layers gnn);
  let inst = instance_of_edges ~nodes:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let emb = Gnn.embeddings gnn inst ~features:(fun v -> [| float_of_int v /. 4.0; 0.5; 1.0 |]) in
  checki "five embeddings" 5 (Array.length emb);
  checki "width two" 2 (Array.length emb.(0))

let test_gnn_one_hot_features () =
  let vg, _ = Figure2.vector () in
  let features, width = Gnn.one_hot_features vg in
  checkb "width positive" true (width > 0);
  for v = 0 to Vector_graph.num_nodes vg - 1 do
    let x = features v in
    checki "width consistent" width (Array.length x);
    (* exactly one hot slot per feature coordinate *)
    let ones = Array.fold_left (fun acc f -> if f = 1.0 then acc + 1 else acc) 0 x in
    checki "d ones" (Vector_graph.dimension vg) ones
  done


let test_gnn_mean_pool () =
  checkb "empty" true (Gnn.mean_pool [||] = [||]);
  let pooled = Gnn.mean_pool [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  checkb "mean" true
    (Gqkg_util.Vec.vec_equal pooled [| 2.0 /. 3.0; 2.0 /. 3.0 |]);
  (* Permutation invariance. *)
  let pooled' = Gnn.mean_pool [| [| 1.0; 1.0 |]; [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  checkb "permutation invariant" true (Gqkg_util.Vec.vec_equal pooled pooled')


(* ---------- TransE knowledge-graph completion ---------- *)

let bipartite_split () =
  let iri s = Gqkg_kg.Term.iri s in
  let full = Gqkg_kg.Triple_store.create () in
  for i = 0 to 7 do
    for j = 0 to 7 do
      ignore
        (Gqkg_kg.Triple_store.add full
           (Gqkg_kg.Triple_store.triple
              (iri (Printf.sprintf "urn:a/%d" i))
              (iri "urn:r/likes")
              (iri (Printf.sprintf "urn:b/%d" j))))
    done
  done;
  let train = Gqkg_kg.Triple_store.create () in
  let test = ref [] in
  let i = ref 0 in
  Gqkg_kg.Triple_store.iter full (fun tr ->
      incr i;
      if !i mod 9 = 0 then test := tr :: !test else ignore (Gqkg_kg.Triple_store.add train tr));
  (train, !test)

let test_transe_completes_bipartite () =
  let train, test = bipartite_split () in
  let model, losses =
    Transe.train ~config:{ Transe.default_config with epochs = 150; dimension = 16 } train
  in
  (* Loss decreases substantially. *)
  let first = List.hd losses and last = List.nth losses (List.length losses - 1) in
  checkb "loss decreased" true (last < 0.7 *. first);
  let train_ids = Hashtbl.create 64 in
  Gqkg_kg.Triple_store.iter train (fun tr ->
      match Transe.ids_of model ~h:tr.Gqkg_kg.Triple_store.s ~r:tr.p ~t:tr.o with
      | Some ids -> Hashtbl.replace train_ids ids ()
      | None -> ());
  let known ids = Hashtbl.mem train_ids ids in
  let test_ids =
    List.filter_map (fun tr -> Transe.ids_of model ~h:tr.Gqkg_kg.Triple_store.s ~r:tr.p ~t:tr.o) test
  in
  checki "all test triples in vocabulary" (List.length test) (List.length test_ids);
  let mean_rank, hits = Transe.evaluate model ~known ~k:3 test_ids in
  checkb "mean rank below 3" true (mean_rank <= 3.0);
  checkb "hits@3 above 0.8" true (hits >= 0.8)

let test_transe_deterministic () =
  let train, _ = bipartite_split () in
  let config = { Transe.default_config with epochs = 20 } in
  let _, l1 = Transe.train ~config train in
  let _, l2 = Transe.train ~config train in
  checkb "same loss trace" true (l1 = l2)

let test_transe_out_of_vocabulary () =
  let train, _ = bipartite_split () in
  let model, _ = Transe.train ~config:{ Transe.default_config with epochs = 5 } train in
  checkb "oov is None" true
    (Transe.triple_score model ~h:(Gqkg_kg.Term.iri "urn:ghost") ~r:(Gqkg_kg.Term.iri "urn:r/likes")
       ~t:(Gqkg_kg.Term.iri "urn:a/0")
    = None);
  checkb "in-vocab is Some" true
    (Transe.triple_score model ~h:(Gqkg_kg.Term.iri "urn:a/0") ~r:(Gqkg_kg.Term.iri "urn:r/likes")
       ~t:(Gqkg_kg.Term.iri "urn:b/0")
    <> None)

(* ---------- logic → GNN compilation (E10) ---------- *)

let compile_and_compare inst formula =
  let compiled = Logic_gnn.compile formula in
  let via_gnn = Logic_gnn.classified_nodes compiled inst in
  let via_logic = Gml.models inst formula in
  via_gnn = via_logic

let test_compile_atoms () =
  let inst = Snapshot.of_property (Figure2.property ()) in
  checkb "label atom" true (compile_and_compare inst (Gml.label "person"));
  checkb "true" true (compile_and_compare inst Gml.True)

let test_compile_connectives () =
  let inst = Snapshot.of_property (Figure2.property ()) in
  List.iter
    (fun f -> checkb (Gml.to_string f) true (compile_and_compare inst f))
    [
      Gml.Not (Gml.label "person");
      Gml.And (Gml.label "person", Gml.Not (Gml.label "bus"));
      Gml.Or (Gml.label "bus", Gml.label "company");
      Gml.And (Gml.label "person", Gml.label "person");
    ]

let test_compile_diamond () =
  let inst = Snapshot.of_property (Figure2.property ()) in
  List.iter
    (fun f -> checkb (Gml.to_string f) true (compile_and_compare inst f))
    [
      Gml.diamond (Gml.label "bus");
      Gml.diamond ~at_least:2 (Gml.Or (Gml.label "person", Gml.label "infected"));
      Gml.diamond ~at_least:3 (Gml.Or (Gml.label "person", Gml.label "infected"));
      Gml.diamond (Gml.diamond (Gml.label "bus"));
      Gml.And (Gml.label "person", Gml.diamond (Gml.And (Gml.label "bus", Gml.diamond (Gml.label "infected"))));
    ]

let test_compiled_layer_count () =
  let f = Gml.diamond (Gml.And (Gml.label "a", Gml.diamond (Gml.label "b"))) in
  let compiled = Logic_gnn.compile f in
  checki "layers = operator depth" 3 (Gnn.num_layers compiled.Logic_gnn.gnn)

(* GNN output is a function of the WL color (initialized from the same
   features): nodes in the same WL class are classified identically. *)
let test_gnn_wl_invariance () =
  let rng = Gqkg_util.Splitmix.create 8 in
  for trial = 1 to 10 do
    let lg =
      Gqkg_workload.Gen_graph.random_labeled rng ~nodes:10 ~edges:20 ~node_labels:[ "a"; "b" ]
        ~edge_labels:[ "e" ]
    in
    let inst = Snapshot.of_labeled lg in
    let formula =
      Gml.Or
        ( Gml.diamond ~at_least:2 (Gml.label "a"),
          Gml.And (Gml.label "b", Gml.diamond (Gml.diamond (Gml.label "b"))) )
    in
    let compiled = Logic_gnn.compile formula in
    let outputs = Logic_gnn.classify compiled inst in
    let coloring =
      Wl.refine inst ~init:(fun v ->
          Hashtbl.hash (Snapshot.node_atom inst v (Atom.label "a"), Snapshot.node_atom inst v (Atom.label "b")))
    in
    for u = 0 to inst.Snapshot.num_nodes - 1 do
      for v = u + 1 to inst.Snapshot.num_nodes - 1 do
        if coloring.Wl.colors.(u) = coloring.Wl.colors.(v) then
          checkb (Printf.sprintf "trial %d: %d ~ %d" trial u v) true (outputs.(u) = outputs.(v))
      done
    done
  done

(* ---------- QCheck: compiled GNN ≡ logic on random inputs ---------- *)

let gml_gen =
  let open QCheck2.Gen in
  fix
    (fun self depth ->
      if depth = 0 then
        oneof [ map (fun l -> Gml.label l) (oneofl [ "a"; "b" ]); return Gml.True ]
      else
        oneof
          [
            map (fun f -> Gml.Not f) (self (depth - 1));
            map2 (fun f g -> Gml.And (f, g)) (self (depth - 1)) (self (depth - 1));
            map2 (fun f g -> Gml.Or (f, g)) (self (depth - 1)) (self (depth - 1));
            map2 (fun k f -> Gml.Diamond (k, f)) (int_range 1 3) (self (depth - 1));
          ])
    3

let graph_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nodes = int_range 1 8 in
    let* edges = int_range 0 16 in
    return (seed, nodes, edges))

let prop_gnn_equals_logic =
  QCheck2.Test.make ~name:"compiled AC-GNN = GML evaluator" ~count:200
    QCheck2.Gen.(pair graph_gen gml_gen)
    (fun ((seed, nodes, edges), formula) ->
      let inst =
        Snapshot.of_labeled
          (Gqkg_workload.Gen_graph.random_labeled
             (Gqkg_util.Splitmix.create seed)
             ~nodes ~edges ~node_labels:[ "a"; "b" ] ~edge_labels:[ "e" ])
      in
      compile_and_compare inst formula)

let prop_wl_refines_formula_classes =
  (* Nodes WL-equivalent (with label-aware init) satisfy the same GML
     formulas: GML is within the C² fragment WL captures. *)
  QCheck2.Test.make ~name:"WL classes respect GML" ~count:100
    QCheck2.Gen.(pair graph_gen gml_gen)
    (fun ((seed, nodes, edges), formula) ->
      let inst =
        Snapshot.of_labeled
          (Gqkg_workload.Gen_graph.random_labeled
             (Gqkg_util.Splitmix.create seed)
             ~nodes ~edges ~node_labels:[ "a"; "b" ] ~edge_labels:[ "e" ])
      in
      let coloring =
        Wl.refine inst ~init:(fun v -> if Snapshot.node_atom inst v (Atom.label "a") then 0 else 1)
      in
      let truth = Gml.eval inst formula in
      let ok = ref true in
      for u = 0 to inst.Snapshot.num_nodes - 1 do
        for v = u + 1 to inst.Snapshot.num_nodes - 1 do
          if coloring.Wl.colors.(u) = coloring.Wl.colors.(v) && truth.(u) <> truth.(v) then ok := false
        done
      done;
      !ok)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_gnn"
    [
      ( "wl",
        [
          Alcotest.test_case "path symmetry" `Quick test_wl_path_symmetry;
          Alcotest.test_case "cycle uniform" `Quick test_wl_cycle_uniform;
          Alcotest.test_case "initial colors" `Quick test_wl_initial_coloring_respected;
          Alcotest.test_case "path vs star" `Quick test_wl_distinguishes_path_lengths;
          Alcotest.test_case "isomorphic cycles" `Quick test_wl_possibly_isomorphic_on_isomorphic;
          Alcotest.test_case "regular blind spot" `Quick test_wl_blind_spot_regular_graphs;
          Alcotest.test_case "size mismatch" `Quick test_wl_size_mismatch;
          Alcotest.test_case "histogram" `Quick test_wl_histogram;
          Alcotest.test_case "vector features" `Quick test_wl_vector_graph_features;
        ] );
      ( "wl-kernel",
        [
          Alcotest.test_case "self similarity" `Quick test_wl_kernel_self_similarity;
          Alcotest.test_case "isomorphic graphs" `Quick test_wl_kernel_isomorphic_graphs;
          Alcotest.test_case "similarity ordering" `Quick test_wl_kernel_orders_similarity;
          Alcotest.test_case "regular blind spot" `Quick test_wl_kernel_regular_blindspot;
          Alcotest.test_case "initial colors" `Quick test_wl_kernel_respects_initial_colors;
        ] );
      ( "gnn",
        [
          Alcotest.test_case "identity layer" `Quick test_gnn_identity_layer;
          Alcotest.test_case "aggregation" `Quick test_gnn_aggregation_counts_neighbors;
          Alcotest.test_case "dimension validation" `Quick test_gnn_dimension_validation;
          Alcotest.test_case "random forward" `Quick test_gnn_random_runs;
          Alcotest.test_case "one-hot features" `Quick test_gnn_one_hot_features;
          Alcotest.test_case "mean pool" `Quick test_gnn_mean_pool;
        ] );
      ( "transe",
        [
          Alcotest.test_case "bipartite completion" `Quick test_transe_completes_bipartite;
          Alcotest.test_case "deterministic" `Quick test_transe_deterministic;
          Alcotest.test_case "out of vocabulary" `Quick test_transe_out_of_vocabulary;
        ] );
      ( "logic-gnn",
        [
          Alcotest.test_case "atoms" `Quick test_compile_atoms;
          Alcotest.test_case "connectives" `Quick test_compile_connectives;
          Alcotest.test_case "diamonds" `Quick test_compile_diamond;
          Alcotest.test_case "layer count" `Quick test_compiled_layer_count;
          Alcotest.test_case "WL invariance" `Quick test_gnn_wl_invariance;
        ] );
      ("properties", q [ prop_gnn_equals_logic; prop_wl_refines_formula_classes ]);
    ]
