(* Integration tests: cross-library scenarios exercising the whole stack
   the way the paper's narrative does — one graph, many models, one query
   answered by every engine. *)

open Gqkg_graph
open Gqkg_automata
open Gqkg_core
open Gqkg_kg

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let parse = Regex_parser.parse

(* Answer pairs as (name, name) strings so they can be compared across
   models with different node numbering. *)
let named_pairs inst ?max_length r =
  Rpq.eval_pairs ?max_length inst r
  |> List.map (fun (a, b) -> (inst.Snapshot.node_name a, inst.Snapshot.node_name b))
  |> List.sort compare

(* ---------- E2/E3: one query, four data models ---------- *)

let test_paper_queries_across_models () =
  let pg = Figure2.property () in
  let lg = Figure2.labeled () in
  let vg, _schema = Figure2.vector () in
  let queries = [ "?person/contact/?infected"; "?person/rides/?bus/rides^-/?infected" ] in
  List.iter
    (fun q ->
      let r = parse q in
      let on_pg = named_pairs (Snapshot.of_property pg) r in
      let on_lg = named_pairs (Snapshot.of_labeled lg) r in
      let on_vg = named_pairs (Snapshot.of_vector vg) r in
      checkb (q ^ ": labeled = property") true (on_pg = on_lg);
      checkb (q ^ ": vector = property") true (on_pg = on_vg);
      checki (q ^ ": nonempty") 1 (List.length on_pg))
    queries

let test_paper_queries_over_rdf_mapping () =
  (* The same regexes answer identically over the RDF translation of the
     property graph (modulo IRI naming). *)
  let pg = Figure2.property () in
  let store = Pg_rdf.of_property_graph pg in
  let rdf = Triple_store.view store in
  let rdf_inst = rdf.snap in
  let pg_inst = Snapshot.of_property pg in
  List.iter
    (fun q ->
      let r = parse q in
      let on_pg = named_pairs pg_inst r in
      let on_rdf =
        Rpq.eval_pairs rdf_inst r
        |> List.map (fun (a, b) ->
               (Term.local_name rdf.terms.(a), Term.local_name rdf.terms.(b)))
        |> List.sort compare
      in
      checkb (q ^ ": rdf agrees") true (on_pg = on_rdf))
    [ "?person/contact/?infected"; "?person/rides/?bus/rides^-/?infected" ]

let test_contact_network_pg_vs_rdf () =
  let rng = Gqkg_util.Splitmix.create 71 in
  let pg = Gqkg_workload.Contact_network.generate rng in
  let store = Pg_rdf.of_property_graph pg in
  let rdf_inst = (Triple_store.view store).snap in
  let pg_inst = Snapshot.of_property pg in
  let r = parse Gqkg_workload.Contact_network.query_shared_bus in
  checki "same number of answer pairs"
    (List.length (Rpq.eval_pairs pg_inst r))
    (List.length (Rpq.eval_pairs rdf_inst r))

(* ---------- Ontologies feeding path queries ---------- *)

let test_rdfs_inference_enables_rpq () =
  let s = Triple_store.create () in
  let add tr = ignore (Triple_store.add s tr) in
  let iri = Term.iri in
  add (Triple_store.triple (iri "urn:t/student") Rdfs.rdfs_sub_class_of (iri "urn:t/person"));
  add (Triple_store.triple (iri "urn:x/ana") Rdfs.rdf_type (iri "urn:t/student"));
  add (Triple_store.triple (iri "urn:x/ben") Rdfs.rdf_type (iri "urn:t/person"));
  add (Triple_store.triple (iri "urn:x/ana") (iri "urn:p/knows") (iri "urn:x/ben"));
  let query = parse "?person/knows/?person" in
  (* Before inference, ana is only a student: no match. *)
  let before = Rpq.eval_pairs (Triple_store.view s).snap query in
  checki "no pairs before" 0 (List.length before);
  ignore (Rdfs.materialize s);
  let after = Rpq.eval_pairs (Triple_store.view s).snap query in
  checki "one pair after" 1 (List.length after)

(* ---------- Count / enumerate / sample / approx agree at scale ---------- *)

let test_section41_stack_consistency () =
  let rng = Gqkg_util.Splitmix.create 73 in
  let pg = Gqkg_workload.Contact_network.generate rng in
  let inst = Snapshot.of_property pg in
  let r = parse "?person/rides/?bus/rides^-/(?person + ?infected)" in
  let k = 2 in
  let exact = Count.count inst r ~length:k in
  let enumerated = Enumerate.paths inst r ~length:k in
  checkb "count = |enumeration|" true (exact = float_of_int (List.length enumerated));
  let gen = Uniform_gen.create inst r ~length:k in
  checkb "count = sampler total" true (exact = Uniform_gen.total_count gen);
  let estimate = Approx_count.count ~seed:7 inst r ~length:k ~epsilon:0.15 in
  checkb "fpras within 20%" true (Gqkg_util.Stats.relative_error ~truth:exact ~estimate < 0.2);
  (* Every enumerated path passes the reference matcher, and sampling
     only produces enumerated paths. *)
  let index = Hashtbl.create 256 in
  List.iter (fun p -> Hashtbl.replace index (Path.to_string inst p) ()) enumerated;
  let rng2 = Gqkg_util.Splitmix.create 74 in
  List.iter
    (fun p -> checkb "sampled path is an answer" true (Hashtbl.mem index (Path.to_string inst p)))
    (Uniform_gen.samples gen rng2 100)

(* ---------- Persistence round trip through the file formats ---------- *)

let test_file_roundtrip_preserves_answers () =
  let rng = Gqkg_util.Splitmix.create 79 in
  let pg = Gqkg_workload.Contact_network.generate rng in
  let path = Filename.temp_file "gqkg_test" ".pg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.save_property_graph path pg;
      let pg' = Graph_io.load_property_graph path in
      let r = parse Gqkg_workload.Contact_network.query_shared_bus in
      checkb "answers preserved" true
        (named_pairs (Snapshot.of_property pg) r
        = named_pairs (Snapshot.of_property pg') r))

let test_ntriples_roundtrip_preserves_answers () =
  let pg = Figure2.property () in
  let store = Pg_rdf.of_property_graph pg in
  let path = Filename.temp_file "gqkg_test" ".nt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ntriples.save path store;
      let store' = Ntriples.load path in
      let pg' = Pg_rdf.to_property_graph store' in
      Alcotest.(check string)
        "same property graph"
        (Graph_io.property_graph_to_string pg)
        (Graph_io.property_graph_to_string pg'))

(* ---------- Bibliometric KG answered through the RPQ engine ---------- *)

let test_bibliometrics_rpq_counts () =
  let store = Gqkg_workload.Bibliometrics.generate ~volume_scale:0.1 (Gqkg_util.Splitmix.create 83) in
  let inst = (Triple_store.view store).snap in
  (* Pairs (publication, keyword-node) via the keyword predicate. *)
  let pairs = Rpq.eval_pairs inst (parse "?Publication/keyword") in
  let direct =
    List.length
      (Triple_store.matching store ~s:None ~p:(Some Gqkg_workload.Bibliometrics.keyword_pred) ~o:None)
  in
  checki "rpq pairs = triple count" direct (List.length pairs)

(* ---------- Analytics on the running example at scale ---------- *)

let test_transport_centrality_scenario () =
  (* Buses must dominate the regex-constrained ranking, because only
     transport paths count; plain betweenness has no such guarantee. *)
  let rng = Gqkg_util.Splitmix.create 89 in
  let pg = Gqkg_workload.Contact_network.generate rng in
  let inst = Snapshot.of_property pg in
  let r = parse Gqkg_workload.Contact_network.query_bus_transport in
  let bcr = Gqkg_analytics.Regex_centrality.exact inst r in
  let order = Gqkg_analytics.Centrality.ranking bcr in
  let is_bus v = Snapshot.node_atom inst v (Atom.label "bus") in
  (* All strictly-positive scores belong to buses. *)
  Array.iteri
    (fun v score -> if score > 0.0 then checkb (Printf.sprintf "node %d is a bus" v) true (is_bus v))
    bcr;
  checkb "top node is a bus" true (is_bus order.(0));
  checkb "top bus has positive score" true (bcr.(order.(0)) > 0.0)



(* ---------- Parser robustness: garbage in, typed errors out ---------- *)

let random_string rng =
  let len = Gqkg_util.Splitmix.int rng 60 in
  String.init len (fun _ -> Char.chr (32 + Gqkg_util.Splitmix.int rng 95))

(* Fragments of valid syntax to splice into the noise, increasing the
   chance of reaching deep parser states. *)
let fragments =
  [|
    "SELECT"; "WHERE"; "?x"; "(x:person)"; "-["; "]->"; "rides"; "?person"; "^-"; "*"; "+";
    "date=3/4/21"; "<urn:a>"; "\"lit\""; "{"; "}"; "."; "a"; "node"; "edge"; "LIMIT 3"; "f1=";
    "nprop"; "delnode";
  |]

let mixed_input rng =
  let parts = Gqkg_util.Splitmix.int rng 8 in
  let buf = Buffer.create 64 in
  for _ = 0 to parts do
    if Gqkg_util.Splitmix.bool rng then
      Buffer.add_string buf (Gqkg_util.Splitmix.choose rng fragments)
    else Buffer.add_string buf (random_string rng);
    Buffer.add_char buf ' '
  done;
  Buffer.contents buf

let test_parsers_never_crash () =
  let rng = Gqkg_util.Splitmix.create 97 in
  for _ = 1 to 2000 do
    let input = mixed_input rng in
    (match Regex_parser.parse input with
    | _ -> ()
    | exception Regex_parser.Error _ -> ()
    | exception e -> Alcotest.fail (Printf.sprintf "regex parser: %s on %S" (Printexc.to_string e) input));
    (match Gqkg_logic.Crpq_parser.parse input with
    | _ -> ()
    | exception Gqkg_logic.Crpq_parser.Error _ -> ()
    | exception Regex_parser.Error _ ->
        Alcotest.fail (Printf.sprintf "crpq parser leaked a regex error on %S" input)
    | exception e -> Alcotest.fail (Printf.sprintf "crpq parser: %s on %S" (Printexc.to_string e) input));
    (match Sparql.parse input with
    | _ -> ()
    | exception Sparql.Error _ -> ()
    | exception e -> Alcotest.fail (Printf.sprintf "sparql parser: %s on %S" (Printexc.to_string e) input));
    (match Graph_io.property_graph_of_string input with
    | _ -> ()
    | exception Graph_io.Parse_error _ -> ()
    | exception e -> Alcotest.fail (Printf.sprintf "graph io: %s on %S" (Printexc.to_string e) input));
    (match Ntriples.parse_string input with
    | _ -> ()
    | exception Ntriples.Parse_error _ -> ()
    | exception e -> Alcotest.fail (Printf.sprintf "ntriples: %s on %S" (Printexc.to_string e) input));
    match Journal.ops_of_string input with
    | _ -> ()
    | exception Journal.Replay_error _ -> ()
    | exception e -> Alcotest.fail (Printf.sprintf "journal: %s on %S" (Printexc.to_string e) input)
  done

(* ---------- Degenerate inputs: nothing crashes on tiny graphs ---------- *)

let empty_instance () =
  Snapshot.of_property (Property_graph.Builder.freeze (Property_graph.Builder.create ()))

let singleton_instance () =
  let b = Property_graph.Builder.create () in
  ignore (Property_graph.Builder.add_node b (Const.str "solo") ~label:(Const.str "person"));
  Snapshot.of_property (Property_graph.Builder.freeze b)

let test_empty_graph_everywhere () =
  let inst = empty_instance () in
  let r = parse "?person/contact/?infected" in
  checki "no pairs" 0 (List.length (Rpq.eval_pairs inst r));
  checkb "zero count" true (Count.count inst r ~length:2 = 0.0);
  checki "no paths" 0 (List.length (Enumerate.paths inst r ~length:2));
  checkb "no sample" true
    (Uniform_gen.sample (Uniform_gen.create inst r ~length:1) (Gqkg_util.Splitmix.create 1) = None);
  checkb "fpras zero" true (Approx_count.count inst r ~length:1 ~epsilon:0.5 = 0.0);
  checkb "no fo answers" true (Gqkg_logic.Fo.eval_bounded inst Gqkg_logic.Fo.phi ~free:"x" = []);
  checkb "empty betweenness" true (Gqkg_analytics.Centrality.betweenness inst = [||]);
  checkb "empty pagerank" true (Gqkg_analytics.Centrality.pagerank inst = [||]);
  checkb "empty core numbers" true (Gqkg_analytics.Kcore.core_numbers inst = [||]);
  let _, wcc = Gqkg_analytics.Traversal.weakly_connected_components inst in
  checki "no components" 0 wcc;
  checkb "no diameter" true (Gqkg_analytics.Shortest_paths.diameter inst = None);
  let coloring = Gqkg_gnn.Wl.refine_unlabeled inst in
  checki "no colors" 0 coloring.Gqkg_gnn.Wl.num_colors

let test_singleton_graph_everywhere () =
  let inst = singleton_instance () in
  checkb "trivial path counted" true (Count.count inst (parse "?person") ~length:0 = 1.0);
  checki "one enumerated" 1 (List.length (Enumerate.paths inst (parse "?person") ~length:0));
  checkb "uniform sample is trivial" true
    (match Uniform_gen.sample (Uniform_gen.create inst (parse "?person") ~length:0) (Gqkg_util.Splitmix.create 1) with
    | Some p -> Path.length p = 0
    | None -> false);
  checkb "star accepts empty here" true (Count.count inst (parse "contact*") ~length:0 = 1.0);
  checkb "no length-1 paths" true (Count.count inst (parse "contact*") ~length:1 = 0.0);
  let bc = Gqkg_analytics.Centrality.betweenness inst in
  checkb "zero centrality" true (bc = [| 0.0 |]);
  checkb "pagerank mass" true
    (Float.abs ((Gqkg_analytics.Centrality.pagerank inst).(0) -. 1.0) < 1e-9);
  checki "one component" 1 (snd (Gqkg_analytics.Traversal.weakly_connected_components inst));
  checkb "diameter zero" true (Gqkg_analytics.Shortest_paths.diameter inst = Some 0);
  let q = Gqkg_logic.Crpq_parser.parse "SELECT x WHERE (x:person)" in
  checkb "crpq finds solo" true (Gqkg_logic.Crpq.answer_nodes inst q = [ 0 ])

let test_zero_length_queries () =
  let inst = Snapshot.of_property (Figure2.property ()) in
  (* k=0 through the whole Section 4.1 stack: trivial paths at matching
     nodes. *)
  let r = parse "?person + ?bus" in
  checkb "count k=0" true (Count.count inst r ~length:0 = 2.0);
  checki "enumerate k=0" 2 (List.length (Enumerate.paths inst r ~length:0));
  let gen = Uniform_gen.create inst r ~length:0 in
  checkb "gen total" true (Uniform_gen.total_count gen = 2.0);
  checkb "fpras k=0" true (Approx_count.count inst r ~length:0 ~epsilon:0.3 = 2.0)

let () =
  Alcotest.run "gqkg_integration"
    [
      ( "models",
        [
          Alcotest.test_case "queries across models" `Quick test_paper_queries_across_models;
          Alcotest.test_case "queries over rdf" `Quick test_paper_queries_over_rdf_mapping;
          Alcotest.test_case "contact network pg=rdf" `Quick test_contact_network_pg_vs_rdf;
        ] );
      ("ontology", [ Alcotest.test_case "rdfs feeds rpq" `Quick test_rdfs_inference_enables_rpq ]);
      ("section-4.1", [ Alcotest.test_case "stack consistency" `Quick test_section41_stack_consistency ]);
      ( "persistence",
        [
          Alcotest.test_case "pg file roundtrip" `Quick test_file_roundtrip_preserves_answers;
          Alcotest.test_case "ntriples roundtrip" `Quick test_ntriples_roundtrip_preserves_answers;
        ] );
      ("bibliometrics", [ Alcotest.test_case "rpq counts" `Quick test_bibliometrics_rpq_counts ]);
      ("analytics", [ Alcotest.test_case "transport centrality" `Quick test_transport_centrality_scenario ]);
      ("fuzz", [ Alcotest.test_case "parsers never crash" `Quick test_parsers_never_crash ]);
      ( "degenerate",
        [
          Alcotest.test_case "empty graph" `Quick test_empty_graph_everywhere;
          Alcotest.test_case "singleton graph" `Quick test_singleton_graph_everywhere;
          Alcotest.test_case "zero-length queries" `Quick test_zero_length_queries;
        ] );
    ]
