(* Tests for gqkg_workload: graph generators, the contact-tracing network
   and the Figure 1 bibliometric corpus (shape assertions of E1). *)

open Gqkg_graph
open Gqkg_automata
open Gqkg_workload
module Gen_regex = Gqkg_oracle.Gen_regex

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* One node's adjacency as (edge, neighbor) pairs, in walk order. *)
let adjacency_list iter s v =
  let pairs = ref [] in
  iter s v (fun e w -> pairs := (e, w) :: !pairs);
  List.rev !pairs

let rng seed = Gqkg_util.Splitmix.create seed

(* ---------- Structured generators ---------- *)

let test_path_cycle_star_complete_grid () =
  let p = Gen_graph.path ~nodes:5 in
  checki "path edges" 4 (Labeled_graph.num_edges p);
  let c = Gen_graph.cycle ~nodes:5 in
  checki "cycle edges" 5 (Labeled_graph.num_edges c);
  let s = Gen_graph.star ~leaves:7 in
  checki "star nodes" 8 (Labeled_graph.num_nodes s);
  checki "star edges" 7 (Labeled_graph.num_edges s);
  let k = Gen_graph.complete ~nodes:4 in
  checki "complete edges" 12 (Labeled_graph.num_edges k);
  let g = Gen_graph.grid ~rows:3 ~cols:4 in
  checki "grid nodes" 12 (Labeled_graph.num_nodes g);
  (* edges: 3*(4-1) right + (3-1)*4 down = 9 + 8 *)
  checki "grid edges" 17 (Labeled_graph.num_edges g)

let test_erdos_renyi_gnm () =
  let g = Gen_graph.erdos_renyi_gnm (rng 1) ~nodes:20 ~edges:50 in
  checki "nodes" 20 (Labeled_graph.num_nodes g);
  checki "edges exact" 50 (Labeled_graph.num_edges g)

let test_erdos_renyi_gnp_density () =
  let g = Gen_graph.erdos_renyi_gnp (rng 2) ~nodes:40 ~p:0.1 in
  let expected = 0.1 *. float_of_int (40 * 39) in
  let m = float_of_int (Labeled_graph.num_edges g) in
  checkb "edge count near expectation" true (Float.abs (m -. expected) < 4.0 *. sqrt expected)

let test_barabasi_albert_degree_skew () =
  let g = Gen_graph.barabasi_albert (rng 3) ~nodes:200 ~attach:2 in
  let inst = Snapshot.of_labeled g in
  let degrees = Gqkg_analytics.Centrality.degree ~directed:false inst in
  let sorted = Array.copy degrees in
  Array.sort (fun a b -> compare b a) sorted;
  (* Preferential attachment produces hubs well above the median degree. *)
  let median = sorted.(Array.length sorted / 2) in
  checkb "hub dominates median" true (sorted.(0) >= 4 * max 1 median)

let test_watts_strogatz_shape () =
  let g = Gen_graph.watts_strogatz (rng 4) ~nodes:30 ~k:4 ~beta:0.1 in
  checki "nodes" 30 (Labeled_graph.num_nodes g);
  checkb "edges close to n*k/2" true (abs (Labeled_graph.num_edges g - 60) <= 6)

let test_generators_deterministic () =
  let a = Gen_graph.erdos_renyi_gnm (rng 7) ~nodes:10 ~edges:20 in
  let b = Gen_graph.erdos_renyi_gnm (rng 7) ~nodes:10 ~edges:20 in
  Alcotest.(check string)
    "same graph"
    (Graph_io.labeled_graph_to_string a)
    (Graph_io.labeled_graph_to_string b)

let test_random_labeled_vocabulary () =
  let g =
    Gen_graph.random_labeled (rng 5) ~nodes:30 ~edges:60 ~node_labels:[ "a"; "b" ]
      ~edge_labels:[ "x" ]
  in
  for n = 0 to Labeled_graph.num_nodes g - 1 do
    let l = Const.to_string (Labeled_graph.node_label g n) in
    checkb "label in vocab" true (l = "a" || l = "b")
  done

(* ---------- Contact network ---------- *)

let test_contact_network_inventory () =
  let pg = Contact_network.generate (rng 11) in
  let lg = Property_graph.to_labeled pg in
  let count label = List.length (Labeled_graph.nodes_with_label lg (Const.str label)) in
  checki "buses" 5 (count "bus");
  checki "companies" 2 (count "company");
  checki "addresses" 20 (count "address");
  checki "people total" 50 (count "person" + count "infected");
  checkb "some infected" true (count "infected" > 0)

let test_contact_network_queries_nonempty () =
  let pg = Contact_network.generate (rng 13) in
  let inst = Snapshot.of_property pg in
  let pairs =
    Gqkg_core.Rpq.eval_pairs inst (Regex_parser.parse Contact_network.query_shared_bus)
  in
  checkb "shared-bus pairs exist" true (List.length pairs > 0)

let test_contact_network_structure () =
  let pg = Contact_network.generate (rng 17) in
  (* Every person rides exactly rides_per_person buses and lives
     somewhere. *)
  let lg = Property_graph.to_labeled pg in
  let inst = Snapshot.of_property pg in
  List.iter
    (fun p ->
      let rides = ref 0 and lives = ref 0 in
      List.iter
        (fun (e, _) ->
          match Const.to_string (Property_graph.edge_label pg e) with
          | "rides" -> incr rides
          | "lives" -> incr lives
          | _ -> ())
        (adjacency_list Gqkg_graph.Snapshot.iter_out inst p);
      checki "rides" 2 !rides;
      checki "lives" 1 !lives)
    (Labeled_graph.nodes_with_label lg (Const.str "person"))

let test_contact_network_rides_dated () =
  let pg = Contact_network.generate (rng 19) in
  for e = 0 to Property_graph.num_edges pg - 1 do
    if Const.to_string (Property_graph.edge_label pg e) = "rides" then
      checkb "ride has date" true
        (match Property_graph.edge_property pg e (Const.str "date") with
        | Some (Const.Date _) -> true
        | _ -> false)
  done

let test_contact_network_scaled () =
  let pg = Contact_network.scaled (rng 23) ~scale:2 in
  let lg = Property_graph.to_labeled pg in
  checki "buses scale" 10 (List.length (Labeled_graph.nodes_with_label lg (Const.str "bus")))

(* ---------- Bibliometrics (Figure 1 shape, E1) ---------- *)

let corpus = lazy (Bibliometrics.generate ~volume_scale:0.3 (rng 101))

let series_for keyword =
  let all = Bibliometrics.figure1_series (Lazy.force corpus) in
  (List.find (fun s -> s.Bibliometrics.keyword = keyword) all).Bibliometrics.counts

let test_bibliometrics_kg_growth () =
  let kg = series_for "knowledge_graph" in
  let c2012 = List.assoc 2012 kg and c2016 = List.assoc 2016 kg and c2020 = List.assoc 2020 kg in
  checkb "takeoff after 2012" true (c2016 > 2 * max 1 c2012);
  checkb "keeps growing" true (c2020 > c2016)

let test_bibliometrics_kg_dominates_by_2020 () =
  let at year keyword = List.assoc year (series_for keyword) in
  checkb "kg > rdf in 2020" true (at 2020 "knowledge_graph" > at 2020 "rdf");
  checkb "rdf > kg in 2010" true (at 2010 "rdf" > at 2010 "knowledge_graph")

let test_bibliometrics_rdf_sparql_stable () =
  let rdf = series_for "rdf" in
  let first = List.assoc 2010 rdf and last = List.assoc 2020 rdf in
  checkb "rdf roughly stable (no 2x swing)" true
    (float_of_int last > 0.4 *. float_of_int first && float_of_int last < 1.2 *. float_of_int first)

let test_bibliometrics_small_keywords () =
  let at year keyword = List.assoc year (series_for keyword) in
  List.iter
    (fun year ->
      checkb "gdb comparatively small" true (at year "graph_database" < at year "rdf");
      checkb "pg negligible" true (at year "property_graph" <= at year "graph_database"))
    [ 2012; 2016; 2020 ]

let test_bibliometrics_share_falls () =
  match Bibliometrics.share_statistics (Lazy.force corpus) with
  | [ (2015, share2015); (2020, share2020) ] ->
      checkb "2015 around 70%" true (share2015 > 0.55 && share2015 < 0.85);
      checkb "2020 around 14%" true (share2020 > 0.05 && share2020 < 0.25);
      checkb "falling" true (share2015 > share2020)
  | _ -> Alcotest.fail "expected shares for 2015 and 2020"

let test_bibliometrics_counts_via_bgp_match_direct () =
  (* The BGP-counted series equals a direct scan of the store. *)
  let store = Lazy.force corpus in
  let direct = Hashtbl.create 16 in
  Gqkg_kg.Triple_store.iter store (fun tr ->
      if Gqkg_kg.Term.equal tr.Gqkg_kg.Triple_store.p Bibliometrics.keyword_pred then begin
        let pub = tr.s in
        (* find its year *)
        match
          Gqkg_kg.Triple_store.matching store ~s:(Some pub) ~p:(Some Bibliometrics.year_pred) ~o:None
        with
        | [ y ] ->
            let key = (Gqkg_kg.Term.to_string tr.o, Gqkg_kg.Term.to_string y.o) in
            Hashtbl.replace direct key (1 + Option.value (Hashtbl.find_opt direct key) ~default:0)
        | _ -> ()
      end);
  List.iter
    (fun keyword ->
      List.iter
        (fun (year, count) ->
          let key =
            ( Gqkg_kg.Term.to_string (Bibliometrics.keyword_iri keyword),
              Gqkg_kg.Term.to_string (Gqkg_kg.Term.of_int year) )
          in
          checki
            (Printf.sprintf "%s@%d" keyword year)
            (Option.value (Hashtbl.find_opt direct key) ~default:0)
            count)
        (series_for keyword))
    Bibliometrics.keywords

(* ---------- Regex generator ---------- *)

(* Vocabulary chosen to stress the printer's quoting: labels that look
   like numbers or feature names, values with spaces and '/', property
   names that collide with the f<digits> feature syntax. *)
let adversarial_params =
  {
    Gen_regex.default with
    node_labels = [ "a"; "42"; "f2"; "person name" ];
    edge_labels = [ "x"; "0.5"; "rides^-"; "an edge" ];
    properties =
      [ ("date", [ "3/4/21"; "busy day"; "42" ]); ("f7", [ "_|_"; "0" ]); ("p q", [ "v" ]) ];
    features = [ (1, [ "a"; "two words" ]); (3, [ "0.25"; "!" ]) ];
  }

let roundtrip_once name r params =
  let regex = Gen_regex.generate ~params r in
  let printed = Gqkg_automata.Regex.to_string ~top:true regex in
  match Regex_parser.parse printed with
  | regex' -> checkb (name ^ " roundtrip") true (Gqkg_automata.Regex.equal regex regex')
  | exception Regex_parser.Error _ -> Alcotest.fail ("unparseable: " ^ printed)

let test_gen_regex_parses_back () =
  let r = rng 41 in
  for _ = 1 to 200 do
    roundtrip_once "default" r Gen_regex.default
  done;
  for _ = 1 to 500 do
    roundtrip_once "adversarial" r adversarial_params
  done

(* The Figure 1 series as the benchmark computes it (one SPARQL query
   per keyword, rows grouped by ?y) against a plain count over the
   triple list: a check that does not go through Bgp on both sides. *)
let test_bibliometrics_sparql_series_plain_count () =
  let module K = Gqkg_kg in
  let module W = Perfbench_workloads.Workloads in
  let store = W.biblio 1 in
  let triples = K.Triple_store.to_list store in
  let with_pred p =
    List.filter_map
      (fun (t : K.Triple_store.triple) -> if K.Term.equal t.p p then Some (t.s, t.o) else None)
      triples
  in
  let publications =
    List.filter_map
      (fun (s, o) -> if K.Term.equal o Bibliometrics.publication_class then Some s else None)
      (with_pred K.Rdfs.rdf_type)
  in
  let years = with_pred Bibliometrics.year_pred in
  let plain keyword =
    let counts = Hashtbl.create 16 in
    List.iter
      (fun (pub, kw) ->
        if K.Term.equal kw (Bibliometrics.keyword_iri keyword) && List.mem pub publications then
          List.iter
            (fun (p, y) ->
              if K.Term.equal p pub then
                Hashtbl.replace counts y (1 + Option.value (Hashtbl.find_opt counts y) ~default:0))
            years)
      (with_pred Bibliometrics.keyword_pred);
    List.sort compare (Hashtbl.fold (fun y n acc -> (K.Term.to_string y, n) :: acc) counts [])
  in
  let served keyword =
    let counts = Hashtbl.create 16 in
    List.iter
      (function
        | [ _; y ] -> Hashtbl.replace counts y (1 + Option.value (Hashtbl.find_opt counts y) ~default:0)
        | _ -> Alcotest.fail "two columns expected")
      (K.Sparql.run store (W.sparql_query keyword));
    List.sort compare (Hashtbl.fold (fun y n acc -> (K.Term.to_string y, n) :: acc) counts [])
  in
  List.iter
    (fun keyword ->
      let expected = plain keyword in
      checkb (keyword ^ " has publications") true (expected <> []);
      checkb keyword true (served keyword = expected))
    Bibliometrics.keywords

let () =
  Alcotest.run "gqkg_workload"
    [
      ( "generators",
        [
          Alcotest.test_case "structured" `Quick test_path_cycle_star_complete_grid;
          Alcotest.test_case "gnm" `Quick test_erdos_renyi_gnm;
          Alcotest.test_case "gnp density" `Quick test_erdos_renyi_gnp_density;
          Alcotest.test_case "ba skew" `Quick test_barabasi_albert_degree_skew;
          Alcotest.test_case "watts-strogatz" `Quick test_watts_strogatz_shape;
          Alcotest.test_case "deterministic" `Quick test_generators_deterministic;
          Alcotest.test_case "label vocabulary" `Quick test_random_labeled_vocabulary;
        ] );
      ( "contact-network",
        [
          Alcotest.test_case "inventory" `Quick test_contact_network_inventory;
          Alcotest.test_case "queries nonempty" `Quick test_contact_network_queries_nonempty;
          Alcotest.test_case "structure" `Quick test_contact_network_structure;
          Alcotest.test_case "rides dated" `Quick test_contact_network_rides_dated;
          Alcotest.test_case "scaled" `Quick test_contact_network_scaled;
        ] );
      ( "bibliometrics",
        [
          Alcotest.test_case "kg growth" `Quick test_bibliometrics_kg_growth;
          Alcotest.test_case "kg dominates 2020" `Quick test_bibliometrics_kg_dominates_by_2020;
          Alcotest.test_case "rdf stable" `Quick test_bibliometrics_rdf_sparql_stable;
          Alcotest.test_case "small keywords" `Quick test_bibliometrics_small_keywords;
          Alcotest.test_case "share falls" `Quick test_bibliometrics_share_falls;
          Alcotest.test_case "bgp = direct scan" `Quick test_bibliometrics_counts_via_bgp_match_direct;
          Alcotest.test_case "sparql series = plain count" `Quick
            test_bibliometrics_sparql_series_plain_count;
        ] );
      ("gen-regex", [ Alcotest.test_case "parses back" `Quick test_gen_regex_parses_back ]);
    ]
