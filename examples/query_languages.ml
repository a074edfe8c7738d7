(* The query-language layers in one tour: CRPQs with the Cypher-style
   surface syntax over a property graph, SPARQL-style BGPs with property
   paths over its RDF translation, FO with transitive closure, and graph
   similarity through the WL kernel.

     dune exec examples/query_languages.exe *)

open Gqkg_graph
open Gqkg_logic
open Gqkg_kg

let () =
  let rng = Gqkg_util.Splitmix.create 77 in
  let pg =
    Gqkg_workload.Contact_network.generate
      ~params:{ Gqkg_workload.Contact_network.default with people = 60; contacts = 50 }
      rng
  in
  let inst = Snapshot.of_property pg in
  Printf.printf "network: %d nodes, %d edges\n\n" inst.Snapshot.num_nodes inst.Snapshot.num_edges;

  (* 1. A CRPQ: infected people sharing a bus with someone who lives with
     a person the company's bus also serves — a join of path atoms. *)
  let text = "SELECT x, b WHERE (x:infected)-[rides]->(b:bus), (y:person)-[rides]->(b), (y)-[lives]->(a:address)" in
  Printf.printf "CRPQ: %s\n" text;
  let q = Crpq_parser.parse text in
  let rows = Crpq.answers inst q in
  Printf.printf "  %d (infected, bus) pairs; first three:\n" (List.length rows);
  List.iteri
    (fun i row ->
      if i < 3 then
        Printf.printf "    %s\n" (String.concat ", " (List.map inst.Snapshot.node_name row)))
    rows;

  (* 2. The same data as RDF, queried with a BGP mixing a triple pattern
     and a SPARQL-1.1-style property path. *)
  let store = Pg_rdf.of_property_graph pg in
  Printf.printf "\nRDF translation: %d triples\n" (Triple_store.size store);
  let path = Gqkg_automata.Regex_parser.parse "rides/rides^-" in
  let bgp =
    {
      Bgp.select = [ "x"; "y" ];
      where =
        [
          Bgp.pattern (Bgp.v "x") (Bgp.c Rdfs.rdf_type) (Bgp.c (Pg_rdf.label_iri (Const.str "infected")));
          Bgp.path_pattern (Bgp.v "x") path (Bgp.v "y");
          Bgp.pattern (Bgp.v "y") (Bgp.c Rdfs.rdf_type) (Bgp.c (Pg_rdf.label_iri (Const.str "person")));
        ];
    }
  in
  let rows = Bgp.select store bgp in
  Printf.printf "BGP with property path rides/rides^-: %d (infected, exposed) pairs\n"
    (List.length rows);

  (* 3. FO + transitive closure: who is in the contact-or-household
     closure of an infected person? *)
  let step = Gqkg_automata.Regex_parser.parse "contact + contact^- + lives/lives^-" in
  let formula =
    Fo.And
      ( Fo.node_pred "person" "x",
        Fo.Exists ("y", Fo.And (Fo.node_pred "infected" "y", Fo.tc step ~src:"x" ~dst:"y")) )
  in
  let closure = Fo.eval_bounded inst formula ~free:"x" in
  Printf.printf "\nFO+TC: %d healthy people are in the social closure of an infected one\n"
    (List.length closure);

  (* 4. WL-kernel similarity between two generated cities. *)
  let other =
    Snapshot.of_property
      (Gqkg_workload.Contact_network.generate
         ~params:{ Gqkg_workload.Contact_network.default with people = 60; contacts = 50 }
         (Gqkg_util.Splitmix.create 78))
  in
  let random_graph =
    Snapshot.of_labeled
      (Gqkg_workload.Gen_graph.erdos_renyi_gnm (Gqkg_util.Splitmix.create 79) ~nodes:200 ~edges:400)
  in
  (* Label-aware initial colors: structure AND vocabulary count. *)
  let labels = [ "person"; "infected"; "bus"; "address"; "company" ] in
  let init_of g v = Hashtbl.hash (List.map (fun l -> Snapshot.node_atom g v (Atom.label l)) labels) in
  let similarity a b =
    Gqkg_gnn.Wl_kernel.similarity ~init1:(init_of a) ~init2:(init_of b) a b
  in
  Printf.printf "\nWL-kernel similarity (3 rounds, label-aware):\n";
  Printf.printf "  city A vs itself      : %.3f\n" (similarity inst inst);
  Printf.printf "  city A vs city B      : %.3f\n" (similarity inst other);
  Printf.printf "  city A vs random graph: %.3f\n" (similarity inst random_graph)
