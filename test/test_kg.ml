(* Tests for gqkg_kg: RDF terms, the indexed triple store, N-Triples,
   BGP matching, RDFS inference, the property-graph↔RDF mapping and the
   RDF-as-labeled-graph instance (Section 3's RDF model). *)

open Gqkg_graph
open Gqkg_automata
open Gqkg_kg

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let iri = Term.iri
let t3 = Triple_store.triple

(* ---------- Term ---------- *)

let test_term_rendering () =
  checks "iri" "<http://ex.org/a>" (Term.to_string (iri "http://ex.org/a"));
  checks "plain literal" "\"hi\"" (Term.to_string (Term.literal "hi"));
  checks "typed literal" "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>"
    (Term.to_string (Term.of_int 5));
  checks "lang literal" "\"hola\"@es" (Term.to_string (Term.literal ~lang:"es" "hola"));
  checks "bnode" "_:b1" (Term.to_string (Term.bnode "b1"));
  checks "escaped" "\"a\\\"b\\nc\"" (Term.to_string (Term.literal "a\"b\nc"))

let test_term_local_name () =
  checks "fragment" "person" (Term.local_name (iri "http://ex.org/ns#person"));
  checks "path" "person" (Term.local_name (iri "urn:gqkg:label/person"));
  checks "bare" "person" (Term.local_name (iri "person"))

let test_term_literal_exclusivity () =
  Alcotest.check_raises "both datatype and lang"
    (Invalid_argument "Term.literal: datatype and language tag are exclusive") (fun () ->
      ignore (Term.literal ~datatype:"dt" ~lang:"en" "x"))

let test_term_compare_total () =
  let terms = [ iri "a"; iri "b"; Term.literal "a"; Term.bnode "a"; Term.of_int 1 ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          checkb "antisymmetric" true (compare (Term.compare a b) 0 = compare 0 (Term.compare b a)))
        terms)
    terms

(* ---------- Triple store ---------- *)

let store_with triples =
  let s = Triple_store.create () in
  Triple_store.add_all s triples;
  s

let test_store_set_semantics () =
  let s = Triple_store.create () in
  checkb "first add" true (Triple_store.add s (t3 (iri "a") (iri "p") (iri "b")));
  checkb "duplicate" false (Triple_store.add s (t3 (iri "a") (iri "p") (iri "b")));
  checki "size 1" 1 (Triple_store.size s)

let test_store_mem () =
  let s = store_with [ t3 (iri "a") (iri "p") (iri "b") ] in
  checkb "present" true (Triple_store.mem s (t3 (iri "a") (iri "p") (iri "b")));
  checkb "absent" false (Triple_store.mem s (t3 (iri "b") (iri "p") (iri "a")));
  checkb "unknown term" false (Triple_store.mem s (t3 (iri "zz") (iri "p") (iri "b")))

let test_store_pattern_shapes () =
  let s =
    store_with
      [
        t3 (iri "a") (iri "p") (iri "b");
        t3 (iri "a") (iri "p") (iri "c");
        t3 (iri "a") (iri "q") (iri "b");
        t3 (iri "x") (iri "p") (iri "b");
      ]
  in
  let count ~s:sub ~p ~o = List.length (Triple_store.matching s ~s:sub ~p ~o) in
  checki "spo" 1 (count ~s:(Some (iri "a")) ~p:(Some (iri "p")) ~o:(Some (iri "b")));
  checki "sp?" 2 (count ~s:(Some (iri "a")) ~p:(Some (iri "p")) ~o:None);
  checki "s??" 3 (count ~s:(Some (iri "a")) ~p:None ~o:None);
  checki "?p?" 3 (count ~s:None ~p:(Some (iri "p")) ~o:None);
  checki "??o" 3 (count ~s:None ~p:None ~o:(Some (iri "b")));
  checki "s?o" 2 (count ~s:(Some (iri "a")) ~p:None ~o:(Some (iri "b")));
  checki "?po" 2 (count ~s:None ~p:(Some (iri "p")) ~o:(Some (iri "b")));
  checki "???" 4 (count ~s:None ~p:None ~o:None)

let test_store_merge_universal_interpretation () =
  (* Shared IRIs merge; the union is a set. *)
  let s1 = store_with [ t3 (iri "a") (iri "p") (iri "b") ] in
  let s2 = store_with [ t3 (iri "a") (iri "p") (iri "b"); t3 (iri "b") (iri "p") (iri "c") ] in
  Triple_store.merge ~into:s1 s2;
  checki "union size" 2 (Triple_store.size s1)

let test_store_copy_independent () =
  let s = store_with [ t3 (iri "a") (iri "p") (iri "b") ] in
  let c = Triple_store.copy s in
  ignore (Triple_store.add c (t3 (iri "x") (iri "p") (iri "y")));
  checki "original untouched" 1 (Triple_store.size s);
  checki "copy grew" 2 (Triple_store.size c)

(* ---------- N-Triples ---------- *)

let test_ntriples_roundtrip () =
  let s =
    store_with
      [
        t3 (iri "http://ex.org/a") (iri "http://ex.org/p") (iri "http://ex.org/b");
        t3 (iri "http://ex.org/a") (iri "http://ex.org/name") (Term.literal "Ada \"the\" first\n");
        t3 (Term.bnode "x") (iri "http://ex.org/p") (Term.of_int 42);
        t3 (iri "http://ex.org/c") (iri "http://ex.org/label") (Term.literal ~lang:"en" "hello");
      ]
  in
  let text = Ntriples.to_string s in
  let s' = Ntriples.parse_string text in
  checki "same size" (Triple_store.size s) (Triple_store.size s');
  checks "fixed point" text (Ntriples.to_string s')

let test_ntriples_parses_comments () =
  let text = "# comment\n\n<a> <p> <b> .\n<a> <p> \"lit\" . # trailing\n" in
  let s = Ntriples.parse_string text in
  checki "two triples" 2 (Triple_store.size s)

let test_ntriples_rejects_malformed () =
  List.iter
    (fun text ->
      match Ntriples.parse_string text with
      | exception Ntriples.Parse_error _ -> ()
      | _ -> Alcotest.fail ("should reject: " ^ text))
    [
      "<a> <p> <b>\n" (* missing dot *);
      "<a> <p> .\n" (* missing object *);
      "<a> \"lit\" <b> .\n" (* literal predicate *);
      "<a> <p> \"unterminated .\n";
      "<a <p> <b> .\n";
    ]

(* ---------- BGP ---------- *)

let family_store () =
  store_with
    [
      t3 (iri "alice") (iri "knows") (iri "bob");
      t3 (iri "bob") (iri "knows") (iri "carol");
      t3 (iri "alice") (iri "age") (Term.of_int 30);
      t3 (iri "bob") (iri "age") (Term.of_int 32);
      t3 (iri "alice") (iri "knows") (iri "carol");
    ]

let test_bgp_single_pattern () =
  let s = family_store () in
  let rows =
    Bgp.select s { Bgp.select = [ "x" ]; where = [ Bgp.pattern (Bgp.v "x") (Bgp.iri "knows") (Bgp.c (iri "carol")) ] }
  in
  checkb "bob and alice know carol" true
    (rows = [ [ iri "alice" ] ; [ iri "bob" ] ])

let test_bgp_join () =
  let s = family_store () in
  (* friends-of-friends of alice *)
  let rows =
    Bgp.select s
      {
        Bgp.select = [ "z" ];
        where =
          [
            Bgp.pattern (Bgp.c (iri "alice")) (Bgp.iri "knows") (Bgp.v "y");
            Bgp.pattern (Bgp.v "y") (Bgp.iri "knows") (Bgp.v "z");
          ];
      }
  in
  checkb "carol via bob" true (rows = [ [ iri "carol" ] ])

let test_bgp_repeated_variable () =
  (* ?x knows ?x — nobody knows themselves here. *)
  let s = family_store () in
  checki "none" 0
    (List.length
       (Bgp.select s
          { Bgp.select = [ "x" ]; where = [ Bgp.pattern (Bgp.v "x") (Bgp.iri "knows") (Bgp.v "x") ] }))

let test_bgp_predicate_variable () =
  let s = family_store () in
  let rows =
    Bgp.select s
      { Bgp.select = [ "p" ]; where = [ Bgp.pattern (Bgp.c (iri "alice")) (Bgp.v "p") (Bgp.v "o") ] }
  in
  checkb "knows and age" true (rows = [ [ iri "age" ]; [ iri "knows" ] ])

let test_bgp_ask_and_count () =
  let s = family_store () in
  checkb "ask true" true
    (Bgp.ask s { Bgp.select = []; where = [ Bgp.pattern (Bgp.v "x") (Bgp.iri "age") (Bgp.v "a") ] });
  checkb "ask false" false
    (Bgp.ask s { Bgp.select = []; where = [ Bgp.pattern (Bgp.v "x") (Bgp.iri "hates") (Bgp.v "y") ] });
  checki "count solutions" 3
    (Bgp.count_solutions s
       { Bgp.select = []; where = [ Bgp.pattern (Bgp.v "x") (Bgp.iri "knows") (Bgp.v "y") ] })

let test_bgp_unused_select_rejected () =
  let s = family_store () in
  (match
     Bgp.select s { Bgp.select = [ "zz" ]; where = [ Bgp.pattern (Bgp.v "x") (Bgp.iri "knows") (Bgp.v "y") ] }
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "should reject unused select variable")


(* ---------- SPARQL-style property paths ---------- *)

let path_store () =
  store_with
    [
      t3 (iri "urn:x/a") (iri "urn:p/knows") (iri "urn:x/b");
      t3 (iri "urn:x/b") (iri "urn:p/knows") (iri "urn:x/c");
      t3 (iri "urn:x/c") (iri "urn:p/knows") (iri "urn:x/d");
      t3 (iri "urn:x/c") (iri "urn:p/likes") (iri "urn:x/e");
      t3 (iri "urn:x/a") (iri "urn:p/age") (Term.of_int 7);
    ]

let test_bgp_path_transitive () =
  let s = path_store () in
  let path = Regex_parser.parse "knows/knows*" in
  let rows =
    Bgp.select s
      { Bgp.select = [ "y" ]; where = [ Bgp.path_pattern (Bgp.c (iri "urn:x/a")) path (Bgp.v "y") ] }
  in
  checkb "b, c, d reachable" true
    (rows = [ [ iri "urn:x/b" ]; [ iri "urn:x/c" ]; [ iri "urn:x/d" ] ])

let test_bgp_path_backward_binding () =
  let s = path_store () in
  let path = Regex_parser.parse "knows/likes" in
  let rows =
    Bgp.select s
      { Bgp.select = [ "x" ]; where = [ Bgp.path_pattern (Bgp.v "x") path (Bgp.c (iri "urn:x/e")) ] }
  in
  checkb "only b" true (rows = [ [ iri "urn:x/b" ] ])

let test_bgp_path_joins_with_triples () =
  let s = path_store () in
  let path = Regex_parser.parse "knows/knows*/likes" in
  let q =
    {
      Bgp.select = [ "x"; "y" ];
      where =
        [
          Bgp.pattern (Bgp.v "x") (Bgp.c (iri "urn:p/age")) (Bgp.v "a");
          Bgp.path_pattern (Bgp.v "x") path (Bgp.v "y");
        ];
    }
  in
  checkb "a likes-reaches e" true (Bgp.select s q = [ [ iri "urn:x/a"; iri "urn:x/e" ] ])

let test_bgp_path_repeated_variable () =
  (* ?x knows+ ?x: no cycles here. *)
  let s = path_store () in
  let path = Regex_parser.parse "knows/knows*" in
  checki "acyclic" 0
    (List.length
       (Bgp.select s
          { Bgp.select = [ "x" ]; where = [ Bgp.path_pattern (Bgp.v "x") path (Bgp.v "x") ] }));
  (* Close the cycle and ask again. *)
  ignore (Triple_store.add s (t3 (iri "urn:x/d") (iri "urn:p/knows") (iri "urn:x/a")));
  checkb "cycle detected" true
    (List.length
       (Bgp.select s
          { Bgp.select = [ "x" ]; where = [ Bgp.path_pattern (Bgp.v "x") path (Bgp.v "x") ] })
    = 4)


(* ---------- SPARQL-lite ---------- *)

let sparql_store () =
  store_with
    [
      t3 (iri "urn:x/alice") (iri "urn:p/knows") (iri "urn:x/bob");
      t3 (iri "urn:x/bob") (iri "urn:p/knows") (iri "urn:x/carol");
      t3 (iri "urn:x/alice") Rdfs.rdf_type (iri "urn:t/Person");
      t3 (iri "urn:x/bob") Rdfs.rdf_type (iri "urn:t/Person");
      t3 (iri "urn:x/alice") (iri "urn:p/age") (Term.of_int 30);
    ]

let test_sparql_basic_select () =
  let rows =
    Sparql.run (sparql_store ()) "SELECT ?x WHERE { ?x <urn:p/knows> <urn:x/bob> }"
  in
  checkb "alice" true (rows = [ [ iri "urn:x/alice" ] ])

let test_sparql_a_and_join () =
  let rows =
    Sparql.run (sparql_store ())
      "SELECT ?x ?age WHERE { ?x a <urn:t/Person> . ?x <urn:p/age> ?age }"
  in
  checkb "alice 30" true (rows = [ [ iri "urn:x/alice"; Term.of_int 30 ] ])

let test_sparql_property_path () =
  let rows =
    Sparql.run (sparql_store ()) "SELECT ?y WHERE { <urn:x/alice> (knows/knows*) ?y }"
  in
  checkb "transitive knows" true (rows = [ [ iri "urn:x/bob" ]; [ iri "urn:x/carol" ] ])

let test_sparql_star_and_limit () =
  let rows = Sparql.run (sparql_store ()) "SELECT * WHERE { ?x <urn:p/knows> ?y } LIMIT 1" in
  checki "one row" 1 (List.length rows);
  checki "two columns" 2 (List.length (List.hd rows))

let test_sparql_projection_and_limit () =
  (* Five publications over three years: the projection onto ?y holds
     each year once, sorted by Term.compare; LIMIT cuts that sorted
     list. *)
  let years = [ 2021; 2019; 2020; 2019; 2021 ] in
  let store =
    store_with
      (List.mapi
         (fun i y -> t3 (iri (Printf.sprintf "urn:x/p%d" i)) (iri "urn:p/year") (Term.of_int y))
         years)
  in
  let expected =
    List.sort (List.compare Term.compare) (List.map (fun y -> [ Term.of_int y ]) [ 2019; 2020; 2021 ])
  in
  let rows = Sparql.run store "SELECT ?y WHERE { ?p <urn:p/year> ?y }" in
  checkb "each year once, sorted" true (rows = expected);
  let limited = Sparql.run store "SELECT ?y WHERE { ?p <urn:p/year> ?y } LIMIT 2" in
  checkb "limit keeps the sorted prefix" true (limited = List.filteri (fun i _ -> i < 2) expected)

let test_sparql_literals_and_integers () =
  let rows = Sparql.run (sparql_store ()) "SELECT ?x WHERE { ?x <urn:p/age> 30 }" in
  checkb "int literal matches" true (rows = [ [ iri "urn:x/alice" ] ]);
  let rows' =
    Sparql.run (sparql_store ())
      "SELECT ?x WHERE { ?x <urn:p/age> \"30\"^^<http://www.w3.org/2001/XMLSchema#integer> }"
  in
  checkb "typed literal matches" true (rows' = rows)

let test_sparql_comments_and_errors () =
  let rows =
    Sparql.run (sparql_store ())
      "SELECT ?x WHERE { # who knows bob\n ?x <urn:p/knows> <urn:x/bob> }"
  in
  checki "comment skipped" 1 (List.length rows);
  List.iter
    (fun q ->
      match Sparql.parse q with
      | exception Sparql.Error _ -> ()
      | _ -> Alcotest.fail ("should reject: " ^ q))
    [
      "";
      "SELECT WHERE { ?x ?p ?y }";
      "SELECT ?x { ?x ?p ?y }";
      "SELECT ?x WHERE { ?x ?p }";
      "SELECT ?x WHERE { ?x ?p ?y } LIMIT";
      "SELECT ?x WHERE { ?x (bad[ ?y }";
      "SELECT ?z WHERE { ?x ?p ?y }";
    ]

(* ---------- RDFS inference ---------- *)

let test_rdfs_subclass_transitivity_and_typing () =
  let s =
    store_with
      [
        t3 (iri "Cat") Rdfs.rdfs_sub_class_of (iri "Mammal");
        t3 (iri "Mammal") Rdfs.rdfs_sub_class_of (iri "Animal");
        t3 (iri "tom") Rdfs.rdf_type (iri "Cat");
      ]
  in
  let added = Rdfs.materialize s in
  checkb "inferred something" true (added > 0);
  checkb "transitive subclass" true
    (Triple_store.mem s (t3 (iri "Cat") Rdfs.rdfs_sub_class_of (iri "Animal")));
  checkb "tom is mammal" true (Triple_store.mem s (t3 (iri "tom") Rdfs.rdf_type (iri "Mammal")));
  checkb "tom is animal" true (Triple_store.mem s (t3 (iri "tom") Rdfs.rdf_type (iri "Animal")));
  (* Idempotent. *)
  checki "fixpoint reached" 0 (Rdfs.materialize s)

let test_rdfs_subproperty_and_domain_range () =
  let s =
    store_with
      [
        t3 (iri "parentOf") Rdfs.rdfs_sub_property_of (iri "relatedTo");
        t3 (iri "parentOf") Rdfs.rdfs_domain (iri "Person");
        t3 (iri "parentOf") Rdfs.rdfs_range (iri "Person");
        t3 (iri "ann") (iri "parentOf") (iri "ben");
      ]
  in
  ignore (Rdfs.materialize s);
  checkb "property inherited" true (Triple_store.mem s (t3 (iri "ann") (iri "relatedTo") (iri "ben")));
  checkb "domain typing" true (Triple_store.mem s (t3 (iri "ann") Rdfs.rdf_type (iri "Person")));
  checkb "range typing" true (Triple_store.mem s (t3 (iri "ben") Rdfs.rdf_type (iri "Person")))

let test_rdfs_range_ignores_literals () =
  let s =
    store_with
      [
        t3 (iri "age") Rdfs.rdfs_range (iri "Number");
        t3 (iri "ann") (iri "age") (Term.of_int 4);
      ]
  in
  ignore (Rdfs.materialize s);
  (* No rdf:type triple with a literal subject was created. *)
  checkb "no literal typing" true
    (Triple_store.matching s ~s:(Some (Term.of_int 4)) ~p:(Some Rdfs.rdf_type) ~o:None = [])

(* ---------- PG <-> RDF ---------- *)

let test_pg_rdf_roundtrip_figure2 () =
  let pg = Figure2.property () in
  let store = Pg_rdf.of_property_graph pg in
  let pg' = Pg_rdf.to_property_graph store in
  checks "roundtrip" (Graph_io.property_graph_to_string pg) (Graph_io.property_graph_to_string pg')

let test_pg_rdf_triple_shape () =
  let pg = Figure2.property () in
  let store = Pg_rdf.of_property_graph pg in
  (* Direct relation triple for path querying. *)
  checkb "direct rides triple" true
    (Triple_store.mem store
       (t3 (Pg_rdf.node_iri (Const.str "n1")) (Pg_rdf.rel_iri (Const.str "rides"))
          (Pg_rdf.node_iri (Const.str "n3"))));
  (* Reified edge with source/target. *)
  checkb "reified source" true
    (Triple_store.mem store
       (t3 (Pg_rdf.edge_iri (Const.str "e2")) Pg_rdf.source_iri (Pg_rdf.node_iri (Const.str "n1"))))

(* ---------- RDF as a labeled-graph instance ---------- *)

let rdf_instance () =
  let s =
    store_with
      [
        t3 (iri "urn:x/julia") Rdfs.rdf_type (iri "urn:t/person");
        t3 (iri "urn:x/john") Rdfs.rdf_type (iri "urn:t/infected");
        t3 (iri "urn:x/bus7") Rdfs.rdf_type (iri "urn:t/bus");
        t3 (iri "urn:x/julia") (iri "urn:p/rides") (iri "urn:x/bus7");
        t3 (iri "urn:x/john") (iri "urn:p/rides") (iri "urn:x/bus7");
        t3 (iri "urn:x/julia") (iri "urn:p/name") (Term.literal "Julia");
      ]
  in
  Rdf_graph.of_store s

let test_rdf_graph_structure () =
  let g = rdf_instance () in
  (* nodes: julia, john, bus7, the three type IRIs, and the literal *)
  checki "seven nodes" 7 (Rdf_graph.num_nodes g);
  checki "six edges" 6 (Rdf_graph.num_edges g)

let test_rdf_graph_rpq () =
  let g = rdf_instance () in
  let inst = Rdf_graph.to_snapshot g in
  (* The paper's bus query, straight over RDF. *)
  let r = Regex_parser.parse "?person/rides/?bus/rides^-/?infected" in
  let pairs = Gqkg_core.Rpq.eval_pairs inst r in
  checki "one pair" 1 (List.length pairs);
  let a, b = List.hd pairs in
  checkb "julia to john" true
    (Rdf_graph.node_term g a = iri "urn:x/julia" && Rdf_graph.node_term g b = iri "urn:x/john")

let test_rdf_graph_atoms () =
  let g = rdf_instance () in
  let inst = Rdf_graph.to_snapshot g in
  let julia = Option.get (Rdf_graph.find_node g (iri "urn:x/julia")) in
  checkb "type by local name" true (inst.Snapshot.node_atom julia (Atom.label "person"));
  checkb "type by full iri" true (inst.Snapshot.node_atom julia (Atom.label "urn:t/person"));
  checkb "property test" true
    (inst.Snapshot.node_atom julia (Atom.prop "name" (Const.str "Julia")));
  checkb "wrong value" false (inst.Snapshot.node_atom julia (Atom.prop "name" (Const.str "John")))

(* Node-label postings union the type bitmaps a label test accepts (by
   local name or full IRI), so they equal a node_atom scan — also for a
   node carrying two types. *)
let test_rdf_label_postings () =
  let s =
    store_with
      [
        t3 (iri "urn:x/julia") Rdfs.rdf_type (iri "urn:t/person");
        t3 (iri "urn:x/julia") Rdfs.rdf_type (iri "urn:t/infected");
        t3 (iri "urn:x/john") Rdfs.rdf_type (iri "urn:t/person");
        t3 (iri "urn:x/julia") (iri "urn:p/rides") (iri "urn:x/bus7");
      ]
  in
  let inst = Rdf_graph.to_snapshot (Rdf_graph.of_store s) in
  List.iter
    (fun l ->
      let a = Atom.label l in
      let all = List.init inst.Snapshot.num_nodes Fun.id in
      let scan = List.filter (fun v -> inst.Snapshot.node_atom v a) all in
      checkb l true (Array.to_list (Postings.nodes inst a) = scan))
    [ "person"; "urn:t/person"; "infected"; "bus"; "ghost" ]

(* ---------- QCheck ---------- *)

let term_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> iri ("urn:" ^ s)) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8));
        map (fun s -> Term.literal s) (string_size ~gen:printable (int_range 0 10));
        map (fun n -> Term.of_int n) (int_bound 100);
        map (fun s -> Term.bnode s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 5));
      ])

let triples_gen = QCheck2.Gen.(list_size (int_range 0 30) (triple term_gen term_gen term_gen))

let normalize_triples ts =
  List.filter_map
    (fun (s, p, o) -> match p with Term.Iri _ -> Some (t3 s p o) | _ -> None)
    ts

let prop_ntriples_roundtrip =
  QCheck2.Test.make ~name:"ntriples roundtrip" ~count:200 triples_gen (fun ts ->
      let s = store_with (normalize_triples ts) in
      let text = Ntriples.to_string s in
      match Ntriples.parse_string text with
      | s' -> Ntriples.to_string s' = text && Triple_store.size s' = Triple_store.size s
      | exception Ntriples.Parse_error _ -> false)

let prop_store_indexes_agree =
  QCheck2.Test.make ~name:"all index shapes agree with scan" ~count:100 triples_gen (fun ts ->
      let triples = normalize_triples ts in
      let s = store_with triples in
      let all = Triple_store.to_list s in
      List.for_all
        (fun { Triple_store.s = sub; p; o } ->
          let by_s = Triple_store.matching s ~s:(Some sub) ~p:None ~o:None in
          let by_p = Triple_store.matching s ~s:None ~p:(Some p) ~o:None in
          let by_o = Triple_store.matching s ~s:None ~p:None ~o:(Some o) in
          let has l = List.exists (fun t -> Term.equal t.Triple_store.s sub && Term.equal t.p p && Term.equal t.o o) l in
          has by_s && has by_p && has by_o)
        all)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_kg"
    [
      ( "term",
        [
          Alcotest.test_case "rendering" `Quick test_term_rendering;
          Alcotest.test_case "local name" `Quick test_term_local_name;
          Alcotest.test_case "literal exclusivity" `Quick test_term_literal_exclusivity;
          Alcotest.test_case "total order" `Quick test_term_compare_total;
        ] );
      ( "store",
        [
          Alcotest.test_case "set semantics" `Quick test_store_set_semantics;
          Alcotest.test_case "mem" `Quick test_store_mem;
          Alcotest.test_case "pattern shapes" `Quick test_store_pattern_shapes;
          Alcotest.test_case "merge" `Quick test_store_merge_universal_interpretation;
          Alcotest.test_case "copy" `Quick test_store_copy_independent;
        ] );
      ( "ntriples",
        [
          Alcotest.test_case "roundtrip" `Quick test_ntriples_roundtrip;
          Alcotest.test_case "comments" `Quick test_ntriples_parses_comments;
          Alcotest.test_case "malformed" `Quick test_ntriples_rejects_malformed;
        ] );
      ( "bgp",
        [
          Alcotest.test_case "single pattern" `Quick test_bgp_single_pattern;
          Alcotest.test_case "join" `Quick test_bgp_join;
          Alcotest.test_case "repeated variable" `Quick test_bgp_repeated_variable;
          Alcotest.test_case "predicate variable" `Quick test_bgp_predicate_variable;
          Alcotest.test_case "ask/count" `Quick test_bgp_ask_and_count;
          Alcotest.test_case "unused select" `Quick test_bgp_unused_select_rejected;
        ] );
      ( "property-paths",
        [
          Alcotest.test_case "transitive" `Quick test_bgp_path_transitive;
          Alcotest.test_case "backward binding" `Quick test_bgp_path_backward_binding;
          Alcotest.test_case "joins with triples" `Quick test_bgp_path_joins_with_triples;
          Alcotest.test_case "repeated variable" `Quick test_bgp_path_repeated_variable;
        ] );
      ( "sparql",
        [
          Alcotest.test_case "basic select" `Quick test_sparql_basic_select;
          Alcotest.test_case "a + join" `Quick test_sparql_a_and_join;
          Alcotest.test_case "property path" `Quick test_sparql_property_path;
          Alcotest.test_case "star + limit" `Quick test_sparql_star_and_limit;
          Alcotest.test_case "projection + limit" `Quick test_sparql_projection_and_limit;
          Alcotest.test_case "literals" `Quick test_sparql_literals_and_integers;
          Alcotest.test_case "comments/errors" `Quick test_sparql_comments_and_errors;
        ] );
      ( "rdfs",
        [
          Alcotest.test_case "subclass/type" `Quick test_rdfs_subclass_transitivity_and_typing;
          Alcotest.test_case "subproperty/domain/range" `Quick test_rdfs_subproperty_and_domain_range;
          Alcotest.test_case "literals untyped" `Quick test_rdfs_range_ignores_literals;
        ] );
      ( "pg-rdf",
        [
          Alcotest.test_case "figure2 roundtrip" `Quick test_pg_rdf_roundtrip_figure2;
          Alcotest.test_case "triple shape" `Quick test_pg_rdf_triple_shape;
        ] );
      ( "rdf-graph",
        [
          Alcotest.test_case "structure" `Quick test_rdf_graph_structure;
          Alcotest.test_case "rpq over rdf" `Quick test_rdf_graph_rpq;
          Alcotest.test_case "atoms" `Quick test_rdf_graph_atoms;
          Alcotest.test_case "label postings" `Quick test_rdf_label_postings;
        ] );
      ("properties", q [ prop_ntriples_roundtrip; prop_store_indexes_agree ]);
    ]
