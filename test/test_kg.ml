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

(* Constants become singleton atoms on variables named after them, and
   the planner binds them before any other variable. *)
let test_bgp_constants_bind_first () =
  let s = family_store () in
  let q =
    {
      Bgp.select = [ "p" ];
      where =
        [
          Bgp.pattern (Bgp.c (iri "alice")) (Bgp.v "p") (Bgp.v "y");
          Bgp.pattern (Bgp.v "y") (Bgp.iri "knows") (Bgp.c (iri "carol"));
        ];
    }
  in
  checkb "pinned constants first" true
    (List.exists
       (String.starts_with ~prefix:"variable order: <carol> -> ")
       (String.split_on_char '\n' (Bgp.explain s q)));
  checkb "answers" true (Bgp.select s q = [ [ iri "knows" ] ])

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
  Triple_store.view s

let test_rdf_graph_structure () =
  let g = rdf_instance () in
  (* nodes: julia, john, bus7, the three type IRIs, and the literal *)
  checki "seven nodes" 7 g.nodes;
  checki "six edges" 6 g.snap.num_edges

let test_rdf_graph_rpq () =
  let g = rdf_instance () in
  let inst = g.snap in
  (* The paper's bus query, straight over RDF. *)
  let r = Regex_parser.parse "?person/rides/?bus/rides^-/?infected" in
  let pairs = Gqkg_core.Rpq.eval_pairs inst r in
  checki "one pair" 1 (List.length pairs);
  let a, b = List.hd pairs in
  checkb "julia to john" true
    (g.terms.(a) = iri "urn:x/julia" && g.terms.(b) = iri "urn:x/john")

let test_rdf_graph_atoms () =
  let g = rdf_instance () in
  let inst = g.snap in
  let julia = Triple_store.view_of_term g (iri "urn:x/julia") in
  checkb "type by local name" true (Snapshot.node_atom inst julia (Atom.label "person"));
  checkb "type by full iri" true (Snapshot.node_atom inst julia (Atom.label "urn:t/person"));
  checkb "property test" true
    (Snapshot.node_atom inst julia (Atom.prop "name" (Const.str "Julia")));
  checkb "wrong value" false (Snapshot.node_atom inst julia (Atom.prop "name" (Const.str "John")))

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
  let inst = (Triple_store.view s).snap in
  List.iter
    (fun l ->
      let a = Atom.label l in
      let all = List.init inst.Snapshot.num_nodes Fun.id in
      let scan = List.filter (fun v -> Snapshot.node_atom inst v a) all in
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

(* Reads answer from the inserted set, whatever the storage: a small
   pool where urn:x/s1 is both a predicate and a subject/object, re-adds
   of duplicates, reads interleaved with adds, and a term interned into
   no triple. *)
let store_pool =
  [| iri "urn:a/knows"; iri "urn:b/knows"; iri "urn:x/s0"; iri "urn:x/s1"; Term.literal "v"; iri "urn:x/ghost" |]

let prop_store_reads_equal_inserted_set =
  let open QCheck2.Gen in
  let op = pair (triple (int_range 2 3) (int_bound 3) (int_range 1 4)) bool in
  QCheck2.Test.make ~name:"store reads = filter of the inserted set" ~count:150
    (list_size (int_range 0 40) op) (fun ops ->
      let s = Triple_store.create () in
      ignore (Triple_store.intern s store_pool.(5));
      let inserted = ref [] in
      let id i = Triple_store.intern s store_pool.(i) in
      (* Every shape over the pool ids [a], [b], [c]. *)
      let check (a, b, c) =
        let set = List.sort_uniq compare !inserted in
        Triple_store.size s = List.length set
        && List.for_all
             (fun mask ->
               let bind bit x = if mask land bit <> 0 then Some (id x) else None in
               let sb = bind 1 a and pb = bind 2 b and ob = bind 4 c in
               let fits q v = Option.fold ~none:true ~some:(( = ) v) q in
               let expected = List.filter (fun (x, y, z) -> fits sb x && fits pb y && fits ob z) set in
               let got = ref [] in
               Triple_store.iter_matching_ids s ~s:sb ~p:pb ~o:ob (fun x y z ->
                   got := (x, y, z) :: !got);
               List.sort compare !got = expected
               && Triple_store.count_matching_ids s ~s:sb ~p:pb ~o:ob = List.length expected)
             [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        && Triple_store.mem s (t3 store_pool.(a) store_pool.(b) store_pool.(c))
           = List.mem (id a, id b, id c) set
      in
      List.for_all
        (fun ((a, b, c), read) ->
          ignore (Triple_store.add s (t3 store_pool.(a) store_pool.(b) store_pool.(c)));
          inserted := (id a, id b, id c) :: !inserted;
          (not read) || check (a, b, c))
        ops
      && List.for_all check
           (List.concat_map
              (fun a -> List.concat_map (fun b -> List.map (fun c -> (a, b, c)) [ 0; 3; 4; 5 ]) [ 0; 3; 5 ])
              [ 2; 3; 5 ]))

(* ---------- the RDF view's atoms are columns ---------- *)

(* The reference rule for the view's node atoms, a scan of the node's
   triples with the property-graph value rule: a node satisfies label ℓ
   when one of its rdf:type objects is named ℓ, and (p = v) when a
   triple (node, q, "lit") has q named p and v = Const.of_string "lit".
   An IRI is named by the constant its full text or its local name
   reads as (Const.of_string, as the regex parser reads names). *)
let names_iri c = function
  | Term.Iri text as term ->
      List.exists
        (fun name -> Const.equal c (Const.of_string name))
        [ text; Term.local_name term ]
  | Term.Literal _ | Term.Bnode _ -> false

let oracle_node_atom own = function
  | Atom.Label l ->
      List.exists
        (fun (tr : Triple_store.triple) -> Term.equal tr.p Rdfs.rdf_type && names_iri l tr.o)
        own
  | Atom.Prop (p, v) ->
      List.exists
        (fun (tr : Triple_store.triple) ->
          names_iri p tr.p
          &&
          match tr.o with
          | Term.Literal { value; _ } -> Const.equal v (Const.of_string value)
          | Term.Iri _ | Term.Bnode _ -> false)
        own
  | Atom.Feature _ -> false

(* term_gen triples mixed with a pool that makes literal triples
   collide: one subject with several literals under one predicate, two
   predicates sharing a local name (urn:p/age, urn:q#age), an IRI with
   no separator (age), a numeric local name (urn:p/2), and literals
   that parse alike ("30", "030", typed 30) or not ("30.0"). *)
let pooled_triple_gen =
  let open QCheck2.Gen in
  let subject = oneofl [ iri "urn:x/a"; iri "urn:x/b"; Term.bnode "c" ] in
  let predicate =
    oneofl [ iri "urn:p/age"; iri "urn:q#age"; iri "age"; iri "urn:p/2"; Rdfs.rdf_type ]
  in
  let obj =
    oneof
      [
        map Term.literal (oneofl [ "30"; "030"; "30.0"; "31"; "x"; "3/4/21"; "" ]);
        return (Term.of_int 30);
        oneofl [ iri "urn:t/person"; iri "person"; iri "urn:x/a" ];
      ]
  in
  triple subject predicate obj

let rdf_store_gen =
  QCheck2.Gen.(
    list_size (int_range 0 30) (oneof [ triple term_gen term_gen term_gen; pooled_triple_gen ]))

(* Every label any IRI of the store names, every key any IRI names
   with every value any literal parses to, and constants that differ
   from a literal only in their type. *)
let rdf_probes triples =
  let terms = List.concat_map (fun (tr : Triple_store.triple) -> [ tr.s; tr.p; tr.o ]) triples in
  let names =
    "ghost"
    :: List.concat_map
         (function
           | Term.Iri text as term -> [ text; Term.local_name term ]
           | Term.Literal _ | Term.Bnode _ -> [])
         terms
    |> List.sort_uniq compare
  in
  let values =
    [ Const.int 30; Const.real 30.; Const.str "30" ]
    @ List.filter_map
        (function Term.Literal { value; _ } -> Some (Const.of_string value) | _ -> None)
        terms
    |> List.sort_uniq Const.compare
  in
  List.map Atom.label names
  @ List.concat_map
      (fun name -> List.map (fun v -> Atom.Prop (Const.of_string name, v)) values)
      names

let prop_rdf_atoms_oracle =
  QCheck2.Test.make ~name:"rdf view node atoms = triple-scan oracle" ~count:200 rdf_store_gen
    (fun ts ->
      let triples = List.map (fun (s, p, o) -> t3 s p o) ts in
      let view = Triple_store.view (store_with triples) in
      let probes = rdf_probes triples in
      List.for_all
        (fun v ->
          let term = view.terms.(v) in
          let own = List.filter (fun (tr : Triple_store.triple) -> Term.equal tr.s term) triples in
          List.for_all
            (fun a ->
              Snapshot.node_atom view.snap v a = oracle_node_atom own a
              || QCheck2.Test.fail_reportf "%s on %s" (Atom.to_string a) (Term.to_string term))
            probes)
        (List.init view.nodes Fun.id))

(* Three values where comparing the atom's rendered value
   (Const.to_string) with the literal's text would part from the
   property graph; the view answers as the property graph does. *)
let test_rdf_prop_value_rule () =
  let age = iri "urn:p/age" in
  let view =
    Triple_store.view
      (store_with
         [ t3 (iri "urn:x/a") age (Term.literal "030"); t3 (iri "urn:x/b") age (Term.literal "30") ])
  in
  let b = Property_graph.Builder.create () in
  List.iter
    (fun (id, lit) ->
      let n = Property_graph.Builder.add_node b (Const.str id) ~label:(Const.str "t") in
      Property_graph.Builder.set_node_property b n ~prop:(Const.str "age") ~value:(Const.of_string lit))
    [ ("a", "030"); ("b", "30") ];
  let pg = Snapshot.of_property (Property_graph.Builder.freeze b) in
  List.iter
    (fun (what, id, lit, v, expect) ->
      let atom = Atom.Prop (Const.str "age", v) in
      let node = Triple_store.view_of_term view (iri ("urn:x/" ^ id)) in
      checkb (what ^ ": rdf view") expect (Snapshot.node_atom view.snap node atom);
      checkb (what ^ ": property graph") expect
        (Snapshot.node_atom pg (if id = "a" then 0 else 1) atom);
      checkb (what ^ ": the string rule said the opposite") (not expect)
        (String.equal lit (Const.to_string v)))
    [
      ("\"030\" = 30", "a", "030", Const.int 30, true);
      ("\"30\" <> 30.", "b", "30", Const.real 30., false);
      ("\"30\" <> the string 30", "b", "30", Const.str "30", false);
    ]

(* The label rule compares constants too: a type whose local name reads
   as the integer 30 is named by [Int 30], as a property-graph label
   read from "030" is, and not by the string "030". *)
let test_rdf_label_value_rule () =
  let a = iri "urn:x/a" in
  let view = Triple_store.view (store_with [ t3 a Rdfs.rdf_type (iri "urn:t/030") ]) in
  let b = Property_graph.Builder.create () in
  ignore (Property_graph.Builder.add_node b (Const.str "a") ~label:(Const.of_string "030"));
  let pg = Snapshot.of_property (Property_graph.Builder.freeze b) in
  let node = Triple_store.view_of_term view a in
  List.iter
    (fun (what, l, in_pg, expect) ->
      let atom = Atom.Label l in
      checkb (what ^ ": rdf view") expect (Snapshot.node_atom view.snap node atom);
      if in_pg then checkb (what ^ ": property graph") expect (Snapshot.node_atom pg 0 atom))
    [
      ("30 names urn:t/030", Const.int 30, true, true);
      ("the string 030 does not", Const.str "030", true, false);
      ("the full iri does", Const.str "urn:t/030", false, true);
    ];
  checkb "the regex ?30 selects it" true
    (Gqkg_core.Rpq.eval_pairs view.snap (Regex_parser.parse "?30") = [ (node, node) ])

(* Section 3: a property graph and its RDF encoding answer every node
   label and property atom alike, node by node. *)
let prop_section3_node_atoms =
  QCheck2.Test.make ~name:"Section 3: node atoms on a property graph = on its RDF view" ~count:200
    Attr_graphs.gen (fun params ->
      let g = Attr_graphs.property_graph params in
      let pg = Snapshot.of_property g in
      let view = Triple_store.view (Pg_rdf.of_property_graph g) in
      let atoms =
        List.filter
          (function Atom.Label _ | Atom.Prop _ -> true | Atom.Feature _ -> false)
          Attr_graphs.node_atoms
      in
      List.for_all
        (fun v ->
          let r = Triple_store.view_of_term view (Pg_rdf.node_iri (Const.str (pg.node_name v))) in
          List.for_all (fun a -> Snapshot.node_atom pg v a = Snapshot.node_atom view.snap r a) atoms)
        (List.init pg.num_nodes Fun.id))

(* Label atoms naming every IRI of a view, by full text and by local
   name (each read as the regex parser reads it, and as a string), plus
   one that names nothing. *)
let iri_label_probes (view : Triple_store.view) =
  Atom.label "ghost"
  :: List.concat_map
       (function
         | Term.Iri text as term ->
             List.concat_map
               (fun name -> [ Atom.Label (Const.of_string name); Atom.label name ])
               [ text; Term.local_name term ]
         | Term.Literal _ | Term.Bnode _ -> [])
       (Array.to_list view.terms)

(* Every node and edge of the view answers the probes in [s] as in
   the view. *)
let check_labels_kept what (view : Triple_store.view) (s : Snapshot.t) =
  let live = view.snap and probes = iri_label_probes view in
  for v = 0 to live.num_nodes - 1 do
    List.iter
      (fun a ->
        checkb
          (Printf.sprintf "%s: node %s %s" what (live.node_name v) (Atom.to_string a))
          (Snapshot.node_atom live v a) (Snapshot.node_atom s v a))
      probes
  done;
  for e = 0 to live.num_edges - 1 do
    List.iter
      (fun a ->
        checkb
          (Printf.sprintf "%s: edge %d %s" what e (Atom.to_string a))
          (Snapshot.edge_atom live e a) (Snapshot.edge_atom s e a))
      probes
  done

(* A saved view is an ordinary .gqs: every Prop atom answers after a
   reload, by full IRI and by local name, a multi-valued key included,
   and so does every node and edge Label atom. *)
let test_rdf_view_save_load () =
  let julia = iri "urn:x/julia" and john = iri "urn:x/john" in
  let lit = Term.literal in
  let view =
    Triple_store.view
      (store_with
         [
           t3 julia Rdfs.rdf_type (iri "urn:t/person");
           t3 julia (iri "urn:p/age") (lit "30");
           t3 julia (iri "urn:p/age") (lit "31");
           t3 julia (iri "urn:q#age") (lit "40");
           t3 julia (iri "name") (lit "Julia");
           t3 john (iri "urn:p/2") (Term.of_int 7);
           t3 julia (iri "urn:p/rides") (iri "urn:x/bus7");
         ])
  in
  let path = Filename.temp_file "gqkg_rdf" ".gqs" in
  let loaded =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        ignore (Snapshot_io.save ~path view.snap);
        Snapshot_io.load path)
  in
  let keys = List.map Const.of_string [ "urn:p/age"; "urn:q#age"; "age"; "name"; "urn:p/2"; "2" ] in
  let values = [ Const.int 30; Const.int 31; Const.int 40; Const.str "Julia"; Const.int 7 ] in
  let atoms = List.concat_map (fun k -> List.map (fun v -> Atom.Prop (k, v)) values) keys in
  let by_name = Hashtbl.create 8 in
  for v = 0 to loaded.num_nodes - 1 do
    Hashtbl.replace by_name (loaded.node_name v) v
  done;
  checki "nodes" view.nodes loaded.num_nodes;
  for v = 0 to view.nodes - 1 do
    let name = view.snap.node_name v in
    let w = Hashtbl.find by_name name in
    List.iter
      (fun a ->
        checkb (name ^ " " ^ Atom.to_string a) (Snapshot.node_atom view.snap v a)
          (Snapshot.node_atom loaded w a))
      atoms
  done;
  let julia = Hashtbl.find by_name (Term.to_string julia) in
  checkb "both ages" true
    (List.for_all
       (fun v -> Snapshot.node_atom loaded julia (Atom.prop "age" (Const.int v)))
       [ 30; 31; 40 ]);
  checkb "type by full iri" true (Snapshot.node_atom loaded julia (Atom.label "urn:t/person"));
  checkb "type by local name" true (Snapshot.node_atom loaded julia (Atom.label "person"));
  check_labels_kept "reload" view loaded

(* A commit keeps every label's keys: the old nodes and edges of a view
   answer Label by full IRI and by local name after a commit that adds
   an edge label, one that adds a node label and one that reuses the
   appended edge label, and each appended label is named by its own
   constant. Two predicates share the local name "knows". *)
let test_rdf_view_commit_keeps_labels () =
  let ex name = iri ("http://ex.org/" ^ name) in
  let view =
    Triple_store.view
      (store_with
         [
           t3 (ex "a") Rdfs.rdf_type (ex "C");
           t3 (ex "C") Rdfs.rdf_type (ex "C");
           t3 (ex "a") (ex "knows") (ex "C");
           t3 (ex "a") (iri "http://ex2.org/knows") (ex "C");
         ])
  in
  let live = view.snap in
  let name term = Const.str (Term.to_string term) in
  let a = Triple_store.view_of_term view (ex "a") in
  List.iter
    (fun l -> checkb ("live: a is " ^ l) true (Snapshot.node_atom live a (Atom.label l)))
    [ "http://ex.org/C"; "C" ];
  let commit base op =
    let o = Overlay.create base in
    Overlay.apply o op;
    fst (Overlay.commit o)
  in
  let edge id label =
    Mutation.Add_edge { id = Const.str id; src = name (ex "a"); dst = name (ex "C"); label }
  in
  let b1 = commit (Overlay.base_of_snapshot live) (edge "new" (Const.str "likes")) in
  let b2 = commit b1 (Mutation.Add_node { id = name (ex "d"); label = Const.str "D" }) in
  let b3 = commit b2 (edge "again" (Const.str "likes")) in
  List.iter
    (fun (what, b) -> check_labels_kept what view (Overlay.snapshot b))
    [ ("new edge label", b1); ("new node label", b2); ("reused label", b3) ];
  let s3 = Overlay.snapshot b3 in
  let m = live.num_edges and n = live.num_nodes in
  checkb "likes names the new edge" true (Snapshot.edge_atom s3 m (Atom.label "likes"));
  checkb "knows does not" false (Snapshot.edge_atom s3 m (Atom.label "knows"));
  checkb "D names the new node" true (Snapshot.node_atom s3 n (Atom.label "D"));
  checkb "C does not" false (Snapshot.node_atom s3 n (Atom.label "C"));
  checkb "a reused label answers by name" true (Snapshot.edge_atom s3 (m + 1) (Atom.label "likes"));
  checki "a reused label keeps its id" s3.elabel.(m) s3.elabel.(m + 1)

(* [op] on [base] raises Replay_error at the op's line, for an
   ambiguous id or label. *)
let check_refused what base op =
  match Overlay.apply ~line:7 (Overlay.create base) op with
  | () -> Alcotest.fail (what ^ " was applied")
  | exception Journal.Replay_error { line; message; _ } ->
      checki (what ^ ": line") 7 line;
      let word = "ambiguous" in
      let rec at i =
        i + String.length word <= String.length message
        && (String.sub message i (String.length word) = word || at (i + 1))
      in
      checkb (what ^ ": " ^ message) true (at 0)

(* A mutation's label is the one label it names by the label rule: the
   full IRI of a predicate or type joins that label, which then answers
   its local name too; a local name two predicates share ("knows") is
   refused instead of joining whichever was interned last. *)
let test_rdf_view_ambiguous_labels () =
  let ex name = iri ("http://ex.org/" ^ name) in
  let view =
    Triple_store.view
      (store_with
         [
           t3 (ex "a") Rdfs.rdf_type (ex "C");
           t3 (ex "C") Rdfs.rdf_type (ex "C");
           t3 (ex "a") (ex "knows") (ex "C");
           t3 (ex "a") (iri "http://ex2.org/knows") (ex "C");
         ])
  in
  let live = view.snap in
  let name term = Const.str (Term.to_string term) in
  let base = Overlay.base_of_snapshot live in
  let edge label =
    Mutation.Add_edge { id = Const.str "new"; src = name (ex "a"); dst = name (ex "C"); label }
  in
  check_refused "knows" base (edge (Const.str "knows"));
  let o = Overlay.create base in
  Overlay.apply o (edge (Const.str "http://ex.org/knows"));
  Overlay.apply o (Mutation.Add_node { id = name (ex "d"); label = Const.str "http://ex.org/C" });
  let s = Overlay.snapshot (fst (Overlay.commit o)) in
  let m = live.num_edges and n = live.num_nodes in
  checki "no edge label appended" live.num_labels s.num_labels;
  checki "no node label appended" live.num_node_labels s.num_node_labels;
  checkb "the new edge answers its local name" true (Snapshot.edge_atom s m (Atom.label "knows"));
  checkb "and not the other predicate" false
    (Snapshot.edge_atom s m (Atom.label "http://ex2.org/knows"));
  checkb "the new node answers C" true (Snapshot.node_atom s n (Atom.label "C"))

(* An id several live edges carry (every edge of one predicate, named
   by its local name) is refused by the ops that act on one edge, and
   the id index stays exact across commits: once a cascade leaves one
   "knows" edge, deleting "knows" deletes it. *)
let test_rdf_view_ambiguous_ids () =
  let ex name = iri ("http://ex.org/" ^ name) in
  let view =
    Triple_store.view
      (store_with
         (List.map (fun v -> t3 (ex v) Rdfs.rdf_type (ex "P")) [ "a"; "b"; "c"; "P" ]
         @ [
             t3 (ex "a") (ex "knows") (ex "b");
             t3 (ex "b") (ex "knows") (ex "c");
             t3 (ex "c") (iri "http://ex2.org/knows") (ex "a");
           ]))
  in
  let name term = Const.str (Term.to_string term) in
  let knows = Const.str "knows" and p = Const.str "w" in
  let base = Overlay.base_of_snapshot view.snap in
  check_refused "Del_edge" base (Mutation.Del_edge { id = knows });
  check_refused "Set_edge_prop" base
    (Mutation.Set_edge_prop { id = knows; prop = p; value = Const.int 1 });
  check_refused "Del_edge_prop" base (Mutation.Del_edge_prop { id = knows; prop = p });
  check_refused "Merge_edge" base
    (Mutation.Merge_edge { id = knows; src = name (ex "a"); dst = name (ex "b"); label = knows });
  let o = Overlay.create base in
  checkb "an ambiguous id is a member" true (Overlay.mem_edge o knows);
  checkb "with no one property" true (Overlay.edge_prop o knows p = None);
  let knows_edges (s : Snapshot.t) =
    List.filter (fun e -> s.edge_name e = "knows") (List.init s.num_edges Fun.id)
  in
  Overlay.apply o (Mutation.Del_node { id = name (ex "a") });
  let b1 = fst (Overlay.commit o) in
  checki "the cascade leaves one knows edge" 1 (List.length (knows_edges (Overlay.snapshot b1)));
  let o = Overlay.create b1 in
  Overlay.apply o (Mutation.Set_edge_prop { id = knows; prop = p; value = Const.int 1 });
  checkb "the survivor takes the property" true (Overlay.edge_prop o knows p = Some (Const.int 1));
  Overlay.apply o (Mutation.Del_edge { id = knows });
  let s2 = Overlay.snapshot (fst (Overlay.commit o)) in
  checki "and is deleted" 0 (List.length (knows_edges s2));
  checki "the type edges stay" 3 s2.num_edges

(* The node ops refuse a node id two live nodes carry. *)
let test_overlay_ambiguous_node () =
  let a = Const.str "a" in
  let snap =
    Snapshot.make ~attrs:Snapshot.no_attrs ~num_nodes:3 ~esrc:[| 0 |] ~edst:[| 1 |] ~num_labels:1
      ~elabel:[| 0 |] ~label_names:[| "x" |] ~label_keys:[| [| Const.str "x" |] |]
      ~num_node_labels:1 ~node_labels:[| [ 0 ]; [ 0 ]; [ 0 ] |] ~node_label_names:[| "a" |]
      ~node_label_keys:[| [| a |] |]
      ~node_name:(fun v -> if v < 2 then "twin" else "solo")
      ~edge_name:(fun _ -> "e")
  in
  let base = Overlay.base_of_snapshot snap in
  let twin = Const.str "twin" in
  check_refused "Del_node" base (Mutation.Del_node { id = twin });
  check_refused "Merge_node" base (Mutation.Merge_node { id = twin; label = a });
  check_refused "Set_node_prop" base (Mutation.Set_node_prop { id = twin; prop = a; value = a });
  check_refused "Del_node_prop" base (Mutation.Del_node_prop { id = twin; prop = a });
  check_refused "Add_edge from it" base
    (Mutation.Add_edge
       { id = Const.str "f"; src = twin; dst = Const.str "solo"; label = Const.str "x" });
  let o = Overlay.create base in
  Overlay.apply o (Mutation.Del_edge { id = Const.str "e" });
  Overlay.apply o (Mutation.Del_node { id = Const.str "solo" });
  checkb "the twins stay" true (Overlay.live_nodes o = 2)

(* Renumbering rebuilds the view from its columns, so it keeps every
   answer by name. *)
let prop_rdf_view_renumber =
  QCheck2.Test.make ~name:"renumbered rdf view keeps its atoms by name" ~count:100
    QCheck2.Gen.(pair Attr_graphs.gen (oneofl [ Renumber.Degree; Renumber.Bfs ]))
    (fun (params, order) ->
      let view = Triple_store.view (Pg_rdf.of_property_graph (Attr_graphs.property_graph params)) in
      let renumbered = Renumber.apply view.snap (Renumber.plan order view.snap) in
      Attr_graphs.atom_table view.snap = Attr_graphs.atom_table renumbered)

(* ---------- the frozen view: one per version ---------- *)

let test_view_shared_until_add () =
  let s =
    store_with
      [
        t3 (iri "urn:x/a") (iri "urn:p/knows") (iri "urn:x/b");
        t3 (iri "urn:x/b") (iri "urn:p/knows") (iri "urn:x/c");
        t3 (iri "urn:x/c") (iri "urn:p/likes") (iri "urn:x/a");
      ]
  in
  let snap () = (Triple_store.view s).snap in
  let first = snap () in
  checkb "same snapshot twice" true (snap () == first);
  let reach () = Sparql.run s "SELECT ?y WHERE { <urn:x/a> (knows*) ?y }" in
  checki "path answers" 3 (List.length (reach ()));
  checki "second path query" 1
    (List.length (Sparql.run s "SELECT ?x WHERE { ?x (knows/knows/likes) ?x }"));
  checkb "no graph built per query" true (snap () == first);
  checkb "a re-add keeps the view" false
    (Triple_store.add s (t3 (iri "urn:x/a") (iri "urn:p/knows") (iri "urn:x/b")));
  checkb "still the same snapshot" true (snap () == first);
  let from_knows () = Sparql.run s "SELECT ?y WHERE { <urn:p/knows> (inverse/knows*) ?y }" in
  checki "a predicate-only term is no path endpoint" 0 (List.length (from_knows ()));
  (* A new predicate whose subject so far was only a predicate. *)
  ignore (Triple_store.add s (t3 (iri "urn:p/knows") (iri "urn:p/inverse") (iri "urn:x/a")));
  let second = snap () in
  checkb "an add freezes anew" true (second != first);
  checki "the predicate became a node" 4 (Triple_store.view s).nodes;
  checkb "answers see the add" true
    (Sparql.run s "SELECT ?p ?o WHERE { <urn:p/knows> ?p ?o }"
    = [ [ iri "urn:p/inverse"; iri "urn:x/a" ] ]);
  checki "paths see the add" 3 (List.length (from_knows ()));
  checkb "and keep it" true (snap () == second)

let test_view_sees_rdfs_inference () =
  let s =
    store_with
      [
        t3 (iri "urn:t/student") Rdfs.rdfs_sub_class_of (iri "urn:t/person");
        t3 (iri "urn:x/ana") Rdfs.rdf_type (iri "urn:t/student");
      ]
  in
  let persons () = Sparql.run s "SELECT ?x WHERE { ?x a <urn:t/person> }" in
  checki "nothing before inference" 0 (List.length (persons ()));
  checkb "inferred" true (Rdfs.materialize s > 0);
  checkb "SPARQL sees the inferred type" true (persons () = [ [ iri "urn:x/ana" ] ])

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
          Alcotest.test_case "constants bind first" `Quick test_bgp_constants_bind_first;
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
          Alcotest.test_case "prop value rule" `Quick test_rdf_prop_value_rule;
          Alcotest.test_case "label value rule" `Quick test_rdf_label_value_rule;
          Alcotest.test_case "save -> load answers every Prop" `Quick test_rdf_view_save_load;
          Alcotest.test_case "commits keep label keys" `Quick test_rdf_view_commit_keeps_labels;
          Alcotest.test_case "writes refuse an ambiguous label" `Quick
            test_rdf_view_ambiguous_labels;
          Alcotest.test_case "writes refuse an ambiguous edge id" `Quick
            test_rdf_view_ambiguous_ids;
          Alcotest.test_case "writes refuse an ambiguous node id" `Quick
            test_overlay_ambiguous_node;
          Alcotest.test_case "label postings" `Quick test_rdf_label_postings;
          Alcotest.test_case "one view until an add" `Quick test_view_shared_until_add;
          Alcotest.test_case "view sees rdfs inference" `Quick test_view_sees_rdfs_inference;
        ]
        @ q [ prop_rdf_atoms_oracle; prop_section3_node_atoms; prop_rdf_view_renumber ] );
      ( "properties",
        q [ prop_ntriples_roundtrip; prop_store_indexes_agree; prop_store_reads_equal_inserted_set ] );
    ]
