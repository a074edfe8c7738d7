(* Tests for the columnar Snapshot: the CSR image must agree with a
   naive scan of the endpoint columns on arbitrary graphs, label
   interning must satisfy the label-key rule, the snapshot's atoms
   (read from its label, property and feature columns) must equal each
   model's own atom oracle, and the four Section 3 models of the Figure 2
   example must freeze to interchangeable snapshots (same shape, same
   query answers). *)

open Gqkg_graph
open Gqkg_core

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let parse = Gqkg_automata.Regex_parser.parse

(* ---------- QCheck: CSR vs naive edge scan ---------- *)

let graph_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nodes = int_range 1 8 in
    let* edges = int_range 0 16 in
    return (seed, nodes, edges))

let make_graph (seed, nodes, edges) =
  let rng = Gqkg_util.Splitmix.create seed in
  Gqkg_workload.Gen_graph.random_labeled rng ~nodes ~edges ~node_labels:[ "a"; "b"; "c" ]
    ~edge_labels:[ "x"; "y"; "z" ]

(* One node's adjacency as (edge, neighbor) pairs, in walk order. *)
let adjacency_list iter s v =
  let pairs = ref [] in
  iter s v (fun e w -> pairs := (e, w) :: !pairs);
  List.rev !pairs

(* The adjacency a CSR must reproduce: all edges incident to [v] on the
   given side, in ascending edge order. *)
let scan_adjacency (s : Snapshot.t) v ~out =
  let pairs = ref [] in
  for e = s.Snapshot.num_edges - 1 downto 0 do
    let u = if out then s.Snapshot.esrc.(e) else s.Snapshot.edst.(e) in
    let nbr = if out then s.Snapshot.edst.(e) else s.Snapshot.esrc.(e) in
    if u = v then pairs := (e, nbr) :: !pairs
  done;
  !pairs

let prop_csr_agrees =
  QCheck2.Test.make ~name:"CSR adjacency = naive edge scan" ~count:300 graph_gen (fun g ->
      let s = Snapshot.of_labeled (make_graph g) in
      checki "offset start" 0 s.Snapshot.out_off.(0);
      checki "offset end" s.Snapshot.num_edges s.Snapshot.out_off.(s.Snapshot.num_nodes);
      checki "in offset end" s.Snapshot.num_edges s.Snapshot.in_off.(s.Snapshot.num_nodes);
      for v = 0 to s.Snapshot.num_nodes - 1 do
        checkb "out row" true
          (adjacency_list Snapshot.iter_out s v = scan_adjacency s v ~out:true);
        checkb "in row" true
          (adjacency_list Snapshot.iter_in s v = scan_adjacency s v ~out:false)
      done;
      true)

(* Each interned label id is keyed by exactly the model's label
   constant, and the label atoms answer as the model's own labels. *)
let prop_label_key_rule =
  QCheck2.Test.make ~name:"label interning satisfies the key contract" ~count:300 graph_gen
    (fun g ->
      let lg = make_graph g in
      let s = Snapshot.of_labeled lg in
      let labels = List.map Const.of_string [ "x"; "y"; "z"; "absent" ] in
      for e = 0 to s.Snapshot.num_edges - 1 do
        let id = s.Snapshot.elabel.(e) and c = Labeled_graph.edge_label lg e in
        checkb "id in range" true (0 <= id && id < s.Snapshot.num_labels);
        checkb "keys = the edge's label" true (s.Snapshot.label_keys.(id) = [| c |]);
        List.iter
          (fun l ->
            checkb "edge_atom = label" (Const.equal l c) (Snapshot.edge_atom s e (Atom.Label l)))
          labels
      done;
      (* Node-label bitmaps answer exactly like the node's label. *)
      let node_labels = List.map Const.of_string [ "a"; "b"; "c"; "absent" ] in
      for v = 0 to s.Snapshot.num_nodes - 1 do
        let c = Labeled_graph.node_label lg v in
        List.iter
          (fun l ->
            let at = Atom.Label l in
            let via_bits =
              let holds = ref false in
              for l = 0 to s.Snapshot.num_node_labels - 1 do
                if
                  Gqkg_util.Bitset.raw_mem s.Snapshot.node_label_bits.(l) v
                  && Snapshot.node_label_holds s l at
                then holds := true
              done;
              !holds
            in
            checkb "node bitmap = node label" (Const.equal l c) via_bits;
            checkb "node_atom = node label" (Const.equal l c) (Snapshot.node_atom s v at))
          node_labels
      done;
      true)

let prop_label_counts =
  QCheck2.Test.make ~name:"freeze-time label stats = column histogram" ~count:200 graph_gen
    (fun g ->
      let s = Snapshot.of_labeled (make_graph g) in
      let counts = Array.make (max 1 s.Snapshot.num_labels) 0 in
      Array.iter (fun id -> counts.(id) <- counts.(id) + 1) s.Snapshot.elabel;
      checkb "edge label counts" true
        (s.Snapshot.num_labels = 0
        || Array.for_all2 ( = ) counts s.Snapshot.stats.Snapshot.edge_label_counts);
      true)

(* ---------- Cross-model consistency on the Figure 2 example ---------- *)

let figure2_snapshots () =
  let property = Figure2.property () in
  let roundtrip = Gqkg_kg.Pg_rdf.(to_property_graph (of_property_graph property)) in
  [
    ("labeled", Snapshot.of_labeled (Figure2.labeled ()));
    ("property", Snapshot.of_property property);
    ("vector", Snapshot.of_vector (fst (Figure2.vector ())));
    ("rdf roundtrip", Snapshot.of_property roundtrip);
  ]

let sorted_edges (s : Snapshot.t) =
  List.sort compare
    (List.init s.Snapshot.num_edges (fun e -> (s.Snapshot.esrc.(e), s.Snapshot.edst.(e))))

let test_models_same_shape () =
  match figure2_snapshots () with
  | [] -> assert false
  | (_, reference) :: others ->
      List.iter
        (fun (name, s) ->
          checki (name ^ " num_nodes") reference.Snapshot.num_nodes s.Snapshot.num_nodes;
          checki (name ^ " num_edges") reference.Snapshot.num_edges s.Snapshot.num_edges;
          checkb (name ^ " edge list") true (sorted_edges reference = sorted_edges s))
        others

(* Query (2) mentions only labels, so all four freezes must answer it
   identically; query (3) adds a property test, which only the models
   that keep σ (property, and RDF through the reified edge properties)
   can see — those two must agree and find the paper's single pair. *)
let test_models_same_answers () =
  let snapshots = figure2_snapshots () in
  let query2 = parse "?person/contact/?infected" in
  let answers =
    List.map (fun (name, s) -> (name, Rpq.eval_pairs s query2)) snapshots
  in
  (match answers with
  | (_, reference) :: others ->
      checki "query (2) finds the pair" 1 (List.length reference);
      List.iter
        (fun (name, pairs) -> checkb ("query (2) on " ^ name) true (pairs = reference))
        others
  | [] -> assert false);
  let query3 = parse "?person/(contact & date=3/4/21)/?infected" in
  let on name = Rpq.eval_pairs (List.assoc name snapshots) query3 in
  checki "query (3) on property" 1 (List.length (on "property"));
  checkb "query (3) survives the RDF roundtrip" true (on "property" = on "rdf roundtrip")

(* ---------- QCheck: column atoms = model oracles ---------- *)

let agrees ~name count snap_atom model_atom atoms =
  for i = 0 to count - 1 do
    List.iter
      (fun a -> checkb (name ^ " " ^ Atom.to_string a) (model_atom i a) (snap_atom i a))
      atoms
  done

let prop_atoms_match_models =
  QCheck2.Test.make ~name:"snapshot atoms = model atom oracles" ~count:200 Attr_graphs.gen
    (fun params ->
      let pg = Attr_graphs.property_graph params in
      let vg = Attr_graphs.vector_graph pg and lg = Property_graph.to_labeled pg in
      let check name s n m node_oracle edge_oracle =
        agrees ~name n (Snapshot.node_atom s) node_oracle Attr_graphs.node_atoms;
        agrees ~name m (Snapshot.edge_atom s) edge_oracle Attr_graphs.edge_atoms
      in
      let n = Property_graph.num_nodes pg and m = Property_graph.num_edges pg in
      check "property" (Snapshot.of_property pg) n m (Property_graph.node_satisfies_atom pg)
        (Property_graph.edge_satisfies_atom pg);
      check "vector" (Snapshot.of_vector vg) n m (Vector_graph.node_satisfies_atom vg)
        (Vector_graph.edge_satisfies_atom vg);
      check "labeled" (Snapshot.of_labeled lg) n m (Labeled_graph.node_satisfies_atom lg)
        (Labeled_graph.edge_satisfies_atom lg);
      true)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_snapshot"
    [
      ("csr", q [ prop_csr_agrees; prop_label_key_rule; prop_label_counts ]);
      ("atoms", q [ prop_atoms_match_models ]);
      ( "figure2",
        [
          Alcotest.test_case "four models, one shape" `Quick test_models_same_shape;
          Alcotest.test_case "four models, same answers" `Quick test_models_same_answers;
        ] );
    ]
