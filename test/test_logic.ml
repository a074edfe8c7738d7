(* Tests for gqkg_logic: FO evaluation (naive vs bounded-variable, the
   φ/ψ example of Section 4.3), the regex→FO translations, graded modal
   logic, and conjunctive queries. *)

open Gqkg_graph
open Gqkg_automata
open Gqkg_logic

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let fig2 () = Snapshot.of_property (Figure2.property ())

let node inst name =
  let rec find v =
    if v >= inst.Snapshot.num_nodes then Alcotest.fail ("no node " ^ name)
    else if inst.Snapshot.node_name v = name then v
    else find (v + 1)
  in
  find 0

(* ---------- The paper's φ(x) and ψ(x) ---------- *)

let test_phi_on_figure2 () =
  let inst = fig2 () in
  (* φ(x): persons who shared a bus with an infected person — {n1}. *)
  checkb "naive" true (Fo.eval_naive inst Fo.phi ~free:"x" = [ node inst "n1" ]);
  checkb "bounded" true (Fo.eval_bounded inst Fo.phi ~free:"x" = [ node inst "n1" ])

let test_phi_equals_psi () =
  let inst = fig2 () in
  checkb "phi = psi naive" true
    (Fo.eval_naive inst Fo.phi ~free:"x" = Fo.eval_naive inst Fo.psi ~free:"x");
  checkb "phi = psi bounded" true
    (Fo.eval_bounded inst Fo.phi ~free:"x" = Fo.eval_bounded inst Fo.psi ~free:"x")

let test_width () =
  checki "phi uses three variables" 3 (Fo.width Fo.phi);
  checki "psi uses two variables" 2 (Fo.width Fo.psi)

let test_phi_psi_on_random_graphs () =
  let rng = Gqkg_util.Splitmix.create 7 in
  for _ = 1 to 10 do
    let lg =
      Gqkg_workload.Gen_graph.random_labeled rng ~nodes:8 ~edges:16
        ~node_labels:[ "person"; "bus"; "infected" ] ~edge_labels:[ "rides"; "contact" ]
    in
    let inst = Snapshot.of_labeled lg in
    let a = Fo.eval_naive inst Fo.phi ~free:"x" in
    let b = Fo.eval_bounded inst Fo.phi ~free:"x" in
    let c = Fo.eval_naive inst Fo.psi ~free:"x" in
    let d = Fo.eval_bounded inst Fo.psi ~free:"x" in
    checkb "all four agree" true (a = b && b = c && c = d)
  done

(* ---------- FO constructs ---------- *)

let test_fo_negation () =
  let inst = fig2 () in
  let not_person = Fo.Neg (Fo.node_pred "person" "x") in
  let answers = Fo.eval_bounded inst not_person ~free:"x" in
  checki "four non-person nodes" 4 (List.length answers);
  checkb "same as naive" true (answers = Fo.eval_naive inst not_person ~free:"x")

let test_fo_forall () =
  let inst = fig2 () in
  (* Nodes x such that every rides-successor is a bus: vacuously true for
     non-riders, true for the two riders. *)
  let f =
    Fo.Forall ("y", Fo.Or (Fo.Neg (Fo.edge_pred "rides" "x" "y"), Fo.node_pred "bus" "y"))
  in
  let answers = Fo.eval_bounded inst f ~free:"x" in
  checki "all five" 5 (List.length answers);
  checkb "matches naive" true (answers = Fo.eval_naive inst f ~free:"x")

let test_fo_equality () =
  let inst = fig2 () in
  (* x has a contact edge to itself? nobody. *)
  let f = Fo.Exists ("y", Fo.And (Fo.edge_pred "contact" "x" "y", Fo.Eq ("x", "y"))) in
  checkb "no self contact" true (Fo.eval_bounded inst f ~free:"x" = []);
  checkb "naive agrees" true (Fo.eval_naive inst f ~free:"x" = [])

let test_fo_variable_shadowing () =
  let inst = fig2 () in
  (* ∃x (infected(x)) ∧ person(x): the inner x is a different variable —
     outer x must still be a person. *)
  let f = Fo.And (Fo.Exists ("x", Fo.node_pred "infected" "x"), Fo.node_pred "person" "x") in
  let naive = Fo.eval_naive inst f ~free:"x" in
  let bounded = Fo.eval_bounded inst f ~free:"x" in
  checkb "shadowing consistent" true (naive = bounded);
  checkb "only the person" true (naive = [ node inst "n1" ])

let test_fo_arity_cap () =
  let inst = fig2 () in
  (* A conjunction forcing a 4-ary intermediate relation must be refused
     by the bounded evaluator (that is the point of the bound). *)
  let wide =
    Fo.And
      ( Fo.And (Fo.edge_pred "rides" "a" "b", Fo.edge_pred "rides" "c" "d"),
        Fo.node_pred "person" "a" )
  in
  (match Fo.eval_bounded inst wide ~free:"a" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arity cap to trigger")

let test_fo_to_string () =
  checkb "renders" true (String.length (Fo.to_string Fo.phi) > 20);
  checki "quantifier rank" 2 (Fo.quantifier_rank Fo.phi)

(* ---------- regex → FO translations ---------- *)

let shared_bus_regex = Regex_parser.parse "?person/rides/?bus/rides^-/?infected"

let test_fo_fresh_translation () =
  let inst = fig2 () in
  match Fo_regex.to_fo_fresh shared_bus_regex with
  | None -> Alcotest.fail "translatable"
  | Some f ->
      (* Same answers as the product engine's source extraction. *)
      let fo_answers = Fo.eval_naive inst f ~free:"x0" in
      let rpq_answers = Gqkg_core.Rpq.source_nodes inst shared_bus_regex in
      checkb "agrees with RPQ" true (fo_answers = rpq_answers);
      checkb "three variables" true (Fo.width f = 3)

let test_fo_reused_translation () =
  let inst = fig2 () in
  match Fo_regex.to_fo_reused shared_bus_regex with
  | None -> Alcotest.fail "translatable"
  | Some f ->
      checki "two variables (the psi trick)" 2 (Fo.width f);
      let fo_answers = Fo.eval_bounded inst f ~free:"x" in
      let rpq_answers = Gqkg_core.Rpq.source_nodes inst shared_bus_regex in
      checkb "agrees with RPQ" true (fo_answers = rpq_answers)

let test_fo_reused_equals_paper_psi () =
  (* The mechanical translation produces a formula equivalent to the
     hand-written ψ(x) on every test graph. *)
  let rng = Gqkg_util.Splitmix.create 19 in
  let f = Option.get (Fo_regex.to_fo_reused shared_bus_regex) in
  for _ = 1 to 10 do
    let lg =
      Gqkg_workload.Gen_graph.random_labeled rng ~nodes:7 ~edges:14
        ~node_labels:[ "person"; "bus"; "infected" ] ~edge_labels:[ "rides"; "contact" ]
    in
    let inst = Snapshot.of_labeled lg in
    checkb "equiv to psi" true
      (Fo.eval_bounded inst f ~free:"x" = Fo.eval_bounded inst Fo.psi ~free:"x")
  done

let test_fo_translation_rejects_star () =
  checkb "star untranslatable" true (Fo_regex.to_fo_fresh (Regex_parser.parse "a*") = None);
  checkb "property test untranslatable" true
    (Fo_regex.to_fo_fresh (Regex_parser.parse "(a & p=1)") = None);
  checkb "alternation untranslatable" true (Fo_regex.to_fo_reused (Regex_parser.parse "a + b") = None)

(* ---------- Graded modal logic ---------- *)

let test_gml_atoms_and_connectives () =
  let inst = fig2 () in
  checkb "person" true (Gml.models inst (Gml.label "person") = [ node inst "n1" ]);
  checkb "negation" true
    (List.length (Gml.models inst (Gml.Not (Gml.label "person"))) = 4);
  checkb "true everywhere" true (List.length (Gml.models inst Gml.True) = 5)

let test_gml_diamond_counts () =
  let inst = fig2 () in
  (* ◇≥2 (person ∨ infected): nodes with at least two person/infected
     neighbors (undirected): the bus n3 and the address n4. *)
  let f = Gml.diamond ~at_least:2 (Gml.Or (Gml.label "person", Gml.label "infected")) in
  let answers = Gml.models inst f in
  checkb "bus and address" true (answers = [ node inst "n3"; node inst "n4" ]);
  (* ◇≥3 of the same: nobody. *)
  checkb "threshold 3 empty" true (Gml.models inst (Gml.diamond ~at_least:3 (Gml.Or (Gml.label "person", Gml.label "infected"))) = [])

let test_gml_nested () =
  let inst = fig2 () in
  (* ◇≥1 bus: nodes adjacent to a bus = n1, n2 (riders), n5 (owner). *)
  let near_bus = Gml.diamond (Gml.label "bus") in
  checki "three neighbors of bus" 3 (List.length (Gml.models inst near_bus));
  (* ◇≥1 ◇≥1 bus: neighbors of those: includes the bus itself. *)
  let two_hops = Gml.diamond near_bus in
  checkb "bus reaches itself in 2 hops" true (List.mem (node inst "n3") (Gml.models inst two_hops))

let test_gml_diamond_validation () =
  Alcotest.check_raises "threshold 0" (Invalid_argument "Gml.diamond: threshold must be >= 1")
    (fun () -> ignore (Gml.diamond ~at_least:0 Gml.True))

let test_gml_subformulas_order () =
  let f = Gml.And (Gml.label "a", Gml.Not (Gml.label "b")) in
  let subs = Gml.subformulas f in
  checki "four subformulas" 4 (List.length subs);
  (* children precede parents *)
  let index g = Option.get (List.find_index (fun h -> h = g) subs) in
  checkb "child before parent" true (index (Gml.label "b") < index (Gml.Not (Gml.label "b")));
  checkb "root last" true (index f = 3)


(* ---------- C2 counting logic ---------- *)

let test_c2_basic () =
  let inst = fig2 () in
  (* Nodes with at least two person-or-infected neighbors: the bus and
     the address (cf. the GML diamond test). *)
  let person_or_infected y = C2.Or (C2.node_pred "person" y, C2.node_pred "infected" y) in
  let f = C2.exists ~at_least:2 "y" (C2.And (C2.Adjacent ("x", "y"), person_or_infected "y")) in
  checkb "c2 formula" true (C2.is_c2 f);
  checkb "bus and address" true (C2.eval inst f ~free:"x" = [ node inst "n3"; node inst "n4" ]);
  (* Threshold 3: nobody. *)
  let f3 = C2.exists ~at_least:3 "y" (C2.And (C2.Adjacent ("x", "y"), person_or_infected "y")) in
  checkb "empty at 3" true (C2.eval inst f3 ~free:"x" = [])

let test_c2_width_discipline () =
  let wide =
    C2.exists "y" (C2.And (C2.Adjacent ("x", "y"), C2.exists "z" (C2.Adjacent ("y", "z"))))
  in
  checkb "three variables rejected" true
    (match C2.eval (fig2 ()) wide ~free:"x" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* The same query written with variable reuse is C2. *)
  let reused =
    C2.exists "y" (C2.And (C2.Adjacent ("x", "y"), C2.exists "x" (C2.Adjacent ("y", "x"))))
  in
  checkb "reuse accepted" true (C2.is_c2 reused);
  checkb "evaluates" true (List.length (C2.eval (fig2 ()) reused ~free:"x") > 0)

(* A truly simple random graph: at most one edge per unordered pair (so
   GML's multiset neighbor counting and C2's node counting coincide). *)
let simple_random_instance rng ~nodes ~p =
  let b = Labeled_graph.Builder.create () in
  for i = 0 to nodes - 1 do
    ignore
      (Labeled_graph.Builder.add_node b
         (Const.str (Printf.sprintf "n%d" i))
         ~label:(Const.str "node"))
  done;
  for u = 0 to nodes - 1 do
    for v = u + 1 to nodes - 1 do
      if Gqkg_util.Splitmix.bernoulli rng p then
        ignore (Labeled_graph.Builder.fresh_edge b ~src:u ~dst:v ~label:(Const.str "e"))
    done
  done;
  Snapshot.of_labeled (Labeled_graph.Builder.freeze b)

let test_c2_gml_embedding () =
  (* On simple graphs the GML->C2 translation is exact. *)
  let rng = Gqkg_util.Splitmix.create 47 in
  for _ = 1 to 10 do
    let inst = simple_random_instance rng ~nodes:8 ~p:0.25 in
    List.iter
      (fun gml ->
        let c2 = C2.of_gml gml in
        checkb (Gml.to_string gml) true (C2.eval inst c2 ~free:"x" = Gml.models inst gml))
      [
        Gml.label "node";
        Gml.diamond (Gml.label "node");
        Gml.diamond ~at_least:3 (Gml.label "node");
        Gml.And (Gml.label "node", Gml.Not (Gml.diamond ~at_least:2 Gml.True));
        Gml.diamond (Gml.diamond (Gml.label "node"));
      ]
  done

let test_c2_wl_invariance () =
  (* Nodes with the same stable WL color satisfy the same C2 formulas -
     the Cai-Furer-Immerman direction we can check empirically. *)
  let rng = Gqkg_util.Splitmix.create 53 in
  let formulas =
    [
      C2.exists ~at_least:2 "y" (C2.Adjacent ("x", "y"));
      C2.exists "y" (C2.And (C2.Adjacent ("x", "y"), C2.exists ~at_least:3 "x" (C2.Adjacent ("y", "x"))));
      C2.Neg (C2.exists "y" (C2.Adjacent ("x", "y")));
    ]
  in
  for _ = 1 to 10 do
    let lg = Gqkg_workload.Gen_graph.erdos_renyi_gnp rng ~nodes:10 ~p:0.2 in
    let inst = Snapshot.of_labeled lg in
    let coloring = Gqkg_gnn.Wl.refine_unlabeled inst in
    List.iter
      (fun f ->
        let sat = Array.make inst.Snapshot.num_nodes false in
        List.iter (fun v -> sat.(v) <- true) (C2.eval inst f ~free:"x");
        for u = 0 to inst.Snapshot.num_nodes - 1 do
          for v = u + 1 to inst.Snapshot.num_nodes - 1 do
            if coloring.Gqkg_gnn.Wl.colors.(u) = coloring.Gqkg_gnn.Wl.colors.(v) then
              checkb "same color, same C2 truth" true (sat.(u) = sat.(v))
          done
        done)
      formulas
  done

(* ---------- Conjunctive queries ---------- *)

(* A CQ is the CRPQ whose atoms are edge labels and bare node-label
   clauses; the node clauses compile to label postings sets. *)

let test_cq_shared_bus () =
  let inst = fig2 () in
  (* The φ(x) pattern as a CQ. *)
  let q =
    Crpq_parser.parse
      "SELECT x WHERE (x:person), (x)-[rides]->(y), (y:bus), (z)-[rides]->(y), (z:infected)"
  in
  checkb "finds n1" true (Crpq.answer_nodes inst q = [ node inst "n1" ])

let test_cq_binary_head () =
  let inst = fig2 () in
  let q = Crpq_parser.parse "SELECT x, y WHERE (x)-[rides]->(y), (y:bus)" in
  checki "two rider pairs" 2 (List.length (Crpq.answers inst q))

let test_cq_unbound_head_rejected () =
  let inst = fig2 () in
  let q =
    Crpq.query ~head:[ "w" ]
      ~body:[ Crpq.atom ~src:"x" ~regex:(Regex.node_label "person") ~dst:"x" ]
      ()
  in
  (match Crpq.answers inst q with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "should reject unbound head")

let test_cq_self_loop_pattern () =
  (* Pattern label(x, x) matches only self-loops. *)
  let b = Labeled_graph.Builder.create () in
  let n0 = Labeled_graph.Builder.add_node b (Const.str "u") ~label:(Const.str "node") in
  let n1 = Labeled_graph.Builder.add_node b (Const.str "v") ~label:(Const.str "node") in
  ignore (Labeled_graph.Builder.add_edge b (Const.str "e0") ~src:n0 ~dst:n1 ~label:(Const.str "a"));
  ignore (Labeled_graph.Builder.add_edge b (Const.str "e1") ~src:n1 ~dst:n1 ~label:(Const.str "a"));
  let inst = Snapshot.of_labeled (Labeled_graph.Builder.freeze b) in
  let q = Crpq_parser.parse "SELECT x WHERE (x)-[a]->(x)" in
  checkb "only the loop" true (Crpq.answer_nodes inst q = [ n1 ])

let test_cq_agrees_with_fo () =
  (* CQs are the ∃∧ fragment: evaluation must agree with FO. *)
  let rng = Gqkg_util.Splitmix.create 29 in
  for _ = 1 to 10 do
    let lg =
      Gqkg_workload.Gen_graph.random_labeled rng ~nodes:7 ~edges:12
        ~node_labels:[ "person"; "bus" ] ~edge_labels:[ "rides"; "contact" ]
    in
    let inst = Snapshot.of_labeled lg in
    let q = Crpq_parser.parse "SELECT x WHERE (x:person), (x)-[rides]->(y), (y:bus)" in
    let f =
      Fo.And
        ( Fo.node_pred "person" "x",
          Fo.Exists ("y", Fo.And (Fo.edge_pred "rides" "x" "y", Fo.node_pred "bus" "y")) )
    in
    checkb "cq = fo" true (Crpq.answer_nodes inst q = Fo.eval_bounded inst f ~free:"x")
  done

(* ---------- CRPQs ---------- *)

let test_crpq_shared_bus () =
  let inst = fig2 () in
  let q =
    Crpq.query ~head:[ "x" ]
      ~body:
        [
          Crpq.atom ~src:"x" ~regex:(Regex_parser.parse "?person/rides/?bus") ~dst:"y";
          Crpq.atom ~src:"z" ~regex:(Regex_parser.parse "?infected/rides") ~dst:"y";
        ]
      ()
  in
  checkb "finds julia" true (Crpq.answer_nodes inst q = [ node inst "n1" ])

let test_crpq_path_atom_with_star () =
  (* CRPQs go beyond CQs: a star atom reaches through chains. *)
  let inst = fig2 () in
  let q =
    Crpq.query ~head:[ "x"; "y" ]
      ~body:[ Crpq.atom ~src:"x" ~regex:(Regex_parser.parse "?company/owns/rides^-/(contact + contact^-)*") ~dst:"y" ]
      ()
  in
  let rows = Crpq.answers inst ~max_length:6 q in
  (* company n5 reaches both riders and their contact closure *)
  checkb "company reaches people" true (List.length rows >= 2)

let test_crpq_agrees_with_naive () =
  let rng = Gqkg_util.Splitmix.create 37 in
  for _ = 1 to 10 do
    let lg =
      Gqkg_workload.Gen_graph.random_labeled rng ~nodes:6 ~edges:12
        ~node_labels:[ "person"; "bus" ] ~edge_labels:[ "rides"; "contact" ]
    in
    let inst = Snapshot.of_labeled lg in
    let q =
      Crpq.query ~head:[ "x"; "z" ]
        ~body:
          [
            Crpq.atom ~src:"x" ~regex:(Regex_parser.parse "rides/rides^-") ~dst:"z";
            Crpq.atom ~src:"x" ~regex:(Regex_parser.parse "?person") ~dst:"x";
          ]
        ()
    in
    checkb "greedy = naive" true (Crpq.answers inst q = Crpq.answers_naive inst q)
  done

let test_crpq_unbound_head_rejected () =
  let inst = fig2 () in
  let q = Crpq.query ~head:[ "w" ] ~body:[ Crpq.atom ~src:"x" ~regex:(Regex_parser.parse "rides") ~dst:"y" ] () in
  (match Crpq.answers inst q with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "should reject unbound head")

let test_crpq_parser_basic () =
  let inst = fig2 () in
  let q = Crpq_parser.parse "SELECT x, z WHERE (x:person)-[rides]->(y:bus), (z:company)-[owns]->(y)" in
  let rows = Crpq.answers inst q in
  checkb "one row" true
    (rows = [ [ node inst "n1"; node inst "n5" ] ])

let test_crpq_parser_reverse_edge () =
  let inst = fig2 () in
  let q = Crpq_parser.parse "SELECT a WHERE (a:person)-[rides]->(b)<-[rides]-(c:infected)" in
  checkb "julia via shared bus" true (Crpq.answer_nodes inst q = [ node inst "n1" ])

let test_crpq_parser_bare_label_clause () =
  let inst = fig2 () in
  let q = Crpq_parser.parse "SELECT x WHERE (x:bus)" in
  checkb "just the bus" true (Crpq.answer_nodes inst q = [ node inst "n3" ])

let test_crpq_parser_errors () =
  List.iter
    (fun text ->
      match Crpq_parser.parse text with
      | exception Crpq_parser.Error _ -> ()
      | _ -> Alcotest.fail ("should reject: " ^ text))
    [
      "";
      "WHERE (x)-[a]->(y)";
      "SELECT x WHERE (x)";
      "SELECT x WHERE (x)-[a]->(y) garbage";
      "SELECT x WHERE (x)-[a->(y)";
      "SELECT x WHERE (x)-[ ]->(y)";
      "SELECT z WHERE (x)-[a]->(y)";
    ];
  checkb "parse_opt none" true (Crpq_parser.parse_opt "nope" = None)

let test_crpq_case_insensitive_keywords () =
  let inst = fig2 () in
  let q = Crpq_parser.parse "select x where (x:company)-[owns]->(y:bus)" in
  checkb "lowercase keywords" true (Crpq.answer_nodes inst q = [ node inst "n5" ])


let test_crpq_limit () =
  let rng = Gqkg_util.Splitmix.create 41 in
  let lg =
    Gqkg_workload.Gen_graph.random_labeled rng ~nodes:8 ~edges:20 ~node_labels:[ "person" ]
      ~edge_labels:[ "contact" ]
  in
  let inst = Snapshot.of_labeled lg in
  let body = [ Crpq.atom ~src:"x" ~regex:(Regex_parser.parse "contact") ~dst:"y" ] in
  let all = Crpq.answers inst (Crpq.query ~head:[ "x"; "y" ] ~body ()) in
  checkb "several answers" true (List.length all > 3);
  let limited = Crpq.answers inst (Crpq.query ~limit:3 ~head:[ "x"; "y" ] ~body ()) in
  checki "exactly 3" 3 (List.length limited);
  List.iter (fun row -> checkb "limited subset of all" true (List.mem row all)) limited;
  (* Surface syntax. *)
  let q = Crpq_parser.parse "SELECT x, y WHERE (x)-[contact]->(y) LIMIT 2" in
  checkb "parsed limit" true (q.Crpq.limit = Some 2);
  checki "two rows" 2 (List.length (Crpq.answers inst q));
  (match Crpq_parser.parse "SELECT x WHERE (x:person) LIMIT" with
  | exception Crpq_parser.Error _ -> ()
  | _ -> Alcotest.fail "LIMIT without a number should fail")


let test_crpq_explain () =
  let inst = fig2 () in
  let q = Crpq_parser.parse "SELECT x WHERE (x:person)-[rides]->(y:bus), (z:company)-[owns]->(y)" in
  let plan = Crpq.explain inst q in
  checkb "mentions pairs" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
       loop 0
     in
     contains plan "endpoint pairs" && contains plan "variable order")

(* ---------- FO + transitive closure ---------- *)

let test_fo_tc_reachability () =
  let inst = fig2 () in
  (* people connected to an infected person through any chain of contact
     or household links, in either direction *)
  let step = Regex_parser.parse "contact + contact^- + lives/lives^-" in
  let f =
    Fo_tc.And
      ( Fo_tc.Fo (Fo.node_pred "person" "x"),
        Fo_tc.Exists
          ( "y",
            Fo_tc.And (Fo_tc.Fo (Fo.node_pred "infected" "y"), Fo_tc.tc step ~src:"x" ~dst:"y") ) )
  in
  checkb "julia reaches john" true (Fo_tc.eval inst f ~free:"x" = [ node inst "n1" ])

let test_fo_tc_matches_star_regex () =
  (* TC(step)(x, y) coincides with the RPQ step/step* evaluation. *)
  let rng = Gqkg_util.Splitmix.create 43 in
  for _ = 1 to 10 do
    let lg =
      Gqkg_workload.Gen_graph.random_labeled rng ~nodes:7 ~edges:12 ~node_labels:[ "a" ]
        ~edge_labels:[ "e"; "f" ]
    in
    let inst = Snapshot.of_labeled lg in
    let step = Regex_parser.parse "e" in
    let f = Fo_tc.Exists ("y", Fo_tc.tc step ~src:"x" ~dst:"y") in
    let via_tc = Fo_tc.eval inst f ~free:"x" in
    let via_rpq = Gqkg_core.Rpq.source_nodes inst (Regex_parser.parse "e/e*") in
    checkb "tc = star" true (via_tc = via_rpq)
  done

let test_fo_tc_reflexive () =
  let inst = fig2 () in
  let step = Regex_parser.parse "contact" in
  let plain = Fo_tc.eval inst (Fo_tc.Exists ("y", Fo_tc.And (Fo_tc.tc step ~src:"x" ~dst:"y", Fo_tc.Fo (Fo.node_pred "person" "y")))) ~free:"x" in
  let refl = Fo_tc.eval inst (Fo_tc.Exists ("y", Fo_tc.And (Fo_tc.tc ~reflexive:true step ~src:"x" ~dst:"y", Fo_tc.Fo (Fo.node_pred "person" "y")))) ~free:"x" in
  (* reflexive closure adds x itself when x is a person *)
  checkb "nobody contacts a person" true (plain = []);
  checkb "reflexive includes the person" true (refl = [ node inst "n1" ])


let test_crpq_witnesses () =
  let inst = fig2 () in
  let q = Crpq_parser.parse "SELECT x WHERE (x:person)-[rides/rides^-]->(y:infected)" in
  match Crpq.solutions_with_witnesses inst q with
  | [ (env, witnesses) ] ->
      checkb "x is julia" true (List.assoc "x" env = node inst "n1");
      List.iter
        (fun (a, p) ->
          checkb "witness well formed" true (Gqkg_core.Path.well_formed inst p);
          checkb "witness matches its atom" true (Gqkg_core.Rpq.matches_path inst a.Crpq.regex p);
          checkb "witness endpoints bound" true
            (Gqkg_core.Path.start_node p = List.assoc a.Crpq.src env
            && Gqkg_core.Path.end_node p = List.assoc a.Crpq.dst env))
        witnesses
  | other -> Alcotest.fail (Printf.sprintf "expected one solution, got %d" (List.length other))

let test_rpq_shortest_witness () =
  let inst = fig2 () in
  let r = Regex_parser.parse "?person/rides/?bus/rides^-/?infected" in
  (match Gqkg_core.Rpq.shortest_witness inst r ~source:(node inst "n1") ~target:(node inst "n2") with
  | Some p ->
      checkb "length 2" true (Gqkg_core.Path.length p = 2);
      checkb "matches" true (Gqkg_core.Rpq.matches_path inst r p)
  | None -> Alcotest.fail "expected a witness");
  checkb "no witness backwards" true
    (Gqkg_core.Rpq.shortest_witness inst (Regex_parser.parse "?person/contact/?infected")
       ~source:(node inst "n2") ~target:(node inst "n1")
    = None)

(* ---------- QCheck ---------- *)

let graph_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nodes = int_range 1 7 in
    let* edges = int_range 0 12 in
    return (seed, nodes, edges))

let make_inst (seed, nodes, edges) =
  Snapshot.of_labeled
    (Gqkg_workload.Gen_graph.random_labeled
       (Gqkg_util.Splitmix.create seed)
       ~nodes ~edges ~node_labels:[ "a"; "b" ] ~edge_labels:[ "x"; "y" ])

(* Random small FO formulas with variables drawn from {x, y}. *)
let fo_gen =
  let open QCheck2.Gen in
  let var = oneofl [ "x"; "y" ] in
  let label = oneofl [ "a"; "b" ] in
  let edge = oneofl [ "x"; "y" ] in
  fix
    (fun self depth ->
      if depth = 0 then
        oneof
          [
            map2 (fun l v -> Fo.Node_pred (Const.str l, v)) label var;
            map3 (fun l v w -> Fo.Edge_pred (Const.str l, v, w)) edge var var;
            map2 (fun v w -> Fo.Eq (v, w)) var var;
          ]
      else
        oneof
          [
            map (fun f -> Fo.Neg f) (self (depth - 1));
            map2 (fun f g -> Fo.And (f, g)) (self (depth - 1)) (self (depth - 1));
            map2 (fun f g -> Fo.Or (f, g)) (self (depth - 1)) (self (depth - 1));
            map2 (fun v f -> Fo.Exists (v, f)) var (self (depth - 1));
            map2 (fun v f -> Fo.Forall (v, f)) var (self (depth - 1));
          ])
    3

let prop_naive_equals_bounded =
  QCheck2.Test.make ~name:"naive FO = bounded-variable FO" ~count:200
    QCheck2.Gen.(pair graph_gen fo_gen)
    (fun (g, f) ->
      let inst = make_inst g in
      (* Close every stray free variable and force x free, so both
         evaluators answer the same well-formed unary query. *)
      let f =
        Fo.Vars.fold
          (fun v acc -> if v = "x" then acc else Fo.Exists (v, acc))
          (Fo.free_vars f) f
      in
      let f = Fo.And (Fo.Eq ("x", "x"), f) in
      Fo.eval_naive inst f ~free:"x" = Fo.eval_bounded inst f ~free:"x")

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

let prop_gml_not_involutive =
  QCheck2.Test.make ~name:"GML double negation" ~count:100
    QCheck2.Gen.(pair graph_gen gml_gen)
    (fun (g, f) ->
      let inst = make_inst g in
      Gml.models inst f = Gml.models inst (Gml.Not (Gml.Not f)))

let crpq_gen =
  let open QCheck2.Gen in
  let* gseed = int_bound 1_000_000 in
  let* r1 = int_bound 1_000_000 in
  let* r2 = int_bound 1_000_000 in
  let* shape = int_bound 2 in
  return (gseed, r1, r2, shape)

let prop_crpq_greedy_equals_naive =
  QCheck2.Test.make ~name:"CRPQ greedy join = naive enumeration" ~count:80 crpq_gen
    (fun (gseed, r1, r2, shape) ->
      let inst =
        Snapshot.of_labeled
          (Gqkg_workload.Gen_graph.random_labeled
             (Gqkg_util.Splitmix.create gseed)
             ~nodes:5 ~edges:9 ~node_labels:[ "a"; "b" ] ~edge_labels:[ "x"; "y" ])
      in
      let params =
        { Gqkg_workload.Gen_regex.default with node_labels = [ "a"; "b" ]; edge_labels = [ "x"; "y" ]; max_depth = 2 }
      in
      let regex seed = Gqkg_workload.Gen_regex.generate ~params (Gqkg_util.Splitmix.create seed) in
      let body =
        match shape with
        | 0 -> [ Crpq.atom ~src:"x" ~regex:(regex r1) ~dst:"y" ]
        | 1 ->
            [ Crpq.atom ~src:"x" ~regex:(regex r1) ~dst:"y";
              Crpq.atom ~src:"y" ~regex:(regex r2) ~dst:"z" ]
        | _ ->
            [ Crpq.atom ~src:"x" ~regex:(regex r1) ~dst:"y";
              Crpq.atom ~src:"x" ~regex:(regex r2) ~dst:"y" ]
      in
      let q = Crpq.query ~head:[ "x"; "y" ] ~body () in
      Crpq.answers ~max_length:3 inst q = Crpq.answers_naive ~max_length:3 inst q)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_logic"
    [
      ( "phi-psi",
        [
          Alcotest.test_case "phi on figure2" `Quick test_phi_on_figure2;
          Alcotest.test_case "phi = psi" `Quick test_phi_equals_psi;
          Alcotest.test_case "widths 3 vs 2" `Quick test_width;
          Alcotest.test_case "random graphs" `Quick test_phi_psi_on_random_graphs;
        ] );
      ( "fo",
        [
          Alcotest.test_case "negation" `Quick test_fo_negation;
          Alcotest.test_case "forall" `Quick test_fo_forall;
          Alcotest.test_case "equality" `Quick test_fo_equality;
          Alcotest.test_case "shadowing" `Quick test_fo_variable_shadowing;
          Alcotest.test_case "arity cap" `Quick test_fo_arity_cap;
          Alcotest.test_case "to_string/rank" `Quick test_fo_to_string;
        ] );
      ( "regex-to-fo",
        [
          Alcotest.test_case "fresh variables" `Quick test_fo_fresh_translation;
          Alcotest.test_case "reused variables" `Quick test_fo_reused_translation;
          Alcotest.test_case "equals psi" `Quick test_fo_reused_equals_paper_psi;
          Alcotest.test_case "fragment limits" `Quick test_fo_translation_rejects_star;
        ] );
      ( "gml",
        [
          Alcotest.test_case "atoms/connectives" `Quick test_gml_atoms_and_connectives;
          Alcotest.test_case "diamond counts" `Quick test_gml_diamond_counts;
          Alcotest.test_case "nested" `Quick test_gml_nested;
          Alcotest.test_case "validation" `Quick test_gml_diamond_validation;
          Alcotest.test_case "subformula order" `Quick test_gml_subformulas_order;
        ] );
      ( "crpq",
        [
          Alcotest.test_case "shared bus" `Quick test_crpq_shared_bus;
          Alcotest.test_case "star atom" `Quick test_crpq_path_atom_with_star;
          Alcotest.test_case "greedy = naive" `Quick test_crpq_agrees_with_naive;
          Alcotest.test_case "unbound head" `Quick test_crpq_unbound_head_rejected;
          Alcotest.test_case "parser basic" `Quick test_crpq_parser_basic;
          Alcotest.test_case "parser reverse edge" `Quick test_crpq_parser_reverse_edge;
          Alcotest.test_case "parser bare label" `Quick test_crpq_parser_bare_label_clause;
          Alcotest.test_case "parser errors" `Quick test_crpq_parser_errors;
          Alcotest.test_case "case insensitive" `Quick test_crpq_case_insensitive_keywords;
          Alcotest.test_case "witnesses" `Quick test_crpq_witnesses;
          Alcotest.test_case "shortest witness" `Quick test_rpq_shortest_witness;
          Alcotest.test_case "limit" `Quick test_crpq_limit;
          Alcotest.test_case "explain" `Quick test_crpq_explain;
        ] );
      ( "fo-tc",
        [
          Alcotest.test_case "reachability" `Quick test_fo_tc_reachability;
          Alcotest.test_case "tc = star" `Quick test_fo_tc_matches_star_regex;
          Alcotest.test_case "reflexive" `Quick test_fo_tc_reflexive;
        ] );
      ( "c2",
        [
          Alcotest.test_case "counting quantifier" `Quick test_c2_basic;
          Alcotest.test_case "width discipline" `Quick test_c2_width_discipline;
          Alcotest.test_case "gml embedding" `Quick test_c2_gml_embedding;
          Alcotest.test_case "wl invariance" `Quick test_c2_wl_invariance;
        ] );
      ( "cq",
        [
          Alcotest.test_case "shared bus" `Quick test_cq_shared_bus;
          Alcotest.test_case "binary head" `Quick test_cq_binary_head;
          Alcotest.test_case "unbound head" `Quick test_cq_unbound_head_rejected;
          Alcotest.test_case "self loop" `Quick test_cq_self_loop_pattern;
          Alcotest.test_case "agrees with FO" `Quick test_cq_agrees_with_fo;
        ] );
      ("properties", q [ prop_naive_equals_bounded; prop_gml_not_involutive; prop_crpq_greedy_equals_naive ]);
    ]
