(* Tests for the static query analyzer (lib/analysis) and its wiring
   into the core engine:

   - boolean test simplification (contradictions, tautologies);
   - NFA trimming on hand-built automata;
   - schema extraction from the four data models;
   - lint diagnostics (vocabulary misses, suggestions, codes);
   - the two acceptance properties of the analyzer: statically-empty
     queries are answered without interning a single product state, and
     planned evaluation answers exactly as the naive reference
     evaluator does. *)

open Gqkg_graph
open Gqkg_automata
open Gqkg_core
module Analyze = Gqkg_analysis.Analyze
module Schema = Gqkg_analysis.Schema
module Diagnostic = Gqkg_analysis.Diagnostic

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let parse = Regex_parser.parse

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let contact () =
  Gqkg_workload.Contact_network.scaled (Gqkg_util.Splitmix.create 11) ~scale:1

let contact_instance () = Snapshot.of_property (contact ())

(* ---------- Test simplification ---------- *)

let test_simplify_test () =
  let t s = match Regex_parser.parse ("?" ^ s) with
    | Regex.Node_test t -> t
    | _ -> Alcotest.fail "expected a node test"
  in
  let is_f = function `F -> true | _ -> false in
  let is_t = function `T -> true | _ -> false in
  let is_open = function `Test _ -> true | _ -> false in
  checkb "a & !a" true (is_f (Analyze.simplify_test (t "(a & !a)")));
  checkb "de morgan contradiction" true
    (is_f (Analyze.simplify_test (t "((a | b) & (!a & !b))")));
  checkb "a | !a" true (is_t (Analyze.simplify_test (t "(a | !a)")));
  checkb "double negation tautology" true (is_t (Analyze.simplify_test (t "(!(a & !a))")));
  checkb "plain atom stays open" true (is_open (Analyze.simplify_test (t "a")));
  checkb "a & b stays open" true (is_open (Analyze.simplify_test (t "(a & b)")));
  (* Distinct atoms: same label as node test vs property are different. *)
  checkb "mixed atoms stay open" true (is_open (Analyze.simplify_test (t "(a & p=1)")))

(* ---------- NFA trimming ---------- *)

let test_trim_removes_dead_states () =
  (* 0 --x--> 1 is the live spine; 2 is reachable but a dead end; 3 is
     co-reachable but unreachable. *)
  let x = Regex.Atom (Atom.Label (Const.str "x")) in
  let nfa =
    Nfa.make ~num_states:4 ~start:0 ~accept:1
      ~transitions:[ (0, Nfa.Forward x, 1); (0, Nfa.Eps, 2); (3, Nfa.Eps, 1) ]
  in
  match Analyze.trim nfa ~alive:(fun _ -> true) with
  | None -> Alcotest.fail "live spine should survive"
  | Some trimmed ->
      checki "states" 2 (Nfa.num_states trimmed);
      checki "moves from start" 1 (List.length (Nfa.transitions trimmed (Nfa.start trimmed)))

let test_trim_detects_empty () =
  let nfa = Nfa.make ~num_states:2 ~start:0 ~accept:1 ~transitions:[ (0, Nfa.Eps, 0) ] in
  checkb "accept unreachable" true (Analyze.trim nfa ~alive:(fun _ -> true) = None)

let test_trim_respects_alive () =
  let x = Regex.Atom (Atom.Label (Const.str "x")) in
  let nfa = Nfa.make ~num_states:2 ~start:0 ~accept:1 ~transitions:[ (0, Nfa.Forward x, 1) ] in
  checkb "guard killed" true
    (Analyze.trim nfa ~alive:(function Nfa.Forward _ -> false | _ -> true) = None)

(* ---------- Schema extraction ---------- *)

let test_schema_of_models () =
  let pg = contact () in
  let s = Schema.of_property pg in
  let labels = Option.get s.Schema.node_labels in
  checkb "person label known" true
    (Schema.find_label labels (Const.str "person") <> None);
  checkb "edge labels known" true
    (Schema.find_label (Option.get s.Schema.edge_labels) (Const.str "rides") <> None);
  checkb "date prop known" true
    (List.exists (Const.equal (Const.str "date")) (Option.get s.Schema.edge_props));
  let sl = Schema.of_labeled (Property_graph.to_labeled pg) in
  checkb "labeled: same label vocab" true
    (List.map fst (Option.get sl.Schema.node_labels) = List.map fst labels);
  checkb "labeled: no props ever" true (sl.Schema.node_props = Some []);
  let sm = Schema.of_multigraph (Property_graph.base pg) in
  checkb "multigraph: no labels ever" true (sm.Schema.node_labels = Some []);
  checki "multigraph: nodes" (Property_graph.num_nodes pg) sm.Schema.num_nodes;
  let sv = Schema.of_vector (fst (Vector_graph.of_property pg)) in
  checkb "vector: positive dimension" true (Option.get sv.Schema.feature_dim > 0);
  checkb "vector: label vocab via feature 1" true
    (Schema.find_label (Option.get sv.Schema.node_labels) (Const.str "person") <> None)

(* ---------- Lint diagnostics ---------- *)

let code_present code report =
  List.exists (fun d -> d.Diagnostic.code = code) report.Analyze.diagnostics

let test_lint_vocabulary_typo () =
  let schema = Schema.of_property (contact ()) in
  let report = Analyze.run ~schema (parse "?person/contatc/?infected") in
  checkb "empty" true (Analyze.is_empty report);
  checkb "GQ000" true (code_present "GQ000" report);
  checkb "GQ001" true (code_present "GQ001" report);
  checkb "did you mean contact" true
    (List.exists
       (fun d ->
         d.Diagnostic.code = "GQ001"
         && contains ~sub:"did you mean `contact`" d.Diagnostic.message)
       report.Analyze.diagnostics)

let test_lint_codes () =
  let schema = Schema.of_property (contact ()) in
  let empty_with code q =
    let report = Analyze.run ~schema (parse q) in
    checkb (q ^ " empty") true (Analyze.is_empty report);
    checkb (q ^ " has " ^ code) true (code_present code report)
  in
  empty_with "GQ002" "?person/(contact & shade=3)/?infected";
  empty_with "GQ003" "?person/(contact & f7=1)/?infected";
  empty_with "GQ010" "(date=1/1/21 & !date=1/1/21)";
  empty_with "GQ013" "(rides & !rides)";
  (* Pruned branch + survivor: nonempty overall, with the info code. *)
  let report = Analyze.run ~schema (parse "(ghost + rides)") in
  checkb "prune survivor nonempty" true (not (Analyze.is_empty report));
  checkb "GQ012 info" true (code_present "GQ012" report)

let test_lint_without_schema () =
  (* No vocabulary: only graph-independent reasoning applies. *)
  let report = Analyze.run (parse "ghost") in
  checkb "unknown vocab stays nonempty" true (not (Analyze.is_empty report));
  let report = Analyze.run (parse "(ghost & !ghost)") in
  checkb "contradiction still caught" true (Analyze.is_empty report)

(* ---------- Statically-empty queries build no product state ---------- *)

let test_empty_query_builds_no_product_state () =
  let inst = contact_instance () in
  let queries =
    [ "ghost"; "(rides & !rides)"; "?person/ghost/?infected"; "(ghost)*/ghost" ]
  in
  List.iter
    (fun q ->
      let r = parse q in
      let before = Product.states_interned_total () in
      checkb (q ^ " pairs") true (Rpq.eval_pairs inst ~max_length:4 r = []);
      checkb (q ^ " count") true (Count.count inst r ~length:2 = 0.0);
      checkb (q ^ " enumerate") true (Enumerate.paths inst r ~length:2 = []);
      let gen = Uniform_gen.create inst r ~length:2 in
      checkb (q ^ " sample") true
        (Uniform_gen.sample gen (Gqkg_util.Splitmix.create 5) = None);
      checkb (q ^ " sources") true (Rpq.source_nodes inst ~max_length:4 r = []);
      checki (q ^ ": zero product states interned") before (Product.states_interned_total ()))
    queries;
  (* Sanity: a live query does intern states (the counter moves). *)
  let before = Product.states_interned_total () in
  checkb "live query nonempty" true (Rpq.eval_pairs inst ~max_length:1 (parse "rides") <> []);
  checkb "live query interns" true (Product.states_interned_total () > before)

(* ---------- Direction from measured live seeds ---------- *)

let test_backward_direction_chosen_and_correct () =
  let inst = contact_instance () in
  (* Star over the whole vocabulary then a selective last step: far
     fewer nodes can end a match (owns targets) than start one (every
     node with an out-edge), so pairs must run backward. *)
  let r = parse "(owns + lives + rides + contact)*/owns" in
  let report = Analyze.plan inst r in
  checkb "static estimate agrees" true
    (report.Analyze.bwd_cost *. 2.0 < report.Analyze.fwd_cost);
  (match Rpq.seed_counts inst r with
  | Some c ->
      checkb "backward chosen" true (c.Rpq.direction = Rpq.Backward);
      checkb "fewer backward seeds" true
        (match c.Rpq.backward_live with Some b -> b < c.Rpq.forward_live | None -> false)
  | None -> Alcotest.fail "expected a live query");
  let pairs = List.sort compare (Rpq.eval_pairs inst ~max_length:3 r) in
  checkb "reversed evaluation = naive pairs" true (pairs = Naive.pairs inst r ~max_length:3);
  checkb "nonempty" true (pairs <> [])

(* The served cold-read shape: a selective Prop-tested start that the
   static estimate cannot see (it assumes the age check passes and
   prices the dated contact step at every edge).  The live seeds point
   forward, and the forward run touches fewer product states than the
   graph has nodes. *)
let test_cold_read_runs_forward () =
  let pg = contact () in
  let inst = Snapshot.of_property pg in
  (* A dated contact from an infected person to a person: the query
     then has at least one seed with a move. *)
  let name = Const.str in
  let label v = Property_graph.node_label pg v in
  let e =
    let rec find e =
      if e >= Property_graph.num_edges pg then Alcotest.fail "no infected -> person contact"
      else
        let s, d = Property_graph.endpoints pg e in
        if
          Const.equal (Property_graph.edge_label pg e) (name "contact")
          && Const.equal (label s) (name "infected")
          && Const.equal (label d) (name "person")
        then e
        else find (e + 1)
    in
    find 0
  in
  let _, d = Property_graph.endpoints pg e in
  let value p = Const.to_string (Option.get p) in
  let q =
    Printf.sprintf "?(person & age=%s)/(contact & date=%s)^-/?infected/rides/?bus/rides^-/?person"
      (value (Property_graph.node_property pg d (name "age")))
      (value (Property_graph.edge_property pg e (name "date")))
  in
  let r = parse q in
  (match Rpq.seed_counts inst r with
  | Some c -> checkb "forward chosen" true (c.Rpq.direction = Rpq.Forward)
  | None -> Alcotest.fail "expected a live query");
  (* A fresh snapshot: the products [seed_counts] warmed on [inst] are
     cached on it and would hide the interning. *)
  let inst = Snapshot.of_property pg in
  let before = Product.states_interned_total () in
  let pairs = Rpq.eval_pairs inst ~max_length:5 r in
  let interned = Product.states_interned_total () - before in
  checkb
    (Printf.sprintf "%d states interned < %d nodes" interned inst.Snapshot.num_nodes)
    true
    (interned < inst.Snapshot.num_nodes);
  checkb "answers = naive" true (pairs = Gqkg_core.Naive.pairs inst r ~max_length:5)

(* ---------- Regex reversal ---------- *)

open Gqkg_oracle.Small

let prop_reverse_involution =
  QCheck2.Test.make ~name:"reverse (reverse r) = r" ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun rseed ->
      let r = make_regex rseed in
      Regex.equal (Regex.reverse (Regex.reverse r)) r)

let prop_reverse_semantics =
  QCheck2.Test.make ~name:"pairs (reverse r) = swapped pairs r" ~count:100 regex_and_graph_gen
    (fun (g, rseed) ->
      let inst = make_instance g in
      let r = make_regex rseed in
      let fwd = Rpq.eval_pairs inst ~max_length:3 r in
      let bwd = Rpq.eval_pairs inst ~max_length:3 (Regex.reverse r) in
      List.sort compare (List.map (fun (a, b) -> (b, a)) bwd) = List.sort compare fwd)

(* ---------- Planned answers against the naive oracle ---------- *)

let prop_planned_equals_naive =
  QCheck2.Test.make ~name:"planned answers = naive oracle" ~count:150 regex_and_graph_gen
    (fun (g, rseed) ->
      let inst = make_instance g in
      let r = make_regex rseed in
      let pairs = List.sort compare (Rpq.eval_pairs inst ~max_length:3 r) in
      let counts = List.map (fun k -> Count.count inst r ~length:k) [ 0; 1; 2; 3 ] in
      let paths = Enumerate.paths inst r ~length:2 |> List.sort Path.compare in
      let sources = List.sort compare (Rpq.source_nodes inst ~max_length:3 r) in
      let naive_pairs = Naive.pairs inst r ~max_length:3 in
      pairs = naive_pairs
      && counts = List.map (fun k -> float_of_int (Naive.count inst r ~length:k)) [ 0; 1; 2; 3 ]
      && List.equal Path.equal paths
           (List.filter (fun p -> Path.length p = 2) (Naive.paths inst r ~max_length:2))
      && sources = List.sort_uniq compare (List.map fst naive_pairs))

(* ---------- Instance oracle: postings against a scan ---------- *)

(* Property graphs whose node property p (1/2) and edge property w (1/2)
   each miss on some objects, and whose every edge carries all=1. *)
let make_property_instance (seed, nodes, edges) =
  let module S = Gqkg_util.Splitmix in
  let module B = Property_graph.Builder in
  let rng = S.create seed in
  let b = B.create () in
  let value () = Const.int (1 + S.int rng 2) in
  for i = 0 to nodes - 1 do
    let label = Const.str (S.choose rng [| "a"; "b" |]) in
    let v = B.add_node b (Const.str (Printf.sprintf "n%d" i)) ~label in
    if S.bernoulli rng 0.7 then B.set_node_property b v ~prop:(Const.str "p") ~value:(value ())
  done;
  for _ = 1 to edges do
    let e =
      B.fresh_edge b ~src:(S.int rng nodes) ~dst:(S.int rng nodes)
        ~label:(Const.str (S.choose rng [| "x"; "y" |]))
    in
    B.set_edge_property b e ~prop:(Const.str "all") ~value:(Const.int 1);
    if S.bernoulli rng 0.7 then B.set_edge_property b e ~prop:(Const.str "w") ~value:(value ())
  done;
  Snapshot.of_property (B.freeze b)

let make_property_regex rseed =
  let params =
    {
      Gqkg_oracle.Gen_regex.default with
      node_labels = [ "a"; "b"; "c" ];
      edge_labels = [ "x"; "y"; "z" ];
      properties = [ ("p", [ "1"; "2"; "3" ]); ("w", [ "1"; "2"; "3" ]); ("all", [ "1" ]) ];
      max_depth = 3;
    }
  in
  Gqkg_oracle.Gen_regex.generate ~params (Gqkg_util.Splitmix.create rseed)

(* The oracle the analyzer had before postings: count by scanning. *)
let scan_count (inst : Snapshot.t) ~edge a =
  let n = if edge then inst.num_edges else inst.num_nodes in
  let sat i = if edge then Snapshot.edge_atom inst i a else Snapshot.node_atom inst i a in
  List.length (List.filter sat (List.init n Fun.id))

let prop_plan_matches_scan_oracle =
  QCheck2.Test.make ~name:"Analyze.plan = plan over a scan oracle" ~count:200
    QCheck2.Gen.(
      let* seed = int_bound 1_000_000 in
      let* nodes = int_range 1 12 in
      let* edges = int_range 0 20 in
      let* rseed = int_bound 1_000_000 in
      return ((seed, nodes, edges), rseed))
    (fun (g, rseed) ->
      let inst = make_property_instance g in
      let r = make_property_regex rseed in
      Analyze.plan inst r = Analyze.plan_with ~count:(scan_count inst) inst r)

let test_plan_atom_verdicts () =
  let inst = make_property_instance (3, 8, 12) in
  List.iter
    (fun (plan : Snapshot.t -> Regex.t -> Analyze.report) ->
      let everywhere = plan inst (parse "all=1") in
      checkb "an atom every edge carries is the any-test" true
        (Regex.equal everywhere.Analyze.regex (Regex.Fwd Regex.any_test));
      let absent = plan inst (parse "x/(y & w=3)") in
      checkb "absent value: GQ002" true (code_present "GQ002" absent);
      checkb "absent value: statically empty" true (Analyze.is_empty absent))
    [ Analyze.plan; Analyze.plan_with ~count:(scan_count inst) ]

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_analysis"
    [
      ( "simplify",
        [ Alcotest.test_case "boolean tests" `Quick test_simplify_test ] );
      ( "trim",
        [
          Alcotest.test_case "dead states" `Quick test_trim_removes_dead_states;
          Alcotest.test_case "empty automaton" `Quick test_trim_detects_empty;
          Alcotest.test_case "alive predicate" `Quick test_trim_respects_alive;
        ] );
      ("schema", [ Alcotest.test_case "four models" `Quick test_schema_of_models ]);
      ( "lint",
        [
          Alcotest.test_case "vocabulary typo" `Quick test_lint_vocabulary_typo;
          Alcotest.test_case "diagnostic codes" `Quick test_lint_codes;
          Alcotest.test_case "no schema" `Quick test_lint_without_schema;
        ] );
      ( "engine",
        [
          Alcotest.test_case "empty query, no product state" `Quick
            test_empty_query_builds_no_product_state;
          Alcotest.test_case "backward seeding" `Quick test_backward_direction_chosen_and_correct;
          Alcotest.test_case "cold read runs forward" `Quick test_cold_read_runs_forward;
          Alcotest.test_case "atom verdicts from postings" `Quick test_plan_atom_verdicts;
        ] );
      ( "properties",
        q
          [
            prop_reverse_involution;
            prop_reverse_semantics;
            prop_planned_equals_naive;
            prop_plan_matches_scan_oracle;
          ] );
    ]
