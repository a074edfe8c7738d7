(* Tests for gqkg_automata: regex AST utilities, concrete-syntax parser
   and printer, and the guarded NFA construction. *)

open Gqkg_graph
open Gqkg_automata

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let parse = Regex_parser.parse

(* ---------- Parser ---------- *)

let test_parse_label_step () =
  checkb "single label" true (Regex.equal (parse "rides") (Regex.label "rides"))

let test_parse_node_test () =
  checkb "?person" true (Regex.equal (parse "?person") (Regex.node_label "person"))

let test_parse_backward () =
  checkb "rides^-" true
    (Regex.equal (parse "rides^-") (Regex.Bwd (Regex.Atom (Atom.label "rides"))))

let test_parse_query2 () =
  (* ?person/contact/?infected — query (2) of the paper. *)
  let r = parse "?person/contact/?infected" in
  let expected =
    Regex.Seq
      (Regex.node_label "person", Regex.Seq (Regex.label "contact", Regex.node_label "infected"))
  in
  checkb "query 2" true (Regex.equal r expected)

let test_parse_query3_with_date () =
  (* ?person/(contact & date=3/4/21)/?infected — query (3). *)
  let r = parse "?person/(contact & date=3/4/21)/?infected" in
  let date_test =
    Regex.And
      ( Regex.Atom (Atom.label "contact"),
        Regex.Atom (Atom.Prop (Const.str "date", Const.date ~year:2021 ~month:3 ~day:4)) )
  in
  let expected =
    Regex.Seq (Regex.node_label "person", Regex.Seq (Regex.Fwd date_test, Regex.node_label "infected"))
  in
  checkb "query 3" true (Regex.equal r expected)

let test_parse_feature_test () =
  (* (f_1 = person) — the vector-labeled rewriting. *)
  let r = parse "?(f1=person)" in
  checkb "feature" true
    (Regex.equal r (Regex.Node_test (Regex.Atom (Atom.Feature (1, Const.str "person")))))

let test_parse_r1 () =
  (* The infection-propagation expression r1 parses and has the right
     shape: a star in the middle, backward step, alternation inside. *)
  let r = parse "?infected/rides/?bus/rides^-/(?person/(lives + contact))*/?person" in
  let rec has_star = function
    | Regex.Star _ -> true
    | Regex.Seq (a, b) | Regex.Alt (a, b) -> has_star a || has_star b
    | Regex.Node_test _ | Regex.Fwd _ | Regex.Bwd _ -> false
  in
  let rec has_bwd = function
    | Regex.Bwd _ -> true
    | Regex.Seq (a, b) | Regex.Alt (a, b) -> has_bwd a || has_bwd b
    | Regex.Star a -> has_bwd a
    | Regex.Node_test _ | Regex.Fwd _ -> false
  in
  checkb "has star" true (has_star r);
  checkb "has backward" true (has_bwd r)

let test_parse_negated_test () =
  (* (¬ℓ1 ∧ ¬ℓ2)⁻ from the Section 4 example. *)
  let r = parse "(!owns & !lives)^-" in
  checkb "negation backwards" true
    (Regex.equal r
       (Regex.Bwd
          (Regex.And (Regex.Not (Regex.Atom (Atom.label "owns")), Regex.Not (Regex.Atom (Atom.label "lives"))))))

let test_parse_alternation_vs_seq_precedence () =
  (* a/b + c/d parses as (a/b) + (c/d). *)
  let r = parse "a/b + c/d" in
  match r with
  | Regex.Alt (Regex.Seq _, Regex.Seq _) -> ()
  | _ -> Alcotest.fail "wrong precedence"

let test_parse_star_binding () =
  (* a* is Star(Fwd a); (a/b)* stars the group. *)
  (match parse "a*" with
  | Regex.Star (Regex.Fwd _) -> ()
  | _ -> Alcotest.fail "a* shape");
  match parse "(a/b)*" with
  | Regex.Star (Regex.Seq _) -> ()
  | _ -> Alcotest.fail "(a/b)* shape"

let test_parse_quoted_value () =
  let r = parse "name='Ada Lovelace'" in
  checkb "quoted" true
    (Regex.equal r (Regex.Fwd (Regex.Atom (Atom.Prop (Const.str "name", Const.str "Ada Lovelace")))))

let test_parse_errors () =
  List.iter
    (fun input ->
      match parse input with
      | exception Regex_parser.Error _ -> ()
      | _ -> Alcotest.fail ("should reject: " ^ input))
    [ ""; "?"; "a/"; "(a"; "a)"; "a b"; "a ^"; "p=" ]

let test_parse_opt_none () =
  checkb "parse_opt failure" true (Regex_parser.parse_opt "(((" = None);
  checkb "parse_opt success" true (Regex_parser.parse_opt "a/b" <> None)

(* ---------- Printer roundtrip ---------- *)

let roundtrips input =
  let r = parse input in
  let printed = Regex.to_string ~top:true r in
  let r' = parse printed in
  Regex.equal r r'

let test_print_parse_roundtrip () =
  List.iter
    (fun input -> checkb ("roundtrip: " ^ input) true (roundtrips input))
    [
      "?person/contact/?infected";
      "?person/(contact & date=3/4/21)/?infected";
      "?infected/rides/?bus/rides^-/(?person/(lives + contact))*/?person";
      "(a + b)/c*";
      "(!a & !b)^-";
      "?(f1=person)/(f1=contact & f5=3/4/21)/?(f1=infected)";
    ]

(* ---------- Test evaluation ---------- *)

let test_eval_test_connectives () =
  let sat = function Atom.Label (Const.Str "a") -> true | _ -> false in
  let a = Regex.Atom (Atom.label "a") and b = Regex.Atom (Atom.label "b") in
  checkb "atom true" true (Regex.eval_test sat a);
  checkb "atom false" false (Regex.eval_test sat b);
  checkb "not" true (Regex.eval_test sat (Regex.Not b));
  checkb "or" true (Regex.eval_test sat (Regex.Or (b, a)));
  checkb "and false" false (Regex.eval_test sat (Regex.And (a, b)));
  checkb "de morgan" true
    (Regex.eval_test sat (Regex.Not (Regex.And (b, b)))
    = Regex.eval_test sat (Regex.Or (Regex.Not b, Regex.Not b)))

let test_any_test_tautology () =
  List.iter
    (fun sat -> checkb "any" true (Regex.eval_test sat Regex.any_test))
    [ (fun _ -> true); (fun _ -> false) ]

(* ---------- Structural measures ---------- *)

let test_min_max_path_length () =
  checki "node test min" 0 (Regex.min_path_length (parse "?a"));
  checki "edge min" 1 (Regex.min_path_length (parse "a"));
  checki "seq min" 2 (Regex.min_path_length (parse "a/b"));
  checki "alt min" 1 (Regex.min_path_length (parse "a + b/c"));
  checki "star min" 0 (Regex.min_path_length (parse "a*"));
  checkb "star unbounded" true (Regex.max_path_length (parse "a*") = None);
  checkb "bounded" true (Regex.max_path_length (parse "a/b + c") = Some 2);
  checkb "unbounded flag" true (Regex.unbounded (parse "a/b*"));
  checkb "bounded flag" false (Regex.unbounded (parse "a/b"))

let test_smart_constructors () =
  checkb "opt matches empty" true (Regex.min_path_length (Regex.opt (Regex.label "a")) = 0);
  checkb "plus min 1" true (Regex.min_path_length (Regex.plus (Regex.label "a")) = 1);
  checkb "seq_of_list" true
    (Regex.equal (Regex.seq_of_list [ Regex.label "a"; Regex.label "b" ])
       (Regex.Seq (Regex.label "a", Regex.label "b")));
  Alcotest.check_raises "empty seq" (Invalid_argument "Regex.seq_of_list: empty") (fun () ->
      ignore (Regex.seq_of_list []))

(* ---------- NFA ---------- *)

let test_nfa_size_linear () =
  let r = parse "?infected/rides/?bus/rides^-/(?person/(lives + contact))*/?person" in
  let nfa = Nfa.of_regex r in
  checkb "linear size" true (Nfa.num_states nfa <= 4 * Regex.size r)

let test_nfa_closure_epsilon () =
  (* For (a + b), the start state closes over both branch entries. *)
  let nfa = Nfa.of_regex (parse "a + b") in
  let closed = Nfa.closure nfa ~node_sat:(fun _ -> false) [| Nfa.start nfa |] in
  checkb "multiple states" true (Array.length closed >= 3);
  (* Closure is sorted and duplicate-free. *)
  let sorted = Array.copy closed in
  Array.sort compare sorted;
  checkb "sorted" true (closed = sorted)

let test_nfa_node_check_guard () =
  (* ?person: the node check only fires when the node satisfies it. *)
  let nfa = Nfa.of_regex (parse "?person") in
  let closed_yes =
    Nfa.closure nfa ~node_sat:(fun a -> Atom.equal a (Atom.label "person")) [| Nfa.start nfa |]
  in
  let closed_no = Nfa.closure nfa ~node_sat:(fun _ -> false) [| Nfa.start nfa |] in
  checkb "accepting when person" true (Nfa.is_accepting nfa closed_yes);
  checkb "not accepting otherwise" false (Nfa.is_accepting nfa closed_no)

let test_nfa_star_accepts_empty () =
  let nfa = Nfa.of_regex (parse "a*") in
  let closed = Nfa.closure nfa ~node_sat:(fun _ -> false) [| Nfa.start nfa |] in
  checkb "epsilon accepted" true (Nfa.is_accepting nfa closed)

let test_nfa_edge_moves_directions () =
  let nfa = Nfa.of_regex (parse "a/b^-") in
  let closed = Nfa.closure nfa ~node_sat:(fun _ -> false) [| Nfa.start nfa |] in
  let fwd, bwd = Nfa.edge_moves nfa closed in
  checki "one forward move" 1 (List.length fwd);
  checki "no backward yet" 0 (List.length bwd)

let test_nfa_start_checks () =
  let tests r =
    let nfa = Nfa.of_regex (parse r) in
    Array.map (fun i -> (Nfa.check_tests nfa).(i)) (Nfa.start_checks nfa) |> Array.to_list
  in
  let person = Regex.Atom (Atom.label "person") and bus = Regex.Atom (Atom.label "bus") in
  (* Only checks reachable without consuming an edge count. *)
  checkb "first test only" true (tests "?person/rides/?bus" = [ person ]);
  checkb "none before an edge" true (tests "rides/?bus" = []);
  checkb "both branches" true (List.length (tests "(?person + ?bus)/rides") = 2);
  checkb "chained checks" true (tests "?person/?bus/rides" = [ person; bus ])

let test_nfa_to_string_smoke () =
  let nfa = Nfa.of_regex (parse "a/b") in
  checkb "dump nonempty" true (String.length (Nfa.to_string nfa) > 20)


(* ---------- Simplification ---------- *)

let test_simplify_identities () =
  let a = Regex.label "a" in
  checkb "dedup alt" true (Regex.equal (Regex.simplify (Regex.Alt (a, a))) a);
  checkb "star of star" true
    (Regex.equal (Regex.simplify (Regex.Star (Regex.Star a))) (Regex.Star a));
  checkb "star of opt" true
    (Regex.equal (Regex.simplify (Regex.Star (Regex.opt a))) (Regex.Star a));
  checkb "unit left" true
    (Regex.equal (Regex.simplify (Regex.Seq (Regex.Node_test Regex.any_test, a))) a);
  checkb "unit right" true
    (Regex.equal (Regex.simplify (Regex.Seq (a, Regex.Node_test Regex.any_test))) a);
  checkb "star slash star" true
    (Regex.equal (Regex.simplify (Regex.Seq (Regex.Star a, Regex.Star a))) (Regex.Star a));
  (* Star of a non-trivial node test must NOT collapse: Star(?person)
     includes trivial paths at every node, ?person does not. *)
  let p = parse "?person" in
  checkb "star of node test stays" true (Regex.equal (Regex.simplify (Regex.Star p)) (Regex.Star p))

let test_simplify_never_grows () =
  let rng = Gqkg_util.Splitmix.create 51 in
  for _ = 1 to 200 do
    let r = Gqkg_oracle.Gen_regex.generate rng in
    checkb "size monotone" true (Regex.size (Regex.simplify r) <= Regex.size r)
  done

let prop_simplify_preserves_semantics =
  QCheck2.Test.make ~name:"simplify preserves [[r]]" ~count:150
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (gseed, rseed) ->
      let inst =
        Gqkg_graph.Snapshot.of_labeled
          (Gqkg_workload.Gen_graph.random_labeled
             (Gqkg_util.Splitmix.create gseed)
             ~nodes:5 ~edges:9 ~node_labels:[ "a"; "b" ] ~edge_labels:[ "x"; "y" ])
      in
      let params =
        { Gqkg_oracle.Gen_regex.default with node_labels = [ "a"; "b" ]; edge_labels = [ "x"; "y" ] }
      in
      let r = Gqkg_oracle.Gen_regex.generate ~params (Gqkg_util.Splitmix.create rseed) in
      (* Wrap in optionality and duplication to feed the rewriter real
         work, then check path sets agree up to length 3. *)
      let messy = Regex.Alt (Regex.Star (Regex.Star r), Regex.Alt (r, r)) in
      let clean = Regex.simplify messy in
      let paths re = Gqkg_core.Naive.paths inst re ~max_length:3 in
      List.equal Gqkg_core.Path.equal (paths messy) (paths clean))

(* ---------- QCheck: parser/printer and generator sanity ---------- *)

let regex_gen =
  QCheck2.Gen.(
    let* seed = int_bound 100_000 in
    return (Gqkg_oracle.Gen_regex.generate (Gqkg_util.Splitmix.create seed)))

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"print/parse roundtrip on random regexes" ~count:300 regex_gen (fun r ->
      let printed = Regex.to_string ~top:true r in
      match Regex_parser.parse printed with
      | r' -> Regex.equal r r'
      | exception Regex_parser.Error _ -> false)

let prop_min_length_le_max =
  QCheck2.Test.make ~name:"min length <= max length" ~count:300 regex_gen (fun r ->
      match Regex.max_path_length r with
      | Some max -> Regex.min_path_length r <= max
      | None -> true)

let prop_nfa_linear =
  QCheck2.Test.make ~name:"NFA size linear in regex size" ~count:300 regex_gen (fun r ->
      Nfa.num_states (Nfa.of_regex r) <= 4 * Regex.size r)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_automata"
    [
      ( "parser",
        [
          Alcotest.test_case "label step" `Quick test_parse_label_step;
          Alcotest.test_case "node test" `Quick test_parse_node_test;
          Alcotest.test_case "backward" `Quick test_parse_backward;
          Alcotest.test_case "query (2)" `Quick test_parse_query2;
          Alcotest.test_case "query (3) with date" `Quick test_parse_query3_with_date;
          Alcotest.test_case "feature test" `Quick test_parse_feature_test;
          Alcotest.test_case "expression r1" `Quick test_parse_r1;
          Alcotest.test_case "negated backwards" `Quick test_parse_negated_test;
          Alcotest.test_case "precedence" `Quick test_parse_alternation_vs_seq_precedence;
          Alcotest.test_case "star binding" `Quick test_parse_star_binding;
          Alcotest.test_case "quoted value" `Quick test_parse_quoted_value;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "parse_opt" `Quick test_parse_opt_none;
        ] );
      ("printer", [ Alcotest.test_case "roundtrip" `Quick test_print_parse_roundtrip ]);
      ( "tests",
        [
          Alcotest.test_case "connectives" `Quick test_eval_test_connectives;
          Alcotest.test_case "any_test" `Quick test_any_test_tautology;
        ] );
      ( "measures",
        [
          Alcotest.test_case "min/max path length" `Quick test_min_max_path_length;
          Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
        ] );
      ( "nfa",
        [
          Alcotest.test_case "size linear" `Quick test_nfa_size_linear;
          Alcotest.test_case "epsilon closure" `Quick test_nfa_closure_epsilon;
          Alcotest.test_case "node check guard" `Quick test_nfa_node_check_guard;
          Alcotest.test_case "star accepts empty" `Quick test_nfa_star_accepts_empty;
          Alcotest.test_case "edge move directions" `Quick test_nfa_edge_moves_directions;
          Alcotest.test_case "start checks" `Quick test_nfa_start_checks;
          Alcotest.test_case "dump" `Quick test_nfa_to_string_smoke;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "identities" `Quick test_simplify_identities;
          Alcotest.test_case "never grows" `Quick test_simplify_never_grows;
        ] );
      ( "properties",
        q
          [
            prop_print_parse_roundtrip;
            prop_min_length_le_max;
            prop_nfa_linear;
            prop_simplify_preserves_semantics;
          ] );
    ]
