(* Tests for gqkg_core — the paper's primary contribution.  The naive
   denotational evaluator (Naive) is the oracle: the product engine, the
   exact counter, the enumerator, the uniform sampler and the FPRAS must
   all agree with it on small instances, including the worked examples of
   the paper. *)

open Gqkg_graph
open Gqkg_automata
open Gqkg_core

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let parse = Regex_parser.parse

let fig2 () = Snapshot.of_property (Figure2.property ())

let node inst name =
  let rec find v =
    if v >= inst.Snapshot.num_nodes then Alcotest.fail ("no node " ^ name)
    else if inst.Snapshot.node_name v = name then v
    else find (v + 1)
  in
  find 0

(* ---------- Path ---------- *)

let test_path_basics () =
  let p = Path.make ~nodes:[| 1; 2; 3 |] ~edges:[| 10; 11 |] in
  checki "length" 2 (Path.length p);
  checki "start" 1 (Path.start_node p);
  checki "end" 3 (Path.end_node p);
  let q = Path.make ~nodes:[| 3; 4 |] ~edges:[| 12 |] in
  let pq = Path.cat p q in
  checki "cat length" 3 (Path.length pq);
  checki "cat end" 4 (Path.end_node pq);
  Alcotest.check_raises "cat mismatch" (Invalid_argument "Path.cat: endpoints do not meet") (fun () ->
      ignore (Path.cat q p))

let test_path_trivial_and_snoc () =
  let p = Path.trivial 7 in
  checki "trivial length" 0 (Path.length p);
  let p' = Path.snoc p ~edge:3 ~dst:9 in
  checki "snoc length" 1 (Path.length p');
  checki "snoc end" 9 (Path.end_node p')

let test_path_make_validation () =
  Alcotest.check_raises "bad arity" (Invalid_argument "Path.make: need one more node than edges")
    (fun () -> ignore (Path.make ~nodes:[| 1 |] ~edges:[| 2 |]))

let test_path_well_formed () =
  let inst = fig2 () in
  let n1 = node inst "n1" and n2 = node inst "n2" in
  (* e1 = contact n1 -> n2: its edge index is discoverable via endpoints. *)
  let e1 =
    let rec find e =
      if e >= inst.Snapshot.num_edges then Alcotest.fail "no contact edge"
      else if (Snapshot.endpoints inst) e = (n1, n2) then e
      else find (e + 1)
    in
    find 0
  in
  checkb "forward ok" true (Path.well_formed inst (Path.make ~nodes:[| n1; n2 |] ~edges:[| e1 |]));
  checkb "backward ok" true (Path.well_formed inst (Path.make ~nodes:[| n2; n1 |] ~edges:[| e1 |]));
  checkb "disconnected not ok" false
    (Path.well_formed inst (Path.make ~nodes:[| n1; n1 |] ~edges:[| e1 |]))

(* ---------- Worked examples of the paper ---------- *)

let test_query2_on_figure2 () =
  let inst = fig2 () in
  let pairs = Rpq.eval_pairs inst (parse "?person/contact/?infected") in
  checkb "exactly (n1, n2)" true (pairs = [ (node inst "n1", node inst "n2") ])

let test_query3_on_figure2 () =
  let inst = fig2 () in
  let pairs = Rpq.eval_pairs inst (parse "?person/(contact & date=3/4/21)/?infected") in
  checki "one pair" 1 (List.length pairs);
  (* Changing the date kills the match. *)
  let pairs' = Rpq.eval_pairs inst (parse "?person/(contact & date=3/5/21)/?infected") in
  checki "no pair on other date" 0 (List.length pairs')

let test_shared_bus_on_figure2 () =
  let inst = fig2 () in
  let pairs = Rpq.eval_pairs inst (parse "?person/rides/?bus/rides^-/?infected") in
  checkb "julia to john via bus" true (pairs = [ (node inst "n1", node inst "n2") ])

let test_r1_on_figure2 () =
  let inst = fig2 () in
  let pairs = Rpq.eval_pairs inst ~max_length:8 (parse Gqkg_workload.Contact_network.query_infection_spread) in
  checkb "john reaches julia" true (List.mem (node inst "n2", node inst "n1") pairs)

let test_negated_backward_example () =
  (* [[ (¬owns ∧ ¬lives)⁻ ]] on Figure 2: backward traversals of edges
     that are neither owns nor lives: e1 (contact), e2, e3 (rides). *)
  let inst = fig2 () in
  let paths = Naive.paths inst (parse "(!owns & !lives)^-") ~max_length:1 in
  checki "three backward paths" 3 (List.length paths);
  List.iter
    (fun p ->
      checki "length 1" 1 (Path.length p);
      let e = Path.edge p 0 in
      let s, d = (Snapshot.endpoints inst) e in
      checki "traversed backwards: starts at head" (Path.start_node p) d;
      checki "ends at tail" (Path.end_node p) s)
    paths

let test_vector_rewriting_agrees () =
  (* Query (3) and its vector-labeled rewriting return the same pairs on
     the corresponding models. *)
  let pg = Figure2.property () in
  let vg, schema = Figure2.vector () in
  let date_feature =
    Option.get (Vector_graph.schema_feature_index schema (Const.str "date"))
  in
  let property_query = parse "?person/(contact & date=3/4/21)/?infected" in
  let vector_query =
    parse
      (Printf.sprintf "?(f1=person)/(f1=contact & f%d=3/4/21)/?(f1=infected)" date_feature)
  in
  let pairs_pg = Rpq.eval_pairs (Snapshot.of_property pg) property_query in
  let pairs_vg = Rpq.eval_pairs (Snapshot.of_vector vg) vector_query in
  checkb "same answers" true (pairs_pg = pairs_vg && List.length pairs_pg = 1)

(* ---------- matches_path is the semantics ---------- *)

let test_matches_path_examples () =
  let inst = fig2 () in
  let n1 = node inst "n1" and n2 = node inst "n2" and n3 = node inst "n3" in
  let edge_between a b =
    let rec find e =
      if e >= inst.Snapshot.num_edges then Alcotest.fail "edge not found"
      else if (Snapshot.endpoints inst) e = (a, b) then e
      else find (e + 1)
    in
    find 0
  in
  let e_contact = edge_between n1 n2 in
  let e_r1 = edge_between n1 n3 and e_r2 = edge_between n2 n3 in
  let r = parse "?person/rides/?bus/rides^-/?infected" in
  checkb "bus path matches" true
    (Rpq.matches_path inst r (Path.make ~nodes:[| n1; n3; n2 |] ~edges:[| e_r1; e_r2 |]));
  checkb "contact path does not match r" false
    (Rpq.matches_path inst r (Path.make ~nodes:[| n1; n2 |] ~edges:[| e_contact |]));
  checkb "query2 matches contact" true
    (Rpq.matches_path inst (parse "?person/contact/?infected")
       (Path.make ~nodes:[| n1; n2 |] ~edges:[| e_contact |]))

(* ---------- Self-loops are not double counted ---------- *)

let test_self_loop_single_count () =
  let lg =
    Labeled_graph.of_lists
      ~nodes:[ (Const.str "v", Const.str "node") ]
      ~edges:[ (Const.str "loop", Const.str "v", Const.str "v", Const.str "a") ]
  in
  let inst = Snapshot.of_labeled lg in
  (* 'a + a^-' both match the loop, but it is the same path. *)
  let r = parse "a + a^-" in
  checki "naive count" 1 (Naive.count inst r ~length:1);
  checkb "exact count" true (Count.count inst r ~length:1 = 1.0);
  checki "enumeration" 1 (List.length (Enumerate.paths inst r ~length:1))

(* ---------- Count against the oracle ---------- *)

let test_count_figure2 () =
  let inst = fig2 () in
  List.iter
    (fun (query, k) ->
      let r = parse query in
      let exact = Count.count inst r ~length:k in
      let naive = Naive.count inst r ~length:k in
      checkb
        (Printf.sprintf "count %s @%d" query k)
        true
        (exact = float_of_int naive))
    [
      ("?person/contact/?infected", 1);
      ("?person/rides/?bus/rides^-/?infected", 2);
      ("rides + rides^-", 1);
      ("(rides/rides^-)*", 4);
      ("lives^-/lives", 2);
    ]

let test_count_all_lengths () =
  let inst = fig2 () in
  let r = parse "(rides + rides^- + contact + lives + lives^-)*" in
  let counts = Count.count_all inst r ~max_length:3 in
  Array.iteri
    (fun k c -> checkb (Printf.sprintf "k=%d" k) true (c = float_of_int (Naive.count inst r ~length:k)))
    counts

let test_count_from_source () =
  let inst = fig2 () in
  let r = parse "rides" in
  let product = Product.create inst r in
  let table = Count.build product ~depth:1 in
  let n1 = node inst "n1" in
  checkb "one ride from n1" true (Count.count_from table ~source:n1 ~length:1 = 1.0);
  let n4 = node inst "n4" in
  checkb "no ride from address" true (Count.count_from table ~source:n4 ~length:1 = 0.0)


let test_count_between () =
  let inst = fig2 () in
  let n1 = node inst "n1" and n2 = node inst "n2" and n3 = node inst "n3" in
  let r = parse "?person/rides/?bus/rides^-/?infected" in
  checkb "one path n1->n2" true (Count.count_between inst r ~source:n1 ~target:n2 ~length:2 = 1.0);
  checkb "none n1->n3" true (Count.count_between inst r ~source:n1 ~target:n3 ~length:2 = 0.0);
  checkb "wrong length" true (Count.count_between inst r ~source:n1 ~target:n2 ~length:3 = 0.0);
  (* Sums over targets equal the per-source count. *)
  let r2 = parse "(rides + rides^- + contact)*" in
  let product = Product.create inst r2 in
  let table = Count.build product ~depth:3 in
  let by_pairs = ref 0.0 in
  for b = 0 to inst.Snapshot.num_nodes - 1 do
    by_pairs := !by_pairs +. Count.count_between inst r2 ~source:n1 ~target:b ~length:3
  done;
  checkb "pairwise sums to per-source" true (!by_pairs = Count.count_from table ~source:n1 ~length:3)

(* ---------- Enumeration ---------- *)

let path_list_testable inst =
  List.map (Path.to_string inst)

let test_enumerate_equals_naive () =
  let inst = fig2 () in
  List.iter
    (fun (query, k) ->
      let r = parse query in
      let enumerated = Enumerate.paths inst r ~length:k |> List.sort Path.compare in
      let naive =
        Naive.paths inst r ~max_length:k |> List.filter (fun p -> Path.length p = k)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "enum %s @%d" query k)
        (path_list_testable inst naive)
        (path_list_testable inst enumerated))
    [
      ("?person/contact/?infected", 1);
      ("?person/rides/?bus/rides^-/?infected", 2);
      ("(rides/rides^-)*", 4);
      ("(!owns & !lives)^-", 1);
    ]

let test_enumerate_no_duplicates () =
  let inst = fig2 () in
  let r = parse "(rides + rides^-)*" in
  let paths = Enumerate.paths inst r ~length:3 in
  let distinct = List.sort_uniq Path.compare paths in
  checki "no duplicates" (List.length paths) (List.length distinct)

let test_enumerate_sources_restriction () =
  let inst = fig2 () in
  let n1 = node inst "n1" in
  let r = parse "rides" in
  let paths = Enumerate.paths ~sources:[ n1 ] inst r ~length:1 in
  checki "only n1's ride" 1 (List.length paths);
  List.iter (fun p -> checki "starts at n1" n1 (Path.start_node p)) paths

let test_enumerate_emits_all_with_iter () =
  let inst = fig2 () in
  let e = Enumerate.create inst (parse "rides + rides^-") ~length:1 in
  let count = ref 0 in
  Enumerate.iter e (fun _ -> incr count);
  checki "four single-step ride paths" 4 !count;
  checki "emitted counter" 4 (Enumerate.emitted e);
  checkb "max delay measured" true (Enumerate.max_delay e >= 1)

let test_enumerate_length_zero () =
  let inst = fig2 () in
  let paths = Enumerate.paths inst (parse "?person") ~length:0 in
  checki "one trivial path" 1 (List.length paths);
  List.iter (fun p -> checki "length 0" 0 (Path.length p)) paths

(* ---------- Uniform generation ---------- *)

let test_uniform_total_matches_count () =
  let inst = fig2 () in
  let r = parse "(rides + rides^- + lives)*" in
  let k = 3 in
  let gen = Uniform_gen.create inst r ~length:k in
  checkb "total = exact count" true (Uniform_gen.total_count gen = Count.count inst r ~length:k)

let test_uniform_samples_are_answers () =
  let inst = fig2 () in
  let r = parse "(rides + rides^- + lives + contact)*" in
  let k = 3 in
  let gen = Uniform_gen.create inst r ~length:k in
  let rng = Gqkg_util.Splitmix.create 77 in
  List.iter
    (fun p ->
      checki "length" k (Path.length p);
      checkb "well formed" true (Path.well_formed inst p);
      checkb "matches regex" true (Rpq.matches_path inst r p))
    (Uniform_gen.samples gen rng 200)

let test_uniform_distribution_chi_square () =
  let inst = fig2 () in
  let r = parse "(rides + rides^- + lives + lives^- + contact + contact^-)*" in
  let k = 2 in
  let answers = Enumerate.paths inst r ~length:k in
  let m = List.length answers in
  checkb "several answers" true (m > 5);
  let index = Hashtbl.create 64 in
  List.iteri (fun i p -> Hashtbl.replace index (Path.to_string inst p) i) answers;
  let gen = Uniform_gen.create inst r ~length:k in
  let rng = Gqkg_util.Splitmix.create 123 in
  let draws = 200 * m in
  let observed = Array.make m 0 in
  for _ = 1 to draws do
    match Uniform_gen.sample gen rng with
    | Some p ->
        let i = Hashtbl.find index (Path.to_string inst p) in
        observed.(i) <- observed.(i) + 1
    | None -> Alcotest.fail "sampler returned none"
  done;
  let expected = Array.make m (float_of_int draws /. float_of_int m) in
  let stat = Gqkg_util.Stats.chi_square ~observed ~expected in
  checkb "uniform (chi-square @0.001)" true (stat < Gqkg_util.Stats.chi_square_critical ~df:(m - 1))

let test_uniform_empty_answer_set () =
  let inst = fig2 () in
  let gen = Uniform_gen.create inst (parse "?bus/contact/?bus") ~length:1 in
  let rng = Gqkg_util.Splitmix.create 5 in
  checkb "no sample" true (Uniform_gen.sample gen rng = None);
  checkb "zero total" true (Uniform_gen.total_count gen = 0.0)

(* ---------- FPRAS ---------- *)

let test_approx_count_small_exact () =
  let inst = fig2 () in
  List.iter
    (fun (query, k) ->
      let r = parse query in
      let exact = Count.count inst r ~length:k in
      let estimate = Approx_count.count ~seed:11 inst r ~length:k ~epsilon:0.1 in
      if exact = 0.0 then checkb "zero stays zero" true (estimate = 0.0)
      else
        checkb
          (Printf.sprintf "approx %s @%d within 15%%" query k)
          true
          (Gqkg_util.Stats.relative_error ~truth:exact ~estimate <= 0.15))
    [
      ("?person/contact/?infected", 1);
      ("?person/rides/?bus/rides^-/?infected", 2);
      ("(rides + rides^-)*", 4);
      ("lives^-/lives", 2);
      ("?bus/contact/?bus", 1);
    ]

let test_approx_count_larger_graph () =
  let rng = Gqkg_util.Splitmix.create 99 in
  let pg = Gqkg_workload.Contact_network.generate rng in
  let inst = Snapshot.of_property pg in
  let r = parse "?person/rides/?bus/rides^-/?infected" in
  let k = 2 in
  let exact = Count.count inst r ~length:k in
  let estimate = Approx_count.count ~seed:3 inst r ~length:k ~epsilon:0.1 in
  checkb "nontrivial count" true (exact > 10.0);
  checkb "within 15%" true (Gqkg_util.Stats.relative_error ~truth:exact ~estimate <= 0.15)

let test_approx_count_mixed_multiplicities () =
  (* A pattern whose NFA gives some paths two runs and others one: the
     Karp-Luby multiplicity correction must keep the estimate within the
     epsilon budget (it is genuinely stochastic here, not degenerate). *)
  let rng = Gqkg_util.Splitmix.create 61 in
  let pg =
    Gqkg_workload.Contact_network.generate
      ~params:{ Gqkg_workload.Contact_network.default with people = 40; contacts = 40 }
      rng
  in
  let inst = Snapshot.of_property pg in
  let amb = parse "(contact + !lives + contact^- + !lives^-)*" in
  List.iter
    (fun k ->
      let exact = Count.count inst amb ~length:k in
      let estimate = Approx_count.count ~seed:13 inst amb ~length:k ~epsilon:0.1 in
      checkb
        (Printf.sprintf "mixed-mult k=%d within 10%%" k)
        true
        (Gqkg_util.Stats.relative_error ~truth:exact ~estimate <= 0.1))
    [ 2; 3; 4 ]

let test_approx_count_epsilon_validation () =
  let inst = fig2 () in
  Alcotest.check_raises "bad epsilon" (Invalid_argument "Approx_count.create: epsilon in (0,1)")
    (fun () -> ignore (Approx_count.count inst (parse "rides") ~length:1 ~epsilon:1.5))

(* ---------- Shortest matching paths ---------- *)

let test_shortest_path_length () =
  let inst = fig2 () in
  let n1 = node inst "n1" and n2 = node inst "n2" in
  let r = parse "?person/rides/?bus/rides^-/?infected" in
  checkb "distance 2" true (Rpq.shortest_path_length inst r ~source:n1 ~target:n2 = Some 2);
  let r' = parse "?person/contact/?infected" in
  checkb "distance 1" true (Rpq.shortest_path_length inst r' ~source:n1 ~target:n2 = Some 1);
  checkb "unreachable" true (Rpq.shortest_path_length inst r' ~source:n2 ~target:n1 = None)

let test_source_nodes () =
  let inst = fig2 () in
  let sources = Rpq.source_nodes inst (parse "?person/rides/?bus") in
  checkb "only n1" true (sources = [ node inst "n1" ])

(* ---------- QCheck: engine agrees with the oracle ---------- *)

let instance_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nodes = int_range 1 6 in
    let* edges = int_range 0 10 in
    return (seed, nodes, edges))

let make_instance (seed, nodes, edges) =
  let rng = Gqkg_util.Splitmix.create seed in
  Snapshot.of_labeled
    (Gqkg_workload.Gen_graph.random_labeled rng ~nodes ~edges ~node_labels:[ "a"; "b" ]
       ~edge_labels:[ "x"; "y" ])

let regex_and_graph_gen =
  QCheck2.Gen.(
    let* g = instance_gen in
    let* rseed = int_bound 1_000_000 in
    return (g, rseed))

let make_regex rseed =
  let params =
    { Gqkg_workload.Gen_regex.default with node_labels = [ "a"; "b" ]; edge_labels = [ "x"; "y" ]; max_depth = 3 }
  in
  Gqkg_workload.Gen_regex.generate ~params (Gqkg_util.Splitmix.create rseed)

let prop_pairs_agree =
  QCheck2.Test.make ~name:"eval_pairs = naive pairs" ~count:150 regex_and_graph_gen
    (fun (g, rseed) ->
      let inst = make_instance g in
      let r = make_regex rseed in
      let k = 3 in
      let engine = Rpq.eval_pairs inst ~max_length:k r in
      let naive = Naive.pairs inst r ~max_length:k in
      (* The engine bounds exploration at k steps, like the oracle. *)
      List.sort compare engine = naive)

let prop_count_agrees =
  QCheck2.Test.make ~name:"Count = naive count" ~count:150 regex_and_graph_gen (fun (g, rseed) ->
      let inst = make_instance g in
      let r = make_regex rseed in
      List.for_all
        (fun k -> Count.count inst r ~length:k = float_of_int (Naive.count inst r ~length:k))
        [ 0; 1; 2; 3 ])

let prop_enumerate_agrees =
  QCheck2.Test.make ~name:"Enumerate = naive paths" ~count:150 regex_and_graph_gen
    (fun (g, rseed) ->
      let inst = make_instance g in
      let r = make_regex rseed in
      let k = 2 in
      let enumerated = Enumerate.paths inst r ~length:k |> List.sort Path.compare in
      let naive = Naive.paths inst r ~max_length:k |> List.filter (fun p -> Path.length p = k) in
      List.length enumerated = List.length naive
      && List.for_all2 (fun a b -> Path.equal a b) enumerated naive)

let prop_samples_match =
  QCheck2.Test.make ~name:"uniform samples are matching paths" ~count:60 regex_and_graph_gen
    (fun ((gseed, _, _) as g, rseed) ->
      let inst = make_instance g in
      let r = make_regex rseed in
      let k = 2 in
      let gen = Uniform_gen.create inst r ~length:k in
      let rng = Gqkg_util.Splitmix.create gseed in
      List.for_all
        (fun p -> Path.length p = k && Path.well_formed inst p && Rpq.matches_path inst r p)
        (Uniform_gen.samples gen rng 20))

let prop_matches_path_iff_enumerated =
  QCheck2.Test.make ~name:"matches_path consistent with enumeration" ~count:100
    regex_and_graph_gen (fun (g, rseed) ->
      let inst = make_instance g in
      let r = make_regex rseed in
      let k = 2 in
      let enumerated = Enumerate.paths inst r ~length:k in
      List.for_all (fun p -> Rpq.matches_path inst r p) enumerated)

(* The concurrent frontier expansion of [Product.levels] must be
   invisible: same levels, same state count, as a sequential walk over
   two independently built products. *)
let prop_levels_domain_independent =
  QCheck2.Test.make ~name:"Product.levels domains=4 = domains=1" ~count:100 regex_and_graph_gen
    (fun (g, rseed) ->
      let r = make_regex rseed in
      let k = 4 in
      let p1 = Product.create (make_instance g) r in
      let p4 = Product.create (make_instance g) r in
      let l1 = Product.levels ~domains:1 p1 ~depth:k in
      let l4 = Product.levels ~domains:4 p4 ~depth:k in
      Product.num_states p1 = Product.num_states p4
      && Array.for_all2 (List.equal Int.equal) l1 l4)

(* The batched multi-source engine must answer exactly like the
   per-source hash-table BFS — for every direction policy, with the
   batch straddling the word boundary ([word_bits + 7] sources means a
   full first batch and a ragged second one) and containing duplicate
   sources, with and without a depth bound. *)
let prop_frontier_matches_per_source =
  QCheck2.Test.make ~name:"Frontier.reachable = per-source BFS" ~count:100 regex_and_graph_gen
    (fun (g, rseed) ->
      let r = make_regex rseed in
      let n = (make_instance g).Snapshot.num_nodes in
      let sources = Array.init (Frontier.word_bits + 7) (fun i -> i mod n) in
      List.for_all
        (fun max_length ->
          let product = Product.create (make_instance g) r in
          let expected =
            Array.map (fun source -> Rpq.reachable_from_product ?max_length product ~source) sources
          in
          List.for_all
            (fun direction ->
              let fr = Frontier.create (Product.create (make_instance g) r) in
              Frontier.reachable ~direction ?max_length fr ~sources = expected)
            [ `Auto; `Top_down; `Bottom_up ])
        [ None; Some 3 ])

(* [reachable_many] must route statically-empty queries past the product
   entirely: every answer empty, not one state interned. *)
let test_reachable_many_static_empty () =
  let inst = fig2 () in
  let sources = Array.init inst.Snapshot.num_nodes Fun.id in
  let before = Product.states_interned_total () in
  let results = Rpq.reachable_many inst ~max_length:4 (parse "ghost") ~sources in
  checki "no states interned" before (Product.states_interned_total ());
  checkb "answers all empty" true (Array.for_all (fun l -> l = []) results);
  checki "one answer per source" (Array.length sources) (Array.length results);
  (* And a live query through the same entry point agrees with the
     single-source path. *)
  let live = Rpq.reachable_many inst ~max_length:4 (parse "rides") ~sources in
  checkb "live batch = per-source" true
    (Array.for_all2
       (fun source answer -> Rpq.reachable_from inst ~max_length:4 (parse "rides") ~source = answer)
       sources live)


(* ---------- Derivative backend agrees with the NFA engine ---------- *)

let steps_of_path inst p =
  List.init (Path.length p) (fun i ->
      let e = Path.edge p i in
      let v = Path.node p i and w = Path.node p (i + 1) in
      let s, d = (Snapshot.endpoints inst) e in
      {
        Derivative.edge_sat = inst.Snapshot.edge_atom e;
        forward_ok = s = v && d = w;
        backward_ok = s = w && d = v;
        dst_sat = inst.Snapshot.node_atom w;
      })

let derivative_matches inst r p =
  Derivative.matches ~start_sat:(inst.Snapshot.node_atom (Path.start_node p)) (steps_of_path inst p) r

let test_derivative_on_worked_examples () =
  let inst = fig2 () in
  List.iter
    (fun (query, k) ->
      let r = parse query in
      List.iter
        (fun p ->
          checkb
            (Printf.sprintf "derivative agrees: %s on %s" query (Path.to_string inst p))
            true (derivative_matches inst r p))
        (Enumerate.paths inst r ~length:k))
    [
      ("?person/contact/?infected", 1);
      ("?person/rides/?bus/rides^-/?infected", 2);
      ("(rides + rides^- + lives)*", 3);
    ];
  (* And a negative case. *)
  let r = parse "?bus/contact/?bus" in
  List.iter
    (fun p -> checkb "negative" false (derivative_matches inst r p))
    (Enumerate.paths inst (parse "?person/contact/?infected") ~length:1)

let prop_derivative_equals_nfa =
  QCheck2.Test.make ~name:"derivative matcher = NFA matcher" ~count:120 regex_and_graph_gen
    (fun (g, rseed) ->
      let inst = make_instance g in
      let r = make_regex rseed in
      (* All length<=2 paths of the unconstrained walk space, checked by
         both matchers. *)
      let universe = Naive.paths inst (Regex.Star (Regex.Alt (Regex.any_edge, Regex.Bwd Regex.any_test))) ~max_length:2 in
      List.for_all
        (fun p -> derivative_matches inst r p = Rpq.matches_path inst r p)
        universe)


let prop_uniform_distribution_random_graphs =
  QCheck2.Test.make ~name:"uniform sampler chi-square on random graphs" ~count:20
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (gseed, rseed) ->
      let inst = make_instance (gseed, 5, 8) in
      let r = make_regex rseed in
      let k = 2 in
      let answers = Enumerate.paths inst r ~length:k in
      let m = List.length answers in
      if m < 2 || m > 60 then true (* need a testable, enumerable space *)
      else begin
        let gen = Uniform_gen.create inst r ~length:k in
        let index = Hashtbl.create 64 in
        List.iteri (fun i p -> Hashtbl.replace index (Path.to_string inst p) i) answers;
        let rng = Gqkg_util.Splitmix.create (gseed lxor rseed) in
        let draws = 150 * m in
        let observed = Array.make m 0 in
        List.iter
          (fun p ->
            let i = Hashtbl.find index (Path.to_string inst p) in
            observed.(i) <- observed.(i) + 1)
          (Uniform_gen.samples gen rng draws);
        let expected = Array.make m (float_of_int draws /. float_of_int m) in
        Gqkg_util.Stats.chi_square ~observed ~expected
        < Gqkg_util.Stats.chi_square_critical ~df:(m - 1) *. 1.5
      end)

let prop_count_between_matches_naive =
  QCheck2.Test.make ~name:"count_between = naive pair count" ~count:80 regex_and_graph_gen
    (fun (g, rseed) ->
      let inst = make_instance g in
      let r = make_regex rseed in
      let k = 2 in
      let naive = Naive.paths inst r ~max_length:k |> List.filter (fun p -> Path.length p = k) in
      let per_pair = Hashtbl.create 16 in
      List.iter
        (fun p ->
          let key = (Path.start_node p, Path.end_node p) in
          Hashtbl.replace per_pair key (1 + Option.value (Hashtbl.find_opt per_pair key) ~default:0))
        naive;
      let ok = ref true in
      for a = 0 to inst.Snapshot.num_nodes - 1 do
        for b = 0 to inst.Snapshot.num_nodes - 1 do
          let expected = float_of_int (Option.value (Hashtbl.find_opt per_pair (a, b)) ~default:0) in
          if Count.count_between inst r ~source:a ~target:b ~length:k <> expected then ok := false
        done
      done;
      !ok)

(* ---------- Live-seed pair evaluation ---------- *)

(* Property graphs with more nodes than one frontier batch holds: node
   labels a/b and a node property p, edge labels x/y and an edge
   property w, each property missing on a fifth of the objects. *)
let make_property_instance (seed, nodes, edges) =
  let module S = Gqkg_util.Splitmix in
  let module B = Property_graph.Builder in
  let rng = S.create seed in
  let pick l = List.nth l (S.int rng (List.length l)) in
  let b = B.create () in
  for i = 0 to nodes - 1 do
    let v = B.add_node b (Const.str (Printf.sprintf "n%d" i)) ~label:(Const.str (pick [ "a"; "b" ])) in
    if S.bernoulli rng 0.8 then
      B.set_node_property b v ~prop:(Const.str "p") ~value:(Const.of_string (pick [ "1"; "2"; "3" ]))
  done;
  for _ = 1 to edges do
    let e =
      B.fresh_edge b ~src:(S.int rng nodes) ~dst:(S.int rng nodes) ~label:(Const.str (pick [ "x"; "y" ]))
    in
    if S.bernoulli rng 0.8 then
      B.set_edge_property b e ~prop:(Const.str "w") ~value:(Const.of_string (pick [ "1"; "2" ]))
  done;
  Snapshot.of_property (B.freeze b)

(* ?t1 / r / ?t2: Prop node tests first and last, and a random middle
   whose edge tests may carry Prop atoms anywhere. *)
let make_property_regex rseed =
  let module S = Gqkg_util.Splitmix in
  let rng = S.create rseed in
  let node_test () =
    let p = Regex.Atom (Atom.prop "p" (Const.of_string (string_of_int (1 + S.int rng 3)))) in
    match S.int rng 3 with
    | 0 -> p
    | 1 -> Regex.Not p
    | _ -> Regex.Or (Regex.Atom (Atom.label "a"), p)
  in
  let params =
    {
      Gqkg_workload.Gen_regex.default with
      node_labels = [ "a"; "b" ];
      edge_labels = [ "x"; "y" ];
      properties = [ ("p", [ "1"; "2"; "3" ]); ("w", [ "1"; "2" ]) ];
      max_depth = 3;
    }
  in
  let first = node_test () in
  let middle = Gqkg_workload.Gen_regex.generate ~params rng in
  Regex.Seq (Regex.Node_test first, Regex.Seq (middle, Regex.Node_test (node_test ())))

let property_regex_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nodes = int_range 150 250 in
    let* extra = int_range nodes (2 * nodes) in
    let* rseed = int_bound 1_000_000 in
    return ((seed, nodes, nodes + extra), rseed))

let prop_pairs_agree_property_tests =
  QCheck2.Test.make ~name:"eval_pairs = naive pairs (Prop tests, > 63 live seeds)" ~count:60
    property_regex_gen (fun (g, rseed) ->
      let inst = make_property_instance g in
      let r = make_property_regex rseed in
      Rpq.eval_pairs inst ~max_length:3 r = Naive.pairs inst r ~max_length:3)

(* Pairs of one product searched from the given seeds; a reversed
   product's pairs are swapped back. *)
let pairs_from product ~reversed seeds =
  let per = Frontier.reachable ~max_length:3 (Frontier.create product) ~sources:seeds in
  Array.to_list per
  |> List.mapi (fun i bs ->
         List.map (fun b -> if reversed then (b, seeds.(i)) else (seeds.(i), b)) bs)
  |> List.concat |> List.sort compare

let live_seeds product =
  let n = (Product.instance product).Snapshot.num_nodes in
  Array.of_list (List.filter (Product.live_seed product) (List.init n Fun.id))

let prop_live_seed_directions_agree =
  QCheck2.Test.make ~name:"forward = reversed = all-node seeds, over live seeds" ~count:60
    property_regex_gen (fun (g, rseed) ->
      let inst = make_property_instance g in
      let r = make_property_regex rseed in
      let q = Planner.plan inst r in
      match (Planner.product q, Planner.reversed q) with
      | None, None -> Rpq.eval_pairs inst ~max_length:3 r = []
      | Some fwd, Some rev ->
          let all = Array.init inst.Snapshot.num_nodes Fun.id in
          let forward = pairs_from fwd ~reversed:false (live_seeds fwd) in
          forward = pairs_from rev ~reversed:true (live_seeds rev)
          && forward = pairs_from (Product.create inst r) ~reversed:false all
          && forward = Rpq.eval_pairs inst ~max_length:3 r
      | _ -> false)

(* The generator really does put more live seeds in the running
   direction than one 63-wide batch holds, on a good share of inputs. *)
let test_property_instances_exceed_a_batch () =
  let wide = ref 0 in
  for i = 0 to 19 do
    let inst = make_property_instance (1000 + i, 200, 500) in
    match Rpq.seed_counts inst (make_property_regex (7 * i)) with
    | Some c ->
        let running =
          match (c.Rpq.direction, c.Rpq.backward_live) with
          | Rpq.Backward, Some b -> b
          | _ -> c.Rpq.forward_live
        in
        if running > Frontier.word_bits then incr wide
    | None -> ()
  done;
  checkb "at least 5 of 20 inputs batch more than 63 live seeds" true (!wide >= 5)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_core"
    [
      ( "path",
        [
          Alcotest.test_case "basics" `Quick test_path_basics;
          Alcotest.test_case "trivial/snoc" `Quick test_path_trivial_and_snoc;
          Alcotest.test_case "validation" `Quick test_path_make_validation;
          Alcotest.test_case "well_formed" `Quick test_path_well_formed;
        ] );
      ( "worked-examples",
        [
          Alcotest.test_case "query (2)" `Quick test_query2_on_figure2;
          Alcotest.test_case "query (3)" `Quick test_query3_on_figure2;
          Alcotest.test_case "shared bus" `Quick test_shared_bus_on_figure2;
          Alcotest.test_case "expression r1" `Quick test_r1_on_figure2;
          Alcotest.test_case "negated backward" `Quick test_negated_backward_example;
          Alcotest.test_case "vector rewriting" `Quick test_vector_rewriting_agrees;
          Alcotest.test_case "matches_path" `Quick test_matches_path_examples;
        ] );
      ("determinism", [ Alcotest.test_case "self loop" `Quick test_self_loop_single_count ]);
      ( "count",
        [
          Alcotest.test_case "figure2" `Quick test_count_figure2;
          Alcotest.test_case "all lengths" `Quick test_count_all_lengths;
          Alcotest.test_case "per source" `Quick test_count_from_source;
          Alcotest.test_case "between pairs" `Quick test_count_between;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "equals naive" `Quick test_enumerate_equals_naive;
          Alcotest.test_case "no duplicates" `Quick test_enumerate_no_duplicates;
          Alcotest.test_case "source restriction" `Quick test_enumerate_sources_restriction;
          Alcotest.test_case "iter" `Quick test_enumerate_emits_all_with_iter;
          Alcotest.test_case "length zero" `Quick test_enumerate_length_zero;
        ] );
      ( "uniform",
        [
          Alcotest.test_case "total = count" `Quick test_uniform_total_matches_count;
          Alcotest.test_case "samples are answers" `Quick test_uniform_samples_are_answers;
          Alcotest.test_case "chi-square uniformity" `Quick test_uniform_distribution_chi_square;
          Alcotest.test_case "empty set" `Quick test_uniform_empty_answer_set;
        ] );
      ( "approx",
        [
          Alcotest.test_case "figure2 accuracy" `Quick test_approx_count_small_exact;
          Alcotest.test_case "contact network accuracy" `Quick test_approx_count_larger_graph;
          Alcotest.test_case "mixed multiplicities" `Quick test_approx_count_mixed_multiplicities;
          Alcotest.test_case "epsilon validation" `Quick test_approx_count_epsilon_validation;
        ] );
      ( "rpq",
        [
          Alcotest.test_case "derivative backend" `Quick test_derivative_on_worked_examples;
          Alcotest.test_case "shortest length" `Quick test_shortest_path_length;
          Alcotest.test_case "source nodes" `Quick test_source_nodes;
          Alcotest.test_case "batched static empty" `Quick test_reachable_many_static_empty;
          Alcotest.test_case "live seeds exceed a batch" `Quick test_property_instances_exceed_a_batch;
        ] );
      ( "properties",
        q
          [
            prop_pairs_agree;
            prop_count_agrees;
            prop_enumerate_agrees;
            prop_samples_match;
            prop_matches_path_iff_enumerated;
            prop_levels_domain_independent;
            prop_frontier_matches_per_source;
            prop_count_between_matches_naive;
            prop_derivative_equals_nfa;
            prop_uniform_distribution_random_graphs;
            prop_pairs_agree_property_tests;
            prop_live_seed_directions_agree;
          ] );
    ]
