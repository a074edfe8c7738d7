(* Tests for gqkg_core — the paper's primary contribution.  The naive
   denotational evaluator (Naive) is the oracle: the product engine, the
   exact counter, the enumerator, the uniform sampler and the FPRAS must
   all agree with it on small instances, including the worked examples of
   the paper. *)

open Gqkg_graph
open Gqkg_automata
open Gqkg_core
module Budget = Gqkg_util.Budget
module Crpq = Gqkg_logic.Crpq
module Reference = Gqkg_oracle.Reference

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

let test_path_trivial () =
  let p = Path.trivial 7 in
  checki "trivial length" 0 (Path.length p);
  checki "trivial end" 7 (Path.end_node p)

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
    (Reference.matches_path inst r (Path.make ~nodes:[| n1; n3; n2 |] ~edges:[| e_r1; e_r2 |]));
  checkb "contact path does not match r" false
    (Reference.matches_path inst r (Path.make ~nodes:[| n1; n2 |] ~edges:[| e_contact |]));
  checkb "query2 matches contact" true
    (Reference.matches_path inst (parse "?person/contact/?infected")
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
      checkb "matches regex" true (Reference.matches_path inst r p))
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

open Gqkg_oracle.Small

(* Every RPQ engine against the pair oracle on one draw: the planned
   evaluation (minimized when the planner finds it smaller), the
   unplanned product under the batched frontier, the governed entry
   point cold and then from the result cache, the one-atom CRPQ
   (x, r, y), and the planned evaluation over a degree-renumbered copy
   (answers mapped back) and over a .gqs round trip of the graph.  The
   governed and CRPQ runs get their own snapshot, so no cache warmed by
   another engine answers for them. *)
let prop_engines_agree =
  QCheck2.Test.make ~name:"engines = pair oracle" ~count:150
    QCheck2.Gen.(
      triple (sized_instance_gen ~max_nodes:8 ~max_edges:14) (int_bound 1_000_000) (int_bound 4))
    (fun (g, rseed, max_length) ->
      let inst = make_instance g and r = make_regex rseed in
      let oracle = Naive.pairs inst r ~max_length in
      let agrees engine pairs =
        List.sort compare pairs = oracle
        || QCheck2.Test.fail_reportf "%s: %s, max_length %d: %d pairs, oracle %d" engine
             (Regex.to_string r) max_length (List.length pairs) (List.length oracle)
      in
      let frontier () =
        let sources = Array.init inst.Snapshot.num_nodes Fun.id in
        Frontier.reachable ~max_length (Frontier.create (Product.create inst r)) ~sources
        |> Array.to_list
        |> List.mapi (fun a targets -> List.map (fun b -> (a, b)) targets)
        |> List.concat
      in
      let governed = make_instance g in
      let governor () =
        (Governor.eval_pairs ~budget:Budget.unlimited ~max_length governed r).value
      in
      let result_hits () = (Semcache.stats ()).result_hits in
      let crpq () =
        let q = Crpq.query ~head:[ "x"; "y" ] ~body:[ Crpq.atom ~src:"x" ~regex:r ~dst:"y" ] () in
        List.map
          (function [ a; b ] -> (a, b) | _ -> assert false)
          (Crpq.answers ~max_length (make_instance g) q)
      in
      let renumbered () =
        let s, perm = Renumber.renumber Renumber.Degree inst in
        let old v = perm.Renumber.old_of_new.(v) in
        List.map (fun (a, b) -> (old a, old b)) (Rpq.eval_pairs ~max_length s r)
      in
      let reloaded () =
        let path = Filename.temp_file "gqkg_engines" ".gqs" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            ignore (Snapshot_io.save ~path inst);
            Rpq.eval_pairs ~max_length (Snapshot_io.load path) r)
      in
      agrees "Rpq.eval_pairs" (Rpq.eval_pairs ~max_length inst r)
      && agrees "Frontier over Product.create" (frontier ())
      && agrees "Governor.eval_pairs, cold" (governor ())
      && (let hits = result_hits () in
          agrees "Governor.eval_pairs, cached" (governor ())
          && (Planner.semantic_key governed r = None || result_hits () = hits + 1
             || QCheck2.Test.fail_reportf "second Governor.eval_pairs missed the result cache"))
      && agrees "one-atom Crpq.answers" (crpq ())
      && agrees "Rpq.eval_pairs, renumbered by degree" (renumbered ())
      && agrees "Rpq.eval_pairs, .gqs round trip" (reloaded ()))

(* The pair oracle is the path-set semantics read off at endpoints and
   lengths: its triples are exactly the (start, end, length) of
   [Naive.paths], at every bound from 0 to 3. *)
let prop_triples_agree =
  QCheck2.Test.make ~name:"pair oracle = naive paths' endpoints" ~count:150
    QCheck2.Gen.(pair regex_and_graph_gen (int_bound 3))
    (fun ((g, rseed), k) ->
      let inst = make_instance g and r = make_regex rseed in
      let of_paths =
        List.sort_uniq compare
          (List.map
             (fun p -> (Path.start_node p, Path.end_node p, Path.length p))
             (Naive.paths inst r ~max_length:k))
      in
      let of_triples = Naive.triples inst r ~max_length:k in
      of_triples = of_paths
      || QCheck2.Test.fail_reportf "%s, k=%d: %d triples, %d from paths" (Regex.to_string r) k
           (List.length of_triples) (List.length of_paths))

let prop_count_agrees =
  QCheck2.Test.make ~name:"Count = naive count" ~count:150 regex_and_graph_gen (fun (g, rseed) ->
      let inst = make_instance g in
      let r = make_regex rseed in
      List.for_all
        (fun k -> Count.count inst r ~length:k = float_of_int (Naive.count inst r ~length:k))
        [ 0; 1; 2; 3 ])

(* The FPRAS against the naive count: 0.0 exactly when no path matches,
   otherwise within ε.  The estimator's seed comes from the case. *)
let prop_approx_count_within_epsilon =
  QCheck2.Test.make ~name:"FPRAS = naive count within ε" ~count:150 regex_and_graph_gen
    (fun (((gseed, _, _) as g), rseed) ->
      let inst = make_instance g and r = make_regex rseed in
      List.for_all
        (fun k ->
          let exact = float_of_int (Naive.count inst r ~length:k) in
          let estimate = Approx_count.count ~seed:gseed inst r ~length:k ~epsilon:0.1 in
          (if exact = 0.0 then estimate = 0.0
           else Gqkg_util.Stats.relative_error ~truth:exact ~estimate <= 0.1)
          || QCheck2.Test.fail_reportf "%s, k=%d: estimate %g, naive count %g"
               (Regex.to_string r) k estimate exact)
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
        (fun p -> Path.length p = k && Path.well_formed inst p && Reference.matches_path inst r p)
        (Uniform_gen.samples gen rng 20))

let prop_matches_path_iff_enumerated =
  QCheck2.Test.make ~name:"matches_path consistent with enumeration" ~count:100
    regex_and_graph_gen (fun (g, rseed) ->
      let inst = make_instance g in
      let r = make_regex rseed in
      let k = 2 in
      let enumerated = Enumerate.paths inst r ~length:k in
      List.for_all (fun p -> Reference.matches_path inst r p) enumerated)

(* Length of the shortest matching path from [a] to [b] among [Naive]'s
   paths, if any. *)
let naive_shortest paths a b =
  List.fold_left
    (fun best p ->
      if Path.start_node p <> a || Path.end_node p <> b then best
      else
        match best with
        | Some d when d <= Path.length p -> best
        | _ -> Some (Path.length p))
    None paths

let prop_shortest_matches_naive =
  QCheck2.Test.make ~name:"shortest_path_length = naive minimum" ~count:150 regex_and_graph_gen
    (fun (g, rseed) ->
      let inst = make_instance g in
      let r = make_regex rseed in
      let k = 3 in
      let paths = Naive.paths inst r ~max_length:k in
      let nodes = List.init inst.Snapshot.num_nodes Fun.id in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Rpq.shortest_path_length inst ~max_length:k r ~source:a ~target:b
              = naive_shortest paths a b)
            nodes)
        nodes)

(* The per-source reference for the batched engine: one hash-table BFS
   over the product from [source]'s start state, bounded by
   [max_length] steps when given; the nodes at its accepting states,
   sorted. *)
let reachable_from_product ?max_length product ~source =
  let dist = Hashtbl.create 64 in
  (match Product.start_state product source with
  | None -> ()
  | Some s0 ->
      let queue = Queue.create () in
      Hashtbl.replace dist s0 0;
      Queue.push s0 queue;
      while not (Queue.is_empty queue) do
        let id = Queue.pop queue in
        let d = Hashtbl.find dist id in
        if match max_length with Some m -> d < m | None -> true then
          Product.iter_successors product id (fun _e succ ->
              if not (Hashtbl.mem dist succ) then begin
                Hashtbl.replace dist succ (d + 1);
                Queue.push succ queue
              end)
      done);
  Hashtbl.fold
    (fun id _d acc -> if Product.is_accepting product id then Product.node_of product id :: acc else acc)
    dist []
  |> List.sort_uniq compare

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
            Array.map (fun source -> reachable_from_product ?max_length product ~source) sources
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
       (fun source answer ->
         (Rpq.reachable_many inst ~max_length:4 (parse "rides") ~sources:[| source |]).(0) = answer)
       sources live)


(* ---------- Derivative backend agrees with the NFA engine ---------- *)

let steps_of_path inst p =
  List.init (Path.length p) (fun i ->
      let e = Path.edge p i in
      let v = Path.node p i and w = Path.node p (i + 1) in
      let s, d = (Snapshot.endpoints inst) e in
      {
        Gqkg_oracle.Derivative.edge_sat = Snapshot.edge_atom inst e;
        forward_ok = s = v && d = w;
        backward_ok = s = w && d = v;
        dst_sat = Snapshot.node_atom inst w;
      })

let derivative_matches inst r p =
  Gqkg_oracle.Derivative.matches
    ~start_sat:(Snapshot.node_atom inst (Path.start_node p))
    (steps_of_path inst p) r

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
        (fun p -> derivative_matches inst r p = Reference.matches_path inst r p)
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
      Gqkg_oracle.Gen_regex.default with
      node_labels = [ "a"; "b" ];
      edge_labels = [ "x"; "y" ];
      properties = [ ("p", [ "1"; "2"; "3" ]); ("w", [ "1"; "2" ]) ];
      max_depth = 3;
    }
  in
  let first = node_test () in
  let middle = Gqkg_oracle.Gen_regex.generate ~params rng in
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

(* ---------- Index-anchored seeding ---------- *)

(* A random node test over the property instances' vocabulary: Label
   and Prop atoms (label c and p=4 match no node) under And/Or/Not. *)
let rec seeding_test rng depth =
  let module S = Gqkg_util.Splitmix in
  let atom () =
    if S.int rng 3 = 0 then Regex.Atom (Atom.label (List.nth [ "a"; "b"; "c" ] (S.int rng 3)))
    else Regex.Atom (Atom.prop "p" (Const.of_string (string_of_int (1 + S.int rng 4))))
  in
  if depth = 0 then atom ()
  else
    match S.int rng 5 with
    | 0 -> Regex.And (seeding_test rng (depth - 1), seeding_test rng (depth - 1))
    | 1 -> Regex.Or (seeding_test rng (depth - 1), seeding_test rng (depth - 1))
    | 2 -> Regex.Not (seeding_test rng (depth - 1))
    | _ -> atom ()

(* Four start shapes: ?t/r, anchored on t; ?t1/r1 + ?t2/r2, a union of
   two anchors; and the two fallbacks — (?t/r)* accepts the empty path,
   ?t/r1 + x/r2 carries an unguarded edge move. *)
let make_seeding_regex rseed =
  let module S = Gqkg_util.Splitmix in
  let rng = S.create rseed in
  let params =
    {
      Gqkg_oracle.Gen_regex.default with
      node_labels = [ "a"; "b" ];
      edge_labels = [ "x"; "y" ];
      properties = [ ("p", [ "1"; "2"; "3" ]); ("w", [ "1"; "2" ]) ];
      max_depth = 2;
    }
  in
  let guarded () =
    Regex.Seq (Regex.Node_test (seeding_test rng 2), Gqkg_oracle.Gen_regex.generate ~params rng)
  in
  match S.int rng 4 with
  | 0 -> guarded ()
  | 1 -> Regex.Alt (guarded (), guarded ())
  | 2 -> Regex.Star (guarded ())
  | _ ->
      Regex.Alt
        ( guarded (),
          Regex.Seq
            (Regex.Fwd (Regex.Atom (Atom.label "x")), Gqkg_oracle.Gen_regex.generate ~params rng)
        )

(* The candidates are strictly ascending, and walking them finds
   exactly the live seeds a scan of every node finds. *)
let candidates_sound product =
  match Product.seed_candidates product with
  | None -> false
  | Some Product.Every_node -> true
  | Some (Product.Nodes c) ->
      let ascending = ref true in
      Array.iteri (fun i v -> if i > 0 && c.(i - 1) >= v then ascending := false) c;
      let walked = List.filter (Product.live_seed product) (Array.to_list c) in
      !ascending && Array.of_list walked = live_seeds product

let prop_seed_candidates_sound =
  QCheck2.Test.make ~name:"seed candidates: live seeds and pairs unchanged" ~count:60
    property_regex_gen (fun (g, rseed) ->
      let inst = make_property_instance g in
      let r = make_seeding_regex rseed in
      let q = Planner.plan inst r in
      List.for_all candidates_sound
        (Product.create inst r :: List.filter_map Fun.id [ Planner.product q; Planner.reversed q ])
      && Rpq.eval_pairs inst ~max_length:3 r = Naive.pairs inst r ~max_length:3)

(* The generator exercises both sides: anchored candidate sets that are
   smaller than the graph, and the full-scan fallback. *)
let test_seeding_shapes_cover_both_paths () =
  let anchored = ref 0 and full = ref 0 in
  for i = 0 to 39 do
    let inst = make_property_instance (2000 + i, 200, 400) in
    match Product.seed_candidates (Product.create inst (make_seeding_regex (11 * i))) with
    | Some (Product.Nodes c) when Array.length c < inst.Snapshot.num_nodes -> incr anchored
    | Some Product.Every_node -> incr full
    | _ -> ()
  done;
  checkb (Printf.sprintf "%d anchored of 40" !anchored) true (!anchored >= 8);
  checkb (Printf.sprintf "%d full scans of 40" !full) true (!full >= 8)

let atom_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun l -> Atom.label l) (oneofl [ "a"; "b"; "c" ]);
        map2
          (fun p v -> Atom.prop p (Const.of_string v))
          (oneofl [ "p"; "w"; "q" ])
          (oneofl [ "1"; "2"; "3"; "4" ]);
        map (fun v -> Atom.feature 1 (Const.of_string v)) (oneofl [ "a"; "1" ]);
      ])

let prop_postings_equal_scan =
  QCheck2.Test.make ~name:"Postings.nodes = node_atom scan" ~count:100
    QCheck2.Gen.(pair property_regex_gen (list_size (int_range 1 6) atom_gen))
    (fun ((g, _), atoms) ->
      let inst = make_property_instance g in
      List.for_all
        (fun a ->
          let all = List.init inst.Snapshot.num_nodes Fun.id in
          let scan = List.filter (fun v -> Snapshot.node_atom inst v a) all in
          let postings () = Array.to_list (Postings.nodes inst a) in
          (* the second call answers from the memo *)
          postings () = scan && postings () = scan)
        atoms)

(* Edge atoms over the instances above: labels x/y and property w occur,
   label z, value w=3, property p and the feature test never do. *)
let edge_atom_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun l -> Atom.label l) (oneofl [ "x"; "y"; "z" ]);
        map2
          (fun p v -> Atom.prop p (Const.of_string v))
          (oneofl [ "w"; "p" ])
          (oneofl [ "1"; "2"; "3" ]);
        map (fun v -> Atom.feature 1 (Const.of_string v)) (oneofl [ "a"; "1" ]);
      ])

let prop_edge_postings_equal_scan =
  QCheck2.Test.make ~name:"Postings.edges = edge_atom scan" ~count:100
    QCheck2.Gen.(pair property_regex_gen (list_size (int_range 1 6) edge_atom_gen))
    (fun ((g, _), atoms) ->
      let inst = make_property_instance g in
      List.for_all
        (fun a ->
          let all = List.init inst.Snapshot.num_edges Fun.id in
          let scan = List.filter (fun e -> Snapshot.edge_atom inst e a) all in
          let postings () = Array.to_list (Postings.edges inst a) in
          postings () = scan && postings () = scan)
        atoms)

(* Absent atoms are memoized as empty postings up to one per node (per
   edge); past that cap they are still answered [||], and not kept. *)
let test_postings_cap_on_empties () =
  let inst = make_property_instance (5, 3, 2) in
  let absent i = Atom.prop "q" (Const.int i) in
  for i = 1 to 10 do
    checkb "absent node atom" true (Postings.nodes inst (absent i) = [||]);
    checkb "absent edge atom" true (Postings.edges inst (absent i) = [||])
  done;
  checkb "stored empties stop at the cap" true (Postings.stored_empties inst = (3, 2));
  checkb "past the cap still empty" true
    (Postings.nodes inst (absent 11) = [||] && Postings.edges inst (absent 11) = [||]);
  checkb "and still not kept" true (Postings.stored_empties inst = (3, 2));
  let edges l = Array.length (Postings.edges inst (Atom.label l)) in
  checkb "present atoms are kept past the cap" true (edges "x" + edges "y" = 2)

(* One seed covers every state it interns, so [`Auto] has nothing to
   pull into and pushes at every level, level 0 included. *)
let test_one_seed_batch_runs_top_down () =
  let pg = Gqkg_workload.Contact_network.generate (Gqkg_util.Splitmix.create 7) in
  let inst = Snapshot.of_property pg in
  let r = parse "?person/rides/?bus/rides^-/?person" in
  let seed =
    match live_seeds (Product.create inst r) with
    | [||] -> Alcotest.fail "no live seed"
    | seeds -> seeds.(0)
  in
  let run direction =
    Frontier.reachable ~direction (Frontier.create (Product.create inst r)) ~sources:[| seed |]
  in
  let bu0 = Frontier.bottom_up_levels_total () in
  let td0 = Frontier.top_down_levels_total () in
  let auto = run `Auto in
  checki "no bottom-up level" 0 (Frontier.bottom_up_levels_total () - bu0);
  checkb "some top-down level" true (Frontier.top_down_levels_total () > td0);
  checkb "answers like forced top-down" true (auto = run `Top_down);
  checkb "non-empty" true (auto.(0) <> [])

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_core"
    [
      ( "path",
        [
          Alcotest.test_case "basics" `Quick test_path_basics;
          Alcotest.test_case "trivial" `Quick test_path_trivial;
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
          Alcotest.test_case "seeding shapes cover both paths" `Quick
            test_seeding_shapes_cover_both_paths;
          Alcotest.test_case "one-seed batch runs top-down" `Quick
            test_one_seed_batch_runs_top_down;
          Alcotest.test_case "postings cap stored empties" `Quick test_postings_cap_on_empties;
        ] );
      ( "properties",
        q
          [
            prop_engines_agree;
            prop_triples_agree;
            prop_count_agrees;
            prop_enumerate_agrees;
            prop_samples_match;
            prop_matches_path_iff_enumerated;
            prop_shortest_matches_naive;
            prop_frontier_matches_per_source;
            prop_count_between_matches_naive;
            prop_derivative_equals_nfa;
            prop_uniform_distribution_random_graphs;
            prop_pairs_agree_property_tests;
            prop_live_seed_directions_agree;
            prop_seed_candidates_sound;
            prop_postings_equal_scan;
            prop_edge_postings_equal_scan;
            prop_approx_count_within_epsilon;
          ] );
    ]
