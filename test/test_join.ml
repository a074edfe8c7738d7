(* The worst-case-optimal multiway join engine (lib/core/join.ml):
   solver units on known instances (trie flavors, projections, order
   hints, the per-snapshot index), QCheck equivalence with the
   backtracking oracles across CQ / CRPQ / BGP — cyclic patterns
   included — and budget soundness: a tripped run must yield a subset
   of the complete answer at every possible trip point (the
   [trip_after_checks] fault-injection sweep from test_budget).  The
   CRPQ parser adversarial cases ride along: repeated head variables,
   self-loop atoms, duplicate atoms, empty bodies, malformed input. *)

open Gqkg_graph
module Join = Gqkg_core.Join
module Budget = Gqkg_util.Budget
module Splitmix = Gqkg_util.Splitmix
module Cq = Gqkg_logic.Cq
module Crpq = Gqkg_logic.Crpq
module Crpq_parser = Gqkg_logic.Crpq_parser
module Bgp = Gqkg_kg.Bgp
module Term = Gqkg_kg.Term
module Triple_store = Gqkg_kg.Triple_store
module Gen_graph = Gqkg_workload.Gen_graph
module Gen_regex = Gqkg_workload.Gen_regex
module Regex_parser = Gqkg_automata.Regex_parser

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let collect ?budget ?snapshot ?order_hint specs ~vars =
  let rows = ref [] in
  Join.solve ?budget ?snapshot ?order_hint specs ~vars ~yield:(fun r ->
      rows := Array.to_list r :: !rows);
  List.sort compare !rows

(* Directed triangle 0->1->2->0 plus a chord 0->2 and a pendant 3. *)
let tri_edges = [ (0, 1); (1, 2); (2, 0); (0, 2); (3, 0) ]

let tri_specs edges =
  [
    Join.atom [| "x"; "y" |] (Join.Pairs edges);
    Join.atom [| "y"; "z" |] (Join.Pairs edges);
    Join.atom [| "z"; "x" |] (Join.Pairs edges);
  ]

(* The same instance as a labeled snapshot, for CSR-backed atoms. *)
let tri_snapshot () =
  let b = Labeled_graph.Builder.create () in
  for i = 0 to 3 do
    ignore (Labeled_graph.Builder.add_node b (Const.str (string_of_int i)) ~label:(Const.str "a"))
  done;
  List.iter
    (fun (src, dst) ->
      ignore (Labeled_graph.Builder.fresh_edge b ~src ~dst ~label:(Const.str "e")))
    tri_edges;
  Snapshot.of_labeled (Labeled_graph.Builder.freeze b)

(* ---------- solver units ---------- *)

let test_triangle_pairs () =
  let got = collect (tri_specs tri_edges) ~vars:[ "x"; "y"; "z" ] in
  checkb "rotations" true (got = [ [ 0; 1; 2 ]; [ 1; 2; 0 ]; [ 2; 0; 1 ] ])

let test_csr_matches_pairs () =
  let snap = tri_snapshot () in
  let idx = Join.Index.get snap in
  let ids = Join.Index.edge_label_ids idx (Const.str "e") in
  let csr v = Join.atom v (Join.Edges ids) in
  let specs = [ csr [| "x"; "y" |]; csr [| "y"; "z" |]; csr [| "z"; "x" |] ] in
  let got = collect ~snapshot:snap specs ~vars:[ "x"; "y"; "z" ] in
  let want = collect (tri_specs tri_edges) ~vars:[ "x"; "y"; "z" ] in
  checkb "CSR trie = materialized pairs" true (got = want)

let test_set_pins_constant () =
  let specs = Join.atom [| "x" |] (Join.Set [| 1 |]) :: tri_specs tri_edges in
  let got = collect specs ~vars:[ "x"; "y"; "z" ] in
  checkb "pinned x=1" true (got = [ [ 1; 2; 0 ] ])

let test_rows3 () =
  let specs =
    [
      Join.atom [| "x"; "y"; "z" |] (Join.Rows3 [ (0, 1, 2); (1, 2, 0); (0, 1, 3) ]);
      Join.atom [| "z"; "w" |] (Join.Pairs [ (2, 9); (3, 7) ]);
    ]
  in
  let got = collect specs ~vars:[ "x"; "y"; "z"; "w" ] in
  checkb "ternary join" true (got = [ [ 0; 1; 2; 9 ]; [ 0; 1; 3; 7 ] ])

let test_repeated_variable_atom () =
  (* An (x, x) column pair projects the relation to its self-loops. *)
  let specs = [ Join.atom [| "x"; "x" |] (Join.Pairs [ (0, 0); (1, 2); (2, 2) ]) ] in
  checkb "self-loops" true (collect specs ~vars:[ "x" ] = [ [ 0 ]; [ 2 ] ])

let test_projection_dedup () =
  let specs = [ Join.atom [| "x"; "y" |] (Join.Pairs [ (0, 1); (0, 2); (1, 2) ]) ] in
  checkb "distinct sources" true (collect specs ~vars:[ "x" ] = [ [ 0 ]; [ 1 ] ]);
  (* Full cover yields each assignment once, in some order. *)
  checki "full rows" 3 (List.length (collect specs ~vars:[ "y"; "x" ]))

let test_empty_and_invalid () =
  checkb "no atoms, no vars" true (collect [] ~vars:[] = [ [] ]);
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  checkb "var with no atom" true (raises (fun () -> collect [] ~vars:[ "x" ]));
  checkb "unknown var" true
    (raises (fun () -> collect (tri_specs tri_edges) ~vars:[ "q" ]));
  checkb "arity mismatch" true
    (raises (fun () -> collect [ Join.atom [| "x" |] (Join.Pairs [ (0, 1) ]) ] ~vars:[ "x" ]));
  List.iter
    (fun (what, spec) ->
      checkb ("negative id in " ^ what) true (raises (fun () -> collect [ spec ] ~vars:[ "x" ])))
    [
      ("a set", Join.atom [| "x" |] (Join.Set [| 3; -5 |]));
      ("a singleton", Join.atom [| "x" |] (Join.Set [| -1 |]));
      ("pairs", Join.atom [| "x"; "y" |] (Join.Pairs [ (0, 1); (2, -2) ]));
      ("rows", Join.atom [| "x"; "y"; "z" |] (Join.Rows3 [ (-4, 1, 2) ]));
    ]

let test_order_hint () =
  let base = collect (tri_specs tri_edges) ~vars:[ "x"; "y"; "z" ] in
  let hinted =
    collect ~order_hint:[| "z"; "x"; "y" |] (tri_specs tri_edges) ~vars:[ "x"; "y"; "z" ]
  in
  checkb "hinted order, same answers" true (hinted = base);
  let raises h =
    match collect ~order_hint:h (tri_specs tri_edges) ~vars:[ "x" ] with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "hint missing a var" true (raises [| "x"; "y" |]);
  checkb "hint with duplicate" true (raises [| "x"; "x"; "y" |])

let test_plan_covers_vars () =
  let plan = Join.plan (tri_specs tri_edges) in
  checki "order length" 3 (Array.length plan.Join.order);
  List.iter
    (fun v -> checkb ("order mentions " ^ v) true (Array.mem v plan.Join.order))
    [ "x"; "y"; "z" ];
  checkb "rendered nonempty" true (String.length plan.Join.rendered > 0)

let test_index_label_stats () =
  let b = Labeled_graph.Builder.create () in
  for i = 0 to 2 do
    ignore (Labeled_graph.Builder.add_node b (Const.str (string_of_int i)) ~label:(Const.str "a"))
  done;
  (* Parallel edges 0->1 (twice) must count as one distinct pair. *)
  ignore (Labeled_graph.Builder.fresh_edge b ~src:0 ~dst:1 ~label:(Const.str "e"));
  ignore (Labeled_graph.Builder.fresh_edge b ~src:0 ~dst:1 ~label:(Const.str "e"));
  ignore (Labeled_graph.Builder.fresh_edge b ~src:1 ~dst:2 ~label:(Const.str "e"));
  ignore (Labeled_graph.Builder.fresh_edge b ~src:2 ~dst:2 ~label:(Const.str "e"));
  let snap = Snapshot.of_labeled (Labeled_graph.Builder.freeze b) in
  let stats = Join.Index.label_stats (Join.Index.get snap) in
  let e = Array.to_list stats |> List.find (fun s -> s.Join.Index.name = "e") in
  checki "distinct pairs" 3 e.Join.Index.pairs;
  checki "distinct src" 3 e.Join.Index.distinct_src;
  checki "self loops" 1 e.Join.Index.self_loops;
  checkb "describe nonempty" true
    (String.length (Join.Index.describe (Join.Index.get snap)) > 0)

(* ---------- QCheck: engine = oracle ---------- *)

let graph_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nodes = int_range 1 7 in
    let* edges = int_range 0 14 in
    return (seed, nodes, edges))

let make_inst (seed, nodes, edges) =
  Snapshot.of_labeled
    (Gen_graph.random_labeled (Splitmix.create seed) ~nodes ~edges
       ~node_labels:[ "a"; "b" ] ~edge_labels:[ "x"; "y" ])

let cq_body_vars body =
  List.fold_left
    (fun acc a ->
      let vs = match a with Cq.Node (_, v) -> [ v ] | Cq.Edge (_, v, w) -> [ v; w ] in
      List.fold_left (fun acc v -> if List.mem v acc then acc else acc @ [ v ]) acc vs)
    [] body

let cq_gen =
  let open QCheck2.Gen in
  let var = oneofl [ "x"; "y"; "z" ] in
  let atom =
    oneof
      [
        map2 (fun l v -> Cq.node_atom l v) (oneofl [ "a"; "b" ]) var;
        map3 (fun l v w -> Cq.edge_atom l v w) (oneofl [ "x"; "y" ]) var var;
      ]
  in
  let* body = list_size (int_range 1 4) atom in
  let* full_head = bool in
  let* g = graph_gen in
  return (g, body, full_head)

let prop_cq_wcoj_equals_backtrack =
  QCheck2.Test.make ~name:"CQ: WCOJ = backtracking oracle" ~count:150 cq_gen
    (fun (g, body, full_head) ->
      let inst = make_inst g in
      let vars = cq_body_vars body in
      (* Proper projections exercise the dedup table; full heads the
         no-dedup fast path. *)
      let head = if full_head then vars else [ List.hd vars ] in
      let q = Cq.query ~head ~body in
      Cq.answers inst q = Cq.answers_backtrack inst q)

let crpq_case_gen =
  QCheck2.Gen.(
    let* g = graph_gen in
    let* r1 = int_bound 1_000_000 in
    let* r2 = int_bound 1_000_000 in
    let* r3 = int_bound 1_000_000 in
    let* shape = int_bound 4 in
    return (g, r1, r2, r3, shape))

let crpq_of_case (g, r1, r2, r3, shape) =
  let inst = make_inst g in
  let params =
    { Gen_regex.default with node_labels = [ "a"; "b" ]; edge_labels = [ "x"; "y" ]; max_depth = 2 }
  in
  let regex seed = Gen_regex.generate ~params (Splitmix.create seed) in
  let atom src seed dst = Crpq.atom ~src ~regex:(regex seed) ~dst in
  let head, body =
    match shape with
    | 0 -> ([ "x"; "y" ], [ atom "x" r1 "y" ])
    | 1 -> ([ "x"; "z" ], [ atom "x" r1 "y"; atom "y" r2 "z" ])
    | 2 -> ([ "x"; "y" ], [ atom "x" r1 "y"; atom "x" r2 "y" ])
    | 3 ->
        (* Cyclic: the triangle shape the engine is optimal on. *)
        ([ "x"; "y"; "z" ], [ atom "x" r1 "y"; atom "y" r2 "z"; atom "z" r3 "x" ])
    | _ ->
        (* Self-loop atom plus an outgoing edge. *)
        ([ "x"; "y" ], [ atom "x" r1 "x"; atom "x" r2 "y" ])
  in
  (inst, Crpq.query ~head ~body ())

let prop_crpq_wcoj_equals_backtrack =
  QCheck2.Test.make ~name:"CRPQ: WCOJ = backtracking oracle (cyclic shapes)" ~count:80
    crpq_case_gen
    (fun case ->
      let inst, q = crpq_of_case case in
      Crpq.answers ~max_length:3 inst q = Crpq.answers_backtrack ~max_length:3 inst q)

let prop_crpq_budget_partial_subset =
  QCheck2.Test.make ~name:"CRPQ: tripped budget yields subset" ~count:60
    QCheck2.Gen.(pair crpq_case_gen (int_bound 24))
    (fun (case, k) ->
      let inst, q = crpq_of_case case in
      let full = Crpq.answers ~max_length:3 inst q in
      let b = Budget.create ~trip_after_checks:k () in
      let partial = Crpq.answers ~budget:b ~max_length:3 inst q in
      List.for_all (fun row -> List.mem row full) partial)

(* Random materialized atoms of arity 1-3 over variables a..d (repeats
   allowed), with duplicate rows and empty relations.  Ids come either
   from 0..7 (dense collisions) or from an 8-id pool drawn from
   0..2^20, so the radix sort runs three passes per column. *)
let atoms_gen =
  let open QCheck2.Gen in
  let* wide = bool in
  let* pool = array_size (return 8) (int_bound (if wide then 1 lsl 20 else 7)) in
  let atom =
    let* arity = int_range 1 3 in
    let* avars = array_size (return arity) (oneofl [ "a"; "b"; "c"; "d" ]) in
    let id = map (Array.get pool) (int_bound 7) in
    let* rows = list_size (int_range 0 10) (array_size (return arity) id) in
    let* dups = int_bound 3 in
    return (avars, List.filteri (fun i _ -> i < dups) rows @ rows)
  in
  let* atoms = list_size (int_range 1 3) atom in
  let* seed = int_bound 1_000_000 in
  return (atoms, seed)

let spec_of_rows (avars, rows) =
  Join.atom avars
    (match Array.length avars with
    | 1 -> Join.Set (Array.of_list (List.map (fun r -> r.(0)) rows))
    | 2 -> Join.Pairs (List.map (fun r -> (r.(0), r.(1))) rows)
    | _ -> Join.Rows3 (List.map (fun r -> (r.(0), r.(1), r.(2))) rows))

(* Every assignment consistent with every atom, by nested loops over
   the atoms' rows. *)
let nested_loop_join atoms =
  let extend env avars row =
    let rec go env i =
      if i = Array.length avars then Some env
      else
        match List.assoc_opt avars.(i) env with
        | Some x when x <> row.(i) -> None
        | Some _ -> go env (i + 1)
        | None -> go ((avars.(i), row.(i)) :: env) (i + 1)
    in
    go env 0
  in
  List.fold_left
    (fun envs (avars, rows) ->
      List.concat_map (fun env -> List.filter_map (extend env avars) rows) envs)
    [ [] ] atoms

(* A shuffled copy of [l], drawn from [rng]. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Splitmix.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let prop_join_equals_nested_loop =
  QCheck2.Test.make ~name:"Join.solve = nested-loop oracle (radix-built tries)" ~count:300
    atoms_gen
    (fun (atoms, seed) ->
      let rng = Splitmix.create seed in
      let all =
        List.sort_uniq compare (List.concat_map (fun (avars, _) -> Array.to_list avars) atoms)
      in
      (* A random non-empty projection, in random order. *)
      let vars = List.filteri (fun i _ -> i = 0 || Splitmix.bool rng) (shuffle rng all) in
      let expected =
        List.sort_uniq compare
          (List.map (fun env -> List.map (fun v -> List.assoc v env) vars) (nested_loop_join atoms))
      in
      let specs = List.map spec_of_rows atoms in
      let hint = Array.of_list (shuffle rng all) in
      collect specs ~vars = expected && collect ~order_hint:hint specs ~vars = expected)

(* BGP: random tiny stores, mixed triple and path patterns. *)

let bgp_subjects = [| Term.iri "s0"; Term.iri "s1"; Term.iri "s2"; Term.iri "s3" |]
let bgp_preds = [| Term.iri "p"; Term.iri "q" |]

let bgp_gen =
  let open QCheck2.Gen in
  let triple =
    let* s = int_bound 3 in
    let* p = int_bound 1 in
    let* o = int_bound 3 in
    return (Triple_store.triple bgp_subjects.(s) bgp_preds.(p) bgp_subjects.(o))
  in
  let comp =
    oneof
      [
        map (fun v -> Bgp.v v) (oneofl [ "x"; "y"; "z" ]);
        map (fun i -> Bgp.c bgp_subjects.(i)) (int_bound 3);
      ]
  in
  let triple_pat =
    let* s = comp in
    let* p = oneof [ map (fun i -> Bgp.c bgp_preds.(i)) (int_bound 1); return (Bgp.v "w") ] in
    let* o = comp in
    return (Bgp.pattern s p o)
  in
  let path_pat =
    let* s = comp in
    let* o = comp in
    let* re = oneofl [ "p"; "q"; "p/q"; "(p+q)*"; "p^-" ] in
    return (Bgp.path_pattern s (Regex_parser.parse re) o)
  in
  let* triples = list_size (int_range 0 16) triple in
  let* where = list_size (int_range 1 3) (oneof [ triple_pat; triple_pat; path_pat ]) in
  return (triples, where)

let prop_bgp_wcoj_equals_backtrack =
  QCheck2.Test.make ~name:"BGP: WCOJ = backtracking oracle" ~count:120
    QCheck2.Gen.(pair bgp_gen (int_bound 1_000_000))
    (fun ((triples, where), seed) ->
      let store = Triple_store.create () in
      Triple_store.add_all store triples;
      (* A random non-empty subset of the variables, in random order:
         proper subsets go through the join's id-row projection. *)
      let rng = Splitmix.create seed in
      let select =
        List.filteri
          (fun i _ -> i = 0 || Splitmix.bool rng)
          (shuffle rng (List.sort_uniq compare (List.concat_map Bgp.pattern_vars where)))
      in
      let q = { Bgp.select; where } in
      Bgp.select store q = Bgp.select_backtrack store q)

(* ---------- budget fault-injection sweeps ---------- *)

(* Probe with an untrippable budget to count check sites, then replay
   with the trip armed at every site: no escaping exception, and a
   sound (subset) result each time. *)
let fault_sweep ~name run =
  let probe = Budget.create ~max_steps:max_int () in
  checkb (name ^ ": complete under untrippable budget") true (run probe);
  let sites = Budget.checks_performed probe in
  checkb (name ^ ": budget is polled") true (sites > 0);
  for k = 0 to sites - 1 do
    let b = Budget.create ~trip_after_checks:k () in
    match run b with
    | sound -> if not sound then Alcotest.failf "%s: unsound at trip %d" name k
    | exception e ->
        Alcotest.failf "%s: escaped %s at trip %d" name (Printexc.to_string e) k
  done

let subset partial full = List.for_all (fun row -> List.mem row full) partial

let sweep_inst () = make_inst (0xfeed, 7, 14)

let test_budget_sweep_cq () =
  let inst = sweep_inst () in
  let q =
    Cq.query ~head:[ "x"; "z" ]
      ~body:[ Cq.edge_atom "x" "x" "y"; Cq.edge_atom "y" "y" "z"; Cq.edge_atom "x" "z" "x" ]
  in
  let full = Cq.answers inst q in
  fault_sweep ~name:"Cq.answers" (fun b -> subset (Cq.answers ~budget:b inst q) full)

let test_budget_sweep_crpq () =
  let inst = sweep_inst () in
  let q = Crpq_parser.parse "SELECT x, z WHERE (x)-[x]->(y), (y)-[(x+y)*]->(z), (z)-[y]->(x)" in
  let full = Crpq.answers ~max_length:3 inst q in
  fault_sweep ~name:"Crpq.answers" (fun b ->
      subset (Crpq.answers ~budget:b ~max_length:3 inst q) full)

let test_budget_sweep_bgp () =
  let store = Triple_store.create () in
  let t s p o = Triple_store.triple bgp_subjects.(s) bgp_preds.(p) bgp_subjects.(o) in
  Triple_store.add_all store
    [ t 0 0 1; t 1 0 2; t 2 0 3; t 3 1 0; t 1 1 3; t 2 1 1; t 0 1 2 ];
  let q =
    {
      Bgp.select = [ "x"; "z" ];
      where =
        [
          Bgp.pattern (Bgp.v "x") (Bgp.c bgp_preds.(0)) (Bgp.v "y");
          Bgp.path_pattern (Bgp.v "y") (Regex_parser.parse "(p+q)*") (Bgp.v "z");
        ];
    }
  in
  let full = Bgp.select store q in
  fault_sweep ~name:"Bgp.select" (fun b -> subset (Bgp.select ~budget:b store q) full)

(* ---------- CRPQ parser adversarial cases ---------- *)

let loop_snapshot () =
  let b = Labeled_graph.Builder.create () in
  let n i = Labeled_graph.Builder.add_node b (Const.str (string_of_int i)) ~label:(Const.str "a") in
  let n0 = n 0 and n1 = n 1 in
  ignore (Labeled_graph.Builder.fresh_edge b ~src:n0 ~dst:n0 ~label:(Const.str "e"));
  ignore (Labeled_graph.Builder.fresh_edge b ~src:n0 ~dst:n1 ~label:(Const.str "e"));
  Snapshot.of_labeled (Labeled_graph.Builder.freeze b)

let test_parser_repeated_head_and_self_loop () =
  let q = Crpq_parser.parse "SELECT x, x WHERE (x)-[e]->(x)" in
  let inst = loop_snapshot () in
  (* Only node 0 has a self-loop; the repeated head repeats its value. *)
  checkb "self-loop answers" true (Crpq.answers inst q = [ [ 0; 0 ] ]);
  checkb "oracle agrees" true (Crpq.answers inst q = Crpq.answers_backtrack inst q)

let test_parser_duplicate_atoms () =
  let inst = sweep_inst () in
  let dup = Crpq_parser.parse "SELECT x, y WHERE (x)-[x]->(y), (x)-[x]->(y)" in
  let single = Crpq_parser.parse "SELECT x, y WHERE (x)-[x]->(y)" in
  checkb "duplicate atom is idempotent" true (Crpq.answers inst dup = Crpq.answers inst single);
  checkb "oracle agrees" true (Crpq.answers inst dup = Crpq.answers_backtrack inst dup)

let test_empty_body_query () =
  let inst = loop_snapshot () in
  let q = Crpq.query ~head:[] ~body:[] () in
  checkb "empty body has one empty answer" true (Crpq.answers inst q = [ [] ]);
  checkb "oracle agrees" true (Crpq.answers_backtrack inst q = [ [] ])

let test_head_variable_unbound () =
  let inst = loop_snapshot () in
  let q =
    Crpq.query ~head:[ "ghost" ]
      ~body:[ Crpq.atom ~src:"x" ~regex:(Regex_parser.parse "e") ~dst:"y" ]
      ()
  in
  checkb "unbound head raises" true
    (match Crpq.answers inst q with exception _ -> true | _ -> false);
  let cq = Cq.query ~head:[ "ghost" ] ~body:[ Cq.edge_atom "e" "x" "y" ] in
  checkb "unbound CQ head raises" true
    (match Cq.answers inst cq with exception _ -> true | _ -> false);
  (* The parser rejects it up front, pointing at the head variable. *)
  match Crpq_parser.parse "SELECT x, ghost WHERE (x)-[e]->(y)" with
  | exception Crpq_parser.Error { position; _ } -> checki "error at the head variable" 10 position
  | _ -> Alcotest.fail "expected Crpq_parser.Error"

let test_parser_malformed () =
  let bad =
    [
      "";
      "SELECT";
      "SELECT x";
      "SELECT x WHERE";
      "SELECT x, WHERE (x)-[e]->(y)";
      "SELECT x WHERE (x)-[e]->";
      "SELECT x WHERE (x)-[e->(y)";
      "SELECT x WHERE (x)-[e]->(y";
      "SELECT x WHERE (x)-[e]->(y) trailing";
      "WHERE (x)-[e]->(y)";
    ]
  in
  List.iter
    (fun s -> checkb ("rejects " ^ (if s = "" then "<empty>" else s)) true (Crpq_parser.parse_opt s = None))
    bad;
  match Crpq_parser.parse "SELECT x WHERE (x)-[e]->" with
  | exception Crpq_parser.Error { position; _ } ->
      checkb "error carries a position" true (position >= 0)
  | _ -> Alcotest.fail "expected Crpq_parser.Error"

(* ---------- domain parallelism ---------- *)

(* Four domains run the same CQ and CRPQ joins on one fresh snapshot,
   racing to build its join index and label postings, and every answer
   must equal the sequential one on a twin snapshot.  The CRPQ atoms are
   single labels (forward and inverse), which the join serves from the
   index; other regex atoms evaluate through plan-cached products,
   which are not domain-safe. *)
let test_domain_parallel_joins () =
  let inst () =
    Snapshot.of_labeled
      (Gen_graph.random_labeled (Splitmix.create 17) ~nodes:300 ~edges:1500
         ~node_labels:[ "a"; "b"; "c" ] ~edge_labels:[ "x"; "y"; "z" ])
  in
  let cqs =
    [
      Cq.query ~head:[ "x"; "y"; "z" ]
        ~body:
          [
            Cq.node_atom "a" "x";
            Cq.edge_atom "x" "x" "y";
            Cq.edge_atom "y" "y" "z";
            Cq.node_atom "b" "z";
          ];
      Cq.query ~head:[ "x" ]
        ~body:[ Cq.edge_atom "x" "x" "y"; Cq.edge_atom "y" "y" "z"; Cq.edge_atom "z" "z" "x" ];
      Cq.query ~head:[ "y" ] ~body:[ Cq.node_atom "c" "y"; Cq.edge_atom "z" "y" "y" ];
    ]
  in
  let crpqs =
    List.map Crpq_parser.parse
      [
        "SELECT x, y, z WHERE (x)-[x]->(y), (y)-[y]->(z), (z)-[z]->(x)";
        "SELECT x, z WHERE (x)-[y]->(y), (y)-[x^-]->(z)";
      ]
  in
  let run snap = (List.map (Cq.answers snap) cqs, List.map (Crpq.answers snap) crpqs) in
  let expected = run (inst ()) in
  checkb "non-trivial answers" true
    (List.exists (( <> ) []) (fst expected) && List.exists (( <> ) []) (snd expected));
  let shared = inst () in
  let domains = List.init 4 (fun _ -> Domain.spawn (fun () -> run shared)) in
  List.iter (fun d -> checkb "domain answers = sequential" true (Domain.join d = expected)) domains

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_join"
    [
      ( "solver",
        [
          Alcotest.test_case "triangle over pairs" `Quick test_triangle_pairs;
          Alcotest.test_case "CSR trie = pairs" `Quick test_csr_matches_pairs;
          Alcotest.test_case "singleton Set pins a constant" `Quick test_set_pins_constant;
          Alcotest.test_case "ternary relation" `Quick test_rows3;
          Alcotest.test_case "repeated-variable atom" `Quick test_repeated_variable_atom;
          Alcotest.test_case "projection dedup" `Quick test_projection_dedup;
          Alcotest.test_case "empty and invalid specs" `Quick test_empty_and_invalid;
          Alcotest.test_case "order hint" `Quick test_order_hint;
          Alcotest.test_case "plan covers variables" `Quick test_plan_covers_vars;
          Alcotest.test_case "index label stats" `Quick test_index_label_stats;
          Alcotest.test_case "four domains = sequential" `Quick test_domain_parallel_joins;
        ] );
      ( "equivalence",
        q
          [
            prop_cq_wcoj_equals_backtrack;
            prop_crpq_wcoj_equals_backtrack;
            prop_bgp_wcoj_equals_backtrack;
            prop_join_equals_nested_loop;
            prop_crpq_budget_partial_subset;
          ] );
      ( "budget",
        [
          Alcotest.test_case "CQ fault sweep" `Quick test_budget_sweep_cq;
          Alcotest.test_case "CRPQ fault sweep" `Quick test_budget_sweep_crpq;
          Alcotest.test_case "BGP fault sweep" `Quick test_budget_sweep_bgp;
        ] );
      ( "parser-adversarial",
        [
          Alcotest.test_case "repeated head + self-loop" `Quick
            test_parser_repeated_head_and_self_loop;
          Alcotest.test_case "duplicate atoms" `Quick test_parser_duplicate_atoms;
          Alcotest.test_case "empty body" `Quick test_empty_body_query;
          Alcotest.test_case "unbound head variable" `Quick test_head_variable_unbound;
          Alcotest.test_case "malformed input" `Quick test_parser_malformed;
        ] );
    ]
