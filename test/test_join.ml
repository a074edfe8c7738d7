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
module Crpq = Gqkg_logic.Crpq
module Crpq_parser = Gqkg_logic.Crpq_parser
module Bgp = Gqkg_kg.Bgp
module Term = Gqkg_kg.Term
module Triple_store = Gqkg_kg.Triple_store
module Gen_graph = Gqkg_workload.Gen_graph
module Gen_regex = Gqkg_workload.Gen_regex
module Regex = Gqkg_automata.Regex
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

(* A CQ is a CRPQ over label atoms.  Bodies mix node-label atoms
   (v, ?a, v), which compile to postings sets; node tests with src <> dst,
   which stay materialized; single-label edge atoms (self-loops
   included), forward and inverse; under every kind of [max_length]:
   absent, negative (node atoms stay product runs), 0 (no edge step)
   and 2. *)
let cq_gen =
  let open QCheck2.Gen in
  let var = oneofl [ "x"; "y"; "z" ] in
  let node_test = map Regex.node_label (oneofl [ "a"; "b"; "c" ]) in
  let edge =
    let* l = oneofl [ "x"; "y" ] in
    let* inverse = bool in
    return (if inverse then Regex.Bwd (Regex.Atom (Atom.Label (Const.str l))) else Regex.label l)
  in
  let atom =
    oneof
      [
        map2 (fun r v -> Crpq.atom ~src:v ~regex:r ~dst:v) node_test var;
        map3 (fun r v w -> Crpq.atom ~src:v ~regex:r ~dst:w) node_test var var;
        map3 (fun r v w -> Crpq.atom ~src:v ~regex:r ~dst:w) edge var var;
      ]
  in
  let* body = list_size (int_range 1 4) atom in
  let* full_head = bool in
  let* max_length = oneofl [ None; Some (-1); Some 0; Some 2 ] in
  let* g = graph_gen in
  return (g, body, full_head, max_length)

let prop_cq_wcoj_equals_backtrack =
  QCheck2.Test.make ~name:"CQ: WCOJ = backtracking oracle" ~count:300 cq_gen
    (fun (g, body, full_head, max_length) ->
      let inst = make_inst g in
      let vars =
        List.fold_left
          (fun acc v -> if List.mem v acc then acc else acc @ [ v ])
          []
          (List.concat_map (fun (a : Crpq.atom) -> [ a.src; a.dst ]) body)
      in
      (* Proper projections exercise the dedup table; full heads the
         no-dedup fast path. *)
      let head = if full_head then vars else [ List.hd vars ] in
      let q = Crpq.query ~head ~body () in
      let wcoj = Crpq.answers ?max_length inst q in
      wcoj = Crpq.answers_backtrack ?max_length inst q
      && (inst.Snapshot.num_nodes > 8 || wcoj = Crpq.answers_naive ?max_length inst q))

(* The compile behind the property above: only (v, ?a, v) under an
   absent or non-negative [max_length] reads the label's postings.  The
   answers cannot show the negative case, because the product run also
   admits zero-length paths under a negative bound. *)
let test_node_atom_compile () =
  let inst = make_inst (17, 40, 80) in
  (* The bracketed iterator kind ending each "N endpoint pairs [kind]"
     line of the plan. *)
  let kinds ?max_length text =
    String.split_on_char '\n' (Crpq.explain ?max_length inst (Crpq_parser.parse text))
    |> List.filter_map (fun line ->
           match String.rindex_opt line '[' with
           | Some i when line.[0] = ' ' && String.ends_with ~suffix:"]" line ->
               Some (String.sub line i (String.length line - i))
           | _ -> None)
  in
  let node_edge = "SELECT x, y WHERE (x:a), (x)-[x]->(y)" in
  checkb "node atom is a set" true (kinds node_edge = [ "[set]"; "[csr]" ]);
  checkb "length 0 keeps the set" true (kinds ~max_length:0 node_edge = [ "[set]"; "[pairs]" ]);
  checkb "negative length materializes" true
    (kinds ~max_length:(-1) node_edge = [ "[pairs]"; "[pairs]" ]);
  checkb "src <> dst materializes" true (kinds "SELECT x, y WHERE (x)-[?a]->(y)" = [ "[pairs]" ])

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

(* The greedy backtracking join over store ids, the pre-WCOJ evaluator:
   cheapest pattern first under the current bindings, each pattern read
   through the store's pattern API (triples) or its endpoint pairs on
   the store's frozen view (paths). *)
let select_backtrack store (q : Bgp.query) =
  let view = Triple_store.view store in
  let env = Hashtbl.create 8 in
  let id = function
    | Bgp.Const t -> (
        match Triple_store.id_of store t with Some i -> `Id i | None -> `Missing)
    | Bgp.Var x -> ( match Hashtbl.find_opt env x with Some i -> `Id i | None -> `Open)
  in
  let bound c = match id c with `Id i -> Some (Some i) | `Open -> Some None | `Missing -> None in
  let path_pairs path =
    let sid = view.Triple_store.store_id in
    List.map (fun (a, b) -> (sid.(a), sid.(b))) (Join.path_pairs view.Triple_store.snap path)
  in
  (* Every match of one pattern under [env], as (component, id) lists. *)
  let matches = function
    | Bgp.Triple { ps; pp; po } -> (
        match (bound ps, bound pp, bound po) with
        | Some s, Some p, Some o ->
            let acc = ref [] in
            Triple_store.iter_matching_ids store ~s ~p ~o (fun a b c ->
                acc := [ (ps, a); (pp, b); (po, c) ] :: !acc);
            !acc
        | _ -> [])
    | Bgp.Path { src; path; dst } -> (
        match (bound src, bound dst) with
        | Some s, Some d ->
            List.filter_map
              (fun (a, b) ->
                let fits bound v = Option.fold ~none:true ~some:(( = ) v) bound in
                if fits s a && fits d b then Some [ (src, a); (dst, b) ] else None)
              (path_pairs path)
        | _ -> [])
  in
  let rows = ref [] in
  let rec solve = function
    | [] ->
        rows :=
          List.map (fun x -> Triple_store.term_of store (Hashtbl.find env x)) q.Bgp.select :: !rows
    | remaining ->
        let cost p = List.length (matches p) in
        let best =
          List.fold_left (fun b p -> if cost p < cost b then p else b) (List.hd remaining) remaining
        in
        let rest = List.filter (fun p -> p != best) remaining in
        List.iter
          (fun binds ->
            let added = ref [] in
            let ok =
              List.for_all
                (fun (c, i) ->
                  match (c, id c) with
                  | _, `Id j -> i = j
                  | Bgp.Var x, `Open ->
                      Hashtbl.replace env x i;
                      added := x :: !added;
                      true
                  | _ -> false)
                binds
            in
            if ok then solve rest;
            List.iter (Hashtbl.remove env) !added)
          (matches best)
  in
  solve q.Bgp.where;
  List.sort_uniq (List.compare Term.compare) !rows

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
      Bgp.select store q = select_backtrack store q)

(* BGP against a nested-loop evaluator over the inserted triple list,
   which reads no store.  The pool gives two IRIs the local name
   "knows", uses s1 both as a predicate and as a subject or object,
   keeps q predicate-only, and offers a constant in no triple. *)
let naive_nodes = [| Term.iri "urn:x/s0"; Term.iri "urn:x/s1"; Term.iri "urn:x/s2"; Term.literal "v" |]

let naive_preds =
  [| Term.iri "urn:a/knows"; Term.iri "urn:b/knows"; Term.iri "urn:x/s1"; Term.iri "urn:p/q" |]

(* An edge satisfies label l when its predicate is l or has local name l. *)
let names l = function
  | Term.Iri i as t -> String.equal i l || String.equal (Term.local_name t) l
  | Term.Literal _ | Term.Bnode _ -> false

(* Endpoint pairs of a path expression; zero-length paths sit at the
   subject/object terms. *)
let rec naive_path (triples : Triple_store.triple list) r =
  let uniq = List.sort_uniq compare in
  let edges test =
    List.filter_map
      (fun (t : Triple_store.triple) ->
        let atom = function Atom.Label c -> names (Const.to_string c) t.p | _ -> false in
        if Regex.eval_test atom test then Some (t.s, t.o) else None)
      triples
  in
  let compose r1 r2 =
    let after y = List.filter_map (fun (y', z) -> if y = y' then Some z else None) r2 in
    uniq (List.concat_map (fun (x, y) -> List.map (fun z -> (x, z)) (after y)) r1)
  in
  match r with
  | Regex.Fwd test -> uniq (edges test)
  | Regex.Bwd test -> uniq (List.map (fun (a, b) -> (b, a)) (edges test))
  | Regex.Alt (a, b) -> uniq (naive_path triples a @ naive_path triples b)
  | Regex.Seq (a, b) -> compose (naive_path triples a) (naive_path triples b)
  | Regex.Star a ->
      let step = naive_path triples a in
      let rec fix acc =
        let next = uniq (acc @ compose acc step) in
        if List.length next = List.length acc then acc else fix next
      in
      let ends (t : Triple_store.triple) = [ (t.s, t.s); (t.o, t.o) ] in
      fix (uniq (List.concat_map ends triples))
  | Regex.Node_test _ -> invalid_arg "naive_path: node tests are not generated"

let naive_select triples (q : Bgp.query) =
  let triples = List.sort_uniq compare triples in
  let unify env c value =
    match c with
    | Bgp.Const t -> if t = value then Some env else None
    | Bgp.Var x -> (
        match List.assoc_opt x env with
        | Some v -> if v = value then Some env else None
        | None -> Some ((x, value) :: env))
  in
  let step env = function
    | Bgp.Triple { ps; pp; po } ->
        List.filter_map
          (fun (t : Triple_store.triple) ->
            Option.bind (unify env ps t.s) (fun env ->
                Option.bind (unify env pp t.p) (fun env -> unify env po t.o)))
          triples
    | Bgp.Path { src; path; dst } ->
        List.filter_map
          (fun (a, b) -> Option.bind (unify env src a) (fun env -> unify env dst b))
          (naive_path triples path)
  in
  let envs =
    List.fold_left (fun envs pat -> List.concat_map (fun env -> step env pat) envs) [ [] ] q.where
  in
  List.sort_uniq (List.compare Term.compare)
    (List.map (fun env -> List.map (fun x -> List.assoc x env) q.select) envs)

let naive_gen =
  let open QCheck2.Gen in
  let triple =
    map3
      (fun s p o -> Triple_store.triple naive_nodes.(s) naive_preds.(p) naive_nodes.(o))
      (int_bound 2) (int_bound 3) (int_bound 3)
  in
  let var = map Bgp.v (oneofl [ "x"; "y"; "z" ]) in
  let const pool = map Bgp.c (oneofl (Term.iri "urn:x/absent" :: Array.to_list pool)) in
  let node = oneof [ var; var; const (Array.append naive_nodes naive_preds) ] in
  let triple_pat = map3 Bgp.pattern node (oneof [ var; const naive_preds ]) node in
  let path_pat =
    map3
      (fun s re o -> Bgp.path_pattern s (Regex_parser.parse re) o)
      node
      (oneofl [ "knows"; "knows/knows^-"; "(knows+q)*"; "s1"; "q*" ])
      node
  in
  let* triples = list_size (int_range 0 14) triple in
  let* where = list_size (int_range 1 3) (oneof [ triple_pat; triple_pat; path_pat ]) in
  return (triples, where)

let prop_bgp_equals_naive =
  QCheck2.Test.make ~name:"BGP: WCOJ = nested loops over the inserted triples" ~count:300
    QCheck2.Gen.(pair naive_gen (int_bound 1_000_000))
    (fun ((triples, where), seed) ->
      let store = Triple_store.create () in
      (* Every triple twice: re-adds must not change an answer. *)
      Triple_store.add_all store (triples @ triples);
      let rng = Splitmix.create seed in
      let select =
        List.filteri
          (fun i _ -> i = 0 || Splitmix.bool rng)
          (shuffle rng (List.sort_uniq compare (List.concat_map Bgp.pattern_vars where)))
      in
      let q = { Bgp.select; where } in
      Bgp.select store q = naive_select triples q)

(* Zero-length paths: the reflexive pairs of a starred path are exactly the
   subject/object terms, and a predicate-only constant is no node.  On
   the default contact graph (seed 42) in its RDF encoding there are
   417 such terms. *)
let test_bgp_zero_length_paths () =
  let pg = Gqkg_workload.Contact_network.scaled (Splitmix.create 42) ~scale:1 in
  let store = Gqkg_kg.Pg_rdf.of_property_graph pg in
  let terms =
    List.sort_uniq Term.compare
      (List.concat_map (fun (t : Triple_store.triple) -> [ t.s; t.o ]) (Triple_store.to_list store))
  in
  let star = Regex_parser.parse "rides*" in
  let pairs =
    Bgp.select store
      { Bgp.select = [ "x"; "y" ]; where = [ Bgp.path_pattern (Bgp.v "x") star (Bgp.v "y") ] }
  in
  let reflexive = List.filter_map (function [ a; b ] when a = b -> Some a | _ -> None) pairs in
  checkb "reflexive pairs = subject/object terms" true (reflexive = terms);
  checki "417 subject/object terms" 417 (List.length terms);
  let rides = Gqkg_kg.Pg_rdf.rel_iri (Const.str "rides") in
  checki "a predicate-only constant answers nothing" 0
    (List.length
       (Bgp.select store
          { Bgp.select = [ "y" ]; where = [ Bgp.path_pattern (Bgp.c rides) star (Bgp.v "y") ] }))

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
  let q = Crpq_parser.parse "SELECT x, z WHERE (x)-[x]->(y), (y)-[y]->(z), (z)-[x]->(x), (x:a)" in
  let full = Crpq.answers inst q in
  fault_sweep ~name:"Crpq.answers (CQ)" (fun b -> subset (Crpq.answers ~budget:b inst q) full)

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
  let cq =
    Crpq.query ~head:[ "ghost" ]
      ~body:[ Crpq.atom ~src:"x" ~regex:(Regex.node_label "a") ~dst:"x" ]
      ()
  in
  checkb "unbound CQ head raises" true
    (match Crpq.answers inst cq with exception _ -> true | _ -> false);
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

(* Four domains run the same CQ-shaped and CRPQ joins on one fresh
   snapshot, racing to build its join index and label postings, and
   every answer must equal the sequential one on a twin snapshot.  The
   atoms are node labels, which the join reads as postings sets, and
   single edge labels (forward and inverse), which it serves from the
   index; other regex atoms evaluate through plan-cached products,
   which are not domain-safe. *)
let test_domain_parallel_joins () =
  let inst () =
    Snapshot.of_labeled
      (Gen_graph.random_labeled (Splitmix.create 17) ~nodes:300 ~edges:1500
         ~node_labels:[ "a"; "b"; "c" ] ~edge_labels:[ "x"; "y"; "z" ])
  in
  let cqs =
    List.map Crpq_parser.parse
      [
        "SELECT x, y, z WHERE (x:a), (x)-[x]->(y), (y)-[y]->(z), (z:b)";
        "SELECT x WHERE (x)-[x]->(y), (y)-[y]->(z), (z)-[z]->(x)";
        "SELECT y WHERE (y:c), (y)-[z]->(y)";
      ]
  in
  let crpqs =
    List.map Crpq_parser.parse
      [
        "SELECT x, y, z WHERE (x)-[x]->(y), (y)-[y]->(z), (z)-[z]->(x)";
        "SELECT x, z WHERE (x)-[y]->(y), (y)-[x^-]->(z)";
      ]
  in
  let run snap = (List.map (Crpq.answers snap) cqs, List.map (Crpq.answers snap) crpqs) in
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
          Alcotest.test_case "CQ node atom reads postings" `Quick test_node_atom_compile;
          Alcotest.test_case "BGP zero-length paths" `Quick test_bgp_zero_length_paths;
        ] );
      ( "equivalence",
        q
          [
            prop_cq_wcoj_equals_backtrack;
            prop_crpq_wcoj_equals_backtrack;
            prop_bgp_wcoj_equals_backtrack;
            prop_bgp_equals_naive;
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
