(* Tests for gqkg_graph: Const, multigraphs, the three data models,
   model conversions (the Section 3 hierarchy), Figure 2 and graph I/O. *)

open Gqkg_graph

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* One node's adjacency as (edge, neighbor) pairs, in walk order. *)
let adjacency_list iter s v =
  let pairs = ref [] in
  iter s v (fun e w -> pairs := (e, w) :: !pairs);
  List.rev !pairs
let checks = Alcotest.(check string)

(* ---------- Const ---------- *)

let test_const_roundtrip () =
  List.iter
    (fun c -> checkb "roundtrip" true (Const.equal c (Const.of_string (Const.to_string c))))
    [
      Const.str "person";
      Const.int 42;
      Const.real 3.5;
      Const.date ~year:2021 ~month:3 ~day:4;
      Const.bottom;
    ]

let test_const_date_rendering () =
  checks "paper style" "3/4/21" (Const.to_string (Const.date ~year:2021 ~month:3 ~day:4))

let test_const_date_parsing () =
  checkb "date" true (Const.equal (Const.of_string "3/4/21") (Const.date ~year:2021 ~month:3 ~day:4));
  checkb "full year" true
    (Const.equal (Const.of_string "3/4/2021") (Const.date ~year:2021 ~month:3 ~day:4));
  checkb "not a date" true (match Const.of_string "a/b/c" with Const.Str _ -> true | _ -> false)

let test_const_int_float_parsing () =
  checkb "int" true (Const.equal (Const.of_string "17") (Const.int 17));
  checkb "float" true (Const.equal (Const.of_string "2.5") (Const.real 2.5));
  checkb "bottom" true (Const.equal (Const.of_string "_|_") Const.bottom)

let test_const_invalid_date () =
  Alcotest.check_raises "month 13" (Invalid_argument "Const.date: invalid date") (fun () ->
      ignore (Const.date ~year:2021 ~month:13 ~day:1))

let test_const_ordering_total () =
  let values =
    [ Const.str "a"; Const.int 1; Const.real 1.0; Const.date ~year:2020 ~month:1 ~day:1; Const.bottom ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ab = Const.compare a b and ba = Const.compare b a in
          checkb "antisymmetric" true (compare ab 0 = compare 0 ba))
        values)
    values

(* ---------- Multigraph ---------- *)

let small_multigraph () =
  Multigraph.of_lists
    ~nodes:[ Const.str "a"; Const.str "b"; Const.str "c" ]
    ~edges:
      [
        (Const.str "e1", Const.str "a", Const.str "b");
        (Const.str "e2", Const.str "b", Const.str "c");
        (Const.str "e3", Const.str "a", Const.str "b");
        (* parallel edge *)
        (Const.str "e4", Const.str "c", Const.str "c");
        (* self loop *)
      ]

(* Index of the object with identifier [id] among [count] objects. *)
let index_of ~count id_of id =
  let rec go i =
    if i = count then Alcotest.fail ("no object " ^ Const.to_string id)
    else if Const.equal (id_of i) id then i
    else go (i + 1)
  in
  go 0

let multigraph_node g name = index_of ~count:(Multigraph.num_nodes g) (Multigraph.node_id g) (Const.str name)

(* Degrees counted off the endpoint columns. *)
let degree g v ~out =
  List.length
    (List.filter
       (fun e ->
         let src, dst = Multigraph.endpoints g e in
         (if out then src else dst) = v)
       (List.init (Multigraph.num_edges g) Fun.id))

let test_multigraph_shape () =
  let g = small_multigraph () in
  checki "nodes" 3 (Multigraph.num_nodes g);
  checki "edges" 4 (Multigraph.num_edges g);
  let a = multigraph_node g "a" in
  checki "out degree with parallel" 2 (degree g a ~out:true);
  let c = multigraph_node g "c" in
  checki "self loop out" 1 (degree g c ~out:true);
  checki "self loop in" 2 (degree g c ~out:false)

let test_multigraph_endpoints () =
  let g = small_multigraph () in
  let e2 = index_of ~count:(Multigraph.num_edges g) (Multigraph.edge_id g) (Const.str "e2") in
  let s, d = Multigraph.endpoints g e2 in
  checks "src" "b" (Const.to_string (Multigraph.node_id g s));
  checks "dst" "c" (Const.to_string (Multigraph.node_id g d))

let test_multigraph_duplicate_node_ids_merge () =
  let b = Multigraph.Builder.create () in
  let n1 = Multigraph.Builder.add_node b (Const.str "x") in
  let n2 = Multigraph.Builder.add_node b (Const.str "x") in
  checki "same index" n1 n2;
  checki "one node" 1 (Multigraph.Builder.num_nodes b)

let test_multigraph_duplicate_edge_rejected () =
  let b = Multigraph.Builder.create () in
  let n = Multigraph.Builder.add_node b (Const.str "x") in
  ignore (Multigraph.Builder.add_edge b (Const.str "e") ~src:n ~dst:n);
  Alcotest.check_raises "duplicate edge" (Invalid_argument "Multigraph.Builder.add_edge: duplicate edge e")
    (fun () -> ignore (Multigraph.Builder.add_edge b (Const.str "e") ~src:n ~dst:n))

(* The snapshot's CSR rows agree with the multigraph's endpoints: every
   out-slot is an edge leaving its node and appears among its target's
   in-slots. *)
let test_multigraph_adjacency_consistency () =
  let g = small_multigraph () in
  let s =
    Snapshot.of_labeled
      (Labeled_graph.make ~base:g
         ~node_labels:(Array.make (Multigraph.num_nodes g) (Const.str "n"))
         ~edge_labels:(Array.make (Multigraph.num_edges g) (Const.str "e")))
  in
  for v = 0 to Multigraph.num_nodes g - 1 do
    Snapshot.iter_out s v (fun e w ->
        let src, dst = Multigraph.endpoints g e in
        checki "src" v src;
        checki "dst" w dst;
        checkb "in in_adj" true (List.mem (e, v) (adjacency_list Snapshot.iter_in s w)))
  done;
  checki "every edge filed" (Multigraph.num_edges g) s.Snapshot.out_off.(Multigraph.num_nodes g)

(* ---------- Labeled graph ---------- *)

let figure2_labeled () = Figure2.labeled ()

let test_labeled_figure2 () =
  let g = figure2_labeled () in
  checki "5 nodes" 5 (Labeled_graph.num_nodes g);
  checki "6 edges" 6 (Labeled_graph.num_edges g);
  let n1 = index_of ~count:(Labeled_graph.num_nodes g) (Labeled_graph.node_id g) (Const.str "n1") in
  checks "n1 label" "person" (Const.to_string (Labeled_graph.node_label g n1));
  checki "persons" 1 (List.length (Labeled_graph.nodes_with_label g (Const.str "person")));
  checki "rides edges" 2 (List.length (Labeled_graph.edges_with_label g (Const.str "rides")))

let test_labeled_histogram () =
  let g = figure2_labeled () in
  let hist = Labeled_graph.node_label_histogram g in
  checki "5 distinct labels" 5 (List.length hist);
  List.iter (fun (_, c) -> checki "each label once" 1 c) hist

let test_labeled_atom_eval () =
  let g = figure2_labeled () in
  let n1 = index_of ~count:(Labeled_graph.num_nodes g) (Labeled_graph.node_id g) (Const.str "n1") in
  checkb "person atom" true (Labeled_graph.node_satisfies_atom g n1 (Atom.label "person"));
  checkb "not bus" false (Labeled_graph.node_satisfies_atom g n1 (Atom.label "bus"));
  (* labeled graphs know nothing about properties *)
  checkb "prop atom false" false
    (Labeled_graph.node_satisfies_atom g n1 (Atom.prop "name" (Const.str "Julia")))

(* ---------- Property graph ---------- *)

let test_property_figure2 () =
  let g = Figure2.property () in
  let n1 = index_of ~count:(Property_graph.num_nodes g) (Property_graph.node_id g) (Const.str "n1") in
  checkb "name Julia" true
    (match Property_graph.node_property g n1 (Const.str "name") with
    | Some v -> Const.equal v (Const.str "Julia")
    | None -> false);
  checkb "age 42" true
    (match Property_graph.node_property g n1 (Const.str "age") with
    | Some v -> Const.equal v (Const.int 42)
    | None -> false);
  checkb "missing prop" true (Property_graph.node_property g n1 (Const.str "zip") = None)

let test_property_edge_props () =
  let g = Figure2.property () in
  let inst = Snapshot.of_property g in
  (* e1 is the contact edge dated 3/4/21 *)
  let date = Const.date ~year:2021 ~month:3 ~day:4 in
  let found = ref 0 in
  for e = 0 to Property_graph.num_edges g - 1 do
    if Snapshot.edge_atom inst e (Atom.prop "date" date) then incr found
  done;
  checki "one contact on 3/4" 1 !found

let test_property_atom_semantics () =
  let g = Figure2.property () in
  let n1 = index_of ~count:(Property_graph.num_nodes g) (Property_graph.node_id g) (Const.str "n1") in
  checkb "label" true (Property_graph.node_satisfies_atom g n1 (Atom.label "person"));
  checkb "prop hit" true
    (Property_graph.node_satisfies_atom g n1 (Atom.prop "age" (Const.int 42)));
  checkb "prop wrong value" false
    (Property_graph.node_satisfies_atom g n1 (Atom.prop "age" (Const.int 43)))

let test_property_overwrite () =
  let b = Property_graph.Builder.create () in
  let n = Property_graph.Builder.add_node b (Const.str "x") ~label:(Const.str "l") in
  Property_graph.Builder.set_node_property b n ~prop:(Const.str "k") ~value:(Const.int 1);
  Property_graph.Builder.set_node_property b n ~prop:(Const.str "k") ~value:(Const.int 2);
  let g = Property_graph.Builder.freeze b in
  checkb "last write wins" true
    (match Property_graph.node_property g 0 (Const.str "k") with
    | Some v -> Const.equal v (Const.int 2)
    | None -> false);
  checki "single property" 1 (Array.length (Property_graph.node_properties g 0))

let test_property_schema () =
  let g = Figure2.property () in
  let node_props, edge_props = Property_graph.property_schema g in
  checkb "node schema" true
    (List.map Const.to_string node_props = [ "age"; "name"; "zip" ]);
  checkb "edge schema" true (List.map Const.to_string edge_props = [ "date" ])

(* ---------- Vector graph ---------- *)

let test_vector_figure2 () =
  let vg, schema = Figure2.vector () in
  (* dimension = 1 (label) + |{age, date, name, zip}| = 5 *)
  checki "dimension" 5 (Vector_graph.dimension vg);
  let n1 = index_of ~count:(Vector_graph.num_nodes vg) (Vector_graph.node_id vg) (Const.str "n1") in
  checkb "feature 1 is label" true (Const.equal (Vector_graph.node_feature vg n1 1) (Const.str "person"));
  let age_index = Option.get (Vector_graph.schema_feature_index schema (Const.str "age")) in
  checkb "age feature" true (Const.equal (Vector_graph.node_feature vg n1 age_index) (Const.int 42));
  (* missing property becomes bottom *)
  let zip_index = Option.get (Vector_graph.schema_feature_index schema (Const.str "zip")) in
  checkb "bottom for missing" true (Const.equal (Vector_graph.node_feature vg n1 zip_index) Const.bottom)

let test_vector_atom_semantics () =
  let vg, _schema = Figure2.vector () in
  let n1 = index_of ~count:(Vector_graph.num_nodes vg) (Vector_graph.node_id vg) (Const.str "n1") in
  checkb "feature test" true
    (Vector_graph.node_satisfies_atom vg n1 (Atom.feature 1 (Const.str "person")));
  checkb "label test delegates to f1" true
    (Vector_graph.node_satisfies_atom vg n1 (Atom.label "person"));
  checkb "out-of-range feature" false
    (Vector_graph.node_satisfies_atom vg n1 (Atom.feature 9 (Const.str "person")))

let test_vector_feature_bounds () =
  let vg, _ = Figure2.vector () in
  Alcotest.check_raises "index 0" (Invalid_argument "Vector_graph: feature index 0 outside 1..5")
    (fun () -> ignore (Vector_graph.node_feature vg 0 0))

(* ---------- Conversions (the Section 3 hierarchy, E11) ---------- *)

let test_labeled_to_property_roundtrip () =
  let lg = figure2_labeled () in
  let pg = Property_graph.of_labeled lg in
  let lg' = Property_graph.to_labeled pg in
  checki "nodes preserved" (Labeled_graph.num_nodes lg) (Labeled_graph.num_nodes lg');
  for n = 0 to Labeled_graph.num_nodes lg - 1 do
    checkb "labels preserved" true
      (Const.equal (Labeled_graph.node_label lg n) (Labeled_graph.node_label lg' n))
  done

let test_property_to_vector_roundtrip () =
  let pg = Figure2.property () in
  let vg, schema = Vector_graph.of_property pg in
  let pg' = Vector_graph.to_property vg schema in
  checki "nodes" (Property_graph.num_nodes pg) (Property_graph.num_nodes pg');
  checki "edges" (Property_graph.num_edges pg) (Property_graph.num_edges pg');
  for n = 0 to Property_graph.num_nodes pg - 1 do
    checkb "label" true (Const.equal (Property_graph.node_label pg n) (Property_graph.node_label pg' n));
    let props g = Array.to_list (Property_graph.node_properties g n) in
    checkb "node props equal" true
      (List.for_all2 (fun (p, v) (q, w) -> Const.equal p q && Const.equal v w) (props pg) (props pg'))
  done;
  for e = 0 to Property_graph.num_edges pg - 1 do
    let props g = Array.to_list (Property_graph.edge_properties g e) in
    checkb "edge props equal" true
      (List.for_all2 (fun (p, v) (q, w) -> Const.equal p q && Const.equal v w) (props pg) (props pg'))
  done

let test_labeled_to_vector () =
  let lg = figure2_labeled () in
  let vg = Vector_graph.of_labeled lg in
  checki "dimension 1" 1 (Vector_graph.dimension vg);
  for n = 0 to Labeled_graph.num_nodes lg - 1 do
    checkb "feature = label" true
      (Const.equal (Vector_graph.node_feature vg n 1) (Labeled_graph.node_label lg n))
  done

(* ---------- Snapshot view ---------- *)

let test_instance_consistency () =
  let pg = Figure2.property () in
  let inst = Snapshot.of_property pg in
  checki "nodes" (Property_graph.num_nodes pg) inst.Snapshot.num_nodes;
  checki "edges" (Property_graph.num_edges pg) inst.Snapshot.num_edges;
  for e = 0 to inst.Snapshot.num_edges - 1 do
    let s, d = (Snapshot.endpoints inst) e in
    checkb "out contains" true (List.mem (e, d) (adjacency_list Snapshot.iter_out inst s));
    checkb "in contains" true (List.mem (e, s) (adjacency_list Snapshot.iter_in inst d))
  done

(* ---------- Graph I/O ---------- *)

let test_io_roundtrip_figure2 () =
  let pg = Figure2.property () in
  let text = Graph_io.property_graph_to_string pg in
  let pg' = Graph_io.property_graph_of_string text in
  checki "nodes" (Property_graph.num_nodes pg) (Property_graph.num_nodes pg');
  checki "edges" (Property_graph.num_edges pg) (Property_graph.num_edges pg');
  for n = 0 to Property_graph.num_nodes pg - 1 do
    checkb "label" true (Const.equal (Property_graph.node_label pg n) (Property_graph.node_label pg' n));
    checkb "props" true
      (Array.for_all2
         (fun (p, v) (q, w) -> Const.equal p q && Const.equal v w)
         (Property_graph.node_properties pg n)
         (Property_graph.node_properties pg' n))
  done;
  (* Serialization is stable. *)
  checks "fixed point" text (Graph_io.property_graph_to_string pg')

let test_io_parses_comments_and_blanks () =
  let text = "# a comment\n\nnode a person\nnode b bus # trailing comment\nedge e a b rides date=3/4/21\n" in
  let pg = Graph_io.property_graph_of_string text in
  checki "2 nodes" 2 (Property_graph.num_nodes pg);
  checki "1 edge" 1 (Property_graph.num_edges pg);
  checkb "edge date" true
    (match Property_graph.edge_property pg 0 (Const.str "date") with
    | Some v -> Const.equal v (Const.date ~year:2021 ~month:3 ~day:4)
    | None -> false)

let test_io_forward_reference () =
  (* Edges may appear before the nodes they reference. *)
  let text = "edge e a b knows\nnode a person\nnode b person\n" in
  let pg = Graph_io.property_graph_of_string text in
  checki "1 edge" 1 (Property_graph.num_edges pg)

let test_io_rejects_malformed () =
  List.iter
    (fun text ->
      match Graph_io.property_graph_of_string text with
      | exception Graph_io.Parse_error _ -> ()
      | _ -> Alcotest.fail ("should reject: " ^ text))
    [ "node onlyid\n"; "edge e a b\n"; "nonsense a b\n"; "node a l badprop\n" ]

(* Corrupt-input fixtures: each must fail with the expected file, line
   and message fragment — exercising the line bookkeeping through
   comments/blank lines and the duplicate-id / undeclared-endpoint
   rejections. *)
let corrupt_fixture name = Filename.concat "../examples/corrupt" name

let expect_parse_error ~name ~line ~fragment =
  let path = corrupt_fixture name in
  match Graph_io.load_property_graph path with
  | _ -> Alcotest.fail (name ^ ": should have been rejected")
  | exception Graph_io.Parse_error { file; line = l; message } ->
      Alcotest.(check (option string)) (name ^ " file") (Some path) file;
      Alcotest.(check int) (name ^ " line") line l;
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
        loop 0
      in
      if not (contains message fragment) then
        Alcotest.fail (Printf.sprintf "%s: message %S lacks %S" name message fragment)

let test_io_corrupt_fixtures () =
  expect_parse_error ~name:"malformed-line.pg" ~line:3 ~fragment:"unknown declaration";
  expect_parse_error ~name:"duplicate-node.pg" ~line:7 ~fragment:"duplicate node id a";
  expect_parse_error ~name:"undeclared-endpoint.pg" ~line:6 ~fragment:"undeclared target ghost";
  expect_parse_error ~name:"duplicate-edge.pg" ~line:4 ~fragment:"duplicate edge id e1";
  expect_parse_error ~name:"bad-property.pg" ~line:1 ~fragment:"malformed property"

let test_io_error_rendering () =
  Alcotest.(check string) "with file" "g.pg:3: boom"
    (Graph_io.error_to_string ~file:(Some "g.pg") ~line:3 ~message:"boom");
  Alcotest.(check string) "without file" "line 3: boom"
    (Graph_io.error_to_string ~file:None ~line:3 ~message:"boom")

let test_io_dot_export () =
  let dot = Graph_io.to_dot (Figure2.property ()) in
  checkb "digraph" true (String.length dot > 10 && String.sub dot 0 7 = "digraph");
  checkb "mentions rides" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
       loop 0
     in
     contains dot "rides")


(* ---------- Journal / durable store ---------- *)

let j_ops =
  [
    Journal.Add_node { id = Const.str "a"; label = Const.str "person" };
    Journal.Add_node { id = Const.str "b"; label = Const.str "bus" };
    Journal.Add_edge { id = Const.str "e"; src = Const.str "a"; dst = Const.str "b"; label = Const.str "rides" };
    Journal.Set_node_prop { id = Const.str "a"; prop = Const.str "age"; value = Const.int 30 };
    Journal.Set_edge_prop { id = Const.str "e"; prop = Const.str "date"; value = Const.date ~year:2021 ~month:3 ~day:4 };
  ]

let test_journal_replay () =
  let g = Journal.replay_ops j_ops in
  checki "two nodes" 2 (Property_graph.num_nodes g);
  checki "one edge" 1 (Property_graph.num_edges g);
  checkb "prop applied" true
    (match Property_graph.node_property g 0 (Const.str "age") with
    | Some v -> Const.equal v (Const.int 30)
    | None -> false)

let test_journal_line_roundtrip () =
  List.iteri
    (fun i op ->
      let line = Journal.op_to_line op in
      match Journal.op_of_line ~line:(i + 1) line with
      | Some op' -> checkb ("roundtrip: " ^ line) true (op = op')
      | None -> Alcotest.fail ("no op parsed from " ^ line))
    (j_ops @ [ Journal.Del_node { id = Const.str "a" }; Journal.Del_edge { id = Const.str "e" } ])

let test_journal_delete_node_cascades () =
  let g = Journal.replay_ops (j_ops @ [ Journal.Del_node { id = Const.str "a" } ]) in
  checki "one node left" 1 (Property_graph.num_nodes g);
  checki "incident edge gone" 0 (Property_graph.num_edges g)

let test_journal_delete_edge () =
  let g = Journal.replay_ops (j_ops @ [ Journal.Del_edge { id = Const.str "e" } ]) in
  checki "nodes kept" 2 (Property_graph.num_nodes g);
  checki "edge gone" 0 (Property_graph.num_edges g)

let test_journal_invalid_sequences () =
  List.iter
    (fun ops ->
      match Journal.replay_ops ops with
      | exception Journal.Replay_error _ -> ()
      | _ -> Alcotest.fail "should reject")
    [
      [ Journal.Add_node { id = Const.str "a"; label = Const.str "l" };
        Journal.Add_node { id = Const.str "a"; label = Const.str "l" } ];
      [ Journal.Add_edge { id = Const.str "e"; src = Const.str "a"; dst = Const.str "b"; label = Const.str "l" } ];
      [ Journal.Del_node { id = Const.str "ghost" } ];
      [ Journal.Set_node_prop { id = Const.str "ghost"; prop = Const.str "p"; value = Const.int 1 } ];
    ]

let test_journal_ops_of_graph_roundtrip () =
  let pg = Figure2.property () in
  let g' = Journal.replay_ops (Journal.ops_of_graph pg) in
  Alcotest.(check string)
    "identical state"
    (Graph_io.property_graph_to_string pg)
    (Graph_io.property_graph_to_string g')

let test_journal_torn_write_recovery () =
  let text = "node a person\nnode b bus\nnprop a ag" (* torn mid-property *) in
  (match Journal.ops_of_string text with
  | exception Journal.Replay_error _ -> ()
  | _ -> Alcotest.fail "strict mode should reject the torn line");
  let ops = Journal.ops_of_string ~tolerate_partial:true text in
  checki "two surviving ops" 2 (List.length ops)

let test_journal_merge_prop_roundtrip () =
  let ops =
    [
      Journal.Merge_node { id = Const.str "a"; label = Const.str "person" };
      Journal.Merge_node { id = Const.str "a"; label = Const.str "bus" };
      Journal.Merge_edge
        { id = Const.str "e"; src = Const.str "a"; dst = Const.str "a"; label = Const.str "knows" };
      Journal.Set_node_prop { id = Const.str "a"; prop = Const.str "age"; value = Const.int 7 };
      Journal.Del_node_prop { id = Const.str "a"; prop = Const.str "age" };
      Journal.Del_node_prop { id = Const.str "a"; prop = Const.str "ghost" (* absent: no-op *) };
      Journal.Set_edge_prop { id = Const.str "e"; prop = Const.str "w"; value = Const.int 2 };
      Journal.Del_edge_prop { id = Const.str "e"; prop = Const.str "w" };
    ]
  in
  let ops' = Journal.ops_of_string (Journal.ops_to_string ops) in
  checkb "merge/del-prop lines roundtrip" true (ops = ops');
  let g = Journal.replay_ops ops in
  checki "second merge was a no-op" 1 (Property_graph.num_nodes g);
  checkb "merge kept the first label" true
    (Property_graph.node_label g 0 = Const.str "person");
  checkb "node prop removed" true (Property_graph.node_property g 0 (Const.str "age") = None);
  checkb "edge prop removed" true (Property_graph.edge_property g 0 (Const.str "w") = None)

let test_journal_error_file_context () =
  (match Journal.ops_of_string ~file:"ops.log" "node a person\nbogus b\n" with
  | exception Journal.Replay_error { file = Some "ops.log"; line = 2; _ } -> ()
  | exception Journal.Replay_error _ -> Alcotest.fail "wrong file/line context"
  | _ -> Alcotest.fail "malformed line accepted");
  match Journal.replay_ops ~file:"ops.log" [ Journal.Del_node { id = Const.str "ghost" } ] with
  | exception Journal.Replay_error { file = Some "ops.log"; line = 1; _ } -> ()
  | exception Journal.Replay_error _ -> Alcotest.fail "replay error lost its context"
  | _ -> Alcotest.fail "invalid replay accepted"

(* ---------- QCheck properties ---------- *)

let graph_gen =
  QCheck2.Gen.(
    let* seed = int_bound 10_000 in
    let* nodes = int_range 1 12 in
    let* edges = int_range 0 25 in
    return (seed, nodes, edges))

let random_property_graph (seed, nodes, edges) =
  let rng = Gqkg_util.Splitmix.create seed in
  let b = Property_graph.Builder.create () in
  let labels = [| "person"; "bus"; "address" |] in
  let props = [| "age"; "zip" |] in
  for i = 0 to nodes - 1 do
    let n =
      Property_graph.Builder.add_node b
        (Const.str (Printf.sprintf "n%d" i))
        ~label:(Const.str (Gqkg_util.Splitmix.choose rng labels))
    in
    if Gqkg_util.Splitmix.bool rng then
      Property_graph.Builder.set_node_property b n
        ~prop:(Const.str (Gqkg_util.Splitmix.choose rng props))
        ~value:(Const.int (Gqkg_util.Splitmix.int rng 100))
  done;
  for i = 0 to edges - 1 do
    let e =
      Property_graph.Builder.add_edge b
        (Const.str (Printf.sprintf "e%d" i))
        ~src:(Gqkg_util.Splitmix.int rng nodes) ~dst:(Gqkg_util.Splitmix.int rng nodes)
        ~label:(Const.str "edge")
    in
    if Gqkg_util.Splitmix.bool rng then
      Property_graph.Builder.set_edge_property b e ~prop:(Const.str "w")
        ~value:(Const.int (Gqkg_util.Splitmix.int rng 10))
  done;
  Property_graph.Builder.freeze b


let prop_journal_store_equals_replay =
  QCheck2.Test.make ~name:"journal store = replay of its ops" ~count:60
    QCheck2.Gen.(list_size (int_range 0 25) (pair (int_bound 5) (int_bound 4)))
    (fun choices ->
      (* Generate a VALID op sequence by construction: ids are picked
         from the live population. *)
      let ops = ref [] in
      let nodes = ref [] and edges = ref [] in
      let counter = ref 0 in
      List.iter
        (fun (kind, pick) ->
          let fresh prefix =
            incr counter;
            Const.str (Printf.sprintf "%s%d" prefix !counter)
          in
          let choose l = match l with [] -> None | _ -> Some (List.nth l (pick mod List.length l)) in
          match kind with
          | 0 ->
              let id = fresh "n" in
              nodes := id :: !nodes;
              ops := Journal.Add_node { id; label = Const.str "l" } :: !ops
          | 1 -> (
              match (choose !nodes, choose (List.rev !nodes)) with
              | Some src, Some dst ->
                  let id = fresh "e" in
                  edges := id :: !edges;
                  ops := Journal.Add_edge { id; src; dst; label = Const.str "e" } :: !ops
              | _ -> ())
          | 2 -> (
              match choose !nodes with
              | Some id ->
                  ops := Journal.Set_node_prop { id; prop = Const.str "p"; value = Const.int pick } :: !ops
              | None -> ())
          | 3 -> (
              match choose !edges with
              | Some id ->
                  ops := Journal.Set_edge_prop { id; prop = Const.str "p"; value = Const.int pick } :: !ops
              | None -> ())
          | 4 -> (
              match choose !edges with
              | Some id ->
                  edges := List.filter (fun e -> not (Const.equal e id)) !edges;
                  ops := Journal.Del_edge { id } :: !ops
              | None -> ())
          | _ -> (
              match choose !nodes with
              | Some id ->
                  nodes := List.filter (fun n -> not (Const.equal n id)) !nodes;
                  (* Deleting a node kills incident edges; conservatively
                     forget all edges (ids are unique, re-adding is safe). *)
                  edges := [];
                  ops := Journal.Del_node { id } :: !ops
              | None -> ()))
        choices;
      let ops = List.rev !ops in
      (* Serialize, reparse, replay: same canonical graph as direct replay. *)
      let g1 = Journal.replay_ops ops in
      let g2 = Journal.replay_ops (Journal.ops_of_string (Journal.ops_to_string ops)) in
      Graph_io.canonical_string g1 = Graph_io.canonical_string g2)

let prop_io_roundtrip =
  QCheck2.Test.make ~name:"graph i/o roundtrip" ~count:100 graph_gen (fun params ->
      let pg = random_property_graph params in
      let text = Graph_io.property_graph_to_string pg in
      let pg' = Graph_io.property_graph_of_string text in
      Graph_io.property_graph_to_string pg' = text)

let prop_vector_roundtrip =
  QCheck2.Test.make ~name:"property<->vector roundtrip" ~count:100 graph_gen (fun params ->
      let pg = random_property_graph params in
      let vg, schema = Vector_graph.of_property pg in
      let pg' = Vector_graph.to_property vg schema in
      Graph_io.property_graph_to_string pg = Graph_io.property_graph_to_string pg')

let prop_atoms_agree_across_models =
  QCheck2.Test.make ~name:"label atoms agree across models" ~count:100 graph_gen (fun params ->
      let pg = random_property_graph params in
      let lg = Property_graph.to_labeled pg in
      let vg, _ = Vector_graph.of_property pg in
      let ok = ref true in
      for n = 0 to Property_graph.num_nodes pg - 1 do
        List.iter
          (fun l ->
            let atom = Atom.label l in
            let a = Property_graph.node_satisfies_atom pg n atom in
            let b = Labeled_graph.node_satisfies_atom lg n atom in
            let c = Vector_graph.node_satisfies_atom vg n atom in
            if a <> b || b <> c then ok := false)
          [ "person"; "bus"; "address"; "nothing" ]
      done;
      !ok)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_graph"
    [
      ( "const",
        [
          Alcotest.test_case "roundtrip" `Quick test_const_roundtrip;
          Alcotest.test_case "date rendering" `Quick test_const_date_rendering;
          Alcotest.test_case "date parsing" `Quick test_const_date_parsing;
          Alcotest.test_case "int/float parsing" `Quick test_const_int_float_parsing;
          Alcotest.test_case "invalid date" `Quick test_const_invalid_date;
          Alcotest.test_case "total order" `Quick test_const_ordering_total;
        ] );
      ( "multigraph",
        [
          Alcotest.test_case "shape" `Quick test_multigraph_shape;
          Alcotest.test_case "endpoints" `Quick test_multigraph_endpoints;
          Alcotest.test_case "duplicate nodes merge" `Quick test_multigraph_duplicate_node_ids_merge;
          Alcotest.test_case "duplicate edges rejected" `Quick test_multigraph_duplicate_edge_rejected;
          Alcotest.test_case "adjacency consistency" `Quick test_multigraph_adjacency_consistency;
        ] );
      ( "labeled",
        [
          Alcotest.test_case "figure2" `Quick test_labeled_figure2;
          Alcotest.test_case "histogram" `Quick test_labeled_histogram;
          Alcotest.test_case "atom eval" `Quick test_labeled_atom_eval;
        ] );
      ( "property",
        [
          Alcotest.test_case "figure2 props" `Quick test_property_figure2;
          Alcotest.test_case "edge props" `Quick test_property_edge_props;
          Alcotest.test_case "atom semantics" `Quick test_property_atom_semantics;
          Alcotest.test_case "overwrite" `Quick test_property_overwrite;
          Alcotest.test_case "schema" `Quick test_property_schema;
        ] );
      ( "vector",
        [
          Alcotest.test_case "figure2" `Quick test_vector_figure2;
          Alcotest.test_case "atom semantics" `Quick test_vector_atom_semantics;
          Alcotest.test_case "feature bounds" `Quick test_vector_feature_bounds;
        ] );
      ( "conversions",
        [
          Alcotest.test_case "labeled->property->labeled" `Quick test_labeled_to_property_roundtrip;
          Alcotest.test_case "property->vector->property" `Quick test_property_to_vector_roundtrip;
          Alcotest.test_case "labeled->vector" `Quick test_labeled_to_vector;
        ] );
      ("instance", [ Alcotest.test_case "consistency" `Quick test_instance_consistency ]);
      ( "io",
        [
          Alcotest.test_case "figure2 roundtrip" `Quick test_io_roundtrip_figure2;
          Alcotest.test_case "comments/blanks" `Quick test_io_parses_comments_and_blanks;
          Alcotest.test_case "forward reference" `Quick test_io_forward_reference;
          Alcotest.test_case "rejects malformed" `Quick test_io_rejects_malformed;
          Alcotest.test_case "corrupt fixtures" `Quick test_io_corrupt_fixtures;
          Alcotest.test_case "error rendering" `Quick test_io_error_rendering;
          Alcotest.test_case "dot export" `Quick test_io_dot_export;
        ] );
      ( "journal",
        [
          Alcotest.test_case "replay" `Quick test_journal_replay;
          Alcotest.test_case "line roundtrip" `Quick test_journal_line_roundtrip;
          Alcotest.test_case "delete node cascades" `Quick test_journal_delete_node_cascades;
          Alcotest.test_case "delete edge" `Quick test_journal_delete_edge;
          Alcotest.test_case "invalid sequences" `Quick test_journal_invalid_sequences;
          Alcotest.test_case "ops_of_graph" `Quick test_journal_ops_of_graph_roundtrip;
          Alcotest.test_case "torn write" `Quick test_journal_torn_write_recovery;
          Alcotest.test_case "merge/del-prop roundtrip" `Quick test_journal_merge_prop_roundtrip;
          Alcotest.test_case "error file context" `Quick test_journal_error_file_context;
        ] );
      ( "properties",
        q
          [
            prop_io_roundtrip;
            prop_vector_roundtrip;
            prop_atoms_agree_across_models;
            prop_journal_store_equals_replay;
          ] );
    ]
