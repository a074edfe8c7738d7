(* Random property and vector graphs and the atoms that probe them,
   shared by the snapshot-oracle property (test_snapshot) and the
   persistence round trips (test_persist).

   The vector flattening of [property_graph] has the schema
   age, date, name, w, 2: feature 1 is the label, f2 = age, f3 = date,
   f4 = name, f5 = w, f6 = the property named by the integer 2. *)

open Gqkg_graph
module S = Gqkg_util.Splitmix

let gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nodes = int_range 1 9 in
    let* edges = int_range 0 20 in
    return (seed, nodes, edges))

let c = Const.str
let march day = Const.date ~year:2021 ~month:3 ~day

(* Nodes "v<i>" labeled a/b/c with optional age (sometimes copied to a
   property named by the integer 2) and name; edges "e<i>" labeled x/y
   with optional w and date. *)
let property_graph (seed, nodes, edges) =
  let rng = S.create seed in
  let b = Property_graph.Builder.create () in
  for i = 0 to nodes - 1 do
    let n =
      Property_graph.Builder.add_node b (c (Printf.sprintf "v%d" i))
        ~label:(c (S.choose rng [| "a"; "b"; "c" |]))
    in
    if S.bool rng then begin
      let age = Const.int (S.int rng 4) in
      Property_graph.Builder.set_node_property b n ~prop:(c "age") ~value:age;
      (* a property named like a feature index *)
      if S.bool rng then Property_graph.Builder.set_node_property b n ~prop:(Const.int 2) ~value:age
    end;
    if S.bool rng then
      Property_graph.Builder.set_node_property b n ~prop:(c "name")
        ~value:(c (S.choose rng [| "x"; "y" |]))
  done;
  for i = 0 to edges - 1 do
    let e =
      Property_graph.Builder.add_edge b (c (Printf.sprintf "e%d" i)) ~src:(S.int rng nodes)
        ~dst:(S.int rng nodes) ~label:(c (S.choose rng [| "x"; "y" |]))
    in
    if S.bool rng then
      Property_graph.Builder.set_edge_property b e ~prop:(c "w") ~value:(Const.int (S.int rng 3));
    if S.bool rng then
      Property_graph.Builder.set_edge_property b e ~prop:(c "date") ~value:(march (1 + S.int rng 2))
  done;
  Property_graph.Builder.freeze b

let vector_graph g = fst (Vector_graph.of_property g)

(* Labels, properties and features, present and absent: a [Prop] must
   not answer from a feature row, a [Feature] not from a property row,
   and an absent feature is ⊥. *)
let node_atoms =
  [ Atom.label "a"; Atom.label "b"; Atom.label "zz" ]
  @ List.init 4 (fun i -> Atom.prop "age" (Const.int i))
  @ [
      Atom.prop "name" (c "x");
      Atom.prop "w" (Const.int 1);
      Atom.Prop (Const.int 2, Const.int 1);
      Atom.Feature (1, c "a");
      Atom.Feature (2, Const.int 1);
      Atom.Feature (2, Const.bottom);
      Atom.Feature (4, c "x");
      Atom.Feature (5, Const.bottom);
      Atom.Feature (9, Const.bottom);
      Atom.Feature (0, Const.bottom);
    ]

let edge_atoms =
  [ Atom.label "x"; Atom.label "y" ]
  @ List.init 3 (fun i -> Atom.prop "w" (Const.int i))
  @ [
      Atom.prop "date" (march 1);
      Atom.prop "age" (Const.int 1);
      Atom.Feature (1, c "x");
      Atom.Feature (3, march 2);
      Atom.Feature (5, Const.int 1);
      Atom.Feature (5, Const.bottom);
      Atom.Feature (2, Const.bottom);
    ]

(* Every probe's answer on every object, keyed by name: the id-stable
   view of a snapshot's atoms across renumbering and reloads. *)
let atom_table (s : Snapshot.t) =
  List.sort compare
    (List.init s.num_nodes (fun v ->
         ("node " ^ s.node_name v, List.map (Snapshot.node_atom s v) node_atoms))
    @ List.init s.num_edges (fun e ->
          ("edge " ^ s.edge_name e, List.map (Snapshot.edge_atom s e) edge_atoms)))
