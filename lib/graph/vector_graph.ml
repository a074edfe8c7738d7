(* Vector-labeled graphs V = (N, E, ρ, λ) of dimension d (Section 3):
   λ assigns to every node and edge a vector of d values from Const, with
   ⊥ marking absent entries.  This is the model that unifies labels and
   properties and feeds message-passing algorithms (WL, GNNs); Figure 2(c)
   is an instance.

   Feature indexes are 1-based in the public API, following the paper's
   (f_i = v) notation. *)

type t = {
  base : Multigraph.t;
  dimension : int;
  node_features : Const.t array array;
  edge_features : Const.t array array;
}

let dimension g = g.dimension
let num_nodes g = Multigraph.num_nodes g.base
let num_edges g = Multigraph.num_edges g.base
let node_id g n = Multigraph.node_id g.base n
let edge_id g e = Multigraph.edge_id g.base e
let endpoints g e = Multigraph.endpoints g.base e

let node_vector g n = g.node_features.(n)
let edge_vector g e = g.edge_features.(e)

let check_index g i =
  if i < 1 || i > g.dimension then
    invalid_arg (Printf.sprintf "Vector_graph: feature index %d outside 1..%d" i g.dimension)

(* λ(n)_i with the paper's 1-based indexing. *)
let node_feature g n i =
  check_index g i;
  g.node_features.(n).(i - 1)

let node_satisfies_atom g n = function
  | Atom.Feature (i, v) -> i >= 1 && i <= g.dimension && Const.equal g.node_features.(n).(i - 1) v
  | Atom.Label l ->
      (* Labels survive flattening as feature 1 (see [of_property]); keeping
         label tests meaningful makes the three models answer the same
         queries, which E3 checks. *)
      g.dimension >= 1 && Const.equal g.node_features.(n).(0) l
  | Atom.Prop _ -> false

let edge_satisfies_atom g e = function
  | Atom.Feature (i, v) -> i >= 1 && i <= g.dimension && Const.equal g.edge_features.(e).(i - 1) v
  | Atom.Label l -> g.dimension >= 1 && Const.equal g.edge_features.(e).(0) l
  | Atom.Prop _ -> false

(* Flatten a property graph to a vector-labeled graph: feature 1 is the
   label; the remaining features are the property values under a fixed
   schema (the union of node and edge property names, nodes first), with ⊥
   where σ is undefined — exactly the construction visible in Figure 2(c).
   Returns the graph together with the schema so tests can be rewritten
   (the paper rewrites query (3) this way). *)
type schema = { feature_names : Const.t array }

let schema_feature_index schema name =
  let n = Array.length schema.feature_names in
  let rec loop i =
    if i = n then None
    else if Const.equal schema.feature_names.(i) name then Some (i + 2) (* 1-based, after label *)
    else loop (i + 1)
  in
  loop 0

let of_property pg =
  let node_names, edge_names = Property_graph.property_schema pg in
  let module S = Set.Make (Const) in
  let all = S.elements (S.union (S.of_list node_names) (S.of_list edge_names)) in
  let feature_names = Array.of_list all in
  let dimension = 1 + Array.length feature_names in
  let flatten label props =
    let v = Array.make dimension Const.bottom in
    v.(0) <- label;
    Array.iteri
      (fun i name ->
        match Property_graph.lookup props name with Some value -> v.(i + 1) <- value | None -> ())
      feature_names;
    v
  in
  let node_features =
    Array.init (Property_graph.num_nodes pg) (fun n ->
        flatten (Property_graph.node_label pg n) (Property_graph.node_properties pg n))
  in
  let edge_features =
    Array.init (Property_graph.num_edges pg) (fun e ->
        flatten (Property_graph.edge_label pg e) (Property_graph.edge_properties pg e))
  in
  ( { base = Property_graph.base pg; dimension; node_features; edge_features },
    { feature_names } )

(* Inverse of [of_property] for graphs built by it: feature 1 becomes the
   label, non-⊥ features become properties under the schema. *)
let to_property g schema =
  if g.dimension <> 1 + Array.length schema.feature_names then
    invalid_arg "Vector_graph.to_property: schema does not match dimension";
  let b = Property_graph.Builder.create () in
  for n = 0 to num_nodes g - 1 do
    ignore (Property_graph.Builder.add_node b (node_id g n) ~label:g.node_features.(n).(0))
  done;
  for e = 0 to num_edges g - 1 do
    let s, d = endpoints g e in
    ignore (Property_graph.Builder.add_edge b (edge_id g e) ~src:s ~dst:d ~label:g.edge_features.(e).(0))
  done;
  let restore set i features =
    Array.iteri
      (fun j name ->
        let v = features.(j + 1) in
        if not (Const.equal v Const.bottom) then set i ~prop:name ~value:v)
      schema.feature_names
  in
  for n = 0 to num_nodes g - 1 do
    restore (Property_graph.Builder.set_node_property b) n g.node_features.(n)
  done;
  for e = 0 to num_edges g - 1 do
    restore (Property_graph.Builder.set_edge_property b) e g.edge_features.(e)
  done;
  Property_graph.Builder.freeze b

(* A labeled graph is a 1-dimensional vector-labeled graph. *)
let of_labeled lg =
  let base = Labeled_graph.base lg in
  {
    base;
    dimension = 1;
    node_features = Array.init (Labeled_graph.num_nodes lg) (fun n -> [| Labeled_graph.node_label lg n |]);
    edge_features = Array.init (Labeled_graph.num_edges lg) (fun e -> [| Labeled_graph.edge_label lg e |]);
  }

(* The uniform query-engine view is {!Snapshot.of_vector}. *)
