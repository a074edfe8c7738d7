(* Property graphs P = (N, E, ρ, λ, σ) of Section 3: a labeled graph
   extended with a partial function σ : (N ∪ E) × Const → Const giving the
   value of property p for object o.  Each object has finitely many
   properties (stored as sorted association arrays).  Figure 2(b) is an
   instance. *)

type properties = (Const.t * Const.t) array

type t = { labeled : Labeled_graph.t; node_props : properties array; edge_props : properties array }

let base g = Labeled_graph.base g.labeled
let num_nodes g = Labeled_graph.num_nodes g.labeled
let num_edges g = Labeled_graph.num_edges g.labeled
let node_label g n = Labeled_graph.node_label g.labeled n
let edge_label g e = Labeled_graph.edge_label g.labeled e
let node_id g n = Labeled_graph.node_id g.labeled n
let edge_id g e = Labeled_graph.edge_id g.labeled e
let endpoints g e = Labeled_graph.endpoints g.labeled e

let lookup props p =
  let n = Array.length props in
  let rec loop i = if i = n then None else begin
      let q, v = props.(i) in
      if Const.equal p q then Some v else loop (i + 1)
    end
  in
  loop 0

(* σ(o, p) for a node object. *)
let node_property g n p = lookup g.node_props.(n) p

(* σ(o, p) for an edge object. *)
let edge_property g e p = lookup g.edge_props.(e) p

let node_properties g n = g.node_props.(n)
let edge_properties g e = g.edge_props.(e)

let node_satisfies_atom g n = function
  | Atom.Label l -> Const.equal (node_label g n) l
  | Atom.Prop (p, v) -> ( match node_property g n p with Some w -> Const.equal v w | None -> false)
  | Atom.Feature _ -> false

let edge_satisfies_atom g e = function
  | Atom.Label l -> Const.equal (edge_label g e) l
  | Atom.Prop (p, v) -> ( match edge_property g e p with Some w -> Const.equal v w | None -> false)
  | Atom.Feature _ -> false

(* Distinct property names appearing on nodes and on edges, in a canonical
   order: this is the schema used when flattening to a vector-labeled
   graph (Section 3's unification). *)
let property_schema g =
  let module S = Set.Make (Const) in
  let collect props_array =
    Array.fold_left
      (fun acc props -> Array.fold_left (fun acc (p, _) -> S.add p acc) acc props)
      S.empty props_array
  in
  let node_set = collect g.node_props and edge_set = collect g.edge_props in
  (S.elements node_set, S.elements edge_set)

module Builder = struct
  type graph = t

  type t = {
    labeled : Labeled_graph.Builder.t;
    node_props : (int, (Const.t * Const.t) list) Hashtbl.t;
    edge_props : (int, (Const.t * Const.t) list) Hashtbl.t;
  }

  let create () =
    { labeled = Labeled_graph.Builder.create (); node_props = Hashtbl.create 64; edge_props = Hashtbl.create 64 }

  let add_node b id ~label = Labeled_graph.Builder.add_node b.labeled id ~label
  let add_edge b id ~src ~dst ~label = Labeled_graph.Builder.add_edge b.labeled id ~src ~dst ~label
  let fresh_edge b ~src ~dst ~label = Labeled_graph.Builder.fresh_edge b.labeled ~src ~dst ~label
  let find_node b id = Labeled_graph.Builder.find_node b.labeled id

  let set tbl i p v =
    let existing = Option.value (Hashtbl.find_opt tbl i) ~default:[] in
    let without = List.filter (fun (q, _) -> not (Const.equal p q)) existing in
    Hashtbl.replace tbl i ((p, v) :: without)

  let set_node_property b n ~prop ~value = set b.node_props n prop value
  let set_edge_property b e ~prop ~value = set b.edge_props e prop value

  let freeze b =
    let labeled = Labeled_graph.Builder.freeze b.labeled in
    let fetch tbl i =
      match Hashtbl.find_opt tbl i with
      | None -> [||]
      | Some props ->
          let arr = Array.of_list props in
          Array.sort (fun (p, _) (q, _) -> Const.compare p q) arr;
          arr
    in
    ({
       labeled;
       node_props = Array.init (Labeled_graph.num_nodes labeled) (fetch b.node_props);
       edge_props = Array.init (Labeled_graph.num_edges labeled) (fetch b.edge_props);
     }
      : graph)
end

(* A labeled graph is a property graph with empty σ (the hierarchy of
   Section 3). *)
let of_labeled labeled =
  {
    labeled;
    node_props = Array.make (Labeled_graph.num_nodes labeled) [||];
    edge_props = Array.make (Labeled_graph.num_edges labeled) [||];
  }

(* Forgetting σ projects back to the labeled model. *)
let to_labeled g = g.labeled

(* The uniform query-engine view is {!Snapshot.of_property}. *)
