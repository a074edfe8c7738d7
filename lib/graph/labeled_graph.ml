(* Labeled graphs L = (N, E, ρ, λ) of Section 3: a multigraph where every
   node and every edge carries one label from Const ("heterogeneous
   graphs").  Figure 2(a) is an instance. *)

type t = { base : Multigraph.t; node_labels : Const.t array; edge_labels : Const.t array }

let base g = g.base
let num_nodes g = Multigraph.num_nodes g.base
let num_edges g = Multigraph.num_edges g.base
let node_label g n = g.node_labels.(n)
let edge_label g e = g.edge_labels.(e)
let node_id g n = Multigraph.node_id g.base n
let edge_id g e = Multigraph.edge_id g.base e
let endpoints g e = Multigraph.endpoints g.base e

(* Members of a label, by a scan: query-time label indexes live in the
   graph's Snapshot. *)
let with_label labels l =
  List.filter (fun i -> Const.equal labels.(i) l) (List.init (Array.length labels) Fun.id)

let nodes_with_label g l = with_label g.node_labels l
let edges_with_label g l = with_label g.edge_labels l

(* Distinct labels in use, each with its multiplicity. *)
let label_histogram labels =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun l ->
      let count = Option.value (Hashtbl.find_opt tbl l) ~default:0 in
      Hashtbl.replace tbl l (count + 1))
    labels;
  Hashtbl.fold (fun l c acc -> (l, c) :: acc) tbl [] |> List.sort (fun (a, _) (b, _) -> Const.compare a b)

let node_label_histogram g = label_histogram g.node_labels
let edge_label_histogram g = label_histogram g.edge_labels

let node_satisfies_atom g n = function
  | Atom.Label l -> Const.equal g.node_labels.(n) l
  | Atom.Prop _ | Atom.Feature _ -> false

let edge_satisfies_atom g e = function
  | Atom.Label l -> Const.equal g.edge_labels.(e) l
  | Atom.Prop _ | Atom.Feature _ -> false

module Builder = struct
  type graph = t

  type t = {
    base : Multigraph.Builder.t;
    node_labels : (int, Const.t) Hashtbl.t;
    edge_labels : (int, Const.t) Hashtbl.t;
  }

  let create () =
    { base = Multigraph.Builder.create (); node_labels = Hashtbl.create 64; edge_labels = Hashtbl.create 64 }

  (* Re-adding a node keeps its first label. *)
  let add_node b id ~label =
    let n = Multigraph.Builder.add_node b.base id in
    if not (Hashtbl.mem b.node_labels n) then Hashtbl.replace b.node_labels n label;
    n

  let add_edge b id ~src ~dst ~label =
    let e = Multigraph.Builder.add_edge b.base id ~src ~dst in
    Hashtbl.replace b.edge_labels e label;
    e

  let fresh_edge b ~src ~dst ~label =
    let e = Multigraph.Builder.fresh_edge b.base ~src ~dst in
    Hashtbl.replace b.edge_labels e label;
    e

  let find_node b id = Multigraph.Builder.find_node b.base id

  let freeze b =
    let base = Multigraph.Builder.freeze b.base in
    let fetch tbl i =
      match Hashtbl.find_opt tbl i with Some l -> l | None -> Const.bottom
    in
    ({
       base;
       node_labels = Array.init (Multigraph.num_nodes base) (fetch b.node_labels);
       edge_labels = Array.init (Multigraph.num_edges base) (fetch b.edge_labels);
     }
      : graph)
end

(* Build from explicit lists: nodes as (id, label), edges as
   (id, src-id, dst-id, label); endpoints must be declared as nodes. *)
let of_lists ~nodes ~edges =
  let b = Builder.create () in
  List.iter (fun (id, label) -> ignore (Builder.add_node b id ~label)) nodes;
  List.iter
    (fun (id, s, d, label) ->
      match (Builder.find_node b s, Builder.find_node b d) with
      | Some s, Some d -> ignore (Builder.add_edge b id ~src:s ~dst:d ~label)
      | _ -> invalid_arg "Labeled_graph.of_lists: edge endpoint not declared")
    edges;
  Builder.freeze b

let make ~base ~node_labels ~edge_labels =
  if Array.length node_labels <> Multigraph.num_nodes base then
    invalid_arg "Labeled_graph.make: node label count";
  if Array.length edge_labels <> Multigraph.num_edges base then
    invalid_arg "Labeled_graph.make: edge label count";
  { base; node_labels; edge_labels }

(* The uniform query-engine view is {!Snapshot.of_labeled}. *)
