(* RDF graphs as labeled graphs (Section 3): "an RDF graph is a set of
   triples (s, p, o) … so that (s, p, o) represents an edge from s to o
   with label p", with edges unnamed (identified by their triple).  The
   freeze itself lives with its owner, the triple store; this module is
   the labeled-graph face of that view. *)

type t = Triple_store.view

let of_store = Triple_store.view
let num_nodes (g : t) = g.nodes
let num_edges (g : t) = g.snap.Gqkg_graph.Snapshot.num_edges

let node_term (g : t) n =
  if n < 0 || n >= g.nodes then invalid_arg "Rdf_graph.node_term: not a node";
  g.terms.(n)

let find_node (g : t) term =
  let v = Triple_store.view_of_term g term in
  if v >= 0 && v < g.nodes then Some v else None

let to_snapshot (g : t) = g.snap
