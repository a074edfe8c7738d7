(* The base structure of Section 3: a multigraph (N, E, ρ) with
   N, E ⊆ Const and ρ : E → N × N.  Nodes and edges are stored with dense
   integer indexes; the Const identifiers are kept for display and for the
   "universal interpretation" of RDF-style merging.

   The type is immutable once frozen from a {!Builder} and holds only ids
   and the endpoint columns: traversal and id lookup run on the model's
   {!Snapshot}, so a frozen model carries no second adjacency. *)

type t = { node_ids : Const.t array; edge_ids : Const.t array; esrc : int array; edst : int array }

let num_nodes g = Array.length g.node_ids
let num_edges g = Array.length g.edge_ids

let node_id g n =
  if n < 0 || n >= num_nodes g then invalid_arg "Multigraph.node_id: out of range";
  g.node_ids.(n)

let edge_id g e =
  if e < 0 || e >= num_edges g then invalid_arg "Multigraph.edge_id: out of range";
  g.edge_ids.(e)

let endpoints g e =
  if e < 0 || e >= num_edges g then invalid_arg "Multigraph.endpoints: out of range";
  (g.esrc.(e), g.edst.(e))


module Builder = struct
  type graph = t

  type t = {
    mutable nodes : Const.t list; (* reversed *)
    mutable node_count : int;
    mutable edges : (Const.t * int * int) list; (* reversed *)
    mutable edge_count : int;
    node_index : (Const.t, int) Hashtbl.t;
    edge_index : (Const.t, int) Hashtbl.t;
  }

  let create () =
    {
      nodes = [];
      node_count = 0;
      edges = [];
      edge_count = 0;
      node_index = Hashtbl.create 64;
      edge_index = Hashtbl.create 64;
    }

  let num_nodes b = b.node_count
  let num_edges b = b.edge_count

  (* Adding an already-present identifier returns the existing index:
     this is what makes merging graphs over shared Const natural. *)
  let add_node b id =
    match Hashtbl.find_opt b.node_index id with
    | Some n -> n
    | None ->
        let n = b.node_count in
        b.nodes <- id :: b.nodes;
        b.node_count <- n + 1;
        Hashtbl.add b.node_index id n;
        n

  let add_edge b id ~src ~dst =
    if src < 0 || src >= b.node_count || dst < 0 || dst >= b.node_count then
      invalid_arg "Multigraph.Builder.add_edge: endpoint out of range";
    if Hashtbl.mem b.edge_index id then
      invalid_arg (Printf.sprintf "Multigraph.Builder.add_edge: duplicate edge %s" (Const.to_string id));
    let e = b.edge_count in
    b.edges <- (id, src, dst) :: b.edges;
    b.edge_count <- e + 1;
    Hashtbl.add b.edge_index id e;
    e

  let fresh_edge b ~src ~dst =
    let rec loop i =
      let id = Const.Str (Printf.sprintf "e%d" i) in
      if Hashtbl.mem b.edge_index id then loop (i + 1) else add_edge b id ~src ~dst
    in
    loop b.edge_count

  let find_node b id = Hashtbl.find_opt b.node_index id

  let freeze b =
    let edges = Array.of_list (List.rev b.edges) in
    {
      node_ids = Array.of_list (List.rev b.nodes);
      edge_ids = Array.map (fun (id, _, _) -> id) edges;
      esrc = Array.map (fun (_, s, _) -> s) edges;
      edst = Array.map (fun (_, _, d) -> d) edges;
    }
end

(* Convenience: build from explicit lists of identifiers. *)
let of_lists ~nodes ~edges =
  let b = Builder.create () in
  List.iter (fun id -> ignore (Builder.add_node b id)) nodes;
  List.iter
    (fun (id, s, d) ->
      let s = Builder.add_node b s and d = Builder.add_node b d in
      ignore (Builder.add_edge b id ~src:s ~dst:d))
    edges;
  Builder.freeze b
