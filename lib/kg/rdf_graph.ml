(* RDF graphs as labeled graphs (Section 3): "an RDF graph is a set of
   triples (s, p, o) … so that (s, p, o) represents an edge from s to o
   with label p", with edges unnamed (identified by their triple).

   This module freezes a triple store into the shared columnar Snapshot,
   which lets every Section 4 algorithm — regular path queries, counting,
   sampling, regex-constrained centrality — run unchanged over RDF.
   Atomic tests are interpreted RDF-style:

   - an edge satisfies label ℓ when its predicate IRI is ℓ or has local
     name ℓ;
   - a node satisfies label ℓ when it has an rdf:type whose IRI is ℓ or
     has local name ℓ (the idiomatic RDF reading of "node label");
   - a node satisfies (p = v) when a triple (node, p, "v") exists with a
     literal object. *)

open Gqkg_graph

type t = {
  store : Triple_store.t;
  node_terms : Term.t array; (* node index -> term *)
  node_ids : (Term.t, int) Hashtbl.t;
  edges : (int * int * Term.t) array; (* edge index -> (src, dst, predicate) *)
  out_adj : (int * int) array array;
  in_adj : (int * int) array array;
  types : (int, Term.t list) Hashtbl.t; (* node -> its rdf:type objects *)
}

let rdf_type = Rdfs.rdf_type

let of_store store =
  let node_ids = Hashtbl.create 256 in
  let node_list = ref [] in
  let node_of term =
    match Hashtbl.find_opt node_ids term with
    | Some id -> id
    | None ->
        let id = Hashtbl.length node_ids in
        Hashtbl.add node_ids term id;
        node_list := term :: !node_list;
        id
  in
  let edge_list = ref [] in
  Triple_store.iter store (fun { Triple_store.s; p; o } ->
      let si = node_of s and oi = node_of o in
      edge_list := (si, oi, p) :: !edge_list);
  let node_terms = Array.of_list (List.rev !node_list) in
  let edges = Array.of_list (List.rev !edge_list) in
  let n = Array.length node_terms in
  let out_count = Array.make n 0 and in_count = Array.make n 0 in
  Array.iter
    (fun (s, d, _) ->
      out_count.(s) <- out_count.(s) + 1;
      in_count.(d) <- in_count.(d) + 1)
    edges;
  let out_adj = Array.init n (fun v -> Array.make out_count.(v) (0, 0)) in
  let in_adj = Array.init n (fun v -> Array.make in_count.(v) (0, 0)) in
  let out_fill = Array.make n 0 and in_fill = Array.make n 0 in
  Array.iteri
    (fun e (s, d, _) ->
      out_adj.(s).(out_fill.(s)) <- (e, d);
      out_fill.(s) <- out_fill.(s) + 1;
      in_adj.(d).(in_fill.(d)) <- (e, s);
      in_fill.(d) <- in_fill.(d) + 1)
    edges;
  let types = Hashtbl.create 64 in
  Triple_store.iter_matching store ~s:None ~p:(Some rdf_type) ~o:None (fun tr ->
      match Hashtbl.find_opt node_ids tr.Triple_store.s with
      | Some id ->
          Hashtbl.replace types id (tr.o :: Option.value (Hashtbl.find_opt types id) ~default:[])
      | None -> ());
  { store; node_terms; node_ids; edges; out_adj; in_adj; types }

let num_nodes g = Array.length g.node_terms
let num_edges g = Array.length g.edges
let node_term g n = g.node_terms.(n)
let find_node g term = Hashtbl.find_opt g.node_ids term

(* ℓ names an IRI when it equals the full IRI or its local name. *)
let names_iri label term =
  match term with
  | Term.Iri iri -> String.equal label iri || String.equal label (Term.local_name term)
  | Term.Literal _ | Term.Bnode _ -> false

let node_satisfies_atom g n = function
  | Atom.Label l -> begin
      let label = Const.to_string l in
      match Hashtbl.find_opt g.types n with
      | Some types -> List.exists (names_iri label) types
      | None -> false
    end
  | Atom.Prop (p, v) -> begin
      let pname = Const.to_string p and value = Const.to_string v in
      let found = ref false in
      Array.iter
        (fun (e, _) ->
          let _, _, pred = g.edges.(e) in
          if names_iri pname pred then begin
            let _, o, _ = g.edges.(e) in
            match g.node_terms.(o) with
            | Term.Literal { value = lit; _ } -> if String.equal lit value then found := true
            | Term.Iri _ | Term.Bnode _ -> ()
          end)
        g.out_adj.(n);
      !found
    end
  | Atom.Feature _ -> false

let edge_satisfies_atom g e = function
  | Atom.Label l ->
      let _, _, pred = g.edges.(e) in
      names_iri (Const.to_string l) pred
  | Atom.Prop _ | Atom.Feature _ -> false

(* Freeze to the columnar snapshot.  A Label atom on an edge is a pure
   function of the predicate (full IRI or local name), so interning
   predicates preserves the RDF reading; node labels intern the rdf:type
   objects, and a node may carry several (one bitmap membership per
   type). *)
let to_snapshot g =
  let m = num_edges g in
  let rdf_label_sat universe id = function
    | Atom.Label l -> names_iri (Const.to_string l) universe.(id)
    | Atom.Prop _ | Atom.Feature _ -> false
  in
  let elabel, predicates =
    Snapshot.intern ~n:m ~get:(fun e ->
        let _, _, pred = g.edges.(e) in
        pred)
  in
  let type_ids = Hashtbl.create 16 in
  let type_list = ref [] in
  let type_id term =
    match Hashtbl.find_opt type_ids term with
    | Some id -> id
    | None ->
        let id = Hashtbl.length type_ids in
        Hashtbl.add type_ids term id;
        type_list := term :: !type_list;
        id
  in
  let node_labels =
    Array.init (num_nodes g) (fun n ->
        match Hashtbl.find_opt g.types n with
        | Some types -> List.sort_uniq Int.compare (List.map type_id types)
        | None -> [])
  in
  let type_universe = Array.of_list (List.rev !type_list) in
  Snapshot.make ~num_nodes:(num_nodes g)
    ~esrc:(Array.map (fun (s, _, _) -> s) g.edges)
    ~edst:(Array.map (fun (_, d, _) -> d) g.edges)
    ~num_labels:(Array.length predicates) ~elabel
    ~label_names:(Array.map Term.local_name predicates)
    ~label_sat:(rdf_label_sat predicates)
    ~num_node_labels:(Array.length type_universe) ~node_labels
    ~node_label_names:(Array.map Term.local_name type_universe)
    ~node_label_sat:(rdf_label_sat type_universe)
    ~node_atom:(node_satisfies_atom g) ~edge_atom:(edge_satisfies_atom g)
    ~node_name:(fun n -> Term.to_string g.node_terms.(n))
    ~edge_name:(fun e ->
      let _, _, pred = g.edges.(e) in
      Term.local_name pred)
