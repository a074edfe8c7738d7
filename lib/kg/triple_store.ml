(* The RDF triple store: the storage layer of the knowledge-graph model.

   Writes go to a builder — interned terms, append-only s/p/o id
   columns and one open-addressing hash set over the id triple — so an
   insert costs three interner lookups and one probe.  Reads go to the
   store's frozen view: the triples as one columnar Snapshot (the
   Section 3 reading of an RDF graph as a labeled graph), built on the
   first read after a write and dropped by the next insert.  The store
   is its only owner; query layers (Bgp, Sparql, Rdfs) share it. *)

open Gqkg_graph
module Join = Gqkg_core.Join

type triple = { s : Term.t; p : Term.t; o : Term.t }

let triple s p o = { s; p; o }

module Term_table = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

type view = {
  store : t;
  snap : Snapshot.t;
  nodes : int;
  terms : Term.t array;
  label_of : int array;
  label_pred : int array;
  first_edge : int array;
  view_id : int array;
  store_id : int array;
}

and t = {
  ids : int Term_table.t;
  mutable by_id : Term.t array;
  mutable term_count : int;
  (* Row r is the triple (subj.(r), pred.(r), obj.(r)), r < size. *)
  mutable subj : int array;
  mutable pred : int array;
  mutable obj : int array;
  mutable size : int;
  (* Dedup set: a power-of-two table of row + 1 (0 = empty), linear
     probing, at most half full. *)
  mutable slots : int array;
  mutable frozen : view option;
}

let create () =
  {
    ids = Term_table.create 256;
    by_id = Array.make 256 (Term.Iri "");
    term_count = 0;
    subj = Array.make 64 0;
    pred = Array.make 64 0;
    obj = Array.make 64 0;
    size = 0;
    slots = Array.make 128 0;
    frozen = None;
  }

let size t = t.size
let num_terms t = t.term_count

let intern t term =
  match Term_table.find_opt t.ids term with
  | Some id -> id
  | None ->
      let id = t.term_count in
      if id = Array.length t.by_id then begin
        let bigger = Array.make (2 * id) (Term.Iri "") in
        Array.blit t.by_id 0 bigger 0 id;
        t.by_id <- bigger
      end;
      t.by_id.(id) <- term;
      Term_table.add t.ids term id;
      t.term_count <- id + 1;
      id

let term_of t id =
  if id < 0 || id >= t.term_count then invalid_arg "Triple_store.term_of: unknown id";
  t.by_id.(id)

let id_of t term = Term_table.find_opt t.ids term

(* The slot holding row (s, p, o), or the empty slot where it goes. *)
let probe t s p o =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let h = ((((s * 0x2545F491) lxor p) * 0x2545F491) lxor o) * 0x2545F491 in
  let i = ref ((h lxor (h lsr 29)) land mask) in
  while
    let r = slots.(!i) - 1 in
    r >= 0 && not (t.subj.(r) = s && t.pred.(r) = p && t.obj.(r) = o)
  do
    i := (!i + 1) land mask
  done;
  !i

let mem_ids t ~s ~p ~o = t.slots.(probe t s p o) > 0

let mem t { s; p; o } =
  match (id_of t s, id_of t p, id_of t o) with
  | Some s, Some p, Some o -> mem_ids t ~s ~p ~o
  | _ -> false

let grow a = Array.append a (Array.make (Array.length a) 0)

(* Set semantics: re-adding an existing triple is a no-op and keeps the
   frozen view. Returns whether the triple was new. *)
let add t { s; p; o } =
  let s = intern t s and p = intern t p and o = intern t o in
  let i = probe t s p o in
  if t.slots.(i) > 0 then false
  else begin
    let r = t.size in
    if r = Array.length t.subj then begin
      t.subj <- grow t.subj;
      t.pred <- grow t.pred;
      t.obj <- grow t.obj
    end;
    t.subj.(r) <- s;
    t.pred.(r) <- p;
    t.obj.(r) <- o;
    t.slots.(i) <- r + 1;
    t.size <- r + 1;
    if 2 * t.size > Array.length t.slots then begin
      t.slots <- Array.make (2 * Array.length t.slots) 0;
      for r = 0 to t.size - 1 do
        t.slots.(probe t t.subj.(r) t.pred.(r) t.obj.(r)) <- r + 1
      done
    end;
    t.frozen <- None;
    true
  end

let add_all t triples = List.iter (fun tr -> ignore (add t tr)) triples

let iter_ids t f =
  for r = 0 to t.size - 1 do
    f t.subj.(r) t.pred.(r) t.obj.(r)
  done

let iter t f = iter_ids t (fun s p o -> f { s = t.by_id.(s); p = t.by_id.(p); o = t.by_id.(o) })

let to_list t =
  let acc = ref [] in
  iter t (fun tr -> acc := tr :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* The frozen view                                                    *)
(* ------------------------------------------------------------------ *)

(* The constants that name a term in the view's label keys and
   property keys: an IRI's full text and, when it differs, its local
   name, each read with Const.of_string as .pg files and regexes read
   constants; a literal or blank node names nothing. *)
let iri_keys = function
  | Term.Iri iri as term ->
      let local = Term.local_name term in
      Const.of_string iri :: (if String.equal local iri then [] else [ Const.of_string local ])
  | Term.Literal _ | Term.Bnode _ -> []

(* Edges of label [l] leaving node [v]: a binary search in the label's
   (source, target)-sorted range. *)
let iter_out_label ~esrc ~first_edge v l f =
  let hi = first_edge.(l + 1) in
  let e = ref (Join.lower_bound esrc first_edge.(l) hi v) in
  while !e < hi && esrc.(!e) = v do
    f !e;
    incr e
  done

(* Number the entries of [ids] equal to [mark] in index order, from
   [from]; returns the next free id. *)
let number ids ~mark ~from =
  let next = ref from in
  Array.iteri
    (fun i k ->
      if k = mark then begin
        ids.(i) <- !next;
        incr next
      end)
    ids;
  !next

(* The inverse of a numbering onto [0, n). *)
let inverse ids n =
  let inv = Array.make n 0 in
  Array.iteri (fun i k -> if k >= 0 then inv.(k) <- i) ids;
  inv

let freeze t =
  let m = t.size in
  (* View ids: subject/object terms (marked -2), then predicate-only
     terms (-3), each in store-id order. *)
  let view_id = Array.make t.term_count (-1) in
  for r = 0 to m - 1 do
    view_id.(t.subj.(r)) <- -2;
    view_id.(t.obj.(r)) <- -2
  done;
  for r = 0 to m - 1 do
    if view_id.(t.pred.(r)) = -1 then view_id.(t.pred.(r)) <- -3
  done;
  let nodes = number view_id ~mark:(-2) ~from:0 in
  let nv = number view_id ~mark:(-3) ~from:nodes in
  let store_id = inverse view_id nv in
  let terms = Array.map (fun id -> t.by_id.(id)) store_id in
  (* Edge labels: the distinct predicates, in view-id order. *)
  let label_of = Array.make nv (-1) in
  for r = 0 to m - 1 do
    label_of.(view_id.(t.pred.(r))) <- -2
  done;
  let num_labels = number label_of ~mark:(-2) ~from:0 in
  let label_pred = inverse label_of num_labels in
  (* Edges grouped by label, then by (source, target). *)
  let src = Array.init m (fun r -> view_id.(t.subj.(r))) in
  let dst = Array.init m (fun r -> view_id.(t.obj.(r))) in
  let lab = Array.init m (fun r -> label_of.(view_id.(t.pred.(r)))) in
  let rows = Array.init m Fun.id in
  Join.sort_rows [| lab; src; dst |] rows;
  let esrc = Array.map (fun r -> src.(r)) rows and edst = Array.map (fun r -> dst.(r)) rows in
  let elabel = Array.map (fun r -> lab.(r)) rows in
  let first_edge = Array.make (num_labels + 1) 0 in
  Array.iter (fun l -> first_edge.(l + 1) <- first_edge.(l + 1) + 1) elabel;
  for l = 1 to num_labels do
    first_edge.(l) <- first_edge.(l) + first_edge.(l - 1)
  done;
  (* Node labels: the rdf:type objects, numbered in view-id order. *)
  let type_label =
    match id_of t Term.rdf_type with
    | Some id when view_id.(id) >= 0 -> label_of.(view_id.(id))
    | _ -> -1
  in
  let type_edges f =
    if type_label >= 0 then
      for e = first_edge.(type_label) to first_edge.(type_label + 1) - 1 do
        f esrc.(e) edst.(e)
      done
  in
  let type_id = Array.make nodes (-1) in
  type_edges (fun _ o -> type_id.(o) <- -2);
  let num_types = number type_id ~mark:(-2) ~from:0 in
  let type_universe = Array.map (fun v -> terms.(v)) (inverse type_id num_types) in
  let node_labels = Array.make nodes [] in
  type_edges (fun s o -> node_labels.(s) <- type_id.(o) :: node_labels.(s));
  let predicates = Array.map (fun v -> terms.(v)) label_pred in
  (* Node properties: a triple (v, p, "lit") is the entry (p, lit)
     under each key of p, its value read with Const.of_string. Rows are
     sorted by (key, value) and deduplicated. *)
  let props = Array.make nodes [] in
  Array.iteri
    (fun l pred ->
      let keys = iri_keys pred in
      for e = first_edge.(l) to first_edge.(l + 1) - 1 do
        match terms.(edst.(e)) with
        | Term.Literal { value; _ } ->
            let value = Const.of_string value and v = esrc.(e) in
            List.iter (fun k -> props.(v) <- (k, value) :: props.(v)) keys
        | Term.Iri _ | Term.Bnode _ -> ()
      done)
    predicates;
  let by_entry (k, v) (k', v') =
    match Const.compare k k' with 0 -> Const.compare v v' | c -> c
  in
  let attrs =
    Snapshot.intern_attrs ~dimension:0
      ~node_props:(Array.map (fun r -> Array.of_list (List.sort_uniq by_entry r)) props)
      ~edge_props:[||] ~node_features:[||] ~edge_features:[||]
  in
  let keys term = Array.of_list (iri_keys term) in
  let snap =
    Snapshot.make ~attrs ~num_nodes:nodes ~esrc ~edst ~num_labels ~elabel
      ~label_names:(Array.map Term.local_name predicates)
      ~label_keys:(Array.map keys predicates) ~num_node_labels:num_types ~node_labels
      ~node_label_names:(Array.map Term.local_name type_universe)
      ~node_label_keys:(Array.map keys type_universe)
      ~node_name:(fun v -> Term.to_string terms.(v))
      ~edge_name:(fun e -> Term.local_name predicates.(elabel.(e)))
  in
  { store = t; snap; nodes; terms; label_of; label_pred; first_edge; view_id; store_id }

let view t =
  match t.frozen with
  | Some v -> v
  | None ->
      let v = freeze t in
      t.frozen <- Some v;
      v

(* A store id interned after the freeze occurs in no triple of it. *)
let view_of_id v id = if id >= 0 && id < Array.length v.view_id then v.view_id.(id) else -1

let view_of_term v term = match id_of v.store term with Some id -> view_of_id v id | None -> -1

let iter_edges v ~src ~label ~dst f =
  let g = v.snap in
  let esrc = g.Snapshot.esrc and edst = g.Snapshot.edst and elabel = g.Snapshot.elabel in
  if label >= 0 && src >= 0 then
    iter_out_label ~esrc ~first_edge:v.first_edge src label (fun e ->
        if dst < 0 || edst.(e) = dst then f e)
  else if label >= 0 && dst < 0 then
    for e = v.first_edge.(label) to v.first_edge.(label + 1) - 1 do
      f e
    done
  else if src >= 0 then
    for k = g.Snapshot.out_off.(src) to g.Snapshot.out_off.(src + 1) - 1 do
      let e = g.Snapshot.out_eid.(k) in
      if dst < 0 || edst.(e) = dst then f e
    done
  else if dst >= 0 then
    for k = g.Snapshot.in_off.(dst) to g.Snapshot.in_off.(dst + 1) - 1 do
      let e = g.Snapshot.in_eid.(k) in
      if label < 0 || elabel.(e) = label then f e
    done
  else
    for e = 0 to g.Snapshot.num_edges - 1 do
      f e
    done

(* Pattern matching over store ids: bound components become a node or
   label of the frozen view, and a term that is neither matches
   nothing. *)
let iter_matching_ids t ~s ~p ~o f =
  match (s, p, o) with
  | None, None, None -> iter_ids t f
  | Some s, Some p, Some o -> if mem_ids t ~s ~p ~o then f s p o
  | _ ->
      let v = view t in
      let node = function
        | None -> Some (-1)
        | Some id ->
            let n = view_of_id v id in
            if n >= 0 && n < v.nodes then Some n else None
      in
      let label = function
        | None -> Some (-1)
        | Some id ->
            let n = view_of_id v id in
            if n >= 0 && v.label_of.(n) >= 0 then Some v.label_of.(n) else None
      in
      (match (node s, label p, node o) with
      | Some src, Some label, Some dst ->
          let g = v.snap and sid = v.store_id in
          iter_edges v ~src ~label ~dst (fun e ->
              f sid.(g.Snapshot.esrc.(e))
                sid.(v.label_pred.(g.Snapshot.elabel.(e)))
                sid.(g.Snapshot.edst.(e)))
      | _ -> ())

let count_matching_ids t ~s ~p ~o =
  let n = ref 0 in
  iter_matching_ids t ~s ~p ~o (fun _ _ _ -> incr n);
  !n

let iter_matching t ~s ~p ~o f =
  let resolve = function
    | None -> Some None
    | Some term -> Option.map Option.some (id_of t term)
  in
  match (resolve s, resolve p, resolve o) with
  | Some s, Some p, Some o ->
      iter_matching_ids t ~s ~p ~o (fun s p o ->
          f { s = t.by_id.(s); p = t.by_id.(p); o = t.by_id.(o) })
  | _ -> () (* a constant term absent from the store matches nothing *)

let matching t ~s ~p ~o =
  let acc = ref [] in
  iter_matching t ~s ~p ~o (fun tr -> acc := tr :: !acc);
  !acc

(* Knowledge-graph integration: the RDF promise that shared IRIs denote
   shared entities makes merging a union of triple sets. *)
let merge ~into source = iter source (fun tr -> ignore (add into tr))

let copy t =
  let fresh = create () in
  merge ~into:fresh t;
  fresh
