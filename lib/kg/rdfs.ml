(* RDFS forward-chaining inference: the "producing new knowledge by
   deduction" capability of knowledge graphs (Section 2.3).  We
   materialize the core entailment rules to a fixpoint:

     rdfs5  (subPropertyOf transitivity)
     rdfs7  (property inheritance: p ⊑ q, x p y ⊢ x q y)
     rdfs9  (type inheritance through subClassOf)
     rdfs11 (subClassOf transitivity)
     rdfs2  (domain typing)
     rdfs3  (range typing)

   Each pass scans the store and adds the entailed triples; set semantics
   in the store makes the fixpoint detection a plain "no new triple". *)

let rdf_type = Term.rdf_type
let rdfs_sub_class_of = Term.Iri "http://www.w3.org/2000/01/rdf-schema#subClassOf"
let rdfs_sub_property_of = Term.Iri "http://www.w3.org/2000/01/rdf-schema#subPropertyOf"
let rdfs_domain = Term.Iri "http://www.w3.org/2000/01/rdf-schema#domain"
let rdfs_range = Term.Iri "http://www.w3.org/2000/01/rdf-schema#range"

(* One materialization pass; returns the number of new triples. *)
let pass store =
  let additions = ref [] in
  let derive s p o = additions := Triple_store.triple s p o :: !additions in
  (* rdfs11: subClassOf transitivity. *)
  Triple_store.iter_matching store ~s:None ~p:(Some rdfs_sub_class_of) ~o:None (fun t1 ->
      Triple_store.iter_matching store ~s:(Some t1.o) ~p:(Some rdfs_sub_class_of) ~o:None (fun t2 ->
          derive t1.s rdfs_sub_class_of t2.o));
  (* rdfs5: subPropertyOf transitivity. *)
  Triple_store.iter_matching store ~s:None ~p:(Some rdfs_sub_property_of) ~o:None (fun t1 ->
      Triple_store.iter_matching store ~s:(Some t1.o) ~p:(Some rdfs_sub_property_of) ~o:None
        (fun t2 -> derive t1.s rdfs_sub_property_of t2.o));
  (* rdfs9: type inheritance. *)
  Triple_store.iter_matching store ~s:None ~p:(Some rdfs_sub_class_of) ~o:None (fun sub ->
      Triple_store.iter_matching store ~s:None ~p:(Some rdf_type) ~o:(Some sub.s) (fun inst ->
          derive inst.s rdf_type sub.o));
  (* rdfs7: property inheritance. *)
  Triple_store.iter_matching store ~s:None ~p:(Some rdfs_sub_property_of) ~o:None (fun sub ->
      match sub.o with
      | Term.Iri _ ->
          Triple_store.iter_matching store ~s:None ~p:(Some sub.s) ~o:None (fun use ->
              derive use.s sub.o use.o)
      | Term.Literal _ | Term.Bnode _ -> ());
  (* rdfs2: domain. *)
  Triple_store.iter_matching store ~s:None ~p:(Some rdfs_domain) ~o:None (fun dom ->
      Triple_store.iter_matching store ~s:None ~p:(Some dom.s) ~o:None (fun use ->
          derive use.s rdf_type dom.o));
  (* rdfs3: range. *)
  Triple_store.iter_matching store ~s:None ~p:(Some rdfs_range) ~o:None (fun rng ->
      Triple_store.iter_matching store ~s:None ~p:(Some rng.s) ~o:None (fun use ->
          match use.o with
          | Term.Iri _ | Term.Bnode _ -> derive use.o rdf_type rng.o
          | Term.Literal _ -> ()));
  List.fold_left (fun acc tr -> if Triple_store.add store tr then acc + 1 else acc) 0 !additions

(* Materialize to fixpoint; returns the total number of inferred triples. *)
let materialize store =
  let rec loop total =
    let added = pass store in
    if added = 0 then total else loop (total + added)
  in
  loop 0
