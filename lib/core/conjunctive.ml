(* The one conjunctive compiler: CRPQ and BGP atoms to Join specs.  Each
   atom keeps one of three shapes: a postings set, a zero-copy edge view,
   or a path relation read through the Governor, so path atoms share the
   snapshot's semantic result cache with served reads. *)

open Gqkg_graph
module Regex = Gqkg_automata.Regex
module Budget = Gqkg_util.Budget

type endpoint = Var of string | Pin of { name : string; id : int }
type middle = Regex of Regex.t | Label of int
type atom = { src : endpoint; mid : middle; dst : endpoint }

let compile ?(budget = Budget.unlimited) ?max_length inst atoms =
  let step =
    match max_length with
    | Some k when k < 0 -> invalid_arg "Conjunctive.compile: negative max_length"
    | Some k -> k >= 1
    | None -> true
  in
  let idx () = Join.Index.get inst in
  let pins = ref [] and paths = Hashtbl.create 8 in
  let var = function
    | Var x -> x
    | Pin { name; id } ->
        if not (List.mem_assoc name !pins) then pins := (name, id) :: !pins;
        name
  in
  (* Identical regexes in one query share one relation. *)
  let relation r key =
    match Hashtbl.find_opt paths key with
    | Some p -> p
    | None ->
        let p = (Governor.eval_relation ~budget ?max_length inst r).Budget.value in
        Hashtbl.add paths key p;
        p
  in
  let spec a =
    let s = var a.src in
    let d = var a.dst in
    let atom m = Join.atom ~name:(Printf.sprintf "(%s)-[%s]->(%s)" s m d) in
    match a.mid with
    | Label l -> atom inst.Snapshot.label_names.(l) [| s; d |] (Join.Edges [ l ])
    | Regex r -> (
        let text = Regex.to_string ~top:true r in
        match r with
        | Regex.Node_test (Regex.Atom (Atom.Label c)) when s = d ->
            atom text [| s |] (Join.Set (Join.Index.nodes_with_const_label (idx ()) c))
        | Regex.Fwd (Regex.Atom (Atom.Label c)) when step && inst.Snapshot.num_labels > 0 ->
            atom text [| s; d |] (Join.Edges (Join.Index.edge_label_ids (idx ()) c))
        | Regex.Bwd (Regex.Atom (Atom.Label c)) when step && inst.Snapshot.num_labels > 0 ->
            atom text [| d; s |] (Join.Edges (Join.Index.edge_label_ids (idx ()) c))
        | _ -> atom text [| s; d |] (Join.Relation (relation r text)))
  in
  let specs = List.map spec atoms in
  let pins = List.rev !pins in
  ( List.map (fun (name, id) -> Join.atom ~name [| name |] (Join.Set [| id |])) pins @ specs,
    List.map fst pins )

let explain ~header inst specs =
  let plan = Join.plan ~snapshot:inst specs in
  let buf = Buffer.create 256 in
  Buffer.add_string buf header;
  Buffer.add_string buf "\natoms (csr = zero-copy adjacency view):\n";
  List.iter2
    (fun (s : Join.atom_spec) (name, kind, rows) ->
      let size =
        match List.length (List.sort_uniq compare (Array.to_list s.Join.avars)) with
        | 1 -> "nodes"
        | 2 -> "endpoint pairs"
        | _ -> "rows"
      in
      Printf.bprintf buf "  %s: %d %s [%s]\n" name rows size kind)
    specs plan.Join.atom_summary;
  Buffer.add_string buf plan.Join.rendered;
  Buffer.contents buf
