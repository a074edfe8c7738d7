(* Reference evaluator: the denotational semantics [[r]] of Section 4
   transcribed literally, computing the actual set of paths up to a length
   bound.  Exponential — it exists to be obviously correct, serving as the
   oracle for the product-based engine in tests and for the "materialize
   everything" baseline in the enumeration experiment (E6). *)

open Gqkg_graph
open Gqkg_automata

module Path_set = Set.Make (struct
  type t = Path.t

  let compare = Path.compare
end)

(* [[r]] restricted to paths of length <= max_length.

   Budget check sites: once per regex constructor and once per Star
   fixpoint round.  Every operator is monotone in its operands, so
   answering the empty set for a tripped subterm (or the fixpoint's
   accumulator so far) keeps the overall result a subset of the
   unbudgeted denotation. *)
let eval ?(budget = Gqkg_util.Budget.unlimited) inst regex ~max_length =
  if max_length < 0 then invalid_arg "Naive: negative max_length";
  let all_nodes () =
    let acc = ref Path_set.empty in
    for n = 0 to inst.Snapshot.num_nodes - 1 do
      acc := Path_set.add (Path.trivial n) !acc
    done;
    !acc
  in
  let edges t ~flip =
    let acc = ref Path_set.empty in
    for e = 0 to inst.Snapshot.num_edges - 1 do
      if max_length > 0 && Regex.eval_test (Snapshot.edge_atom inst e) t then begin
        let s, d = (Snapshot.endpoints inst) e in
        let nodes = if flip then [| d; s |] else [| s; d |] in
        acc := Path_set.add (Path.make ~nodes ~edges:[| e |]) !acc
      end
    done;
    !acc
  in
  (* [left · right]: right-hand paths indexed by start node. *)
  let join left right =
    let by_start = Hashtbl.create 64 in
    Path_set.iter (fun p -> Hashtbl.add by_start (Path.start_node p) p) right;
    Path_set.fold
      (fun p acc ->
        List.fold_left
          (fun acc p' ->
            if Path.length p + Path.length p' <= max_length then Path_set.add (Path.cat p p') acc
            else acc)
          acc
          (Hashtbl.find_all by_start (Path.end_node p)))
      left Path_set.empty
  in
  let rec go r =
    if Gqkg_util.Budget.check budget then Path_set.empty
    else
    match r with
    | Regex.Node_test t ->
        let acc = ref Path_set.empty in
        for n = 0 to inst.Snapshot.num_nodes - 1 do
          if Regex.eval_test (Snapshot.node_atom inst n) t then
            acc := Path_set.add (Path.trivial n) !acc
        done;
        !acc
    | Regex.Fwd t -> edges t ~flip:false
    | Regex.Bwd t -> edges t ~flip:true
    | Regex.Alt (r1, r2) -> Path_set.union (go r1) (go r2)
    | Regex.Seq (r1, r2) -> join (go r1) (go r2)
    | Regex.Star r ->
        (* Least fixpoint of X = triv ∪ (X · r), truncated at max_length. *)
        let base = go r in
        let rec fix acc frontier =
          if Gqkg_util.Budget.check budget then acc
          else
            let next = Path_set.diff (join frontier base) acc in
            if Path_set.is_empty next then acc else fix (Path_set.union acc next) next
        in
        let trivials = all_nodes () in
        fix trivials trivials
  in
  go regex

let paths ?budget inst regex ~max_length = Path_set.elements (eval ?budget inst regex ~max_length)

(* Count(G, r, k) by brute force. *)
let count ?budget inst regex ~length =
  Path_set.fold
    (fun p acc -> if Path.length p = length then acc + 1 else acc)
    (eval ?budget inst regex ~max_length:length)
    0

module Triples = Set.Make (struct
  type t = int * int * int

  let compare = compare
end)

(* [eval] over (src, dst, exact length) triples instead of paths: Seq
   joins lengths i + j <= max_length, Star is that join's least
   fixpoint, and node tests are filters — polynomial in the nodes, the
   bound and |r|.  Budget check sites as in [eval]. *)
let triples ?(budget = Gqkg_util.Budget.unlimited) inst regex ~max_length =
  if max_length < 0 then invalid_arg "Naive: negative max_length";
  let n = inst.Snapshot.num_nodes in
  let collect count f = Triples.of_list (List.filter_map f (List.init count Fun.id)) in
  let nodes keep = collect n (fun v -> if keep v then Some (v, v, 0) else None) in
  let edges test ~flip =
    collect inst.Snapshot.num_edges (fun e ->
        let s, d = Snapshot.endpoints inst e in
        if max_length = 0 || not (Regex.eval_test (Snapshot.edge_atom inst e) test) then None
        else Some (if flip then (d, s, 1) else (s, d, 1)))
  in
  let join left right =
    let from = Array.make n [] in
    Triples.iter (fun (b, c, j) -> from.(b) <- (c, j) :: from.(b)) right;
    Triples.fold
      (fun (a, b, i) acc ->
        List.fold_left
          (fun acc (c, j) -> if i + j <= max_length then Triples.add (a, c, i + j) acc else acc)
          acc from.(b))
      left Triples.empty
  in
  let rec go r =
    if Gqkg_util.Budget.check budget then Triples.empty
    else
      match r with
      | Regex.Node_test t -> nodes (fun v -> Regex.eval_test (Snapshot.node_atom inst v) t)
      | Regex.Fwd t -> edges t ~flip:false
      | Regex.Bwd t -> edges t ~flip:true
      | Regex.Alt (r1, r2) -> Triples.union (go r1) (go r2)
      | Regex.Seq (r1, r2) -> join (go r1) (go r2)
      | Regex.Star r ->
          let base = go r in
          let rec fix acc frontier =
            if Gqkg_util.Budget.check budget then acc
            else
              let next = Triples.diff (join frontier base) acc in
              if Triples.is_empty next then acc else fix (Triples.union acc next) next
          in
          let trivials = nodes (fun _ -> true) in
          fix trivials trivials
  in
  Triples.elements (go regex)

let pairs ?budget inst regex ~max_length =
  List.sort_uniq compare
    (List.map (fun (a, b, _) -> (a, b)) (triples ?budget inst regex ~max_length))
