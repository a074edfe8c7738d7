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
    | Regex.Fwd t ->
        let acc = ref Path_set.empty in
        for e = 0 to inst.Snapshot.num_edges - 1 do
          if Regex.eval_test (Snapshot.edge_atom inst e) t then begin
            let s, d = (Snapshot.endpoints inst) e in
            acc := Path_set.add (Path.make ~nodes:[| s; d |] ~edges:[| e |]) !acc
          end
        done;
        !acc
    | Regex.Bwd t ->
        let acc = ref Path_set.empty in
        for e = 0 to inst.Snapshot.num_edges - 1 do
          if Regex.eval_test (Snapshot.edge_atom inst e) t then begin
            let s, d = (Snapshot.endpoints inst) e in
            acc := Path_set.add (Path.make ~nodes:[| d; s |] ~edges:[| e |]) !acc
          end
        done;
        !acc
    | Regex.Alt (r1, r2) -> Path_set.union (go r1) (go r2)
    | Regex.Seq (r1, r2) ->
        let left = go r1 and right = go r2 in
        (* Index right-hand paths by start node for the join. *)
        let by_start = Hashtbl.create 64 in
        Path_set.iter
          (fun p ->
            let s = Path.start_node p in
            Hashtbl.replace by_start s (p :: Option.value (Hashtbl.find_opt by_start s) ~default:[]))
          right;
        Path_set.fold
          (fun p acc ->
            List.fold_left
              (fun acc p' ->
                if Path.length p + Path.length p' <= max_length then Path_set.add (Path.cat p p') acc
                else acc)
              acc
              (Option.value (Hashtbl.find_opt by_start (Path.end_node p)) ~default:[]))
          left Path_set.empty
    | Regex.Star r ->
        (* Least fixpoint of X = triv ∪ (r · X), truncated at max_length. *)
        let base = go r in
        let by_start = Hashtbl.create 64 in
        Path_set.iter
          (fun p ->
            let s = Path.start_node p in
            Hashtbl.replace by_start s (p :: Option.value (Hashtbl.find_opt by_start s) ~default:[]))
          base;
        let grow current =
          Path_set.fold
            (fun p acc ->
              List.fold_left
                (fun acc p' ->
                  if Path.length p + Path.length p' <= max_length then
                    Path_set.add (Path.cat p p') acc
                  else acc)
                acc
                (Option.value (Hashtbl.find_opt by_start (Path.end_node p)) ~default:[]))
            current Path_set.empty
        in
        let rec fix acc frontier =
          if Gqkg_util.Budget.check budget then acc
          else
            let next = Path_set.diff (grow frontier) acc in
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

(* Pairs (start, end) of matching paths up to the bound. *)
let pairs ?budget inst regex ~max_length =
  let set = eval ?budget inst regex ~max_length in
  let out = Hashtbl.create 64 in
  Path_set.iter (fun p -> Hashtbl.replace out (Path.start_node p, Path.end_node p) ()) set;
  Hashtbl.fold (fun pair () acc -> pair :: acc) out [] |> List.sort compare
