(* Reference evaluators moved out of the production libraries: each is
   the definition of what it checks, with no index, cache or planner
   between the definition and the answer. *)

open Gqkg_graph
open Gqkg_automata
open Gqkg_core

(* Run the guarded NFA over the path: the closure at each node, the
   moves the concrete step realizes (a self-loop realizes both
   orientations), acceptance at the end. *)
let matches_path inst regex path =
  let nfa = Nfa.of_regex regex in
  let k = Path.length path in
  let current = ref (Nfa.closure nfa ~node_sat:(Snapshot.node_atom inst (Path.node path 0)) [| Nfa.start nfa |]) in
  let alive = ref true in
  for i = 0 to k - 1 do
    if !alive then begin
      let e = Path.edge path i in
      let v = Path.node path i and w = Path.node path (i + 1) in
      let s, d = (Snapshot.endpoints inst) e in
      let edge_sat = Snapshot.edge_atom inst e in
      let fwd_moves, bwd_moves = Nfa.edge_moves nfa !current in
      let targets = ref [] in
      let add tests =
        List.iter
          (fun (test, q') ->
            if Regex.eval_test edge_sat test && not (List.mem q' !targets) then targets := q' :: !targets)
          tests
      in
      if s = v && d = w then add fwd_moves;
      if s = w && d = v then add bwd_moves;
      let arr = Array.of_list !targets in
      Array.sort Int.compare arr;
      let closed = Nfa.closure nfa ~node_sat:(Snapshot.node_atom inst w) arr in
      if Array.length closed = 0 then alive := false else current := closed
    end
  done;
  !alive && Nfa.is_accepting nfa !current

(* For every pair (a, b), all shortest a→b paths by DFS descending the
   BFS levels; each interior node gets its share of them. *)
let betweenness ?(directed = true) inst =
  let n = inst.Snapshot.num_nodes in
  let neighbors v =
    if directed then Gqkg_analytics.Traversal.out_neighbors inst v
    else Gqkg_analytics.Traversal.all_neighbors inst v
  in
  let bc = Array.make n 0.0 in
  for a = 0 to n - 1 do
    let dist = Gqkg_analytics.Traversal.bfs_distances ~directed inst ~source:a in
    for b = 0 to n - 1 do
      if b <> a && dist.(b) > 0 then begin
        let through = Array.make n 0 in
        let total = ref 0 in
        let rec walk v visited =
          if v = b then begin
            incr total;
            List.iter (fun x -> through.(x) <- through.(x) + 1) visited
          end
          else
            Array.iter
              (fun w -> if dist.(w) = dist.(v) + 1 && dist.(w) <= dist.(b) then
                  walk w (if w <> b then w :: visited else visited))
              (neighbors v)
        in
        walk a [];
        if !total > 0 then
          for x = 0 to n - 1 do
            if x <> a && x <> b && through.(x) > 0 then
              bc.(x) <- bc.(x) +. (float_of_int through.(x) /. float_of_int !total)
          done
      end
    done
  done;
  if not directed then Array.map (fun x -> x /. 2.0) bc else bc

(* bc_r from the path semantics: per ordered pair a ≠ b, the matching
   paths of least length (up to the bound) are S_{a,b,r}; each credits
   its distinct nodes other than a and b with 1/|S|.  A path is an edge
   sequence, so parallel edges make distinct paths. *)
let bcr ~max_length inst regex =
  let least = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let ends = (Path.start_node p, Path.end_node p) and k = Path.length p in
      if fst ends <> snd ends then
        match Hashtbl.find_opt least ends with
        | Some (k', _) when k' < k -> ()
        | Some (k', paths) when k' = k -> Hashtbl.replace least ends (k, p :: paths)
        | Some _ | None -> Hashtbl.replace least ends (k, [ p ]))
    (Naive.paths inst regex ~max_length);
  let bc = Array.make inst.Snapshot.num_nodes 0.0 in
  Hashtbl.iter
    (fun (a, b) (_, paths) ->
      let share = 1.0 /. float_of_int (List.length paths) in
      List.iter
        (fun p ->
          List.iter
            (fun x -> if x <> a && x <> b then bc.(x) <- bc.(x) +. share)
            (List.sort_uniq Int.compare (Array.to_list (Path.nodes p))))
        paths)
    least;
  bc

(* A shortest matching path never visits one (node, NFA state) twice
   after an edge step, so n times the states of a Thompson-style
   automaton (at most 2 per regex node, plus one) bounds it; a
   star-free regex has its own exact bound. *)
let pair_bound inst r =
  match Regex.max_path_length r with
  | Some k -> k
  | None -> inst.Snapshot.num_nodes * ((2 * Regex.size r) + 1)

let crpq_answers ?max_length inst (q : Gqkg_logic.Crpq.t) =
  let relations =
    List.map
      (fun (a : Gqkg_logic.Crpq.atom) ->
        let max_length = Option.value max_length ~default:(pair_bound inst a.regex) in
        let pairs = Hashtbl.create 64 in
        List.iter (fun p -> Hashtbl.replace pairs p ()) (Naive.pairs inst a.regex ~max_length);
        (a, pairs))
      q.body
  in
  let vars =
    List.sort_uniq String.compare
      (List.concat_map (fun (a : Gqkg_logic.Crpq.atom) -> [ a.src; a.dst ]) q.body)
  in
  let n = inst.Snapshot.num_nodes in
  let out = ref [] in
  let rec assign env = function
    | [] ->
        if
          List.for_all
            (fun ((a : Gqkg_logic.Crpq.atom), pairs) ->
              Hashtbl.mem pairs (List.assoc a.src env, List.assoc a.dst env))
            relations
        then out := List.map (fun v -> List.assoc v env) q.head :: !out
    | v :: rest ->
        for node = 0 to n - 1 do
          assign ((v, node) :: env) rest
        done
  in
  assign [] vars;
  List.sort_uniq compare !out
