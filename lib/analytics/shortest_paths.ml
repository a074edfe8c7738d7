(* Shortest-path computations named in Section 4.2's analytics toolbox:
   single-source unweighted (BFS) and weighted (Dijkstra) distances,
   distances from every source as a stream, and the exact and
   two-sweep-approximate diameter. *)

open Gqkg_graph
open Gqkg_util
open Gqkg_core
module Regex = Gqkg_automata.Regex

let single_source ?(directed = true) inst ~source = Traversal.bfs_distances ~directed inst ~source

(* Dijkstra with a caller-supplied non-negative edge weight. *)
let dijkstra ?(directed = true) inst ~source ~weight =
  let n = inst.Snapshot.num_nodes in
  let dist = Array.make n infinity in
  let heap = Heap.create (-1) in
  dist.(source) <- 0.0;
  Heap.add heap ~key:0.0 source;
  while not (Heap.is_empty heap) do
    match Heap.pop heap with
    | None -> ()
    | Some (d, v) ->
        if d <= dist.(v) then begin
          let relax e w =
            let weight_e = weight e in
            if weight_e < 0.0 then invalid_arg "Shortest_paths.dijkstra: negative weight";
            let candidate = dist.(v) +. weight_e in
            if candidate < dist.(w) then begin
              dist.(w) <- candidate;
              Heap.add heap ~key:candidate w
            end
          in
          Snapshot.iter_out inst v relax;
          if not directed then Snapshot.iter_in inst v relax
        end
  done;
  dist

(* Graph distances are RPQ distances: a shortest path from a to b is a
   shortest match of (_)* — of (_ + _^-)* when direction is ignored —
   so the distances from every source stream off the batched product
   frontier, [Frontier.word_bits] sources per pass.  The planner's
   minimized automaton for either expression has a single state, so the
   product interns exactly one state per node: a state's discovery bits
   at a level are the sources that first reach its node at that
   distance.  A tripped [budget] stops a batch between levels: every
   reported distance is exact, the unreached pairs go unreported. *)
let iter_distances ?budget ?(directed = true) inst f =
  let step =
    if directed then Regex.any_edge else Regex.Alt (Regex.any_edge, Regex.Bwd Regex.any_test)
  in
  match Planner.prepare ?budget inst (Regex.Star step) with
  | Planner.Empty -> ()
  | Planner.Ready product ->
      let fr = Frontier.create product in
      let n = inst.Snapshot.num_nodes in
      for batch = 0 to (n - 1) / Frontier.word_bits do
        let base = batch * Frontier.word_bits in
        Frontier.run_batch fr
          ~sources:(Array.init (min Frontier.word_bits (n - base)) (fun s -> base + s))
          ~level:(fun ~dist ~states ~words ->
            Array.iteri
              (fun i id ->
                let target = Product.node_of product id in
                Bitset.word_iter words.(i) (fun s -> f ~source:(base + s) ~target ~dist))
              states)
      done

(* Exact diameter: the maximum finite eccentricity (ignoring unreachable
   pairs); [None] for the empty graph. *)
let diameter ?budget ?(directed = false) inst =
  if inst.Snapshot.num_nodes = 0 then None
  else begin
    let best = ref 0 in
    iter_distances ?budget ~directed inst (fun ~source:_ ~target:_ ~dist ->
        if dist > !best then best := dist);
    Some !best
  end

(* Double-sweep lower bound on the diameter: BFS from a seed, then BFS
   from the farthest node found.  Classic, cheap and usually tight on
   real-world graphs. *)
let diameter_double_sweep ?(directed = false) ?(seed = 0) inst =
  let n = inst.Snapshot.num_nodes in
  if n = 0 then None
  else begin
    let farthest dist =
      let best = ref 0 and best_d = ref (-1) in
      Array.iteri
        (fun v d ->
          if d > !best_d then begin
            best := v;
            best_d := d
          end)
        dist;
      (!best, !best_d)
    in
    let d1 = single_source ~directed inst ~source:(((seed mod n) + n) mod n) in
    let far, _ = farthest d1 in
    let d2 = single_source ~directed inst ~source:far in
    let _, ecc = farthest d2 in
    Some ecc
  end

(* Average distance over reachable ordered pairs. *)
let average_distance ?budget ?(directed = false) inst =
  let total = ref 0 and pairs = ref 0 in
  iter_distances ?budget ~directed inst (fun ~source:_ ~target:_ ~dist ->
      if dist > 0 then begin
        total := !total + dist;
        incr pairs
      end);
  if !pairs = 0 then None else Some (float_of_int !total /. float_of_int !pairs)
