(* Aggregate-combine graph neural networks (AC-GNNs) as unary queries
   (Section 4.3).  A layer computes, for every node v,

     x'_v = σ( x_v · C  +  (Σ_{u ∈ N(v)} x_u) · A  +  b )

   with σ the truncated ReLU (min(max(x,0),1)) — the activation of
   Barceló et al.'s logic-capturing construction.  N(v) is the undirected
   neighborhood (multiset, multiplicity by parallel edges), matching the
   ◇ of graded modal logic and the WL refinement.  After the layers, a
   linear classifier thresholds the final embedding: the network *is* a
   boolean unary query over vector-labeled graphs. *)

open Gqkg_graph
open Gqkg_util

type layer = { combine : Vec.mat; aggregate : Vec.mat; bias : Vec.vec }

type t = {
  input_dim : int;
  layers : layer list;
  classifier : Vec.vec; (* weight on the final embedding *)
  threshold : float; (* output true iff w·x >= threshold *)
}

let make ~input_dim ~layers ~classifier ~threshold =
  let dims_ok =
    List.fold_left
      (fun expected { combine; aggregate; bias } ->
        match expected with
        | None -> None
        | Some d ->
            if
              combine.Vec.rows = d && aggregate.Vec.rows = d
              && combine.Vec.cols = aggregate.Vec.cols
              && Array.length bias = combine.Vec.cols
            then Some combine.Vec.cols
            else None)
      (Some input_dim) layers
  in
  match dims_ok with
  | Some final when Array.length classifier = final -> { input_dim; layers; classifier; threshold }
  | Some _ -> invalid_arg "Gnn.make: classifier dimension mismatch"
  | None -> invalid_arg "Gnn.make: layer dimension mismatch"

let num_layers t = List.length t.layers

(* Forward pass: final embeddings of every node. [features v] must have
   [input_dim] entries. *)
let embeddings t inst ~features =
  let n = inst.Snapshot.num_nodes in
  let current =
    ref
      (Array.init n (fun v ->
           let x = features v in
           if Array.length x <> t.input_dim then invalid_arg "Gnn.embeddings: bad input width";
           x))
  in
  List.iter
    (fun { combine; aggregate; bias } ->
      let prev = !current in
      let next =
        Array.init n (fun v ->
            (* Sum of neighbor embeddings (undirected, with multiplicity). *)
            let agg = Array.make (Array.length prev.(v)) 0.0 in
            Snapshot.iter_out inst v (fun _e w -> Vec.vec_add_in_place ~into:agg prev.(w));
            Snapshot.iter_in inst v (fun _e u -> Vec.vec_add_in_place ~into:agg prev.(u));
            let own = Vec.vec_mat prev.(v) combine in
            let nbr = Vec.vec_mat agg aggregate in
            Array.mapi (fun i x -> Vec.truncated_relu (x +. nbr.(i) +. bias.(i))) own)
      in
      current := next)
    t.layers;
  !current

(* The network as a unary query: the set of nodes classified true. *)
let classify t inst ~features =
  let emb = embeddings t inst ~features in
  Array.map (fun x -> Vec.dot t.classifier x >= t.threshold) emb

let classified_nodes t inst ~features =
  let mask = classify t inst ~features in
  let out = ref [] in
  Array.iteri (fun v b -> if b then out := v :: !out) mask;
  List.rev !out

(* Random AC-GNN with the given layer widths (benchmark workloads; the
   paper's networks are not trained, they are studied as queries). *)
let random rng ~input_dim ~widths ~scale =
  let mat rows cols =
    let m = Vec.mat_create ~rows ~cols in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        Vec.set m r c (Splitmix.gaussian rng ~mu:0.0 ~sigma:scale)
      done
    done;
    m
  in
  let rec build prev = function
    | [] -> []
    | w :: rest ->
        { combine = mat prev w; aggregate = mat prev w; bias = Array.init w (fun _ -> Splitmix.gaussian rng ~mu:0.0 ~sigma:scale) }
        :: build w rest
  in
  let layers = build input_dim widths in
  let final = match List.rev widths with [] -> input_dim | w :: _ -> w in
  {
    input_dim;
    layers;
    classifier = Array.init final (fun _ -> Splitmix.gaussian rng ~mu:0.0 ~sigma:scale);
    threshold = 0.0;
  }

(* Standard input features for a vector-labeled graph: one-hot over the
   distinct constants appearing in each feature coordinate.  Returns the
   feature function and its width. *)
let one_hot_features vg =
  let d = Vector_graph.dimension vg in
  let n = Vector_graph.num_nodes vg in
  (* Per coordinate, the palette of values in use. *)
  let palettes = Array.init d (fun _ -> Hashtbl.create 8) in
  for v = 0 to n - 1 do
    let vec = Vector_graph.node_vector vg v in
    for i = 0 to d - 1 do
      let p = palettes.(i) in
      if not (Hashtbl.mem p vec.(i)) then Hashtbl.add p vec.(i) (Hashtbl.length p)
    done
  done;
  let offsets = Array.make (d + 1) 0 in
  for i = 0 to d - 1 do
    offsets.(i + 1) <- offsets.(i) + Hashtbl.length palettes.(i)
  done;
  let width = offsets.(d) in
  let features v =
    let x = Array.make width 0.0 in
    let vec = Vector_graph.node_vector vg v in
    for i = 0 to d - 1 do
      match Hashtbl.find_opt palettes.(i) vec.(i) with
      | Some slot -> x.(offsets.(i) + slot) <- 1.0
      | None -> ()
    done;
    x
  in
  (features, width)

(* Graph-level readout: the mean of the node embeddings (the simplest
   permutation-invariant pooling; graph classification extensions build
   on it). *)
let mean_pool embeddings =
  match Array.length embeddings with
  | 0 -> [||]
  | n ->
      let width = Array.length embeddings.(0) in
      let acc = Array.make width 0.0 in
      Array.iter (fun e -> Vec.vec_add_in_place ~into:acc e) embeddings;
      Array.map (fun x -> x /. float_of_int n) acc
