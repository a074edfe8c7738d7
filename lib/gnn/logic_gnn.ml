(* The constructive half of the Section 4.3 correspondence: every graded
   modal logic formula is computed by an AC-GNN [Barceló et al. 2020,
   Proposition 4.1].

   The compilation assigns one embedding coordinate to every subformula
   (children before parents).  The input features put the truth value of
   the atomic subformulas in their coordinates; every layer then applies
   the same weights, which compute each operator from its children using
   the truncated ReLU σ:

     ¬g        σ(1 - x_g)
     g ∧ h     σ(x_g + x_h - 1)
     g ∨ h     σ(x_g + x_h)
     ◇≥k g     σ(Σ_{u∈N(v)} x_g(u) - (k - 1))
     atoms/⊤   preserved by the identity / constant bias

   With boolean inputs every coordinate stays in {0,1}, and after
   operator-depth(φ) layers the coordinate of φ holds its truth value at
   every node.  The classifier reads that coordinate.  Agreement with the
   direct evaluator {!Gqkg_logic.Gml.eval} is checked by property tests
   (E10), which is precisely the declarative-vs-procedural equivalence
   the tutorial highlights. *)

open Gqkg_graph
open Gqkg_logic
open Gqkg_util

type compiled = { gnn : Gnn.t; features : Snapshot.t -> int -> float array; formula : Gml.t }

let rec operator_depth = function
  | Gml.Atom _ | Gml.True -> 0
  | Gml.Not g -> 1 + operator_depth g
  | Gml.And (g, h) | Gml.Or (g, h) -> 1 + max (operator_depth g) (operator_depth h)
  | Gml.Diamond (_, g) -> 1 + operator_depth g

let compile formula =
  let subs = Array.of_list (Gml.subformulas formula) in
  let d = Array.length subs in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i f -> Hashtbl.replace index f i) subs;
  let coord f = Hashtbl.find index f in
  let combine = Vec.mat_create ~rows:d ~cols:d in
  let aggregate = Vec.mat_create ~rows:d ~cols:d in
  let bias = Array.make d 0.0 in
  Array.iteri
    (fun i f ->
      match f with
      | Gml.Atom _ -> Vec.set combine i i 1.0 (* copy forward *)
      | Gml.True -> bias.(i) <- 1.0
      | Gml.Not g ->
          Vec.set combine (coord g) i (-1.0);
          bias.(i) <- 1.0
      | Gml.And (g, h) ->
          (* g = h would need weight 2 on the shared coordinate; but then
             the subformula is equal to g and hash-consing in
             [subformulas] cannot produce it twice with distinct coords,
             so accumulate additively. *)
          Vec.set combine (coord g) i (Vec.get combine (coord g) i +. 1.0);
          Vec.set combine (coord h) i (Vec.get combine (coord h) i +. 1.0);
          bias.(i) <- -1.0
      | Gml.Or (g, h) ->
          Vec.set combine (coord g) i (Vec.get combine (coord g) i +. 1.0);
          Vec.set combine (coord h) i (Vec.get combine (coord h) i +. 1.0)
      | Gml.Diamond (k, g) ->
          Vec.set aggregate (coord g) i 1.0;
          bias.(i) <- -.float_of_int (k - 1))
    subs;
  let layer = { Gnn.combine; aggregate; bias } in
  let layers = List.init (max 1 (operator_depth formula)) (fun _ -> layer) in
  let classifier = Array.make d 0.0 in
  classifier.(coord formula) <- 1.0;
  let gnn = Gnn.make ~input_dim:d ~layers ~classifier ~threshold:0.5 in
  let features inst v =
    let x = Array.make d 0.0 in
    Array.iteri
      (fun i f ->
        match f with
        | Gml.Atom a -> if Snapshot.node_atom inst v a then x.(i) <- 1.0
        | Gml.True -> x.(i) <- 1.0
        | Gml.Not _ | Gml.And _ | Gml.Or _ | Gml.Diamond _ -> ())
      subs;
    x
  in
  { gnn; features; formula }

(* Evaluate the compiled network as a unary query. *)
let classify compiled inst = Gnn.classify compiled.gnn inst ~features:(compiled.features inst)

let classified_nodes compiled inst =
  Gnn.classified_nodes compiled.gnn inst ~features:(compiled.features inst)
