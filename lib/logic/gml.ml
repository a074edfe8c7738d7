(* Graded modal logic: the declarative counterpart of aggregate-combine
   graph neural networks (Section 4.3).  Barceló et al. (2020) prove that
   a unary query is expressible by an AC-GNN iff it is expressible in
   graded modal logic; {!Gqkg_gnn.Logic_gnn} implements the constructive
   direction and the tests check agreement with this evaluator.

     φ ::= atom | ⊤ | ¬φ | φ∧φ | φ∨φ | ◇≥n φ

   ◇≥n φ holds at a node with at least n neighbors satisfying φ.  We use
   the undirected neighborhood (out- plus in-neighbors, with edge
   multiplicity), matching the aggregation of the GNN layer. *)

open Gqkg_graph

type t =
  | Atom of Atom.t  (** a node test, e.g. label or feature equality *)
  | True
  | Not of t
  | And of t * t
  | Or of t * t
  | Diamond of int * t  (** ◇≥n φ: at least n neighbors satisfy φ *)

let label l = Atom (Atom.label l)
let feature i v = Atom (Atom.feature i v)

let diamond ?(at_least = 1) f =
  if at_least < 1 then invalid_arg "Gml.diamond: threshold must be >= 1";
  Diamond (at_least, f)

let rec depth = function
  | Atom _ | True -> 0
  | Not f -> depth f
  | And (f, g) | Or (f, g) -> max (depth f) (depth g)
  | Diamond (_, f) -> 1 + depth f

let rec size = function
  | Atom _ | True -> 1
  | Not f -> 1 + size f
  | And (f, g) | Or (f, g) -> 1 + size f + size g
  | Diamond (_, f) -> 1 + size f

(* All subformulas, children before parents, without duplicates (physical
   sharing not required); this is the enumeration order the logic→GNN
   compiler assigns to feature coordinates. *)
let subformulas formula =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec visit f =
    if not (Hashtbl.mem seen f) then begin
      (match f with
      | Atom _ | True -> ()
      | Not g | Diamond (_, g) -> visit g
      | And (g, h) | Or (g, h) ->
          visit g;
          visit h);
      Hashtbl.replace seen f ();
      out := f :: !out
    end
  in
  visit formula;
  List.rev !out

let rec to_string = function
  | Atom a -> Atom.to_string a
  | True -> "T"
  | Not f -> "~" ^ to_string f
  | And (f, g) -> Printf.sprintf "(%s & %s)" (to_string f) (to_string g)
  | Or (f, g) -> Printf.sprintf "(%s | %s)" (to_string f) (to_string g)
  | Diamond (k, f) -> Printf.sprintf "<>%d %s" k (to_string f)

let pp ppf f = Fmt.string ppf (to_string f)

(* Bottom-up evaluation: one boolean array per subformula, each Diamond a
   single pass over the adjacency — O(size(φ) · (n + m)). *)
let eval inst formula =
  let n = inst.Snapshot.num_nodes in
  let cache : (t, bool array) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let row =
        match f with
        | Atom a -> Array.init n (fun v -> Snapshot.node_atom inst v a)
        | True -> Array.make n true
        | Not g ->
            let gr = Hashtbl.find cache g in
            Array.map not gr
        | And (g, h) ->
            let gr = Hashtbl.find cache g and hr = Hashtbl.find cache h in
            Array.init n (fun v -> gr.(v) && hr.(v))
        | Or (g, h) ->
            let gr = Hashtbl.find cache g and hr = Hashtbl.find cache h in
            Array.init n (fun v -> gr.(v) || hr.(v))
        | Diamond (k, g) ->
            let gr = Hashtbl.find cache g in
            Array.init n (fun v ->
                let count = ref 0 in
                Snapshot.iter_out inst v (fun _e w -> if gr.(w) then incr count);
                Snapshot.iter_in inst v (fun _e u -> if gr.(u) then incr count);
                !count >= k)
      in
      Hashtbl.replace cache f row)
    (subformulas formula);
  Hashtbl.find cache formula

(* The nodes satisfying the formula. *)
let models inst formula =
  let row = eval inst formula in
  let out = ref [] in
  Array.iteri (fun v b -> if b then out := v :: !out) row;
  List.rev !out
