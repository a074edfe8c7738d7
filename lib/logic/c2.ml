(* C²: two-variable first-order logic with counting quantifiers — the
   logic whose distinguishing power equals the Weisfeiler-Lehman test
   [Cai, Fürer & Immerman 1992], the third corner of the Section 4.3
   triangle (WL = AC-GNN = graded modal logic ⊆ C²).

     φ ::= label(x) | edge(x,y) | adj(x,y) | x=y
         | ¬φ | φ∧φ | φ∨φ | ∃≥k x φ

   adj(x,y) holds when any edge connects x and y in either direction
   (the undirected view of WL and the GNNs).  The width checker enforces
   the two-variable discipline; evaluation is Tarskian with counting. *)

open Gqkg_graph

type formula =
  | Node_pred of Const.t * string
  | Edge_pred of Const.t * string * string  (** a labeled edge x→y *)
  | Adjacent of string * string  (** any edge between x and y, either way *)
  | Eq of string * string
  | Neg of formula
  | And of formula * formula
  | Or of formula * formula
  | Count_exists of int * string * formula  (** ∃≥k x φ *)

let node_pred l x = Node_pred (Const.str l, x)
let edge_pred l x y = Edge_pred (Const.str l, x, y)

let exists ?(at_least = 1) x f =
  if at_least < 1 then invalid_arg "C2.exists: threshold must be >= 1";
  Count_exists (at_least, x, f)

module Vars = Set.Make (String)

let rec free_vars = function
  | Node_pred (_, x) -> Vars.singleton x
  | Edge_pred (_, x, y) | Adjacent (x, y) | Eq (x, y) -> Vars.add x (Vars.singleton y)
  | Neg f -> free_vars f
  | And (f, g) | Or (f, g) -> Vars.union (free_vars f) (free_vars g)
  | Count_exists (_, x, f) -> Vars.remove x (free_vars f)

let rec all_vars = function
  | Node_pred (_, x) -> Vars.singleton x
  | Edge_pred (_, x, y) | Adjacent (x, y) | Eq (x, y) -> Vars.add x (Vars.singleton y)
  | Neg f -> all_vars f
  | And (f, g) | Or (f, g) -> Vars.union (all_vars f) (all_vars g)
  | Count_exists (_, x, f) -> Vars.add x (all_vars f)

let width f = Vars.cardinal (all_vars f)

(* The C² discipline: at most two variable names in the whole formula. *)
let is_c2 f = width f <= 2

let rec to_string = function
  | Node_pred (l, x) -> Printf.sprintf "%s(%s)" (Const.to_string l) x
  | Edge_pred (l, x, y) -> Printf.sprintf "%s(%s,%s)" (Const.to_string l) x y
  | Adjacent (x, y) -> Printf.sprintf "adj(%s,%s)" x y
  | Eq (x, y) -> Printf.sprintf "%s=%s" x y
  | Neg f -> "~" ^ to_string f
  | And (f, g) -> Printf.sprintf "(%s & %s)" (to_string f) (to_string g)
  | Or (f, g) -> Printf.sprintf "(%s | %s)" (to_string f) (to_string g)
  | Count_exists (k, x, f) -> Printf.sprintf "E>=%d %s.%s" k x (to_string f)

(* Adjacency set (undirected, deduplicated): the semantics of [adj]. *)
let adjacency inst =
  let table = Hashtbl.create 256 in
  for e = 0 to inst.Snapshot.num_edges - 1 do
    let s, d = (Snapshot.endpoints inst) e in
    Hashtbl.replace table (s, d) ();
    Hashtbl.replace table (d, s) ()
  done;
  table

let rec holds db adj env = function
  | Node_pred (l, x) -> Snapshot.node_atom (Fo.db_instance db) (List.assoc x env) (Atom.Label l)
  | Edge_pred (l, x, y) -> Fo.edge_holds db l (List.assoc x env) (List.assoc y env)
  | Adjacent (x, y) -> Hashtbl.mem adj (List.assoc x env, List.assoc y env)
  | Eq (x, y) -> List.assoc x env = List.assoc y env
  | Neg f -> not (holds db adj env f)
  | And (f, g) -> holds db adj env f && holds db adj env g
  | Or (f, g) -> holds db adj env f || holds db adj env g
  | Count_exists (k, x, f) ->
      let n = (Fo.db_instance db).Snapshot.num_nodes in
      let count = ref 0 in
      let v = ref 0 in
      (* Early exit once the threshold is reached. *)
      while !count < k && !v < n do
        if holds db adj ((x, !v) :: env) f then incr count;
        incr v
      done;
      !count >= k

(* Unary query in [free]; rejects formulas outside C² or with stray free
   variables. *)
let eval inst formula ~free =
  if not (is_c2 formula) then invalid_arg "C2.eval: more than two variables";
  if not (Vars.subset (free_vars formula) (Vars.singleton free)) then
    invalid_arg "C2.eval: formula has free variables beyond the query variable";
  let db = Fo.db_of_instance inst in
  let adj = adjacency inst in
  let out = ref [] in
  for v = inst.Snapshot.num_nodes - 1 downto 0 do
    if holds db adj [ (free, v) ] formula then out := v :: !out
  done;
  !out

(* Graded modal logic embeds in C² (on simple graphs, where counting
   neighbor NODES agrees with counting incident edges): ◇≥k φ(x)
   becomes ∃≥k y (adj(x,y) ∧ φ(y)), alternating the two variables. *)
let of_gml formula =
  let other = function "x" -> "y" | _ -> "x" in
  let rec go current = function
    | Gml.Atom (Atom.Label l) -> Node_pred (l, current)
    | Gml.Atom _ -> invalid_arg "C2.of_gml: only label atoms translate"
    | Gml.True -> Eq (current, current)
    | Gml.Not f -> Neg (go current f)
    | Gml.And (f, g) -> And (go current f, go current g)
    | Gml.Or (f, g) -> Or (go current f, go current g)
    | Gml.Diamond (k, f) ->
        let next = other current in
        Count_exists (k, next, And (Adjacent (current, next), go next f))
  in
  go "x" formula
