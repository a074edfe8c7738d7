(* Brzozowski derivatives for path regular expressions: a second,
   independent implementation of the Section 4 path semantics, the
   matcher the suites cross-check {!Reference.matches_path} (the NFA run
   over a path) against.

   The derivative is taken directly on {!Regex.t}.  The two constants
   derivatives need are encoded as node tests:

     ε (exactly the zero-length path, anywhere) = ?any_test
     ∅ (nothing)                                = ?(any_test ∧ ¬any_test)

   Because ?tests fire at the node where they stand, "does r match the
   empty path HERE" ([nullable_at]) and the derivative of a step taken
   FROM a node both receive that node's atom oracle. *)

open Gqkg_graph
open Gqkg_automata

let epsilon = Regex.Node_test Regex.any_test
let empty = Regex.Node_test (Regex.And (Regex.any_test, Regex.Not Regex.any_test))

let is_epsilon r = Regex.equal r epsilon
let is_empty r = Regex.equal r empty

(* Smart constructors: ∅ and ε propagate, keeping derivatives small. *)
let alt a b = if is_empty a then b else if is_empty b then a else if Regex.equal a b then a else Regex.Alt (a, b)

let seq a b =
  if is_empty a || is_empty b then empty
  else if is_epsilon a then b
  else if is_epsilon b then a
  else Regex.Seq (a, b)

let star r = if is_empty r || is_epsilon r then epsilon else match r with Regex.Star _ -> r | r -> Regex.Star r

(* Does r match the zero-length path at a node satisfying [node_sat]? *)
let rec nullable_at ~node_sat = function
  | Regex.Node_test test -> Regex.eval_test node_sat test
  | Regex.Fwd _ | Regex.Bwd _ -> false
  | Regex.Alt (a, b) -> nullable_at ~node_sat a || nullable_at ~node_sat b
  | Regex.Seq (a, b) -> nullable_at ~node_sat a && nullable_at ~node_sat b
  | Regex.Star _ -> true

(* One path step: from a node with oracle [node_sat], consume an edge
   with oracle [edge_sat]; [forward_ok] / [backward_ok] say which
   orientations this concrete step realizes (a self-loop realizes
   both). *)
let rec derive ~node_sat ~edge_sat ~forward_ok ~backward_ok r =
  let d = derive ~node_sat ~edge_sat ~forward_ok ~backward_ok in
  match r with
  | Regex.Node_test _ -> empty
  | Regex.Fwd test -> if forward_ok && Regex.eval_test edge_sat test then epsilon else empty
  | Regex.Bwd test -> if backward_ok && Regex.eval_test edge_sat test then epsilon else empty
  | Regex.Alt (a, b) -> alt (d a) (d b)
  | Regex.Seq (a, b) ->
      let through = seq (d a) b in
      if nullable_at ~node_sat a then alt through (d b) else through
  | Regex.Star inner -> seq (d inner) (star inner)

(* One concrete step of a path, described by oracles so this module
   stays independent of any particular graph representation. *)
type step = {
  edge_sat : Atom.t -> bool;
  forward_ok : bool;  (** the edge points from the current node to the next *)
  backward_ok : bool;  (** the edge points from the next node to the current *)
  dst_sat : Atom.t -> bool;  (** atom oracle of the arrival node *)
}

(* Reference matcher: differentiate along the steps, accept if the final
   residual is nullable at the end node. *)
let matches ~start_sat steps regex =
  let rec loop node_sat r = function
    | [] -> nullable_at ~node_sat r
    | { edge_sat; forward_ok; backward_ok; dst_sat } :: rest ->
        let r' = derive ~node_sat ~edge_sat ~forward_ok ~backward_ok r in
        if is_empty r' then false else loop dst_sat r' rest
  in
  loop start_sat regex steps
