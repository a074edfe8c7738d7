(** Brzozowski derivatives on path regular expressions: an independent
    second implementation of the Section 4 semantics (the cross-check
    backend). ε and ∅ are encoded as node tests. *)

open Gqkg_graph
open Gqkg_automata

(** The zero-length-path-anywhere expression (ε). *)
val epsilon : Regex.t

(** The match-nothing expression (∅). *)
val empty : Regex.t

val is_epsilon : Regex.t -> bool
val is_empty : Regex.t -> bool

(** Does r match the zero-length path at a node with this oracle? *)
val nullable_at : node_sat:(Atom.t -> bool) -> Regex.t -> bool

(** Derivative with respect to one step taken from a node: which
    orientations the concrete edge realizes is the caller's business
    (a self-loop realizes both). *)
val derive :
  node_sat:(Atom.t -> bool) ->
  edge_sat:(Atom.t -> bool) ->
  forward_ok:bool ->
  backward_ok:bool ->
  Regex.t ->
  Regex.t

(** One concrete path step, as oracles. *)
type step = {
  edge_sat : Atom.t -> bool;
  forward_ok : bool;
  backward_ok : bool;
  dst_sat : Atom.t -> bool;
}

(** Differentiate along the steps from a start node; accept iff the
    residual is nullable at the end. *)
val matches : start_sat:(Atom.t -> bool) -> step list -> Regex.t -> bool
