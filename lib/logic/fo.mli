(** First-order logic over graph vocabularies (Section 4.3), the one
    declarative evaluator of the section's correspondence chain: node
    labels as unary predicates, edge labels as binary predicates, with
    adjacency and counting quantifiers (C², the logic of the
    Weisfeiler-Lehman test, is the fragment [width f <= 2]) and the
    transitive closure of a regex step (reachability logic).  Holds the
    paper's φ(x)/ψ(x) example, its two evaluation strategies, and the
    embedding of graded modal logic. *)

open Gqkg_graph

type formula =
  | Node_pred of Const.t * string  (** label(x) *)
  | Edge_pred of Const.t * string * string  (** label(x, y) *)
  | Adjacent of string * string  (** adj(x, y): any edge between x and y, either way *)
  | Eq of string * string
  | Tc of { step : Gqkg_automata.Regex.t; reflexive : bool; src : string; dst : string }
      (** TC(step)(src, dst): dst reachable from src by ≥ 1 (≥ 0 when
          [reflexive]) step-paths *)
  | Neg of formula
  | And of formula * formula
  | Or of formula * formula
  | Exists of string * formula  (** ∃x φ, the k = 1 case of {!Count_exists} *)
  | Count_exists of int * string * formula  (** ∃≥k x φ, k ≥ 1 *)
  | Forall of string * formula

val node_pred : string -> string -> formula
val edge_pred : string -> string -> string -> formula
val tc : ?reflexive:bool -> Gqkg_automata.Regex.t -> src:string -> dst:string -> formula

(** Right-nested conjunction; raises on []. *)
val and_of : formula list -> formula

module Vars : Set.S with type elt = string

val free_vars : formula -> Vars.t

(** All variable names used — the "number of variables" resource the
    bounded-variable rewriting economizes. *)
val all_vars : formula -> Vars.t

(** Distinct variable names; C² is [width f <= 2]. *)
val width : formula -> int

val quantifier_rank : formula -> int
val to_string : formula -> string
val pp : Format.formatter -> formula -> unit

(** {2 Evaluation}

    Both evaluators answer a unary query: the formula must have no free
    variables beyond [free], and every counting threshold must be ≥ 1
    (else [Invalid_argument]).  Answers are sorted. *)

(** Direct Tarskian evaluation, looping over all nodes at every
    quantifier — O(n^quantifier-rank). *)
val eval_naive : Snapshot.t -> formula -> free:string -> int list

(** Bottom-up relational evaluation; every subformula's extension is a
    table over its free variables, and ∃≥k keeps the groups of the other
    variables with at least k values.  Raises when an intermediate arity
    exceeds the variable bound (3) — that cap is the bounded-variable
    discipline [Vardi 1995]. *)
val eval_bounded : Snapshot.t -> formula -> free:string -> int list

(** {2 Graded modal logic}

    ◇≥k φ ↦ ∃≥k y (adj(x, y) ∧ φ(y)), alternating two variables, so the
    image is in C².  Agrees with {!Gml.eval} on simple graphs (no
    parallel edges).  Raises on non-label atoms. *)
val of_gml : Gml.t -> formula

(** {2 The paper's worked formulas} *)

(** φ(x) = person(x) ∧ ∃y∃z (rides(x,y) ∧ bus(y) ∧ rides(z,y) ∧ infected(z)) *)
val phi : formula

(** ψ(x): the equivalent 2-variable rewriting. *)
val psi : formula
