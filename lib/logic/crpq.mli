(** Conjunctive regular path queries (CRPQs): conjunctions of path atoms
    (x, r, y) where r is a full Section 4 regular expression — the
    backbone of modern graph query languages [Angles et al. 2017].

    Evaluation goes through the worst-case-optimal multiway join engine
    ({!Gqkg_core.Join}).  A conjunctive query is the CRPQ whose atoms are
    labels and node tests: a node-label atom (x, ?c, x) compiles to the
    label's postings set (when [max_length] is absent or non-negative)
    and a single-edge-label atom to a zero-copy CSR trie view.  Other
    atoms' endpoint relations are materialized once by the batched
    Frontier-backed product engine and shared across identical regexes.
    The conjunction is solved variable-by-variable under a planned
    global order.  The previous greedy backtracking join remains as the
    reference oracle {!answers_backtrack}. *)

open Gqkg_graph
open Gqkg_automata

type atom = { src : string; regex : Regex.t; dst : string }

type t = { head : string list; body : atom list; limit : int option }

val atom : src:string -> regex:Regex.t -> dst:string -> atom

(** [limit] caps the number of distinct answers (SQL-style LIMIT). *)
val query : ?limit:int -> head:string list -> body:atom list -> unit -> t

(** Concrete-syntax rendering (parse-compatible with {!Crpq_parser} up
    to node-label sugar). *)
val to_string : t -> string

(** Call [yield] once per distinct head tuple. [max_length] bounds path
    length per atom (cost control for star-heavy patterns). Raises if a
    head variable is not bound by the body.  A tripped [budget] stops
    both atom materialization and the join: the yielded tuples are a
    sound subset of the complete answer. *)
val iter_answers :
  ?budget:Gqkg_util.Budget.t ->
  ?max_length:int ->
  Snapshot.t ->
  t ->
  yield:(int list -> unit) ->
  unit

(** Distinct head tuples, sorted. *)
val answers : ?budget:Gqkg_util.Budget.t -> ?max_length:int -> Snapshot.t -> t -> int list list

val answer_nodes :
  ?budget:Gqkg_util.Budget.t -> ?max_length:int -> Snapshot.t -> t -> int list

(** The pre-WCOJ greedy backtracking join over fully-indexed
    materialized relations — the reference oracle for tests and the
    bench A/B (int-slot environments, LIMIT honored).  [yield] fires
    once per distinct head tuple, in discovery order. *)
val iter_answers_backtrack :
  ?max_length:int -> Snapshot.t -> t -> yield:(int list -> unit) -> unit

val answers_backtrack : ?max_length:int -> Snapshot.t -> t -> int list list

(** Oracle: enumerate all variable assignments and filter. Exponential;
    for tests and the E13 ablation. *)
val answers_naive : ?max_length:int -> Snapshot.t -> t -> int list list

(** Full solution mappings (every body variable bound), deduplicated. *)
val solutions :
  ?budget:Gqkg_util.Budget.t -> ?max_length:int -> Snapshot.t -> t -> (string * int) list list

(** Solutions with one shortest witness path per atom — paths as
    first-class results (the G-CORE idea of the paper's reference [5]). *)
val solutions_with_witnesses :
  ?max_length:int -> Snapshot.t -> t -> ((string * int) list * (atom * Gqkg_core.Path.t) list) list

(** Human-readable evaluation plan: per-atom relation sizes/kinds and
    the chosen variable order with estimates. *)
val explain : ?max_length:int -> Snapshot.t -> t -> string
