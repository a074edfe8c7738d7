(** Conjunctive regular path queries (CRPQs): conjunctions of path atoms
    (x, r, y) where r is a full Section 4 regular expression — the
    backbone of modern graph query languages [Angles et al. 2017].

    A CRPQ is a parser plus term mapping over the one conjunctive
    compiler ({!Gqkg_core.Conjunctive}), which it shares with SPARQL
    BGPs: a node-label atom (x, ?c, x) is the label's postings set, a
    single edge label a zero-copy CSR view, and every other atom's
    relation comes through {!Gqkg_core.Governor.eval_relation}, so a
    path atom repeated on one snapshot is a semantic result-cache hit.
    The worst-case-optimal join ({!Gqkg_core.Join}) solves the
    conjunction.  The greedy backtracking join remains as the reference
    oracle {!answers_backtrack}; the oracles never read the cache.  The
    join path raises [Invalid_argument] on a negative [max_length]. *)

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

(** Distinct head tuples, sorted, by the pre-WCOJ greedy backtracking
    join over fully-indexed materialized relations — the reference
    oracle for tests and the bench A/B (int-slot environments, LIMIT
    honored). *)
val answers_backtrack : ?max_length:int -> Snapshot.t -> t -> int list list

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
