(** SPARQL-lite: a concrete SELECT / basic-graph-pattern syntax for the
    triple store, with property paths in parenthesized predicate
    position (the {!Gqkg_automata.Regex_parser} syntax over predicate
    local names). [a] abbreviates rdf:type; [SELECT *] selects every
    variable in order of first appearance; LIMIT truncates. Full IRIs
    only (no prefix declarations). *)

exception Error of { position : int; message : string }

(** Parse into a BGP query and an optional LIMIT. Raises {!Error},
    also for a selected variable that no pattern uses. *)
val parse : string -> Bgp.query * int option

(** Parse and evaluate (sorted distinct rows, LIMIT applied) through the
    worst-case-optimal join engine; a tripped [budget] yields a sound
    subset of the rows. *)
val run : ?budget:Gqkg_util.Budget.t -> Triple_store.t -> string -> Term.t list list
