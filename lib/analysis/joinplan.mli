(** Variable-order selection for the worst-case-optimal join engine.

    The trie-join kernel ({!Gqkg_core.Join}) binds variables one
    at a time in a single global order; every atom's trie must then be
    laid out with its variables in that order.  This module is the pure
    planning half: given per-atom cardinality statistics (relation sizes
    and per-column distinct counts, derived from freeze-time Snapshot
    label stats or from materialized relations), pick the order.

    A variable that a singleton atom (one column, at most one tuple)
    pins to one value is bound first, in atom order: a constant
    substituted away as a singleton opens every atom over it on that
    value.  After those, the heuristic is greedy
    smallest-estimate-first, preferring variables connected to the
    prefix already chosen: at each step the candidate's score is the
    cheapest way any atom can enumerate it — its distinct count when
    the atom is untouched, the size-biased fan-out of the bound
    sibling's column for a binary atom (it sees skew), or size /
    product of bound-column distincts for a wider one.  The greedy runs
    from every possible first variable; the run with the least work
    (sum over levels of estimated prefix bindings times the level's
    score) wins.  Ties break toward lower variable ids. *)

type atom_stat = {
  vars : int array;  (** distinct variable ids, one per column *)
  size : float;  (** (estimated) number of tuples *)
  distinct : float array;  (** per column: distinct values of [vars.(i)] *)
  fanout : float array;  (** per column: sum over its values of (tuples with it)^2 / size *)
  label : string;  (** display name for {!describe} *)
}

(** Evaluation order over variable ids [0 .. num_vars-1]; every id
    appears exactly once.  Variables mentioned by no atom come last.
    Raises [Invalid_argument] on out-of-range ids. *)
val choose_order : num_vars:int -> atom_stat list -> int array

(** Render the chosen order and the per-atom estimates (size, distinct
    counts, fan-outs) — the plan text behind [gqkg explain]. *)
val describe :
  var_name:(int -> string) -> atom_stat list -> order:int array -> string
