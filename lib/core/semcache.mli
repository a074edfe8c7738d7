(** The Governor's semantic cache: plans (warmed products) and full
    result sets of one snapshot, keyed by canonical-automaton key.

    The key contract (DESIGN.md §5g): two queries share a canonical key
    exactly when their minimal DFAs over the shared signature alphabet
    are isomorphic, which implies equal languages over that alphabet and
    therefore — because every realizable node/edge outcome vector is
    among the enumerated letters — equal answer sets on any snapshot.
    The entries live in the snapshot's memo
    ({!Gqkg_graph.Snapshot.val-memo}), so they can never leak across
    graph versions and are collected with the snapshot. Only [Complete]
    results may be stored (callers enforce this); a partial answer under
    a tripped budget is never served back.

    A third table holds the planner's canonical forms per query shape
    ([Planner]'s shape cache, DESIGN.md §5g), and a fourth maps query
    texts to result keys ({!Governor.eval_text}'s memo), so every kind
    of derived plan state has this one owner and one eviction policy.

    The caches are bounded per snapshot (drop-oldest: 32 plans, 128
    results, 64 shapes, 256 texts). The hit/miss counters are
    process-global. *)

open Gqkg_graph

type stats = {
  plan_hits : int;
  plan_misses : int;
  result_hits : int;
  result_misses : int;
  shape_hits : int;
  shape_misses : int;
  text_hits : int;
  text_misses : int;
}

val stats : unit -> stats

(** Zero the hit/miss counters (tests). Entries stay:
    a fresh snapshot starts with empty caches. *)
val reset : unit -> unit

(** Plan cache: warmed product automata, reusable because products are
    read-mostly and re-entrant across evaluations on the same snapshot. *)
val find_product : Snapshot.t -> key:string -> Product.t option

val store_product : Snapshot.t -> key:string -> Product.t -> unit

(** Result cache: full answers of {!Governor.eval_answer} (the caller
    folds any [max_length] into the key).  An entry is one {!Answer.t},
    whose memo holds what is derived from it on first use — a path
    atom's {!Join.relation}, the wire page — so that goes with it. *)
val find_answer : Snapshot.t -> key:string -> Answer.t option

val store_answer : Snapshot.t -> key:string -> Answer.t -> unit

(** {!find_answer} as a sorted pair list. *)
val find_pairs : Snapshot.t -> key:string -> (int * int) list option

(** Shape cache: a canonical form ([None]: canonicalization gave up)
    together with the lifted atoms of the query that produced it, in
    {!Atom.compare} order ({!Gqkg_analysis.Decide.shape}) — what the
    planner instantiates for another query of the same shape. *)
type shape = Atom.t array * Gqkg_analysis.Decide.canonical option

val find_shape : Snapshot.t -> key:string -> shape option
val store_shape : Snapshot.t -> key:string -> shape -> unit

(** Text memo: a query text, with its [max_length] folded in, to the
    result key it was answered [Complete] under on this snapshot, so a
    repeated text finds its {!find_answer} entry without a parse or a
    plan. *)
val find_text : Snapshot.t -> key:string -> string option

val store_text : Snapshot.t -> key:string -> string -> unit
