(** Guarded NFAs compiled from Section 4 regular expressions (Thompson's
    construction). Transitions are moves evaluated against a data-model
    oracle rather than letters of a fixed alphabet. *)

type move =
  | Eps  (** spontaneous *)
  | Node_check of Regex.test  (** spontaneous, if the current node passes *)
  | Forward of Regex.test  (** consume an edge along its direction *)
  | Backward of Regex.test  (** consume an edge against its direction *)

type t

(** Linear-size Thompson construction: single start, single accept. *)
val of_regex : Regex.t -> t

(** Assemble an automaton from an explicit transition list (used by the
    static analyzer to rebuild a trimmed automaton). States must lie in
    [0, num_states); raises [Invalid_argument] otherwise. The kernel
    tables are precomputed exactly as for {!of_regex}. *)
val make :
  num_states:int -> start:int -> accept:int -> transitions:(int * move * int) list -> t

(** Recognizer of the reversed language: transitions flip, edge moves
    swap direction, start and accept swap. Used by the planner to
    evaluate a query backwards when fewer nodes can end a match than
    start one. *)
val reverse : t -> t

val num_states : t -> int
val start : t -> int
val accept : t -> int
val transitions : t -> int -> (move * int) list

(** [Bitset] words per state set ([Bitset.words_for (num_states a)]). *)
val words : t -> int

(** Number of node-check move occurrences in the automaton; each has a
    stable index in [0, num_checks), usable to cache check outcomes per
    graph node. *)
val num_checks : t -> int

(** The test of each check occurrence, indexed by its stable index.
    Evaluating all of them at a node yields the node's complete
    check-answer vector — everything a closure's outcome can depend on
    beyond the seed set. *)
val check_tests : t -> Regex.test array

(** Indices of the check occurrences a closure of [{start}] can ask
    (those on spontaneous moves reachable from the start state), sorted.
    The start closure at a node is a function of their answers there. *)
val start_checks : t -> int array

(** Forward edge moves out of one state, as a precomputed array. *)
val fwd_moves : t -> int -> (Regex.test * int) array

(** Backward edge moves out of one state. *)
val bwd_moves : t -> int -> (Regex.test * int) array

(** Closure of a state set under ε and satisfied node-checks; [node_sat]
    answers atomic tests for the current node. Sorted and duplicate-free
    (the canonical key of the subset construction). *)
val closure : t -> node_sat:(Gqkg_graph.Atom.t -> bool) -> int array -> int array

(** In-place closure on raw {!Gqkg_util.Bitset} words of width
    [words a] — the kernel path: O(words) bookkeeping, no sorting. *)
val close_raw : t -> node_sat:(Gqkg_graph.Atom.t -> bool) -> int array -> unit

(** Like {!close_raw}, but node-checks are answered by
    [check_sat idx test] where [idx] is the check occurrence's index —
    the hook the product uses to cache check outcomes per node. *)
val close_raw_idx : t -> check_sat:(int -> Regex.test -> bool) -> int array -> unit

(** Does the (closed) set contain the accept state? *)
val is_accepting : t -> int array -> bool

(** Edge-consuming moves out of a state set: (test, target) pairs,
    (forward, backward). *)
val edge_moves : t -> int array -> (Regex.test * int) list * (Regex.test * int) list

(** Human-readable dump. *)
val to_string : t -> string
