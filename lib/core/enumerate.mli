(** Polynomial-delay enumeration of the paths p ∈ [[r]] with |p| = k
    (Section 4.1).

    After preprocessing (the {!Count} tables), answers are produced one
    at a time by a pruned depth-first walk of the deterministic product:
    a branch is entered only if it has an accepting completion of the
    right residual length, so every descent emits a path and the delay
    between consecutive answers is polynomial. No path is emitted twice.

    A tripped [budget] ends the enumeration early: the paths emitted up
    to that point are a prefix of the unbudgeted enumeration order. *)

type t

(** [create inst r ~length] preprocesses; [sources] restricts the start
    nodes (default: all). *)
val create :
  ?budget:Gqkg_util.Budget.t ->
  ?sources:int list ->
  Gqkg_graph.Snapshot.t ->
  Gqkg_automata.Regex.t ->
  length:int ->
  t

(** Next answer, or [None] when exhausted. *)
val next : t -> Path.t option

val iter : t -> (Path.t -> unit) -> unit
val to_list : t -> Path.t list

(** Largest number of internal steps between two consecutive answers so
    far (the delay instrumentation of experiment E6). *)
val max_delay : t -> int

(** Number of answers emitted so far. *)
val emitted : t -> int

(** All answers of exactly the given length. *)
val paths :
  ?budget:Gqkg_util.Budget.t ->
  ?sources:int list ->
  Gqkg_graph.Snapshot.t ->
  Gqkg_automata.Regex.t ->
  length:int ->
  Path.t list
