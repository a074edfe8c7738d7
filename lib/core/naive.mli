(** Reference evaluator: the denotational semantics [[r]] transcribed
    literally, materializing the set of matching paths up to a length
    bound. Exponential — exists to be obviously correct: the oracle for
    the product engine in tests, and the "materialize everything"
    baseline of the enumeration experiment.

    A tripped [budget] shrinks the result (every operator is monotone,
    so a subterm answering the empty set only removes paths).  A
    negative bound raises [Invalid_argument]. *)

(** All paths in [[r]] of length ≤ the bound, sorted by {!Path.compare}. *)
val paths :
  ?budget:Gqkg_util.Budget.t ->
  Gqkg_graph.Snapshot.t ->
  Gqkg_automata.Regex.t ->
  max_length:int ->
  Path.t list

(** Count(G, r, k) by brute force. *)
val count :
  ?budget:Gqkg_util.Budget.t -> Gqkg_graph.Snapshot.t -> Gqkg_automata.Regex.t -> length:int -> int

(** Distinct (start, end) pairs of matching paths up to the bound,
    sorted, read off {!triples}. *)
val pairs :
  ?budget:Gqkg_util.Budget.t ->
  Gqkg_graph.Snapshot.t ->
  Gqkg_automata.Regex.t ->
  max_length:int ->
  (int * int) list

(** The pair oracle: the (start, end, length) of each of {!paths},
    sorted and distinct, computed in polynomial time. *)
val triples :
  ?budget:Gqkg_util.Budget.t ->
  Gqkg_graph.Snapshot.t ->
  Gqkg_automata.Regex.t ->
  max_length:int ->
  (int * int * int) list
