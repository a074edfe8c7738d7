(** Endpoint-oriented regular path query evaluation over the lazy
    deterministic product (the classic RPQ questions of Section 4).

    Every entry point takes an optional [budget]
    (default {!Gqkg_util.Budget.unlimited}): evaluation stops
    cooperatively when it trips and the answer returned is a subset of
    the unbudgeted answer — inspect {!Gqkg_util.Budget.completeness}.
    {!Governor.eval_pairs} is the outcome-typed, cached entry point for
    all pairs. *)

(** Nodes reachable from each of an explicit set of sources by a path
    in [[r]], batched {!Frontier.word_bits} sources per frontier pass:
    [result.(i)] lists the targets of [sources.(i)], sorted.
    [max_length] bounds the search depth (reachability itself is
    complete without it, products being finite).  Duplicate sources are
    allowed. *)
val reachable_many :
  ?budget:Gqkg_util.Budget.t ->
  ?max_length:int ->
  Gqkg_graph.Snapshot.t ->
  Gqkg_automata.Regex.t ->
  sources:int array ->
  int list array

(** All pairs (a, b) joined by a matching path, sorted.  Runs one
    batched {!Frontier} search from the live seeds ({!Product.live_seed})
    of the direction with fewer of them — the forward product or the one
    over the reversed automaton, ties forward; a single forward live
    seed runs forward without building the reversed product.  Live
    seeds are looked for among the seed candidates only
    ({!Product.seed_candidates}); the walk is a budget check site
    (every 4096 candidates), and a trip there or in a postings build
    answers [[]]. *)
val eval_pairs :
  ?budget:Gqkg_util.Budget.t ->
  ?max_length:int ->
  Gqkg_graph.Snapshot.t ->
  Gqkg_automata.Regex.t ->
  (int * int) list

(** {!eval_pairs} over an already planned query (the budget is the
    plan's), as the columns of an {!Answer.t}. *)
val eval_planned : ?max_length:int -> Planner.query -> Answer.t

type direction = Forward | Backward

type seed_counts = {
  forward_live : int;
  forward_candidates : int option;
      (** seed candidates walked; [None]: no candidate set, every node scanned *)
  backward_live : int option;  (** [None]: the budget tripped in the backward scan *)
  backward_candidates : int option;  (** as [forward_candidates] *)
  direction : direction;  (** the direction {!eval_pairs} runs *)
}

(** Live seeds and seed candidates per direction, each counted in full,
    and the direction {!eval_pairs} picks from them — what [gqkg
    explain] prints.  [None] when statically empty or when the budget
    trips in the forward scan. *)
val seed_counts :
  ?budget:Gqkg_util.Budget.t -> Gqkg_graph.Snapshot.t -> Gqkg_automata.Regex.t -> seed_counts option

(** Nodes with at least one matching path starting at them (the node
    extraction of Section 4.3), searched from the live seeds only.
    Sorted. *)
val source_nodes :
  ?budget:Gqkg_util.Budget.t ->
  ?max_length:int ->
  Gqkg_graph.Snapshot.t ->
  Gqkg_automata.Regex.t ->
  int list

(** d_r(a, b): length of the shortest matching path, if any — the metric
    of the regex-constrained centrality of Section 4.2. *)
val shortest_path_length :
  ?budget:Gqkg_util.Budget.t ->
  ?max_length:int ->
  Gqkg_graph.Snapshot.t ->
  Gqkg_automata.Regex.t ->
  source:int ->
  target:int ->
  int option

(** A concrete shortest matching path from [source] to [target] — a
    witness in the G-CORE "paths as first-class results" sense; [None]
    when no matching path exists. *)
val shortest_witness :
  ?budget:Gqkg_util.Budget.t ->
  ?max_length:int ->
  Gqkg_graph.Snapshot.t ->
  Gqkg_automata.Regex.t ->
  source:int ->
  target:int ->
  Path.t option
