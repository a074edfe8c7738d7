(** Regex-constrained betweenness centrality (Section 4.2):

    bc_r(x) = Σ over pairs (a,b), a≠x≠b, of |S_{a,b,r}(x)| / |S_{a,b,r}|

    where S_{a,b,r} is the set of shortest paths from a to b conforming
    to r and S_{a,b,r}(x) those containing x.

    Both algorithms accept an optional [budget]; a tripped budget skips
    the remaining sources, so partial scores are undercounts of the
    unbudgeted scores.  {!governed} adds the degradation ladder: exact
    first, falling back to the approximation when exact trips. *)

open Gqkg_graph

(** Exact bc_r by materializing every shortest matching path per pair
    (|S| can be exponential — that is the paper's point). [max_length]
    bounds the product search; [pair_limit] caps per-pair
    materialization as a safety valve. Sources run in
    [Frontier.word_bits]-wide batches: one frontier pass warms the
    product, then each source's shortest-path DAG is replayed over the
    memoized rows. *)
val exact :
  ?budget:Gqkg_util.Budget.t ->
  ?max_length:int ->
  ?pair_limit:int ->
  Snapshot.t ->
  Gqkg_automata.Regex.t ->
  float array

(** The randomized approximation the paper builds from the Section 4.1
    toolbox: [samples] uniform members of each S_{a,b,r} (backward
    sampling weighted by shortest-path counts) estimate the inclusion
    fractions. The RNG is derived per source from [seed], so the
    estimate does not depend on how sources are batched. *)
val approximate :
  ?budget:Gqkg_util.Budget.t ->
  ?max_length:int ->
  ?samples:int ->
  ?seed:int ->
  Snapshot.t ->
  Gqkg_automata.Regex.t ->
  float array

(** Budget-governed bc_r with graceful degradation: run {!exact} under
    [budget]; when it trips, rerun {!approximate} under a fresh budget
    with the same limits ({!Gqkg_util.Budget.similar}).  The tag says
    which pass produced the scores; completeness is [Complete] only if
    the pass that answered ran to completion. *)
val governed :
  budget:Gqkg_util.Budget.t ->
  ?max_length:int ->
  ?pair_limit:int ->
  ?samples:int ->
  ?seed:int ->
  Snapshot.t ->
  Gqkg_automata.Regex.t ->
  (float array * [ `Exact | `Approximate ]) Gqkg_util.Budget.outcome
