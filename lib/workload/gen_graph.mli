(** Random and structured graph generators, deterministic in the PRNG.
    All produce labeled graphs (single default label unless stated). *)

open Gqkg_graph
open Gqkg_util

(** G(n, m): m uniform directed edges (self-loops and parallels allowed). *)
val erdos_renyi_gnm : Splitmix.t -> nodes:int -> edges:int -> Labeled_graph.t

(** G(n, p): each ordered pair independently. *)
val erdos_renyi_gnp : Splitmix.t -> nodes:int -> p:float -> Labeled_graph.t

(** Preferential attachment with [attach] edges per new node. *)
val barabasi_albert : Splitmix.t -> nodes:int -> attach:int -> Labeled_graph.t

(** Ring of degree [k] rewired with probability [beta]. *)
val watts_strogatz : Splitmix.t -> nodes:int -> k:int -> beta:float -> Labeled_graph.t

val path : nodes:int -> Labeled_graph.t
val cycle : nodes:int -> Labeled_graph.t
val star : leaves:int -> Labeled_graph.t
val complete : nodes:int -> Labeled_graph.t

(** 2D grid with rightward and downward edges. *)
val grid : rows:int -> cols:int -> Labeled_graph.t

(** ER topology with node/edge labels drawn uniformly from the given
    vocabularies — the property-test workhorse. *)
val random_labeled :
  Splitmix.t ->
  nodes:int ->
  edges:int ->
  node_labels:string list ->
  edge_labels:string list ->
  Labeled_graph.t

(** {1 Streaming generators}

    Snapshot-direct: endpoint and label columns are written into flat
    int arrays and frozen without per-element Const names or Builder
    closures, so 10^6–10^7 nodes fit in O(columns) memory. Node and
    edge names are the synthetic ["n<id>"]/["e<id>"] closures, which
    {!Snapshot_io.save} detects and elides from disk. *)

(** Freeze endpoint/label columns directly — the shared back end of the
    streaming generators (single ["node"] node label, synthetic names).
    [elabel] entries index [edge_label_names]. *)
val stream_freeze :
  nodes:int ->
  esrc:int array ->
  edst:int array ->
  elabel:int array ->
  edge_label_names:string array ->
  Snapshot.t

(** Streaming G(n, m); edge labels drawn uniformly from [edge_labels]
    (default a single ["edge"] label). *)
val stream_gnm :
  ?edge_labels:string list -> Splitmix.t -> nodes:int -> edges:int -> Snapshot.t
