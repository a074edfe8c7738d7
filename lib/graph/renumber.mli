(** Cache-conscious node renumbering over a frozen {!Snapshot}.

    The product kernel and the analytics spend their time walking CSR
    adjacency; on large graphs the walk's cache behaviour is set by how
    node ids map to memory. Renumbering permutes the *internal* ids so
    that hot nodes (high degree, or BFS-close neighbourhoods) land on
    adjacent offsets, while every user-facing surface — names, atoms,
    Graph_io text, diagnostics, [explain] — is preserved: property and
    feature rows move with their objects, and names are composed with
    the permutation.

    Edges are renumbered too: the new edge order sorts by
    (new source, new destination, old edge id), which makes every
    adjacency row neighbour-sorted — sequential runs of destinations —
    while keeping the ascending-edge-id determinism contract the
    product kernel relies on (rows are ascending in the *new* ids).

    The permutation is answer-invariant by construction: a query's
    answer set maps node-for-node through [new_of_old], and the
    name-level answers (what the CLI prints) are bit-identical. *)

type order =
  | Identity  (** keep ids as frozen — the no-op plan *)
  | Degree
      (** total-degree descending, ties by ascending old id: hub rows
          first, packed together — the default for skewed graphs *)
  | Bfs
      (** breadth-first from the highest-degree node of each component
          (components in degree order): neighbourhood locality for
          traversal-heavy workloads *)

type permutation = {
  old_of_new : int array;  (** node: new id → old id *)
  new_of_old : int array;  (** node: old id → new id *)
  edge_old_of_new : int array;  (** edge: new id → old id *)
}

val order_of_string : string -> order option
val order_to_string : order -> string

(** Plan a permutation without touching the snapshot. *)
val plan : order -> Snapshot.t -> permutation

(** [is_identity p] — both node and edge maps are identities (saving
    can then skip the permutation sections). *)
val is_identity : permutation -> bool

(** Rebuild the snapshot under the permutation. Adjacency, label
    bitmaps and stats are recomputed over the new ids, property and
    feature rows permuted, and names wrapped so user-facing output is
    unchanged. Every snapshot qualifies, the triple store's view
    included: its atoms answer from the permuted columns. *)
val apply : Snapshot.t -> permutation -> Snapshot.t

(** [renumber order s] = plan + apply, returning the permutation used. *)
val renumber : order -> Snapshot.t -> Snapshot.t * permutation
