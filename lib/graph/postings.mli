(** Per-snapshot atom postings: for an atomic test, the nodes (or edges)
    that satisfy it — the index a selective node test is anchored on
    instead of a scan of every node, and the instance oracle the static
    analyzer reads its exists/forall verdicts from.

    Built on first use and memoized on the snapshot
    ({!Snapshot.val-memo}) in one compare-and-set map per side, so
    readers on several domains share it and it is collected with its
    epoch.  A node-label atom is the union of the label bitmaps that
    accept it ({!Snapshot.t.node_label_bits}); every other atom is one
    {!Snapshot.node_atom} (or {!Snapshot.edge_atom}) scan.

    The memo is bounded by the graph.  A node holds one value per
    property (one label, one feature value), so the non-empty postings
    of one property add up to at most [num_nodes]; likewise for edges.
    Absent atoms are memoized as empty postings, each one paid for by a
    full scan, and at most [num_nodes] of them are kept per snapshot
    ([num_edges] on the edge side); past that cap an absent atom is
    still answered [[||]], by a fresh scan each time. *)

(** [nodes snap atom] is the ascending array of the nodes [v] with
    [Snapshot.node_atom snap v atom].  The array is shared; callers must not
    mutate it. *)
val nodes : Snapshot.t -> Atom.t -> int array

(** {!nodes} under a budget: a scan polls it at node 0 and every 4096
    nodes after, and a trip answers [None] and stores nothing.  A
    memoized answer polls nothing. *)
val nodes_within : Gqkg_util.Budget.t -> Snapshot.t -> Atom.t -> int array option

(** [edges snap atom] is the ascending array of the edges [e] with
    [Snapshot.edge_atom snap e atom].  Shared like {!nodes}. *)
val edges : Snapshot.t -> Atom.t -> int array

(** Empty postings currently kept on [snap]: (node side, edge side). *)
val stored_empties : Snapshot.t -> int * int
