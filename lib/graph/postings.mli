(** Per-snapshot atom postings: for an atomic test, the nodes that
    satisfy it — the index a selective node test is anchored on instead
    of a scan of every node.

    Built by one {!Snapshot.t.node_atom} scan on first use and memoized
    on the snapshot ({!Snapshot.val-memo}) in a compare-and-set map, so
    readers on several domains share it and it is collected with its
    epoch.  Only non-empty postings are kept: a node holds one value per
    property (one label, one feature value), so the kept sets of one
    property add up to at most [num_nodes] — the memo is bounded by the
    graph itself. *)

(** [nodes snap atom] is the ascending array of the nodes [v] with
    [snap.node_atom v atom].  The array is shared; callers must not
    mutate it. *)
val nodes : Snapshot.t -> Atom.t -> int array

(** {!nodes} under a budget: a build polls it at node 0 and every 4096
    nodes after, and a trip answers [None] and stores nothing.  A
    memoized answer polls nothing. *)
val nodes_within : Gqkg_util.Budget.t -> Snapshot.t -> Atom.t -> int array option
