(** Delta overlay: a mutable batch of {!Mutation} ops over a frozen
    {!Snapshot}, answering membership/label/property/adjacency lookups
    as base ∪ additions ∖ deletions, and committing into a new snapshot
    epoch by incremental re-freeze — untouched columns are physically
    shared with the base instead of rebuilt.

    The overlay is single-writer: apply mutations from one thread, then
    {!commit}. Readers never see the overlay — they query the immutable
    base (or any pinned older epoch, see {!Epochs}).

    Ids resolve through the base's id index (node and edge names to base
    indices; a mutation's id matches by its rendering). An id several
    live objects carry (on a triple store's view, every edge of one
    predicate) names none of them: the ops that act on one object
    refuse it. A mutation's label resolves to the one label id it names
    by {!Snapshot}'s label rule — the id's name read back as a
    constant, or one of its keys — among the base's labels and those
    the overlay appends; a label naming none is appended, named by its
    own constant, and one naming several is refused. The base owns
    the index: it is built on the base's first write, and {!commit} updates it
    by the delta and hands it to the new base.
    Only the serialized writer may touch it — the daemon's writer lock
    or the single-threaded CLI, i.e. whoever may call {!create},
    {!apply}, the reads below and {!commit}; snapshot readers never do.

    Numbering invariant (what makes incremental ≡ from-scratch): base
    survivors keep their base order, new objects are appended in
    insertion order — exactly the order {!Journal.replay_ops} produces,
    so a committed snapshot and a scratch rebuild of the same history
    number nodes and edges identically. Only the interned label
    universes and the property dictionary may differ (a commit keeps
    stale entries where a scratch freeze forgets them); query answers
    are unaffected. *)

type base
(** A snapshot — the one store of ids (its names), labels and
    properties — plus the writer-side id index from names to indices,
    built on the base's first write, not at load. *)

(** [base_of_snapshot (Snapshot.of_property g)]. *)
val base_of_property : Property_graph.t -> base

(** Wraps a snapshot (a [.pg] freeze, a [.gqs] load, a commit) without
    copying anything. Raises [Invalid_argument] when node labels are not
    exclusive (exactly one per node) or edges have no label index, as
    in a triple store's view with untyped or multiply typed terms. *)
val base_of_snapshot : Snapshot.t -> base

val snapshot : base -> Snapshot.t

(** {!Journal.ops_of_snapshot} of the base: the minimal history [gqkg
    mutate --journal] persists. *)
val history : base -> Mutation.t list

type t

(** An empty overlay over [base]. Allocates a few empty tables and
    never iterates the base: the overlay's state is proportional to the
    delta applied to it. The first op on a base without an index (a
    fresh load, or a base a commit has superseded) builds the index in
    O(nodes + edges). *)
val create : base -> t

val base : t -> base

(** Ops applied so far (the overlay size reported by [gqkg stats]). *)
val size : t -> int

val live_nodes : t -> int
val live_edges : t -> int

(** Apply one mutation ({!Mutation} semantics: [Add_*] fails on a live
    id, [Merge_*] is match-or-create, [Del_node] cascades). Raises
    {!Journal.Replay_error} — with [file]/[line] context when given —
    on invalid ops, an ambiguous id or label among them; the overlay is
    unchanged in that case. *)
val apply : ?file:string -> ?line:int -> t -> Mutation.t -> unit

(** {2 Reads through the overlay (base ∪ adds ∖ deletes)}

    An id several live objects carry is a member, and the other reads
    answer [None] on it. *)

val mem_node : t -> Const.t -> bool
val mem_edge : t -> Const.t -> bool
val node_label : t -> Const.t -> Const.t option
val node_prop : t -> Const.t -> Const.t -> Const.t option
val edge_prop : t -> Const.t -> Const.t -> Const.t option

(** Live out-edges of a node as [(edge id, label, dst id)], surviving
    base edges first (base order) then new edges (insertion order);
    [None] if the node is not live. [in_edges] mirrors it with src. *)
val out_edges : t -> Const.t -> (Const.t * Const.t * Const.t) list option

val in_edges : t -> Const.t -> (Const.t * Const.t * Const.t) list option

(** {2 Commit: incremental re-freeze} *)

(** Which of the snapshot's named columns the commit physically shared
    with the base and which it had to rebuild. *)
type reuse = { reused : string list; rebuilt : string list }

val reuse_ratio : reuse -> float

(** Freeze the overlay into a new snapshot (fresh epoch, empty memo of
    derived state), sharing every column the delta did not touch: a props-only delta keeps the whole
    topology (CSR, endpoints, ids, bitmaps, stats); an adds-only delta
    keeps node columns it only extends; node deletions renumber and
    rebuild. A rebuilt column is allocated once at its final size and
    filled by blits over the runs of survivors, so a commit costs
    O(delta) plus the columns it rebuilds. The base's id index is then
    updated by the delta and moved to the new base; the old base is
    left without one. An overlay opened on that old base later (a fork)
    rebuilds its own index, so forks stay correct and only the linear
    chain of commits skips the rebuild. An empty overlay returns the
    base itself (same epoch) with every column reused. The overlay must
    not be used afterwards. *)
val commit : t -> base * reuse
