(** Lazy deterministic product of a graph instance and a regex automaton.

    A product state pairs a graph node with a closed {e set} of NFA
    states, so every matching path has exactly one run — the property the
    Section 4.1 algorithms (counting, uniform generation, enumeration)
    rely on. States are discovered on demand and given dense ids. *)

type t

(** A product state: the node plus the sorted, ε/node-check-closed NFA
    state set. *)
type state = { node : int; nfa_states : int array }

(** [create ?budget ?nfa inst regex] — [nfa] substitutes a
    (trimmed) automaton for the Thompson construction of [regex]; it
    must recognize the same language on this instance.  [budget]
    (default {!Gqkg_util.Budget.unlimited}) rides along with the
    product: every kernel that walks it checks the budget cooperatively
    at coarse granularity and stops with a sound partial result when it
    trips. *)
val create :
  ?budget:Gqkg_util.Budget.t ->
  ?nfa:Gqkg_automata.Nfa.t ->
  Gqkg_graph.Snapshot.t ->
  Gqkg_automata.Regex.t ->
  t

val instance : t -> Gqkg_graph.Snapshot.t
val nfa : t -> Gqkg_automata.Nfa.t

(** The budget attached at {!create} time ({!Gqkg_util.Budget.unlimited}
    when none was given). *)
val budget : t -> Gqkg_util.Budget.t

(** Process-wide count of product states ever interned (across all
    products); lets tests assert that statically-empty queries build no
    product state. *)
val states_interned_total : unit -> int

(** Number of states materialized so far (grows as the product is
    explored). *)
val num_states : t -> int

val state : t -> int -> state

(** Graph node of a product state. *)
val node_of : t -> int -> int

(** Does the state set contain the accept state (after closure)? *)
val is_accepting : t -> int -> bool

(** The unique start state at a node: the closure of the NFA start there.
    [None] only for degenerate automata with an empty closure. *)
val start_state : t -> int -> int option

(** [config_state p ~node q] interns the state (node, \{q\}) {e without}
    closing it: its moves are exactly NFA state [q]'s own edge moves at
    the node, each closed at the destination, so it stands for the
    single configuration (node, q) of the non-deterministic product.  It
    breaks the closed-set invariant the other kernels rely on: call it
    on a private product only ({!Approx_count}'s), never on one a plan
    caches or another kernel reads. *)
val config_state : t -> node:int -> int -> int

(** Can a matching path start at this node?  True when the node's start
    closure is accepting or has an edge move at the node (some incident
    edge passes one of the closure's edge tests); every other node
    reaches nothing, so multi-source searches seed only live nodes.
    Memoized per node; it closes and interns the NFA set only, never a
    product state (a later {!start_state} at the node reuses the
    closure). *)
val live_seed : t -> int -> bool

(** Where the live seeds can be.  [Nodes a]: an ascending superset of
    them, read off the snapshot's atom postings ({!Gqkg_graph.Postings});
    [Every_node]: no such set was derived and every node is a
    candidate. *)
type seed_candidates = Every_node | Nodes of int array

(** The seed candidates of the product.  A set is derived only when the
    start closure with every start check false ({!Nfa.start_checks})
    neither accepts nor has an edge move: a node where no start check
    holds closes to exactly that set, so it is dead, and every live seed
    satisfies some start check.  The candidates are then the union over
    the start checks of a superset of each check's satisfying nodes: an
    atom's postings, the smaller side of an [And], the union of an
    [Or]; a [Not] or [Feature] test (or an [Or] over one) gives
    [Every_node].  Postings builds poll the product's budget; [None]
    when it trips. *)
val seed_candidates : t -> seed_candidates option

(** [iter_successors p id f] calls [f edge succ] for every successor
    move, in a deterministic order (ascending edge id), reading the
    flat CSR buffer directly.  One entry per (edge, destination) move —
    a self-loop matched in both directions yields a single move. *)
val iter_successors : t -> int -> (int -> int -> unit) -> unit

(** Has the state's successor row been materialized yet?  Lets readers
    (e.g. the frontier engine's reverse-CSR builder) walk exactly the
    committed part of the CSR without triggering further expansion. *)
val is_expanded : t -> int -> bool

(** Total successor moves committed so far, across all expanded states.
    Grows monotonically — a cheap staleness stamp for derived views of
    the CSR. *)
val moves_total : t -> int

(** Number of successor moves of a state (expanding it if needed). *)
val degree : t -> int -> int

(** [move_edge p id i] / [move_succ p id i]: the [i]-th move's edge and
    successor id, [0 <= i < degree p id]. The state must already be
    expanded (any of {!degree}, {!successors}, {!iter_successors}
    expands it). *)
val move_edge : t -> int -> int -> int

val move_succ : t -> int -> int -> int

(** [reach p ~depth] materializes every state reachable from any node's
    start state within [depth] moves, by a breadth-first walk that
    expands each state once, and returns their ids without duplicates,
    in first-reached order.  A budget check site once per BFS layer: a
    trip drops the deeper layers, leaving a subset of the full answer. *)
val reach : t -> depth:int -> int array
