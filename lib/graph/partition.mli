(** Destination-blocked edge partition over a frozen {!Snapshot} — the
    cache-blocking layout and the stepping stone to sharding.

    Nodes are grouped into contiguous blocks of [2^block_bits] ids;
    every edge is filed under the block of its *destination*. Scanning
    one block's edges touches destination state confined to one block —
    a working set sized to stay cache-resident — which is the access
    pattern of blocked push-style traversals (and, one level up, the
    unit of work a sharded engine would assign per worker).

    Renumbering ({!Renumber}) composes: after a degree or BFS
    permutation the hot destinations share low ids, so the bulk of the
    edge mass lands in the first few blocks and a blocked sweep walks
    them sequentially.

    The partition is a view — it holds the snapshot and two index
    arrays; building is one O(n + m) counting sort. *)

type t

(** [build ?block_bits s] — default [block_bits] is 15 (32768 nodes per
    block: 8-byte-per-node state fits a 256 KiB L2). *)
val build : ?block_bits:int -> Snapshot.t -> t

val num_blocks : t -> int
val block_bits : t -> int

(** Nodes per block ([2^block_bits]). *)
val block_size : t -> int

(** Block holding node [v]. *)
val block_of_node : t -> int -> int

(** Edges filed under [block] (destination in the block), ascending
    edge id. *)
val edges_in_block : t -> int -> int

(** [iter_block p ~block f] calls [f e src dst] for every edge of the
    block, ascending edge id. *)
val iter_block : t -> block:int -> (int -> int -> int -> unit) -> unit

(** Summary for [gqkg stats]: block geometry, edge mass distribution
    over blocks (min/median/max edges per block), and the imbalance
    ratio max/mean — the number a sharding layer would watch. *)
val describe : t -> string
