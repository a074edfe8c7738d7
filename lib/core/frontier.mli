(** Batched multi-source BFS over the lazy deterministic product.

    Up to {!word_bits} sources run in one level-synchronous pass, with a
    single machine word of visited/frontier bits per product state — a
    state is expanded and scanned once per level for the whole batch.
    Per-slot discovery levels equal per-source BFS distances exactly, so
    every distance-or-reachability answer is bit-identical to the
    one-source-at-a-time loop this replaces.  Levels may expand top-down
    (push the frontier's out-moves) or bottom-up (pull unvisited states'
    in-moves through a reverse CSR over the committed product moves,
    Beamer style); the switch is a cost heuristic informed by the
    snapshot's freeze-time degree stats and never affects results. *)

(** Sources per batch: {!Gqkg_util.Bitset.bits_per_word}. *)
val word_bits : int

(** [`Auto] applies the cost heuristic per level; the forced modes exist
    for tests and diagnosis (results are identical in all three). *)
type direction = [ `Auto | `Bottom_up | `Top_down ]

type t

(** A frontier context wraps one product and caches the reverse CSR
    across batches.  Not safe for concurrent use — give each domain its
    own product and context, as the product itself requires. *)
val create : Product.t -> t

val product : t -> Product.t

(** [run_batch t ~sources] runs one MS-BFS pass over at most
    {!word_bits} sources (raises [Invalid_argument] beyond; duplicate
    sources are fine — slots are independent).  When given, [level
    ~dist ~states ~words] is called once per BFS level: [states] are
    the product states first reached by some slot at distance [dist],
    in discovery order (deterministic for a fixed direction policy, not
    sorted — aggregate into order-insensitive structures), and
    [words.(i)] has bit [s] set iff source slot [s] discovered
    [states.(i)] at this level.  Omitting [level] skips the per-level
    materialization entirely — the pass then only warms the product and
    fills the visited words.  [max_length] bounds the depth (levels
    [0..max_length] are emitted, as in per-source BFS); a negative one
    raises [Invalid_argument]. *)
val run_batch :
  ?direction:direction ->
  ?max_length:int ->
  ?level:(dist:int -> states:int array -> words:int array -> unit) ->
  t ->
  sources:int array ->
  unit

(** RPQ reachability for arbitrarily many sources, sliced internally
    into {!word_bits}-wide batches: [result.(i)] is the sorted list of
    nodes at accepting product states reached from [sources.(i)] —
    elementwise equal to a per-source breadth-first search of the product. *)
val reachable :
  ?direction:direction -> ?max_length:int -> t -> sources:int array -> int list array

(** Process-wide usage counters (all products), for [gqkg explain] and
    the bench: batches run, and levels expanded each way. *)
val batches_total : unit -> int

val top_down_levels_total : unit -> int
val bottom_up_levels_total : unit -> int
