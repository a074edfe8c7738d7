(** Epoch manager: the MVCC read side. Holds the current committed
    {!Overlay.base} and lets in-flight queries pin the snapshot they
    started on — commits swing the current pointer without touching
    pinned epochs, so readers never block writers and never see a
    half-applied delta. Old epochs retire (become unreachable, and
    collectable with their derived state) when their pin count drops
    to zero.

    Thread-safe: [pin]/[unpin]/[commit] take a short internal lock;
    queries run lock-free on the pinned immutable snapshot. Writing is
    single-writer by construction — [commit] refuses an overlay that
    was not built on the current epoch. *)

type t

val create : Overlay.base -> t

(** The current committed base / snapshot (unpinned peek). *)
val base : t -> Overlay.base

val snapshot : t -> Snapshot.t

(** Pin the current epoch: the returned snapshot stays valid (and the
    derived state memoized on it stays warm) until {!unpin}. *)
val pin : t -> Snapshot.t

(** Release a pinned snapshot. Unpinning a snapshot that is not the
    current epoch and has no other pins retires it. Unknown epochs are
    ignored (idempotent). *)
val unpin : t -> Snapshot.t -> unit

(** [with_pinned t f] pins, runs [f] on the pinned snapshot, and
    unpins — exception-safe. *)
val with_pinned : t -> (Snapshot.t -> 'a) -> 'a

(** Commit an overlay built on the current epoch (raises
    [Invalid_argument] otherwise — single-writer discipline): installs
    the incrementally re-frozen base as current and returns it with the
    column-reuse report. An empty overlay is a no-op returning the
    current base. *)
val commit : t -> Overlay.t -> Overlay.base * Overlay.reuse

(** Epoch stamps still reachable: the current epoch plus every pinned
    older one. *)
val live_epochs : t -> int list

(** Number of commits performed through this manager. *)
val commits : t -> int

(** Epochs that have fully retired (superseded and unpinned). *)
val retired : t -> int

(** Outstanding pins across all live epochs — 0 after a clean drain;
    the server's leak assertions and /metrics read it. *)
val pins : t -> int
