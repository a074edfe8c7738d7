(** [gqkg serve]: a fault-tolerant concurrent multi-tenant query daemon.

    Newline-delimited JSON over TCP: each request is one JSON object on
    one line, each response one JSON object on one line.  Many clients
    share one immutable {!Gqkg_graph.Snapshot} through the MVCC epoch
    manager — every query pins the epoch it starts on
    ({!Gqkg_graph.Epochs.pin}), so in-flight queries keep answering
    consistently while [mutate] requests commit new epochs; readers
    never block the writer and vice versa.

    Robustness model (DESIGN.md §5j):
    - {b Admission control}: a bounded queue with fair round-robin
      per-client scheduling and strict per-client order (one in-flight
      request per client).  When full, requests are refused immediately
      with a structured GQ060 "overloaded, retry-after" diagnostic —
      load sheds instead of queueing unboundedly.
    - {b Graceful degradation}: every request runs under a
      {!Gqkg_util.Budget} (request fields overriding server defaults),
      so overload and deadlines degrade to sound [Partial] answers
      (["complete": false] plus a GQ03x diagnostic), never failures.
    - {b Wire fault tolerance}: malformed or oversized frames answer
      GQ062 and the connection recovers on the next well-formed line
      (mirroring GQ048 torn-journal semantics); idle connections are
      closed with a GQ064 notice; blocked writes to slow clients time
      out after 5 s instead of wedging a worker.
    - {b Blocking sockets, no polling}: the accept thread blocks in
      [accept] and each connection's reader thread in [read], so the
      daemon serves whatever fd numbers its process holds.  Idle
      reaping is the reader's receive timeout ([SO_RCVTIMEO]).
    - {b Graceful drain}: {!stop} stops accepting, finishes (or trips,
      after a 2 s grace period) in-flight work, flushes every response,
      and joins all threads; afterwards no epoch stays pinned.
    - {b Fault injection}: deterministic budget trips and injected
      connection drops for the soak suite.

    Request ops: [ping], [metrics] (answered inline, responsive even
    under full queues), and [query], [count], [mutate]: scheduled
    through admission, adapted into a {!Request} and answered by the
    pipeline [gqkg query], [count] and [mutate] share.  Responses echo
    the request's ["id"] member verbatim.  A [query] page holds at most
    10,000 pairs (["truncated"] flags more).

    Wire error codes introduced here: GQ060 overloaded (shed), GQ061
    connection refused (max-clients), GQ062 malformed request, GQ063
    draining, GQ064 idle timeout, GQ069 internal error.  The full table
    lives in README.md. *)

open Gqkg_graph

type config = {
  max_clients : int;  (** concurrent connections; beyond: GQ061 + close *)
  workers : int;  (** request-execution threads (systhreads) *)
  queue_depth : int;  (** global admission capacity *)
  per_client_depth : int;  (** one client's share of the queue *)
  default_timeout_ms : int option;  (** per-request deadline unless overridden *)
  default_max_states : int option;
  idle_timeout_ms : int;
      (** close connections with no reads, no delivered responses and no
          queued/in-flight requests for this long (GQ064); at least 1 *)
  max_line_bytes : int;  (** frames above this answer GQ062 and are skipped *)
  fault_trip_after_checks : int option;  (** injector: arm every request budget *)
  fault_drop_after : int option;  (** injector: hard-drop a connection every N responses *)
}

val default_config : config

type t

(** Bind, listen and start accepting.  [port] 0 picks an ephemeral
    port (see {!port}).  The epoch manager is shared with the caller:
    commits from elsewhere are visible to subsequent queries. *)
val start : ?host:string -> port:int -> config:config -> Epochs.t -> t

val port : t -> int

val clients : t -> int
(** Currently connected clients. *)

val metrics : t -> Jsonx.t
(** The same object [{"op":"metrics"}] returns on the wire. *)

(** Graceful drain: stop accepting (shutting the listener down wakes
    the accept thread; the drain opens no fd, so it also drains a
    process at its fd limit), refuse new requests (GQ063), finish queued and
    in-flight work (tripping budgets still running after 2 s — their
    clients receive sound partial answers), flush responses, shut down
    every connection (which wakes its reader), join every thread, close
    every socket.  Idempotent: a second or concurrent call blocks until
    the first has fully drained. *)
val stop : t -> unit
