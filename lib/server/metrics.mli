(** Server-side observability: lock-cheap counters plus a bounded
    latency reservoir, rendered as the [/metrics] JSON object.

    All counters are [Atomic.t] so every thread (connection readers,
    workers, the accept loop) can bump them without a lock; only the
    latency reservoir takes a mutex, and only for a few stores per
    request. *)

type t

val create : unit -> t

(** {2 Counters} *)

val incr_requests : t -> unit
(** A request was admitted to the queue. *)

val incr_responses : t -> unit
(** A response line (success or structured error) is written to a live
    connection; counted before the write, so a client that has read the
    line finds it counted. *)

val incr_shed : t -> unit
(** A request was rejected with GQ060/GQ063 instead of queued. *)

val incr_malformed : t -> unit
(** A wire frame failed to parse (GQ062): fuzz bullets, torn lines. *)

val incr_trips : t -> unit
(** A request finished [Partial] — its budget tripped. *)

val incr_rejected_clients : t -> unit
(** A connection was refused (GQ061: max-clients, or draining). *)

val incr_idle_closes : t -> unit
(** A connection was closed for idling past the read timeout (GQ064). *)

val incr_injected_drops : t -> unit
(** The fault injector dropped a connection on purpose. *)

val observe_latency_ms : t -> float -> unit
(** Record one request's service latency. *)

(** {2 Snapshot} *)

(** [to_json t ~queue_depth ~queue_peak ~clients ~workers ~epoch
    ~live_epochs ~pins ~cache] renders the full metrics object: uptime,
    qps, p50/p99 latency, every counter, queue and epoch gauges, and the
    semantic caches' counters — result hits, lookups and hit rate, plan
    and shape hits and lookups. *)
val to_json :
  t ->
  queue_depth:int ->
  queue_peak:int ->
  clients:int ->
  workers:int ->
  epoch:int ->
  live_epochs:int ->
  pins:int ->
  cache:Gqkg_core.Semcache.stats ->
  Jsonx.t
