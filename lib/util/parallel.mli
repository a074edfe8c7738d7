(** Fork-join domain pool for embarrassingly-parallel index loops.

    Workers are spawned lazily once and parked between joins, so a join
    after the first pays a mutex/signal handshake per helper rather
    than a [Domain.spawn] — small (sub-millisecond) workloads amortize.
    Nested joins and single-core machines degrade to inline sequential
    execution; a join can never deadlock.

    Deterministic by construction: for a fixed (n, domains, grain)
    triple the slices and the merge order are always the same, so
    floating-point reductions reproduce exactly. *)

(** Domains worth using on this machine: [recommended_domain_count () - 1]
    clamped to [1, 8]. Returns 1 on single-core machines (sequential
    fallback). *)
val default_domains : unit -> int

(** Contiguous half-open slices covering [0, n), at most [domains], all
    non-empty. *)
val slices : domains:int -> n:int -> (int * int) list

(** [map_slices ?domains ?grain n f] runs [f first last] per slice
    (slice 0 on the calling domain, the rest on pool workers) and
    returns results in slice order. [grain] (default 1) is the minimum
    indices per slice — joins smaller than [2 * grain] stay sequential.
    [f] must not mutate shared state. Exceptions from any slice are
    re-raised in the caller, earliest slice first. *)
val map_slices : ?domains:int -> ?grain:int -> int -> (int -> int -> 'a) -> 'a list

(** Parallel for over [0, n); per-index work must be independent. *)
val iter : ?domains:int -> ?grain:int -> int -> (int -> unit) -> unit

(** Per-slice accumulators folded with [body], merged left-to-right in
    slice order with [merge]. *)
val map_reduce :
  ?domains:int ->
  ?grain:int ->
  int ->
  init:(unit -> 'a) ->
  body:('a -> int -> 'a) ->
  merge:('a -> 'a -> 'a) ->
  'a

(** Element-wise sum of [partial] into [into]; returns [into]. *)
val sum_float_arrays : into:float array -> float array -> float array
