module Mclock = Gqkg_util.Mclock

(* Latencies go into a fixed ring: percentiles are computed over the
   last [reservoir_size] requests, which is what an operator wants from
   /metrics anyway (recent behavior, not a lifetime average). *)
let reservoir_size = 4096

type t = {
  started_ns : int64;
  requests : int Atomic.t;
  responses : int Atomic.t;
  shed : int Atomic.t;
  malformed : int Atomic.t;
  trips : int Atomic.t;
  rejected_clients : int Atomic.t;
  idle_closes : int Atomic.t;
  injected_drops : int Atomic.t;
  lat_lock : Mutex.t;
  lats : float array;
  mutable lat_count : int;  (** total observations ever *)
}

let create () =
  {
    started_ns = Mclock.now_ns ();
    requests = Atomic.make 0;
    responses = Atomic.make 0;
    shed = Atomic.make 0;
    malformed = Atomic.make 0;
    trips = Atomic.make 0;
    rejected_clients = Atomic.make 0;
    idle_closes = Atomic.make 0;
    injected_drops = Atomic.make 0;
    lat_lock = Mutex.create ();
    lats = Array.make reservoir_size 0.0;
    lat_count = 0;
  }

let incr_requests t = Atomic.incr t.requests
let incr_responses t = Atomic.incr t.responses
let incr_shed t = Atomic.incr t.shed
let incr_malformed t = Atomic.incr t.malformed
let incr_trips t = Atomic.incr t.trips
let incr_rejected_clients t = Atomic.incr t.rejected_clients
let incr_idle_closes t = Atomic.incr t.idle_closes
let incr_injected_drops t = Atomic.incr t.injected_drops

let observe_latency_ms t ms =
  Mutex.lock t.lat_lock;
  t.lats.(t.lat_count mod reservoir_size) <- ms;
  t.lat_count <- t.lat_count + 1;
  Mutex.unlock t.lat_lock

(* Percentile by nearest-rank over a sorted copy of the filled part of
   the ring; 0.0 when nothing has been observed yet. *)
let percentiles t ps =
  Mutex.lock t.lat_lock;
  let filled = min t.lat_count reservoir_size in
  let copy = Array.sub t.lats 0 filled in
  Mutex.unlock t.lat_lock;
  if filled = 0 then List.map (fun _ -> 0.0) ps
  else begin
    Array.sort compare copy;
    List.map
      (fun p ->
        let rank =
          min (filled - 1) (int_of_float (Float.of_int filled *. p /. 100.))
        in
        copy.(rank))
      ps
  end

let to_json t ~queue_depth ~queue_peak ~clients ~workers ~epoch ~live_epochs
    ~pins ~(cache : Gqkg_core.Semcache.stats) =
  let num n = Jsonx.Num (float_of_int n) in
  let cache_hits = cache.result_hits in
  let cache_lookups = cache.result_hits + cache.result_misses in
  let uptime_ms = Mclock.ns_to_ms (Int64.sub (Mclock.now_ns ()) t.started_ns) in
  let responses = Atomic.get t.responses in
  let qps =
    if uptime_ms <= 0.0 then 0.0 else float_of_int responses /. (uptime_ms /. 1000.)
  in
  let p50, p99 =
    match percentiles t [ 50.0; 99.0 ] with
    | [ a; b ] -> (a, b)
    | _ -> (0.0, 0.0)
  in
  let requests = Atomic.get t.requests in
  let trip_rate =
    if responses = 0 then 0.0
    else float_of_int (Atomic.get t.trips) /. float_of_int responses
  in
  Jsonx.Obj
    [
      ("ok", Jsonx.Bool true);
      ("op", Jsonx.Str "metrics");
      ("uptime_ms", Jsonx.Num uptime_ms);
      ("qps", Jsonx.Num qps);
      ("p50_ms", Jsonx.Num p50);
      ("p99_ms", Jsonx.Num p99);
      ("requests", Jsonx.Num (float_of_int requests));
      ("responses", Jsonx.Num (float_of_int responses));
      ("queue_depth", Jsonx.Num (float_of_int queue_depth));
      ("queue_peak", Jsonx.Num (float_of_int queue_peak));
      ("shed", Jsonx.Num (float_of_int (Atomic.get t.shed)));
      ("malformed", Jsonx.Num (float_of_int (Atomic.get t.malformed)));
      ("budget_trips", Jsonx.Num (float_of_int (Atomic.get t.trips)));
      ("budget_trip_rate", Jsonx.Num trip_rate);
      ("rejected_clients", Jsonx.Num (float_of_int (Atomic.get t.rejected_clients)));
      ("idle_closes", Jsonx.Num (float_of_int (Atomic.get t.idle_closes)));
      ("injected_drops", Jsonx.Num (float_of_int (Atomic.get t.injected_drops)));
      ("clients", Jsonx.Num (float_of_int clients));
      ("workers", Jsonx.Num (float_of_int workers));
      ("epoch", Jsonx.Num (float_of_int epoch));
      ("live_epochs", Jsonx.Num (float_of_int live_epochs));
      ("pinned", Jsonx.Num (float_of_int pins));
      ( "cache",
        Jsonx.Obj
          [
            ("hits", Jsonx.Num (float_of_int cache_hits));
            ("lookups", Jsonx.Num (float_of_int cache_lookups));
            ( "hit_rate",
              Jsonx.Num
                (if cache_lookups = 0 then 0.0
                 else float_of_int cache_hits /. float_of_int cache_lookups) );
            ("plan_hits", num cache.plan_hits);
            ("plan_lookups", num (cache.plan_hits + cache.plan_misses));
            ("shape_hits", num cache.shape_hits);
            ("shape_lookups", num (cache.shape_hits + cache.shape_misses));
          ] );
    ]
