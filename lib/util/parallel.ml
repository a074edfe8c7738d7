(* Fork-join domain pool for the embarrassingly-parallel source loops
   (per-source Brandes passes, per-source bc_r DAG replays).  OCaml 5 domains are heavyweight — one system
   thread plus a minor heap each, and spawning costs hundreds of
   microseconds — so workers are spawned lazily ONCE and parked on a
   condition variable between joins.  A join that arrives after the
   first one pays a mutex/signal handshake per helper, not a spawn, so
   the pool amortizes even for sub-millisecond workloads.

   The API is deliberately deterministic: [map_slices] always splits
   [0, n) into the same contiguous slices for a given (n, domains, grain)
   triple and returns the per-slice results in slice order, so
   floating-point reductions merge in a fixed order and results are
   reproducible for a fixed domain count.

   Nested joins are safe by construction: a join acquires helpers from
   the shared free list, and when none are available (single core, or a
   join already running inside a worker) it simply runs every slice
   inline on the calling domain — no deadlock, no second-level spawn. *)

(* Leave one core for the rest of the process; cap at 8 — the source
   loops saturate memory bandwidth long before they run out of cores. *)
let default_domains () = min 8 (max 1 (Domain.recommended_domain_count () - 1))

(* ---- the worker pool --------------------------------------------------- *)

type worker = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;
}

(* Most helpers a single join can hold: [default_domains] is capped at 8
   and the caller runs one slice itself. *)
let max_workers = 7

let pool_lock = Mutex.create ()
let free : worker list ref = ref []
let live = ref 0

let worker_loop w =
  let rec loop () =
    Mutex.lock w.lock;
    while w.job = None do
      Condition.wait w.cond w.lock
    done;
    let job = Option.get w.job in
    w.job <- None;
    Mutex.unlock w.lock;
    (* The job closure is completion-signalled and exception-safe by the
       dispatcher; nothing escapes into the loop. *)
    job ();
    loop ()
  in
  loop ()

let spawn_worker () =
  let w = { lock = Mutex.create (); cond = Condition.create (); job = None } in
  ignore (Domain.spawn (fun () -> worker_loop w) : unit Domain.t);
  w

(* Pop up to [want] parked workers, spawning fresh ones while under the
   cap; returns possibly fewer (even none) when the pool is saturated —
   the caller then runs the unassigned slices inline. *)
let acquire want =
  if want <= 0 then []
  else begin
    Mutex.lock pool_lock;
    let got = ref [] and n = ref 0 in
    while !n < want && !free <> [] do
      (match !free with
      | w :: rest ->
          free := rest;
          got := w :: !got;
          incr n
      | [] -> ());
    done;
    while !n < want && !live < max_workers do
      got := spawn_worker () :: !got;
      incr live;
      incr n
    done;
    Mutex.unlock pool_lock;
    !got
  end

let release ws =
  if ws <> [] then begin
    Mutex.lock pool_lock;
    free := List.rev_append ws !free;
    Mutex.unlock pool_lock
  end

let dispatch w thunk =
  Mutex.lock w.lock;
  w.job <- Some thunk;
  Condition.signal w.cond;
  Mutex.unlock w.lock

(* ---- deterministic slicing -------------------------------------------- *)

(* Contiguous half-open slices [first, last) covering [0, n), at most
   [domains] of them, never empty. *)
let slices ~domains ~n =
  if n <= 0 then []
  else begin
    let domains = max 1 (min domains n) in
    let chunk = (n + domains - 1) / domains in
    List.init domains (fun i -> (i * chunk, min n ((i + 1) * chunk)))
    |> List.filter (fun (first, last) -> first < last)
  end

(* [map_slices ?domains ?grain n f] evaluates [f first last] on every
   slice and returns the results in slice order.  [grain] is the minimum
   indices per slice: a join over fewer than [2 * grain] indices stays
   sequential, so per-helper handshake overhead can never dominate a
   tiny workload.  Slice 0 runs on the calling domain while the others
   run on pool workers.  [f] must not mutate state shared between
   slices. *)
let map_slices ?domains ?(grain = 1) n f =
  let domains = match domains with Some d when d > 0 -> d | Some _ | None -> default_domains () in
  let domains = if grain > 1 then min domains (max 1 (n / grain)) else domains in
  match slices ~domains ~n with
  | [] -> []
  | [ (first, last) ] -> [ f first last ]
  | ss ->
      let k = List.length ss in
      let helpers = acquire (k - 1) in
      let h = List.length helpers in
      if h = 0 then List.map (fun (first, last) -> f first last) ss
      else begin
        (* Deal slices round-robin over the caller (executor 0) and the
           helpers; results land in slice order regardless of which
           executor ran them. *)
        let results = Array.make k None in
        let exec i (first, last) =
          results.(i) <-
            Some (match f first last with r -> Ok r | exception e -> Error e)
        in
        let latch_lock = Mutex.create () in
        let latch_cond = Condition.create () in
        let remaining = ref h in
        let indexed = List.mapi (fun i s -> (i, s)) ss in
        List.iteri
          (fun j w ->
            let mine = List.filter (fun (i, _) -> i mod (h + 1) = j + 1) indexed in
            dispatch w (fun () ->
                List.iter (fun (i, s) -> exec i s) mine;
                Mutex.lock latch_lock;
                decr remaining;
                if !remaining = 0 then Condition.signal latch_cond;
                Mutex.unlock latch_lock))
          helpers;
        List.iter (fun (i, s) -> if i mod (h + 1) = 0 then exec i s) indexed;
        Mutex.lock latch_lock;
        while !remaining > 0 do
          Condition.wait latch_cond latch_lock
        done;
        Mutex.unlock latch_lock;
        release helpers;
        Array.to_list results
        |> List.map (function
             | Some (Ok r) -> r
             | Some (Error e) -> raise e
             | None -> assert false)
      end

(* Sum float arrays produced per slice into the first one — the common
   merge for per-source centrality accumulators. *)
let sum_float_arrays ~into partial =
  Array.iteri (fun i x -> into.(i) <- into.(i) +. x) partial;
  into
