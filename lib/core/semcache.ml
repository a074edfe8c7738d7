(* Bounded drop-oldest association lists keyed by canonical key (shapes:
   by shape key), three of them per snapshot (held in the snapshot's
   memo, so they are collected with it).  Deliberately simple: entry
   counts are small (a repeated-query workload has few distinct
   canonical classes), so linear scans beat the bookkeeping of a real
   LRU here. *)

open Gqkg_graph

type stats = {
  plan_hits : int;
  plan_misses : int;
  result_hits : int;
  result_misses : int;
  shape_hits : int;
  shape_misses : int;
}

type shape = Atom.t array * Gqkg_analysis.Decide.canonical option

let plan_cap = 32
let result_cap = 128
let shape_cap = 64

(* A snapshot's cache is one list, newest first, replaced whole by
   compare-and-set, so a concurrent reader always scans a complete list. *)
type 'a cache = (string * 'a) list Atomic.t

let plans : Product.t cache Type.Id.t = Type.Id.make ()
let results : Answer.t cache Type.Id.t = Type.Id.make ()
let shapes : shape cache Type.Id.t = Type.Id.make ()
let cache s id = Snapshot.memo s id (fun _ -> Atomic.make [])

let plan_hits = Atomic.make 0
let plan_misses = Atomic.make 0
let result_hits = Atomic.make 0
let result_misses = Atomic.make 0
let shape_hits = Atomic.make 0
let shape_misses = Atomic.make 0

let stats () =
  {
    plan_hits = Atomic.get plan_hits;
    plan_misses = Atomic.get plan_misses;
    result_hits = Atomic.get result_hits;
    result_misses = Atomic.get result_misses;
    shape_hits = Atomic.get shape_hits;
    shape_misses = Atomic.get shape_misses;
  }

let reset () =
  List.iter
    (fun c -> Atomic.set c 0)
    [ plan_hits; plan_misses; result_hits; result_misses; shape_hits; shape_misses ]

let rec assoc key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc key rest

let rec take n = function [] -> [] | _ when n <= 0 -> [] | x :: rest -> x :: take (n - 1) rest

let find id hits misses s key =
  match assoc key (Atomic.get (cache s id)) with
  | Some v ->
      Atomic.incr hits;
      Some v
  | None ->
      Atomic.incr misses;
      None

let store id cap s key v =
  let entries = cache s id in
  let rec insert () =
    let seen = Atomic.get entries in
    if
      Option.is_none (assoc key seen)
      && not (Atomic.compare_and_set entries seen ((key, v) :: take (cap - 1) seen))
    then insert ()
  in
  insert ()

let find_product s ~key = find plans plan_hits plan_misses s key
let store_product s ~key p = store plans plan_cap s key p
let find_answer s ~key = find results result_hits result_misses s key
let store_answer s ~key a = store results result_cap s key a
let find_pairs s ~key = Option.map Answer.to_pairs (find_answer s ~key)
let find_shape s ~key = find shapes shape_hits shape_misses s key
let store_shape s ~key v = store shapes shape_cap s key v
