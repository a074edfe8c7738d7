(* Bounded drop-oldest tables keyed by canonical key (shapes: by shape
   key, texts: by query text), four of them per snapshot (held in the
   snapshot's memo, so they are collected with it).  Deliberately
   simple: entry counts are small (a repeated-query workload has few
   distinct canonical classes), so a linear scan beats the bookkeeping
   of a real LRU here.  The scan reads an int array of key hashes and
   touches a key only where its hash matches: a miss, which every cold
   read makes in every table, then costs a hash and one pass over
   contiguous ints. *)

open Gqkg_graph

type stats = {
  plan_hits : int;
  plan_misses : int;
  result_hits : int;
  result_misses : int;
  shape_hits : int;
  shape_misses : int;
  text_hits : int;
  text_misses : int;
}

type shape = Atom.t array * Gqkg_analysis.Decide.canonical option

let plan_cap = 32
let result_cap = 128
let shape_cap = 64

(* Several texts can share one canonical key, so texts get more room
   than results. *)
let text_cap = 256

(* A snapshot's cache is three parallel arrays, newest first, replaced
   whole by compare-and-set, so a concurrent reader always scans a
   complete cache. *)
type 'a entries = { hashes : int array; keys : string array; values : 'a array }
type 'a cache = 'a entries Atomic.t

let plans : Product.t cache Type.Id.t = Type.Id.make ()
let results : Answer.t cache Type.Id.t = Type.Id.make ()
let shapes : shape cache Type.Id.t = Type.Id.make ()
let texts : string cache Type.Id.t = Type.Id.make ()
let cache s id =
  Snapshot.memo s id (fun _ -> Atomic.make { hashes = [||]; keys = [||]; values = [||] })

let plan_hits = Atomic.make 0
let plan_misses = Atomic.make 0
let result_hits = Atomic.make 0
let result_misses = Atomic.make 0
let shape_hits = Atomic.make 0
let shape_misses = Atomic.make 0
let text_hits = Atomic.make 0
let text_misses = Atomic.make 0

let stats () =
  {
    plan_hits = Atomic.get plan_hits;
    plan_misses = Atomic.get plan_misses;
    result_hits = Atomic.get result_hits;
    result_misses = Atomic.get result_misses;
    shape_hits = Atomic.get shape_hits;
    shape_misses = Atomic.get shape_misses;
    text_hits = Atomic.get text_hits;
    text_misses = Atomic.get text_misses;
  }

let reset () =
  List.iter
    (fun c -> Atomic.set c 0)
    [
      plan_hits;
      plan_misses;
      result_hits;
      result_misses;
      shape_hits;
      shape_misses;
      text_hits;
      text_misses;
    ]

(* The position of [key] (of hash [h]) in [e], or -1. *)
let index e h key =
  let rec go i =
    if i = Array.length e.hashes then -1
    else if e.hashes.(i) = h && String.equal e.keys.(i) key then i
    else go (i + 1)
  in
  go 0

let find id hits misses s key =
  let e = Atomic.get (cache s id) in
  match index e (Hashtbl.hash key) key with
  | -1 ->
      Atomic.incr misses;
      None
  | i ->
      Atomic.incr hits;
      Some e.values.(i)

let store id cap s key v =
  let entries = cache s id and h = Hashtbl.hash key in
  let rec insert () =
    let seen = Atomic.get entries in
    let n = min cap (Array.length seen.hashes + 1) in
    let push x xs =
      let a = Array.make n x in
      Array.blit xs 0 a 1 (n - 1);
      a
    in
    if
      index seen h key = -1
      && not
           (Atomic.compare_and_set entries seen
              { hashes = push h seen.hashes; keys = push key seen.keys; values = push v seen.values })
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
let find_text s ~key = find texts text_hits text_misses s key
let store_text s ~key v = store texts text_cap s key v
