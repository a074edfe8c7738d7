(* In-memory trace of the replay: spans around calls into each layer,
   recorded from the benchmark's side of the call.  Each span carries
   the op it belongs to and its parent; nothing is written until the
   replay ends.  [probe] spans time a call made only to measure it (the
   same work is also done inside another layer's call), so they are kept
   out of the op's summed time. *)

module Mclock = Gqkg_util.Mclock

type span = {
  name : string;
  op : int;
  parent : int;  (** index of the enclosing span, -1 at the root *)
  probe : bool;
  start_ns : int64;
  mutable stop_ns : int64;
}

(* Off: [with_span] only calls its function. *)
let enabled = ref true

let recorded = ref []
let count = ref 0
let stack = ref []
let current_op = ref 0
let set_op op = current_op := op

let with_span ?(probe = false) name f =
  if not !enabled then f ()
  else
  let parent = match !stack with i :: _ -> i | [] -> -1 in
  let s = { name; op = !current_op; parent; probe; start_ns = Mclock.now_ns (); stop_ns = 0L } in
  let idx = !count in
  incr count;
  recorded := s :: !recorded;
  stack := idx :: !stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop_ns <- Mclock.now_ns ();
      stack := List.tl !stack)
    f

let duration_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Every span with its self time: its duration minus its children's. *)
let with_self () =
  let arr = Array.of_list (List.rev !recorded) in
  let self = Array.map duration_ns arr in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. duration_ns s)
    arr;
  Array.mapi (fun i s -> (s, self.(i))) arr
